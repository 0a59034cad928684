import json
import os
import stat
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.ndimage import uniform_filter, uniform_filter1d

import zsvr
from zsvr import cli, mediaio, pipeline
from zsvr.cli import degrade_video, demo_config, main, make_demo_video

from reference import per_frame_baseline


def _write_video(tmp_path, n=4, h=16, w=16, seed=0):
    hq = make_demo_video(n=n, h=h, w=w, seed=seed)
    lq = degrade_video(hq, 2, 0.05, seed)
    in_dir = tmp_path / "in"
    mediaio.write_frames(lq, str(in_dir))
    return in_dir, hq, lq


def _write_config(tmp_path, text):
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    return path


SMALL_CFG = "steps = 4\nbatch_size = 3\nlatent_scale = 2\n"


def test_usage_error_exit_code_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["restore", "--bogus"])
    assert exc.value.code == 2


def _fail_if_called(*args, **kwargs):
    raise AssertionError("the command ran before its arguments were checked")


@pytest.mark.parametrize(
    "cmd, flag, value",
    [
        ("flow", "--block", "0"),
        ("flow", "--search", "-1"),
        ("restore", "--seed", "-5"),
        ("ablate", "--seed", "-1"),
        ("demo", "--seed", "-1"),
        ("demo", "--frames", "0"),
        ("demo", "--frames", str(cli.MAX_DEMO_FRAMES + 1)),
    ],
)
def test_bad_argument_value_is_usage_error(tmp_path, monkeypatch, capsys, cmd, flag, value):
    in_dir, _, _ = _write_video(tmp_path, n=1)
    cfg = _write_config(tmp_path, SMALL_CFG)
    monkeypatch.setattr(cli.mediaio, "read_frames", _fail_if_called)
    monkeypatch.setattr(cli, "make_demo_video", _fail_if_called)
    out = tmp_path / "out"
    args = {
        "flow": ["--in", str(in_dir)],
        "restore": ["--in", str(in_dir), "--config", str(cfg)],
        "ablate": ["--in", str(in_dir), "--config", str(cfg)],
        "demo": [],
    }[cmd]
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--out", str(out), *args, flag, value])
    assert exc.value.code == 2
    bound = "<=" if int(value) > 0 else ">="
    assert f"argument {flag}: must be {bound}" in capsys.readouterr().err
    assert not out.exists()


def test_demo_frames_bounds_are_inclusive():
    parse = cli.build_parser().parse_args
    for n in (1, cli.MAX_DEMO_FRAMES):
        assert parse(["demo", "--out", "o", "--frames", str(n)]).frames == n


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_one_frame_metrics_are_null(tmp_path):
    in_dir, hq, _ = _write_video(tmp_path, n=1)
    ref_dir = tmp_path / "ref"
    mediaio.write_frames(hq, str(ref_dir))
    cfg = _write_config(tmp_path, SMALL_CFG)
    rep_file, table_file, demo_dir = tmp_path / "rep.json", tmp_path / "t.json", tmp_path / "d"
    assert main(["metrics", "--in", str(in_dir), "--ref", str(ref_dir),
                 "--out", str(rep_file)]) == 0
    assert main(["ablate", "--in", str(in_dir), "--out", str(table_file),
                 "--config", str(cfg)]) == 0
    assert main(["demo", "--out", str(demo_dir), "--frames", "1"]) == 0
    demo = json.loads((demo_dir / "report.json").read_text())
    for rep in (json.loads(rep_file.read_text()), demo["ours"], demo["baseline"]):
        assert len(rep["psnr"]["per_frame"]) == 1
        assert rep["e_warp"] == {"per_pair": [], "mean": None, "mean_x1000": None}
        assert rep["e_inter"] == {"per_triple": [], "mean": None}
    table = json.loads(table_file.read_text())
    rows = [row for group in ("correspondence", "stages") for row in table[group].values()]
    assert len(rows) == 10
    for row in rows:
        assert row == {"e_warp_mean": None, "e_warp_mean_x1000": None, "e_inter_mean": None}


def test_runtime_failure_exit_code_1(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_CFG)
    rc = main(
        ["restore", "--in", str(tmp_path / "missing"), "--out", str(tmp_path / "o"),
         "--config", str(cfg)]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bad_config_key_is_runtime_error(tmp_path, capsys):
    in_dir, _, _ = _write_video(tmp_path)
    cfg = _write_config(tmp_path, "bogus_key = 1\n")
    rc = main(
        ["restore", "--in", str(in_dir), "--out", str(tmp_path / "o"),
         "--config", str(cfg)]
    )
    assert rc == 1


def test_flow_command_outputs(tmp_path):
    in_dir, _, _ = _write_video(tmp_path, n=3)
    out_dir = tmp_path / "flows"
    rc = main(["flow", "--in", str(in_dir), "--out", str(out_dir),
               "--block", "5", "--search", "2"])
    assert rc == 0
    names = sorted(os.listdir(out_dir))
    assert names == ["conf_0000.rtf", "conf_0001.rtf", "flow_0000.flo", "flow_0001.flo"]
    fl = mediaio.read_flo(str(out_dir / "flow_0000.flo"))
    assert fl.shape == (16, 16, 2)
    conf = mediaio.read_raw_tensor(str(out_dir / "conf_0000.rtf"))
    assert conf.shape == (16, 16)
    assert conf.min() > 0.0 and conf.max() <= 1.0


def test_flow_command_writes_each_pair_from_its_own_bank(tmp_path, monkeypatch):
    # each pair's files are written from a bank of its own, which holds
    # that pair alone, each flow is estimated once, and a run that reads
    # every pair from one bank writes the same bytes
    n = 5
    in_dir, _, _ = _write_video(tmp_path, n=n)
    args = ["flow", "--in", str(in_dir), "--block", "5", "--search", "2", "--out"]
    make_bank, estimate = pipeline.FlowBank, pipeline.flowmod.estimate_flow
    shared = []

    def one_bank(*a):
        if not shared:
            shared.append(make_bank(*a))
        return shared[0]

    one = tmp_path / "one"
    with monkeypatch.context() as mp:
        mp.setattr(pipeline, "FlowBank", one_bank)
        assert main(args + [str(one)]) == 0
    assert len(shared[0].flow) == 2 * (n - 1)
    banks, held, calls = [], [], []
    write_flo, write_raw_tensor = mediaio.write_flo, mediaio.write_raw_tensor

    def bank(*a):
        banks.append(make_bank(*a))
        return banks[-1]

    def holding(write):
        def spy(arr, path):
            held.append((len(banks), sorted(banks[-1].flow), sorted(banks[-1].conf)))
            write(arr, path)
        return spy

    monkeypatch.setattr(pipeline, "FlowBank", bank)
    monkeypatch.setattr(pipeline.flowmod, "estimate_flow", lambda *a: calls.append(1) or estimate(*a))
    monkeypatch.setattr(mediaio, "write_flo", holding(write_flo))
    monkeypatch.setattr(mediaio, "write_raw_tensor", holding(write_raw_tensor))
    assert main(args + [str(tmp_path / "flows")]) == 0
    assert len(calls) == 2 * (n - 1)
    # pair t is written from bank t + 1: the .flo write holds its flow, the
    # .rtf write its confidence and the two flows that confidence reads
    assert held == [
        entry
        for t in range(n - 1)
        for entry in ((t + 1, [(t + 1, t)], []), (t + 1, [(t, t + 1), (t + 1, t)], [(t + 1, t)]))
    ]
    assert _tree(tmp_path / "flows") == _tree(one)


def test_flow_failure_leaves_out_untouched(tmp_path, monkeypatch, capsys):
    in_dir, _, _ = _write_video(tmp_path, n=3)
    out = tmp_path / "flows"
    args = ["flow", "--in", str(in_dir), "--out", str(out), "--block", "5", "--search", "2"]
    write_flo = mediaio.write_flo
    calls = []

    def failing_on_second(arr, path):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        write_flo(arr, path)

    monkeypatch.setattr(cli.mediaio, "write_flo", failing_on_second)
    assert main(args) == 1
    assert "disk full" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["in"]
    monkeypatch.undo()
    assert main(args) == 0
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    calls.clear()
    monkeypatch.setattr(cli.mediaio, "write_flo", failing_on_second)
    assert main(args) == 1
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
    assert sorted(os.listdir(tmp_path)) == ["flows", "in"]


def test_flow_refuses_oversized_block_before_matching(tmp_path, monkeypatch, capsys):
    # block 100000 on 16x16 frames would ask for about 10**10 values a plane
    in_dir, _, _ = _write_video(tmp_path, n=2)
    monkeypatch.setattr(cli.flowmod, "_match", _fail_if_called)
    out = tmp_path / "flows"
    assert main(["flow", "--in", str(in_dir), "--out", str(out), "--block", "100000"]) == 1
    assert "error: block 100000 and search 4 on 16x16 frames need planes of" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["in"]


def test_flow_refuses_out_dir_with_user_files(tmp_path, capsys):
    in_dir, _, _ = _write_video(tmp_path, n=3)
    out = tmp_path / "flows"
    args = ["flow", "--in", str(in_dir), "--out", str(out), "--block", "5", "--search", "2"]
    assert main(args) == 0
    assert main(args) == 0  # its own outputs are replaced
    for user_path in (out / "notes.txt", out / "frame_0000.ppm", out / "latents"):
        user_path.write_text("keep me")
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert main(args) == 1
        err = capsys.readouterr().err
        assert user_path.name in err and "refusing to replace" in err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert sorted(os.listdir(tmp_path)) == ["flows", "in"]
        user_path.unlink()


def test_restore_command_and_determinism(tmp_path):
    in_dir, _, _ = _write_video(tmp_path)
    cfg = _write_config(tmp_path, SMALL_CFG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["restore", "--in", str(in_dir), "--out", str(out1),
                 "--config", str(cfg), "--seed", "5"]) == 0
    assert main(["restore", "--in", str(in_dir), "--out", str(out2),
                 "--config", str(cfg), "--seed", "5"]) == 0
    for name in sorted(os.listdir(out1)):
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, name


def test_restore_no_flags_match_baseline(tmp_path):
    in_dir, _, lq = _write_video(tmp_path)
    cfg_file = _write_config(tmp_path, SMALL_CFG)
    out = tmp_path / "o"
    assert main(["restore", "--in", str(in_dir), "--out", str(out),
                 "--config", str(cfg_file), "--no-hlw", "--no-tome"]) == 0
    got = mediaio.read_frames(str(out))
    cfg = pipeline.parse_config(SMALL_CFG)
    # compare against the per-frame baseline on the same decoded input
    decoded = mediaio.read_frames(str(in_dir))
    want = per_frame_baseline(decoded, cfg)
    for a, b in zip(got.frames, want.frames):
        assert np.abs(mediaio.float_frame(a) - b).max() <= 1.0 / 510.0 + 1e-12


def test_restore_dump_latents(tmp_path):
    in_dir, _, _ = _write_video(tmp_path)
    cfg = _write_config(tmp_path, SMALL_CFG)
    out = tmp_path / "o"
    assert main(["restore", "--in", str(in_dir), "--out", str(out),
                 "--config", str(cfg), "--dump-latents"]) == 0
    # the sampler's final latents, not the re-encoded output frames
    decoded = mediaio.read_frames(str(in_dir))
    want = pipeline.restore_latents(decoded, pipeline.parse_config(SMALL_CFG))
    assert want.shape == (4, 8, 8, 3)
    assert sorted(os.listdir(out / "latents")) == [f"latent_{f:04d}.rtf" for f in range(4)]
    for f in range(4):
        lat = mediaio.read_raw_tensor(str(out / "latents" / f"latent_{f:04d}.rtf"))
        assert np.array_equal(lat, want[f].astype(np.float32))
    # and the frames are those latents decoded
    got = mediaio.read_frames(str(out))
    restored = pipeline.restore(decoded, pipeline.parse_config(SMALL_CFG))
    for a, b in zip(got.frames, restored.frames):
        assert np.abs(mediaio.float_frame(a) - b).max() <= 1.0 / 510.0 + 1e-12


def test_restore_dump_latents_failure_leaves_out_untouched(tmp_path, monkeypatch, capsys):
    in_dir, _, _ = _write_video(tmp_path)
    cfg = _write_config(tmp_path, SMALL_CFG)
    out = tmp_path / "o"
    args = ["restore", "--in", str(in_dir), "--out", str(out), "--config", str(cfg)]

    def failing_write(arr, path):
        raise OSError("disk full")

    monkeypatch.setattr(cli.mediaio, "write_raw_tensor", failing_write)
    assert main(args + ["--dump-latents"]) == 1
    assert "disk full" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["cfg.txt", "in"]
    monkeypatch.undo()
    assert main(args) == 0
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    monkeypatch.setattr(cli.mediaio, "write_raw_tensor", failing_write)
    assert main(args + ["--dump-latents"]) == 1
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
    assert sorted(os.listdir(tmp_path)) == ["cfg.txt", "in", "o"]


def test_restore_streams_and_a_later_batch_failure_leaves_nothing(tmp_path, monkeypatch, capsys):
    # 4 frames in batches of 3 and 1: batch 1 is on disk before batch 2 runs
    in_dir, _, _ = _write_video(tmp_path)
    cfg = _write_config(tmp_path, SMALL_CFG)
    out = tmp_path / "o"
    args = ["restore", "--in", str(in_dir), "--out", str(out), "--config", str(cfg), "--dump-latents"]
    restore_iter = pipeline.restore_iter
    seen = []

    def failing_in_batch_2(seq, config, bank=None):
        batches = restore_iter(seq, config, bank)
        yield next(batches)
        next(batches)
        (tmp,) = {p for p in tmp_path.iterdir() if p.name not in ("cfg.txt", "in", "o")}
        seen.append(_tree(tmp))
        raise RuntimeError("batch 2 failed")

    monkeypatch.setattr(cli.pipeline, "restore_iter", failing_in_batch_2)
    assert main(args) == 1
    assert "batch 2 failed" in capsys.readouterr().err
    assert sorted(seen[0]) == [f"frame_{f:04d}.ppm" for f in range(3)] + [
        f"latents/latent_{f:04d}.rtf" for f in range(3)
    ]
    assert sorted(os.listdir(tmp_path)) == ["cfg.txt", "in"]
    # an earlier output stays as it was; the streamed batch-1 files are its prefix
    monkeypatch.undo()
    assert main(args) == 0
    before = _tree(tmp_path)
    assert all(before[f"o/{name}"] == data for name, data in seen[0].items())
    monkeypatch.setattr(cli.pipeline, "restore_iter", failing_in_batch_2)
    assert main(args) == 1
    assert _tree(tmp_path) == before
    assert sorted(os.listdir(tmp_path)) == ["cfg.txt", "in", "o"]


def test_metrics_command_with_ref(tmp_path):
    in_dir, hq, _ = _write_video(tmp_path)
    ref_dir = tmp_path / "ref"
    mediaio.write_frames(hq, str(ref_dir))
    out_file = tmp_path / "report.json"
    assert main(["metrics", "--in", str(in_dir), "--ref", str(ref_dir),
                 "--out", str(out_file)]) == 0
    rep = json.loads(out_file.read_text())
    assert len(rep["psnr"]["per_frame"]) == 4
    assert len(rep["e_warp"]["per_pair"]) == 3
    assert len(rep["e_inter"]["per_triple"]) == 2


@pytest.mark.parametrize("n, size", [(3, 16), (4, 32)])
def test_metrics_ref_mismatch_fails_before_any_flow(tmp_path, monkeypatch, capsys, n, size):
    in_dir, _, _ = _write_video(tmp_path)
    ref_dir = tmp_path / "ref"
    mediaio.write_frames(make_demo_video(n=n, h=size, w=size, seed=0), str(ref_dir))

    def refuse(*args, **kwargs):
        raise AssertionError("flow estimated before --ref was checked")

    monkeypatch.setattr(pipeline.flowmod, "estimate_flow", refuse)
    out_file = tmp_path / "report.json"
    assert main(["metrics", "--in", str(in_dir), "--ref", str(ref_dir),
                 "--out", str(out_file)]) == 1
    err = capsys.readouterr().err
    assert f"error: --ref has {n} frames of ({size}, {size}, 3)" in err
    assert "--in 4 frames of (16, 16, 3)" in err
    assert not out_file.exists()


def test_metrics_command_without_ref(tmp_path):
    in_dir, _, _ = _write_video(tmp_path)
    out_file = tmp_path / "report.json"
    assert main(["metrics", "--in", str(in_dir), "--out", str(out_file)]) == 0
    rep = json.loads(out_file.read_text())
    assert rep["psnr"]["per_frame"] == []
    assert rep["psnr"]["mean"] is None


def test_no_partial_output_on_failure(tmp_path):
    in_dir, _, _ = _write_video(tmp_path)
    # steps over the schedule length fails validation after parsing
    cfg = _write_config(tmp_path, "steps = 999\n")
    out = tmp_path / "o"
    assert main(["restore", "--in", str(in_dir), "--out", str(out),
                 "--config", str(cfg)]) == 1
    assert not out.exists()


def test_restore_refuses_out_dir_with_user_files(tmp_path, capsys):
    in_dir, _, _ = _write_video(tmp_path)
    cfg = _write_config(tmp_path, SMALL_CFG)
    out = tmp_path / "o"
    args = ["restore", "--in", str(in_dir), "--out", str(out), "--config", str(cfg)]
    # its own outputs, latents included, are replaced
    assert main(args + ["--dump-latents"]) == 0
    assert main(args + ["--dump-latents"]) == 0
    for user_file in (out / "notes.txt", out / "latents" / "notes.txt"):
        user_file.write_text("keep me")
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert main(args) == 1
        assert "error:" in capsys.readouterr().err
        with pytest.raises(ValueError, match="notes.txt"):
            cli._write_atomic(str(out), cli.RESTORE_OUTPUTS, lambda tmp: None)
        # nothing deleted, changed or left behind
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        user_file.unlink()


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_restore_refuses_its_input_as_out(tmp_path, monkeypatch, capsys):
    # a frame directory holds only frame_*.ppm, which restore writes, so
    # _check_replaceable alone would let restore replace its own input
    in_dir, _, _ = _write_video(tmp_path)
    cfg = _write_config(tmp_path, SMALL_CFG)
    link = tmp_path / "link"
    link.symlink_to(in_dir)
    before = _tree(in_dir)
    monkeypatch.setattr(cli.mediaio, "read_frames", mock.Mock(side_effect=AssertionError("read")))
    for out in (in_dir, f"{in_dir}/", link):
        assert main(["restore", "--in", str(in_dir), "--out", str(out), "--config", str(cfg)]) == 1
        assert f"--out {out} is the --in directory" in capsys.readouterr().err
    assert _tree(in_dir) == before
    assert sorted(os.listdir(tmp_path)) == ["cfg.txt", "in", "link"]


DEMO_ARGS = ["demo", "--frames", "3", "--seed", "2", "--out"]


def test_demo_failure_leaves_out_untouched(tmp_path, monkeypatch, capsys):
    out = tmp_path / "demo"
    write_frames = mediaio.write_frames
    calls = []

    def failing_on_third(seq, path):  # after hq/ and lq/ are written
        calls.append(path)
        if len(calls) == 3:
            raise OSError("disk full")
        write_frames(seq, path)

    monkeypatch.setattr(cli.mediaio, "write_frames", failing_on_third)
    assert main(DEMO_ARGS + [str(out)]) == 1
    assert "disk full" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
    monkeypatch.undo()
    assert main(DEMO_ARGS + [str(out)]) == 0
    before = _tree(tmp_path)
    calls.clear()
    monkeypatch.setattr(cli.mediaio, "write_frames", failing_on_third)
    assert main(DEMO_ARGS + [str(out)]) == 1
    assert _tree(tmp_path) == before
    assert os.listdir(tmp_path) == ["demo"]


def test_demo_refuses_out_dir_with_user_files(tmp_path, monkeypatch, capsys):
    out = tmp_path / "demo"
    (out / "hq").mkdir(parents=True)

    def no_compute(*args, **kwargs):
        raise AssertionError("computed before refusing --out")

    monkeypatch.setattr(cli, "make_demo_video", no_compute)
    for user_file in (out / "notes.txt", out / "hq" / "notes.txt", out / "frame_0000.ppm"):
        user_file.write_text("keep me")
        assert main(DEMO_ARGS + [str(out)]) == 1
        err = capsys.readouterr().err
        assert user_file.name in err and "refusing to replace" in err
        assert _tree(tmp_path) == {str(user_file.relative_to(tmp_path)): b"keep me"}
        user_file.unlink()


def test_demo_byte_identical_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(DEMO_ARGS + [str(a)]) == 0
    first = _tree(a)
    assert sorted(first) == sorted(
        [f"{d}/frame_{i:04d}.ppm" for d in cli.DEMO_VIDEOS for i in range(3)] + ["report.json"]
    )
    assert main(DEMO_ARGS + [str(a)]) == 0  # its own outputs are replaced
    assert main(DEMO_ARGS + [str(b)]) == 0
    assert _tree(a) == first and _tree(b) == first



def test_restore_of_demo_lq_reproduces_ours_and_baseline(tmp_path):
    # the demo restores its LQ frames as lq/ stores them, in 8 bits, so
    # restoring lq/ with the demo's config writes the same bytes
    demo = tmp_path / "demo"
    assert main(["demo", "--frames", "8", "--seed", "0", "--out", str(demo)]) == 0
    text = "steps = 10\nbatch_size = 8\nlatent_scale = 4\nseed = 0\n"
    assert pipeline.parse_config(text) == demo_config(0)
    cfg = _write_config(tmp_path, text)
    for name, flags in (("ours", []), ("baseline", ["--no-hlw", "--no-tome"])):
        out = tmp_path / name
        args = ["restore", "--in", str(demo / "lq"), "--out", str(out), "--config", str(cfg)]
        assert main(args + flags) == 0
        assert _tree(out) == _tree(demo / name)


def test_demo_estimates_each_flow_once(tmp_path, monkeypatch):
    # ours and both scores read one LQ bank: each flow the demo reads is
    # estimated once, and scoring each output from fresh LQ frames writes
    # the same bytes
    estimate = pipeline.flowmod.estimate_flow
    inputs = []

    def counted(src, dst, block, search):
        inputs.append((src.tobytes(), dst.tobytes()))
        return estimate(src, dst, block, search)

    args = ["demo", "--frames", "6", "--seed", "0", "--out"]
    with monkeypatch.context() as mp:
        mp.setattr(pipeline.flowmod, "estimate_flow", counted)
        assert main(args + [str(tmp_path / "shared")]) == 0
    plan = pipeline.plan_batches(6, demo_config(0).batch_size, 0)
    read = pipeline._needed_pairs(plan, True) | {(t, t - d) for t in range(6) for d in (1, 2) if t >= d}
    assert len(inputs) == len(set(inputs)) == len(read | {(j, i) for i, j in read}) == 24

    report_for = cli._report_for
    monkeypatch.setattr(
        cli, "_report_for",
        lambda seq, cfg, ref, meta, flow_source: report_for(seq, cfg, ref, meta, flow_source.seq),
    )
    assert main(args + [str(tmp_path / "fresh")]) == 0
    assert _tree(tmp_path / "shared") == _tree(tmp_path / "fresh")

def test_every_command_estimates_its_flows_on_uint8_pairs(tmp_path, monkeypatch):
    # frames read from disk and the demo's LQ frames are uint8, so every flow
    # a command reads takes estimate_flow's exact integer path
    in_dir, hq, _ = _write_video(tmp_path)
    ref_dir = tmp_path / "ref"
    mediaio.write_frames(hq, str(ref_dir))
    cfg = str(_write_config(tmp_path, SMALL_CFG))
    estimate = pipeline.flowmod.estimate_flow
    dtypes = []

    def spy(src, dst, block, search):
        dtypes.append((src.dtype, dst.dtype))
        return estimate(src, dst, block, search)

    monkeypatch.setattr(pipeline.flowmod, "estimate_flow", spy)
    i, o = ["--in", str(in_dir)], lambda name: ["--out", str(tmp_path / name)]
    commands = {
        "demo": DEMO_ARGS + [str(tmp_path / "demo")],
        "flow": ["flow", *i, *o("flows")],
        "restore": ["restore", *i, "--config", cfg, *o("restored")],
        "ablate": ["ablate", *i, "--config", cfg, *o("ablate.json")],
        "metrics": ["metrics", *i, *o("m.json")],
        "metrics --ref": ["metrics", *i, "--ref", str(ref_dir), *o("m_ref.json")],
    }
    for name, args in commands.items():
        dtypes.clear()
        assert main(args) == 0, name
        assert dtypes and set(dtypes) == {(np.dtype(np.uint8),) * 2}, name


def test_make_demo_video_properties():
    seq = make_demo_video(n=6, h=32, w=32, seed=1)
    assert len(seq) == 6
    assert seq.shape == (32, 32, 3)
    again = make_demo_video(n=6, h=32, w=32, seed=1)
    for a, b in zip(seq.frames, again.frames):
        assert np.array_equal(a, b)
    # frames actually move
    assert np.abs(seq.frames[0] - seq.frames[3]).max() > 0.05


def test_degrade_video_properties():
    # uint8 frames, as an 8-bit source holds them, whose values differ
    # visibly from the HQ frames
    hq = make_demo_video(n=3, h=16, w=16, seed=0)
    lq = degrade_video(hq, 2, 0.1, seed=0)
    assert lq.shape == hq.shape and all(f.dtype == np.uint8 for f in lq.frames)
    assert np.abs(hq.frames[0] - mediaio.float_frame(lq.frames[0])).mean() > 0.01


def _make_demo_video_scipy(n, h, w, seed):
    """The former make_demo_video, smoothing with scipy.ndimage.uniform_filter."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD0]))
    margin = n + 4
    texture = rng.random((h + margin, w + margin, 3))
    for _ in range(3):
        texture = uniform_filter(texture, size=(5, 5, 1), mode="wrap")
    texture = (texture - texture.min()) / (texture.max() - texture.min())
    ys, xs = np.mgrid[0:h, 0:w]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rad = np.hypot(ys - cy, xs - cx)
    ang = np.arctan2(ys - cy, xs - cx)
    disk = rad < min(h, w) / 5.0
    frames = []
    for t in range(n):
        frame = texture[t : t + h, t : t + w].copy()
        spin = 0.5 + 0.5 * np.cos(3.0 * ang - 0.35 * t)
        for c in range(3):
            ch = frame[:, :, c]
            ch[disk] = 0.25 + 0.5 * spin[disk]
        frames.append(np.clip(frame, 0.0, 1.0))
    return frames


@pytest.mark.parametrize("n,h,w,seed", [(24, 64, 64, 0), (3, 16, 16, 2), (5, 17, 9, 3), (1, 8, 8, 1)])
def test_make_demo_video_equals_scipy_formula(n, h, w, seed):
    got = make_demo_video(n=n, h=h, w=w, seed=seed).frames
    want = _make_demo_video_scipy(n, h, w, seed)
    assert all(np.array_equal(a, b) for a, b in zip(got, want)) and len(got) == len(want)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(1, 3)),
               elements=st.floats(-1.0, 1.0)),
    st.integers(0, 1),
)
def test_box5_wrap_matches_scipy_uniform_filter1d(a, axis):
    assert np.array_equal(cli._box5_wrap(a, axis), uniform_filter1d(a, 5, axis=axis, mode="wrap"))


def test_make_demo_video_does_not_import_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(zsvr.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = "import sys, zsvr.cli as cli; cli.make_demo_video(); print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.fixture(params=[(0o022, 0o755, 0o644), (0o077, 0o700, 0o600)], ids=["umask022", "umask077"])
def umask_modes(request):
    mask, dir_mode, file_mode = request.param
    old = os.umask(mask)
    try:
        yield dir_mode, file_mode
    finally:
        os.umask(old)


def _modes(root):
    """Permission bits of root and of everything under it, by relative path."""
    paths = [root] + sorted(root.rglob("*")) if root.is_dir() else [root]
    return {str(p.relative_to(root)): (p.is_dir(), stat.S_IMODE(p.stat().st_mode)) for p in paths}


def test_outputs_follow_umask(tmp_path, umask_modes):
    dir_mode, file_mode = umask_modes
    in_dir, hq, _ = _write_video(tmp_path)
    ref_dir = tmp_path / "ref"
    mediaio.write_frames(hq, str(ref_dir))
    cfg = _write_config(tmp_path, SMALL_CFG)
    runs = {
        "restore": ["restore", "--in", str(in_dir), "--config", str(cfg), "--dump-latents", "--out"],
        "flow": ["flow", "--in", str(in_dir), "--out"],
        "demo": DEMO_ARGS,
        "metrics.json": ["metrics", "--in", str(in_dir), "--ref", str(ref_dir), "--out"],
        "ablate.json": ["ablate", "--in", str(in_dir), "--config", str(cfg), "--out"],
    }
    for name, args in runs.items():
        out = tmp_path / name
        assert main(args + [str(out)]) == 0
        modes = _modes(out)
        assert len(modes) > (1 if out.is_dir() else 0)
        for rel, (is_dir, mode) in modes.items():
            assert mode == (dir_mode if is_dir else file_mode), (name, rel, oct(mode))

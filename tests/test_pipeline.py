import functools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from zsvr import flow as flowmod
from zsvr import latentwarp, pipeline, tokenmerge, toydiff
from zsvr.cli import degrade_video, make_demo_video
from zsvr.mediaio import FrameSequence
from zsvr.pipeline import RestoreConfig, parse_config, plan_batches
from zsvr.tokenmerge import MergeMode
from zsvr.toydiff import ToyDenoiser

from reference import per_frame_baseline, split_blends


def small_config(**kw):
    base = dict(steps=4, batch_size=3, latent_scale=2, seed=0)
    base.update(kw)
    return RestoreConfig(**base)


def small_video(seed=0, n=6, h=16, w=16):
    hq = make_demo_video(n=n, h=h, w=w, seed=seed)
    return degrade_video(hq, 2, 0.05, seed)


# ---------------------------------------------------------------- config


def test_parse_config_all_keys():
    cfg = parse_config(
        """
        # demo settings
        batch_size = 4
        steps = 12
        seed = 7
        hlw_until = 0.3   # early stages only
        tome.i_beg = 6
        tome.i_end = 12
        tome.delta = 1.5
        tome.r = 0.5
        tome.R = 2.0
        flow.block = 5
        flow.search = 3
        flow.tau_occ = 0.25
        latent_scale = 2
        """
    )
    assert cfg.batch_size == 4
    assert cfg.steps == 12
    assert cfg.hlw_windows == ((0.0, 0.3),)
    assert cfg.tome_i_beg == 6 and cfg.tome_i_end == 12
    assert cfg.tome_R == 2.0
    assert cfg.flow_tau_occ == 0.25


def test_parse_config_hlw_until_is_one_leading_window():
    assert parse_config("hlw_until = 0.3").hlw_windows == ((0.0, 0.3),)
    assert parse_config("hlw_until = 0").hlw_windows == ()
    assert RestoreConfig().hlw_windows == ((0.0, 0.2),)
    for bad in ("1.5", "-0.1"):
        with pytest.raises(ValueError, match="bad value for hlw_until"):
            parse_config(f"hlw_until = {bad}")


def test_parse_config_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        parse_config("seed = -1")
    assert parse_config("seed = 0").seed == 0


def test_parse_config_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config("no_such_key = 3")


def test_parse_config_repeated_key():
    with pytest.raises(ValueError, match="line 2: config key 'steps' repeats line 1"):
        parse_config("steps = 5\nsteps = 7")
    with pytest.raises(ValueError, match="line 3: config key 'hlw_until' repeats line 1"):
        parse_config("hlw_until = 0.5\n# off again\nhlw_until = 0")


def test_parse_config_bad_value():
    with pytest.raises(ValueError, match="bad value"):
        parse_config("steps = fast")


def test_parse_config_bad_syntax():
    with pytest.raises(ValueError, match="key = value"):
        parse_config("steps 12")


def test_config_validation_rejects_bad_values():
    for kw in (
        dict(batch_size=0),
        dict(seed=-1),
        dict(steps=0),
        dict(steps=101),
        dict(tome_r=2.0),
        dict(tome_delta=0.0),
        dict(tome_delta=math.nan),
        dict(tome_delta=math.inf),
        dict(tome_R=-1.0),
        dict(tome_R=math.nan),
        dict(latent_scale=0),
        dict(flow_tau_occ=0.0),
        dict(tome_i_beg=5, tome_i_end=5),
        dict(steps=10, tome_i_end=5),
    ):
        with pytest.raises(ValueError):
            RestoreConfig(**kw).validate()
        with pytest.raises(ValueError):
            pipeline.step_plan(RestoreConfig(**kw))
    # the anneal-range error gives both values, and says when i_beg is the default
    with pytest.raises(ValueError, match=r"tome.i_beg 6 \(default: .*\) must be < tome.i_end 5$"):
        RestoreConfig(steps=10, tome_i_end=5).validate()
    with pytest.raises(ValueError, match=r"tome.i_beg 5 must be < tome.i_end 5$"):
        RestoreConfig(tome_i_beg=5, tome_i_end=5).validate()


def test_parse_config_rejects_nan_and_keeps_inf_R():
    for text in ("tome.R = nan", "tome.delta = nan", "tome.delta = inf"):
        with pytest.raises(ValueError, match=text.split()[0]):
            parse_config(text)
    assert parse_config("tome.R = inf").tome_R == math.inf


def test_config_validation_rejects_bad_windows():
    for name in ("hlw_windows", "tome_windows"):
        for window in ((-0.1, 0.5), (0.5, 0.5), (0.6, 0.4), (0.5, 1.1)):
            with pytest.raises(ValueError, match=name):
                RestoreConfig(**{name: [(0.0, 0.2), window]}).validate()
        RestoreConfig(**{name: [(0.0, 1.0)]}).validate()
    for overrides in pipeline.STAGE_VARIANTS.values():
        RestoreConfig(**overrides).validate()


def test_anneal_range_defaults():
    cfg = RestoreConfig(steps=10)
    assert cfg.anneal_range() == (6, 10)
    cfg = RestoreConfig(steps=10, tome_i_beg=2, tome_i_end=8)
    assert cfg.anneal_range() == (2, 8)
    assert RestoreConfig(steps=2).anneal_range() == (1, 2)
    # round(0.6) = 1 = steps; the default start stays below the end
    assert parse_config("steps = 1").anneal_range() == (0, 1)


# ---------------------------------------------------------------- batching


def test_plan_batches_partition():
    plan = plan_batches(10, 4, seed=0)
    assert plan.batches == [(0, 4), (4, 8), (8, 10)]
    for (start, end), kf in zip(plan.batches, plan.keyframe_of):
        assert start <= kf < end


def test_plan_batches_singletons():
    plan = plan_batches(5, 1, seed=3)
    assert plan.keyframe_of == [0, 1, 2, 3, 4]


def test_plan_batches_deterministic():
    a = plan_batches(20, 6, seed=9)
    b = plan_batches(20, 6, seed=9)
    assert a.keyframe_of == b.keyframe_of


def test_plan_batches_keyframes_uniform():
    counts = np.zeros(8, dtype=int)
    for seed in range(10000):
        plan = plan_batches(8, 8, seed=seed)
        counts[plan.keyframe_of[0]] += 1
    chi2, p = stats.chisquare(counts)
    assert p > 0.01


# ---------------------------------------------------------------- flows / latents


def test_precompute_flows_static_video():
    frame = np.random.default_rng(0).random((12, 12, 3))
    seq = FrameSequence([frame.copy() for _ in range(4)])
    bank = pipeline.precompute_flows(seq, small_config(batch_size=2))
    for fl in bank.flow.values():
        assert np.array_equal(fl, np.zeros_like(fl))
    for conf in bank.conf.values():
        assert np.allclose(conf, 1.0)


def test_precompute_flows_translation():
    rng = np.random.default_rng(1)
    wide = rng.random((20, 28, 3))
    seq = FrameSequence([wide[:, 2 * t : 2 * t + 20].copy() for t in range(3)])
    plan = plan_batches(3, 3, seed=0)
    bank = pipeline.precompute_flows(seq, small_config())
    assert plan.keyframe_of == [2]
    # frame 2's content sits 2 px further right in the texture than frame
    # 1's, so frame 1's pixels correspond to positions 2 px to the left in
    # frame 2
    fl = bank.flow[(1, 2)]
    interior = fl[6:-6, 6:-6]
    assert np.all(interior[:, :, 0] == -2)
    assert np.all(interior[:, :, 1] == 0)


def test_needed_pairs_are_keyframe_members_and_chain():
    plan = plan_batches(6, 3, seed=0)
    assert plan.keyframe_of == [2, 4]
    members = {(0, 2), (1, 2), (3, 4), (5, 4)}
    chain = {(4, 2)}
    pairs = pipeline._needed_pairs(plan)
    assert pairs == members | chain
    # adjacent frames that are neither keyframes nor chained are not read
    assert (0, 1) not in pairs and (1, 0) not in pairs


def test_precompute_flows_confidence_only_for_read_pairs(monkeypatch):
    seq = small_video()
    plan = plan_batches(len(seq), 3, seed=0)
    calls = []
    fb_confidence = pipeline.flowmod.fb_confidence

    def counted(fwd, bwd):
        calls.append((fwd, bwd))
        return fb_confidence(fwd, bwd)

    monkeypatch.setattr(pipeline.flowmod, "fb_confidence", counted)
    bank = pipeline.precompute_flows(seq, small_config())
    read = pipeline._needed_pairs(plan)
    assert len(calls) == len(read) == 5
    assert bank.conf.keys() == read
    # both directions are still estimated, and each confidence pairs them
    assert bank.flow.keys() == read | {(j, i) for i, j in read}
    for (fwd, bwd), (i, j) in zip(calls, sorted(read)):
        assert fwd is bank.flow[(i, j)] and bwd is bank.flow[(j, i)]
    # the bank holds its frames, its block-matching settings, their output
    # and the frames' 8-bit codes, no masks
    names = ["seq", "block", "search", "flow", "conf", "codes"]
    assert [f.name for f in fields(pipeline.FlowBank)] == names
    assert (bank.seq, bank.block, bank.search) == (seq, 7, 4)


def test_precomputed_bank_holds_no_codes():
    # restore reads no pair past the plan's, so precompute_flows frees every
    # frame's 8-bit codes; a later read of another pair makes them again
    lq = small_video()
    cfg = small_config()
    bank = pipeline.precompute_flows(lq, cfg)
    assert bank.codes == {} and bank.flow
    out = pipeline.restore(lq, cfg)
    want = pipeline.temporal_consistency(out, cfg, flow_source=lq)
    held = set(bank.flow)
    assert pipeline.temporal_consistency(out, cfg, flow_source=bank) == want
    assert set(bank.codes) == {i for pair in set(bank.flow) - held for i in pair}


@st.composite
def _bank_reads(draw):
    """A small random clip, block-matching settings and a random order of
    flow and confidence reads between distinct frames."""
    n, h, w = draw(st.integers(2, 4)), draw(st.integers(3, 12)), draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seq = FrameSequence([rng.random((h, w, 3)) for _ in range(n)])
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    reads = draw(st.lists(st.tuples(st.sampled_from(["flow", "conf"]), pair), max_size=12))
    return seq, draw(st.integers(1, 5)), draw(st.integers(0, 3)), reads


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_bank_reads())
def test_bank_reads_equal_direct_estimates_each_once(case):
    seq, block, search, reads = case
    estimate = flowmod.estimate_flow
    direct = lambda i, j: estimate(seq.frames[i], seq.frames[j], block, search)
    estimated = []

    def counted(src, dst, block, search):
        index = lambda frame: next(k for k, f in enumerate(seq.frames) if f is frame)
        estimated.append((index(src), index(dst)))
        return estimate(src, dst, block, search)

    bank = pipeline.FlowBank(seq, block, search)
    with mock.patch.object(flowmod, "estimate_flow", counted):
        for kind, (i, j) in reads:
            if kind == "flow":
                assert np.array_equal(bank.flow_of(i, j), direct(i, j))
            else:
                want = flowmod.fb_confidence(direct(i, j), direct(j, i))
                assert np.array_equal(bank.conf_of(i, j), want)
    confs = {p for kind, p in reads if kind == "conf"}
    flows = {p for kind, p in reads if kind == "flow"} | confs | {(j, i) for i, j in confs}
    assert sorted(estimated) == sorted(flows) == sorted(bank.flow)
    assert bank.conf.keys() == confs


def test_restore_with_precomputed_bank_is_bit_identical():
    lq = small_video()
    cfg = small_config()
    bank = pipeline.precompute_flows(lq, cfg)
    own = pipeline.restore(lq, cfg)
    shared = pipeline.restore(lq, cfg, bank=bank)
    for a, b in zip(own.frames, shared.frames):
        assert np.array_equal(a, b)


def test_bank_serves_every_tau_occ():
    # the bank holds confidences; each restore thresholds them at its own tau_occ
    lq = small_video()
    bank = pipeline.precompute_flows(lq, small_config())
    assert small_config().flow_tau_occ == 0.368
    outs = []
    for tau in (0.5, 0.3):
        cfg = small_config(flow_tau_occ=tau)
        outs.append(pipeline.restore_latents(lq, cfg))
        assert np.array_equal(pipeline.restore_latents(lq, cfg, bank=bank), outs[-1])
    # integer flows give confidences exp(-k); 0.3 lets the exp(-1) pixels warp
    assert not np.array_equal(outs[0], outs[1])


def _no_compute(*args, **kwargs):
    raise AssertionError("restore computed before rejecting the bank")


def _rejects(monkeypatch, seq, cfg, bank, match):
    """restore(seq, cfg, bank) fails with match before estimating or denoising."""
    with monkeypatch.context() as mp:
        mp.setattr(pipeline.flowmod, "estimate_flow", _no_compute)
        mp.setattr(pipeline.toydiff, "denoise_step", _no_compute)
        with pytest.raises(ValueError, match=match):
            pipeline.restore(seq, cfg, bank=bank)


def test_restore_rejects_bank_with_other_flow_settings(monkeypatch):
    lq = small_video()
    bank = pipeline.precompute_flows(lq, small_config())
    for kw, match in (
        (dict(flow_block=5), "flow.block 7 in the bank, 5 here$"),
        (dict(flow_search=3), "flow.search 4 in the bank, 3 here$"),
    ):
        _rejects(monkeypatch, lq, small_config(**kw), bank, match)


def test_restore_rejects_bank_built_on_other_frame_size(monkeypatch):
    lq, big = small_video(), small_video(h=32, w=32)
    bank = pipeline.precompute_flows(big, small_config())
    _rejects(monkeypatch, lq, small_config(), bank, "other frames in the bank$")


def test_restore_rejects_bank_built_on_other_frames(monkeypatch):
    # same count and size; the bank's frames are checked by identity, so
    # even a copy of the same frames is refused
    lq, other = small_video(), small_video(seed=1)
    for seq in (other, FrameSequence(list(lq.frames))):
        bank = pipeline.precompute_flows(seq, small_config())
        _rejects(monkeypatch, lq, small_config(), bank, "other frames in the bank$")
    match = "other frames in the bank; flow.search 4 in the bank, 3 here$"
    _rejects(monkeypatch, lq, small_config(flow_search=3), pipeline.FlowBank(other, 7, 4), match)


def test_bank_drop_forgets_both_directions():
    lq = small_video(n=3)
    bank = pipeline.FlowBank(lq, 7, 4)
    fwd, conf = bank.flow_of(2, 0).copy(), bank.conf_of(1, 0).copy()
    bank.conf_of(0, 1)
    bank.drop(0, 1)
    assert bank.flow.keys() == {(2, 0)} and not bank.conf
    bank.drop(2, 0)
    bank.drop(2, 0)  # dropping what the bank does not hold is a no-op
    assert not bank.flow
    # a dropped pair read again is estimated again, to the same values
    assert np.array_equal(bank.flow_of(2, 0), fwd)
    assert np.array_equal(bank.conf_of(1, 0), conf)


def _batch_pairs(plan, b):
    """Both directions of every pair batch b of plan reads."""
    kf = plan.keyframe_of[b]
    start, stop = plan.batches[b]
    pairs = {(m, kf) for m in range(start, stop) if m != kf}
    if b > 0:
        pairs.add((kf, plan.keyframe_of[b - 1]))
    return pairs | {(j, i) for i, j in pairs}


def test_restore_frees_each_finished_batch(monkeypatch):
    # the bank restore builds itself holds no pair of a batch once that
    # batch is yielded; a later batch's pairs stay until it is done
    lq = small_video(n=7)  # batches of 3, 3 and 1
    cfg = small_config()
    plan = plan_batches(len(lq), cfg.batch_size, cfg.seed)
    built = []
    precompute = pipeline.precompute_flows

    def spy(seq, config):
        built.append(precompute(seq, config))
        return built[-1]

    monkeypatch.setattr(pipeline, "precompute_flows", spy)
    estimated = []
    estimate = flowmod.estimate_flow

    def count(*args):
        estimated.append(args)
        return estimate(*args)

    monkeypatch.setattr(flowmod, "estimate_flow", count)
    got = []
    for b, latents in enumerate(pipeline.restore_iter(lq, cfg)):
        got.append(latents)
        (bank,) = built
        for done in range(b + 1):
            pairs = _batch_pairs(plan, done)
            assert not pairs & bank.flow.keys() and not pairs & bank.conf.keys()
        for later in range(b + 1, len(plan.batches)):
            assert _batch_pairs(plan, later) <= bank.flow.keys()
    assert not bank.flow and not bank.conf
    # each flow estimated once, in precompute_flows; the output is a caller bank's
    needed = pipeline._needed_pairs(plan)
    assert len(estimated) == len(needed | {(j, i) for i, j in needed})
    monkeypatch.undo()
    caller = pipeline.precompute_flows(lq, cfg)
    held = dict(caller.flow)
    assert np.array_equal(np.concatenate(got), pipeline.restore_latents(lq, cfg, caller))
    assert caller.flow == held  # a caller's bank is never pruned


def test_restore_drops_a_batchs_pairs_before_it_denoises(monkeypatch):
    # a batch reads its pairs once, before its first step, so the bank
    # restore builds itself holds none of them while the batch denoises;
    # a later batch's pairs stay until that batch has read them
    lq = small_video(n=7)  # batches of 3, 3 and 1
    cfg = small_config()
    plan = plan_batches(len(lq), cfg.batch_size, cfg.seed)
    built, held = [], []
    precompute, step = pipeline.precompute_flows, toydiff.denoise_step

    def spy(seq, config):
        built.append(precompute(seq, config))
        return built[-1]

    def record(*args):
        (bank,) = built
        held.append((set(bank.flow), set(bank.conf)))
        return step(*args)

    monkeypatch.setattr(pipeline, "precompute_flows", spy)
    monkeypatch.setattr(toydiff, "denoise_step", record)
    for _ in pipeline.restore_iter(lq, cfg):
        pass
    assert len(held) == len(plan.batches) * cfg.steps
    for k, (flows, confs) in enumerate(held):
        b = k // cfg.steps
        assert not _batch_pairs(plan, b) & (flows | confs)
        for later in range(b + 1, len(plan.batches)):
            assert _batch_pairs(plan, later) <= flows


def test_restore_accepts_bank_of_another_plan():
    # a bank serves every batch plan: the pairs another plan reads are
    # estimated as restore reads them, with the same output as its own bank
    lq = small_video()
    for kw in (dict(batch_size=2), dict(seed=1)):
        bank = pipeline.precompute_flows(lq, small_config())
        cfg = small_config(**kw)
        read = pipeline._needed_pairs(plan_batches(len(lq), cfg.batch_size, cfg.seed))
        assert not read <= bank.conf.keys()
        out = pipeline.restore_latents(lq, cfg, bank=bank)
        assert read <= bank.conf.keys()
        assert np.array_equal(out, pipeline.restore_latents(lq, cfg))


def test_restore_rejects_bank_of_a_longer_video(monkeypatch):
    # a 6-frame bank holds every pair its 5-frame prefix reads, yet it was
    # built on other frames
    lq = small_video()
    bank = pipeline.precompute_flows(lq, small_config())
    head = FrameSequence(lq.frames[:5])
    assert pipeline._needed_pairs(plan_batches(5, 3, 0)) <= bank.conf.keys()
    _rejects(monkeypatch, head, small_config(), bank, "other frames in the bank$")


def test_encode_decode_latent():
    rng = np.random.default_rng(2)
    frame = rng.random((16, 16, 3))
    lat = pipeline.encode_latent(frame, 4)
    assert lat.shape == (4, 4, 3)
    assert lat[0, 0, 0] == pytest.approx(frame[:4, :4, 0].mean())
    up = pipeline.decode_latent(lat, 16, 16)
    assert up.shape == (16, 16, 3)
    assert up.min() >= 0.0 and up.max() <= 1.0
    with pytest.raises(ValueError, match="divisible"):
        pipeline.encode_latent(frame, 5)


def test_frame_noise_independent_and_deterministic():
    a = pipeline.frame_noise(0, 3, (4, 4, 3))
    b = pipeline.frame_noise(0, 3, (4, 4, 3))
    c = pipeline.frame_noise(0, 4, (4, 4, 3))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------- restore


def test_restore_disabled_equals_per_frame_baseline():
    lq = small_video()
    cfg = small_config(hlw_windows=(), tome_windows=())
    out = pipeline.restore(lq, cfg)
    base = per_frame_baseline(lq, cfg)
    for a, b in zip(out.frames, base.frames):
        assert np.array_equal(a, b)


def test_restore_single_step_with_both_mechanisms():
    lq = small_video(n=4)
    cfg = parse_config("steps = 1\nbatch_size = 3\nlatent_scale = 2\nhlw_until = 1")
    assert cfg.hlw_windows and cfg.tome_windows and cfg.tome_r > 0
    out = pipeline.restore(lq, cfg)
    assert len(out) == 4
    assert all(np.isfinite(f).all() for f in out.frames)


def test_restore_anneal_tail_runs_no_merge_pass():
    # steps 6..9 lie past the anneal end (ramp 1): their ratio is exactly 0, so
    # they run the hookless per-frame attention, as a window ending at 0.6 does
    lq = FrameSequence([np.random.default_rng(f).random((16, 16, 3)) for f in range(5)])
    cfg = RestoreConfig(
        steps=10, batch_size=5, latent_scale=2, hlw_windows=(), tome_i_beg=2, tome_i_end=6
    )
    tail = pipeline.restore(lq, cfg)
    windowed = pipeline.restore(lq, replace(cfg, tome_windows=((0.0, 0.6),)))
    for a, b in zip(tail.frames, windowed.frames):
        assert np.array_equal(a, b)


@st.composite
def _restore_shapes(draw):
    scale = draw(st.integers(1, 3))
    # odd latent sizes and frames smaller than the flow block included
    hl, wl = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    n = draw(st.integers(1, 5))
    cfg = RestoreConfig(
        steps=draw(st.integers(1, 3)),
        batch_size=draw(st.integers(1, n + 1)),
        latent_scale=scale,
        seed=draw(st.integers(0, 3)),
        flow_block=draw(st.sampled_from([3, 5, 7, 9])),
        flow_search=draw(st.integers(0, 2)),
        hlw_windows=(),
        tome_windows=(),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return FrameSequence([rng.random((hl * scale, wl * scale, 3)) for _ in range(n)]), cfg


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_restore_shapes())
def test_restore_without_windows_equals_baseline_property(case):
    lq, cfg = case
    out = pipeline.restore(lq, cfg)
    base = per_frame_baseline(lq, cfg)
    assert len(out) == len(base) == len(lq)
    for a, b in zip(out.frames, base.frames):
        assert np.array_equal(a, b)


def test_restore_single_frame_video():
    lq = FrameSequence([small_video().frames[0]])
    cfg = small_config()
    out = pipeline.restore(lq, cfg)
    base = per_frame_baseline(lq, cfg)
    assert np.array_equal(out.frames[0], base.frames[0])


def test_restore_deterministic():
    lq = small_video()
    cfg = small_config()
    a = pipeline.restore(lq, cfg)
    b = pipeline.restore(lq, cfg)
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa, fb)


def test_restore_validates_config_before_compute():
    lq = small_video()
    with pytest.raises(ValueError):
        pipeline.restore(lq, small_config(steps=0))


def test_restore_iter_checks_at_first_next(monkeypatch):
    # a generator: config, frame size and bank are checked at the first
    # next(), before any flow is estimated or any step denoised
    lq = small_video()
    monkeypatch.setattr(pipeline.flowmod, "estimate_flow", _no_compute)
    monkeypatch.setattr(pipeline.toydiff, "denoise_step", _no_compute)
    for cfg, bank, match in (
        (small_config(steps=0), None, "steps must be in"),
        (small_config(latent_scale=3), None, "not divisible by latent_scale 3"),
        (small_config(), pipeline.FlowBank(small_video(seed=1), 7, 4), "other frames in the bank$"),
    ):
        batches = pipeline.restore_iter(lq, cfg, bank)
        with pytest.raises(ValueError, match=match):
            next(batches)


RESTORE_DIGEST = """
import hashlib
from dataclasses import replace

import numpy as np

from zsvr import cli, pipeline

hq = cli.make_demo_video(n=6, h=88, w=88, seed=0)
lq = cli.degrade_video(hq, scale=4, noise_std=0.08, seed=0)
cfg = replace(cli.demo_config(0), batch_size=6, steps=4)
print(hashlib.sha256(np.stack(pipeline.restore(lq, cfg).frames).tobytes()).hexdigest())
"""


def test_restore_bits_do_not_depend_on_blas_threads():
    # 22x22 latents: merged attention runs over up to 6 * 484 tokens, and the
    # cosine pass scores 5 * 484 sources against 484 targets, sizes at which
    # whole products come out with other bits on 1 and 2 OpenBLAS threads
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        run = subprocess.run(
            [sys.executable, "-c", RESTORE_DIGEST], env=env, capture_output=True, text=True, timeout=300
        )
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_hook_gating_counters(monkeypatch):
    # 7 frames in batches of 3, 3 and 1: merging runs only in the two
    # batches with >= 2 frames, latent warping chains batches 1 and 2
    lq = small_video(n=7)
    counts = {"merge": 0, "blend": 0}
    merge_pass, blend = pipeline.hybrid_merge_pass, latentwarp.blend_warped

    def counting_merge(*args, **kwargs):
        counts["merge"] += 1
        return merge_pass(*args, **kwargs)

    def counting_blend(*args, **kwargs):  # chain and star blends
        counts["blend"] += 1
        return blend(*args, **kwargs)

    monkeypatch.setattr(pipeline, "hybrid_merge_pass", counting_merge)
    monkeypatch.setattr(latentwarp, "blend_warped", counting_blend)
    sizes = [3, 3, 1]
    n_blocks = ToyDenoiser.N_BLOCKS
    blends_per_step = sum(size - 1 for size in sizes) + len(sizes) - 1
    # steps 4: anneal from step 2 to 4, r_i > 0 at every step
    for windows, active in (([(0.0, 1.0)], 4), ([(0.5, 1.0)], 2), ([(0.0, 0.25)], 1), ([], 0)):
        counts.update(merge=0, blend=0)
        pipeline.restore(lq, small_config(hlw_windows=windows, tome_windows=windows))
        assert counts["merge"] == n_blocks * active * 2
        assert counts["blend"] == blends_per_step * active
    # the default HLW window (0, 0.2) holds only step 0 of 4
    counts.update(merge=0, blend=0)
    pipeline.restore(lq, small_config())
    assert counts == {"merge": n_blocks * 4 * 2, "blend": blends_per_step}
    counts.update(merge=0, blend=0)
    pipeline.restore(lq, small_config(hlw_windows=(), tome_windows=()))
    assert counts == {"merge": 0, "blend": 0}


class _MatchesPerPass:
    """Unpacks to flow_correspondence(*args), made afresh at each unpacking,
    so each merge pass computes its own matches: the reference for matches
    made once per batch and grid. Each unpacking appends to unpacked."""

    def __init__(self, unpacked: list, *args):
        self.unpacked, self.args = unpacked, args

    def __iter__(self):
        self.unpacked.append(self.args[:2])
        return iter(tokenmerge.flow_correspondence(*self.args))


def test_flow_matches_made_once_per_batch_and_grid(monkeypatch):
    # 7 frames in batches of 3, 3 and 1: the two batches with members each
    # make one set of matches per content grid of the 8x8 latent, which every
    # flow-guided pass of the batch reads
    lq = small_video(n=7)
    correspondence = pipeline.flow_correspondence
    grids = toydiff.content_grids(8, 8)
    # default: flow-guided in the 2 down blocks; flow_flow: in all 4
    for overrides, flow_blocks in (({}, 2), (pipeline.CORRESPONDENCE_VARIANTS["flow_flow"], 4)):
        cfg = small_config(**overrides)
        calls = []

        def spy(h, w, flows, confidences):
            calls.append((h, w))
            return correspondence(h, w, flows, confidences)

        monkeypatch.setattr(pipeline, "flow_correspondence", spy)
        got = pipeline.restore_latents(lq, cfg)
        assert sorted(calls) == sorted(grids * 2)
        # the same latents, bit for bit, as when each pass made its own matches
        unpacked = []
        monkeypatch.setattr(
            pipeline, "flow_correspondence", functools.partial(_MatchesPerPass, unpacked)
        )
        want = pipeline.restore_latents(lq, cfg)
        assert len(unpacked) == flow_blocks * cfg.steps * 2
        assert np.array_equal(got, want)


def test_step_plan_windows_and_anneal():
    # steps 4: the default anneal runs from step 2 to 4 at r = 0.8
    ramp_mid = 0.8 * math.cos(0.25 * math.pi)
    for kw, hlw_on, ratios in (
        ({}, [True, False, False, False], [0.8, 0.8, 0.8, ramp_mid]),
        (dict(hlw_windows=[(0.5, 1.0)], tome_windows=[(0.0, 0.5)]),
         [False, False, True, True], [0.8, 0.8, 0.0, 0.0]),
        (dict(hlw_windows=(), tome_windows=()), [False] * 4, [0.0] * 4),
        (dict(tome_r=0.0), [True, False, False, False], [0.0] * 4),
    ):
        assert pipeline.step_plan(small_config(**kw)) == (hlw_on, ratios)


def test_restore_reads_no_flows_unless_a_step_uses_them(monkeypatch):
    lq = small_video()
    cosine = dict(down_mode=MergeMode.COSINE_UP, up_mode=MergeMode.COSINE_UP)
    configs = [
        small_config(hlw_windows=(), tome_windows=()),
        small_config(hlw_windows=(), **cosine),
        small_config(hlw_windows=(), tome_r=0.0),
    ]
    with_bank = [pipeline.restore(lq, c, pipeline.precompute_flows(lq, c)) for c in configs]

    def refuse(*args, **kwargs):
        raise AssertionError("flows estimated for a restore that reads none")

    monkeypatch.setattr(flowmod, "estimate_flow", refuse)
    monkeypatch.setattr(pipeline, "precompute_flows", refuse)
    for cfg, expected in zip(configs, with_bank):
        out = pipeline.restore(lq, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(out.frames, expected.frames))


def test_keyframe_chain_links_batches_step_by_step(monkeypatch):
    # 7 frames in batches of 3, 3 and 1, latent warping in every step
    lq = small_video(n=7)
    cfg = small_config(hlw_windows=[(0.0, 1.0)], tome_windows=())
    plan = plan_batches(len(lq), cfg.batch_size, cfg.seed)
    blend = latentwarp.blend_warped
    calls = []  # (own, source, flow, mask, result) in call order

    def spy_blend(own, source, flow, mask):
        result = blend(own, source, flow, mask)
        calls.append((own.copy(), source.copy(), None, None, result.copy()))
        return result

    monkeypatch.setattr(latentwarp, "blend_warped", spy_blend)

    def run(**kw):
        """Per batch, per step: (its chain call or None, its keyframe, star calls)."""
        calls.clear()
        pipeline.restore(lq, cfg, **kw)
        return split_blends(calls, plan, cfg.steps)

    batches = run()
    assert all(chain is None for chain, _, _ in batches[0])
    for b in (1, 2):
        for s, ((own, source, _, _, result), keyframe, _) in enumerate(batches[b]):
            # the source is the previous keyframe after its own chain blend
            assert np.array_equal(source, batches[b - 1][s][1])
            assert np.array_equal(result, keyframe)
            assert not np.array_equal(result, own)
            if b == 2:  # not the previous keyframe's prediction before its chain blend
                assert not np.array_equal(source, batches[1][s][0][0])

    # with zero confidences (unit masks) every chain blend keeps the keyframe
    bank = pipeline.precompute_flows(lq, cfg)
    for key in bank.conf:
        bank.conf[key] = np.zeros_like(bank.conf[key])
    for steps in run(bank=bank)[1:]:
        for (own, _, _, _, result), _, _ in steps:
            assert np.array_equal(result, own)


def test_restore_zero_merge_ratio_equals_baseline():
    lq = small_video()
    cfg = small_config(hlw_windows=(), tome_r=0.0)
    out = pipeline.restore(lq, cfg)
    base = per_frame_baseline(lq, cfg)
    for a, b in zip(out.frames, base.frames):
        assert np.array_equal(a, b)


def test_restore_batch_order_independence_without_chaining():
    # with HLW off, each batch only depends on its own frames; with it on, on
    # its own and earlier frames: a whole-batch prefix restores as in the full
    # video. 20x12 frames have an odd 5x3 inner grid, so padding runs.
    for n, (h, w), batch, hlw in (
        (6, (16, 16), 3, ()),
        (7, (16, 16), 3, [(0.0, 0.5)]),
        (8, (20, 12), 3, [(0.0, 0.5)]),
        (9, (16, 16), 4, [(0.0, 0.5)]),
    ):
        lq = small_video(n=n, h=h, w=w)
        cfg = small_config(batch_size=batch, hlw_windows=hlw)
        full = pipeline.restore_latents(lq, cfg)
        for m in range(batch, n, batch):
            head = pipeline.restore_latents(FrameSequence(lq.frames[:m]), cfg)
            assert np.array_equal(head, full[:m]), (n, m)


@st.composite
def _restore_edges(draw):
    """Edge inputs with both mechanisms on: 1-5 frames, batch_size 1 to n + 1,
    odd latent sizes, frames smaller than the flow block, tome.r 0, 0.5 or 1,
    any correspondence variant, and an HLW window overlapping a ToMe window."""
    scale = draw(st.integers(1, 3))
    hl, wl = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    n = draw(st.integers(1, 5))
    # a < b < c < d: windows (a, c) and (b, d) overlap on [b, c)
    cuts = st.lists(st.sampled_from([0, 0.25, 0.5, 0.75, 1]), min_size=4, max_size=4, unique=True)
    a, b, c, d = sorted(draw(cuts))
    hlw, tome = ((a, c),), ((b, d),)
    if draw(st.booleans()):
        hlw, tome = tome, hlw
    variants = pipeline.CORRESPONDENCE_VARIANTS
    variant = variants[draw(st.sampled_from(sorted(variants)))]
    cfg = RestoreConfig(
        steps=draw(st.integers(1, 4)),
        batch_size=draw(st.integers(1, n + 1)),
        latent_scale=scale,
        seed=draw(st.integers(0, 3)),
        tome_r=draw(st.sampled_from([0.0, 0.5, 1.0])),
        flow_block=draw(st.sampled_from([3, 5, 7, 9])),
        flow_search=draw(st.integers(0, 2)),
        hlw_windows=hlw,
        tome_windows=tome,
        **variant,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return FrameSequence([rng.random((hl * scale, wl * scale, 3)) for _ in range(n)]), cfg


@settings(max_examples=50, deadline=None, derandomize=True)
@given(_restore_edges())
def test_restore_iter_edge_inputs_property(case):
    lq, cfg = case
    h, w, _ = lq.shape
    latent = (h // cfg.latent_scale, w // cfg.latent_scale, 3)
    plan = plan_batches(len(lq), cfg.batch_size, cfg.seed)
    batches = list(pipeline.restore_iter(lq, cfg))
    assert [b.shape for b in batches] == [(stop - start, *latent) for start, stop in plan.batches]
    full = pipeline.restore_latents(lq, cfg)
    assert np.array_equal(np.concatenate(batches), full)
    for m, _ in plan.batches[1:]:  # whole-batch prefixes restore as the full video's
        assert np.array_equal(pipeline.restore_latents(FrameSequence(lq.frames[:m]), cfg), full[:m])
    out = pipeline.restore(lq, cfg)
    assert len(out) == len(lq)
    for frame, x in zip(out.frames, full):
        assert np.isfinite(frame).all() and frame.min() >= 0.0 and frame.max() <= 1.0
        assert np.array_equal(frame, pipeline.decode_latent(x, h, w))


def test_temporal_consistency_lengths():
    lq = small_video(n=5)
    e_warp, e_inter = pipeline.temporal_consistency(lq, small_config())
    assert len(e_warp) == 4
    assert len(e_inter) == 3


def test_temporal_consistency_from_frames_holds_constant_memory(monkeypatch):
    # a bank made from frames drops each pair once scored: the traced peak of
    # a 12- and a 24-frame clip stays within 4 flows of a 3-frame clip's,
    # where keeping every flow adds 4 flows and 2 confidences per frame
    cfg = small_config()
    estimate = flowmod.estimate_flow
    calls = []

    def count(*args):
        calls.append(None)  # not args: they would keep each frame's codes alive
        return estimate(*args)

    monkeypatch.setattr(flowmod, "estimate_flow", count)

    def peak(n):
        seq = small_video(n=n, h=32, w=32)
        calls.clear()
        tracemalloc.start()
        try:
            pipeline.temporal_consistency(seq, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            assert len(calls) == 2 * (n - 1) + 2 * (n - 2)  # each flow estimated once

    bound = peak(3) + 4 * 32 * 32 * 2 * 8
    for n in (12, 24):
        assert peak(n) <= bound, n


def test_temporal_consistency_reads_a_bank(monkeypatch):
    # a bank of the LQ frames scores like the LQ frames themselves; it then
    # holds every adjacent and skip-one flow beside restore's, each read once
    lq = small_video(n=5)
    cfg = small_config()
    out = pipeline.restore(lq, cfg)
    bank = pipeline.precompute_flows(lq, cfg)
    want = pipeline.temporal_consistency(out, cfg, flow_source=lq)
    assert pipeline.temporal_consistency(out, cfg, flow_source=bank) == want
    needed = pipeline._needed_pairs(plan_batches(5, 3, 0))
    near = {(i, j) for i in range(5) for j in range(5) if 0 < abs(i - j) <= 2}
    assert bank.flow.keys() == needed | {(j, i) for i, j in needed} | near
    monkeypatch.setattr(pipeline.flowmod, "estimate_flow", _no_compute)
    assert pipeline.temporal_consistency(out, cfg, flow_source=bank) == want
    with pytest.raises(ValueError, match="flow.block 7 in the bank, 5 here$"):
        pipeline.temporal_consistency(out, small_config(flow_block=5), flow_source=bank)
    with pytest.raises(ValueError, match="5 frames in the bank, 4 here$"):
        pipeline.temporal_consistency(FrameSequence(out.frames[:4]), cfg, flow_source=bank)


def test_temporal_consistency_rejects_bank_of_other_frame_shape(monkeypatch):
    # 4 frames of 32x32 cannot score 4 frames of 16x16: refused before any
    # flow is estimated, naming both sides, for a bank and for frames alike
    small, big = small_video(n=4), small_video(n=4, h=32, w=32)
    cfg = small_config()
    monkeypatch.setattr(pipeline.flowmod, "estimate_flow", _no_compute)
    shapes = r"frames of \(32, 32, 3\) in the bank, of \(16, 16, 3\) here$"
    with pytest.raises(ValueError, match="^flow bank does not match: " + shapes):
        pipeline.temporal_consistency(small, cfg, flow_source=pipeline.FlowBank(big, 7, 4))
    # frames are named as what the caller passed, not as a bank
    shapes = shapes.replace("the bank", "flow_source")
    with pytest.raises(ValueError, match="^flow_source does not match: " + shapes):
        pipeline.temporal_consistency(small, cfg, flow_source=big)
    with pytest.raises(ValueError, match=r"4 frames in flow_source, 3 here; " + shapes):
        pipeline.temporal_consistency(FrameSequence(small.frames[:3]), cfg, flow_source=big)


def test_ablate_restores_every_variant_on_one_bank(monkeypatch):
    lq = small_video(n=4, h=16, w=16)
    cfg = small_config(batch_size=2)
    banks, restored = [], []
    precompute, restore = pipeline.precompute_flows, pipeline.restore

    def spy_precompute(seq, config):
        banks.append(precompute(seq, config))
        return banks[-1]

    def spy_restore(seq, config, bank=None):
        restored.append((config, bank))
        return restore(seq, config, bank)

    monkeypatch.setattr(pipeline, "precompute_flows", spy_precompute)
    monkeypatch.setattr(pipeline, "restore", spy_restore)
    table = pipeline.ablate(lq, cfg)
    grid = {**pipeline.CORRESPONDENCE_VARIANTS, **pipeline.STAGE_VARIANTS}
    assert len(banks) == 1 and len(restored) == len(grid) == 10
    assert all(bank is banks[0] for _, bank in restored)
    assert [c for c, _ in restored] == [replace(cfg, **ov) for ov in grid.values()]
    # a restore that makes its own bank scores the same
    monkeypatch.undo()
    headline = pipeline.restore(lq, replace(cfg, **grid["flow_cos_spatial"]))
    e_warp, e_inter = pipeline.temporal_consistency(headline, cfg, flow_source=lq)
    row = table["correspondence"]["flow_cos_spatial"]
    assert (row["e_warp_mean"], row["e_inter_mean"]) == (np.mean(e_warp), np.mean(e_inter))


def test_ablate_table_shape():
    lq = small_video(n=4, h=16, w=16)
    table = pipeline.ablate(lq, small_config(batch_size=2))
    assert list(table) == ["correspondence", "stages"]
    assert list(table["correspondence"]) == list(pipeline.CORRESPONDENCE_VARIANTS)
    assert list(table["stages"]) == list(pipeline.STAGE_VARIANTS)
    for row in (*table["correspondence"].values(), *table["stages"].values()):
        assert set(row) == {"e_warp_mean", "e_warp_mean_x1000", "e_inter_mean"}
        assert row["e_warp_mean_x1000"] == pytest.approx(1e3 * row["e_warp_mean"])

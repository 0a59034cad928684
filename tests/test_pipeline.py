import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from zsvr import flow as flowmod
from zsvr import latentwarp, pipeline
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
    ):
        with pytest.raises(ValueError):
            RestoreConfig(**kw).validate()
        with pytest.raises(ValueError):
            pipeline.step_plan(RestoreConfig(**kw))


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
    plan = plan_batches(4, 2, seed=0)
    bank = pipeline.precompute_flows(seq, plan, small_config())
    for fl in bank.flow.values():
        assert np.array_equal(fl, np.zeros_like(fl))
    for conf in bank.conf.values():
        assert np.allclose(conf, 1.0)


def test_precompute_flows_translation():
    rng = np.random.default_rng(1)
    wide = rng.random((20, 28, 3))
    seq = FrameSequence([wide[:, 2 * t : 2 * t + 20].copy() for t in range(3)])
    plan = plan_batches(3, 3, seed=0)
    bank = pipeline.precompute_flows(seq, plan, small_config())
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
    bank = pipeline.precompute_flows(seq, plan, small_config())
    read = pipeline._needed_pairs(plan)
    assert len(calls) == len(read) == 5
    assert bank.conf.keys() == bank.mask.keys() == read
    # both directions are still estimated, and each confidence pairs them
    assert bank.flow.keys() == read | {(j, i) for i, j in read}
    for (fwd, bwd), (i, j) in zip(calls, sorted(read)):
        assert fwd is bank.flow[(i, j)] and bwd is bank.flow[(j, i)]
        # the bank's mask is the one occlusion formula
        want = flowmod.occlusion_mask(bank.conf[(i, j)], small_config().flow_tau_occ)
        assert np.array_equal(bank.mask[(i, j)], want)


def test_restore_with_precomputed_bank_is_bit_identical():
    lq = small_video()
    cfg = small_config()
    plan = plan_batches(len(lq), cfg.batch_size, cfg.seed)
    bank = pipeline.precompute_flows(lq, plan, cfg)
    own = pipeline.restore(lq, cfg)
    shared = pipeline.restore(lq, cfg, bank=bank)
    for a, b in zip(own.frames, shared.frames):
        assert np.array_equal(a, b)


def _no_compute(*args, **kwargs):
    raise AssertionError("restore computed before rejecting the bank")


def test_restore_rejects_bank_with_other_flow_settings(monkeypatch):
    lq = small_video()
    cfg = small_config()
    plan = plan_batches(len(lq), cfg.batch_size, cfg.seed)
    bank = pipeline.precompute_flows(lq, plan, cfg)
    monkeypatch.setattr(pipeline.flowmod, "estimate_flow", _no_compute)
    monkeypatch.setattr(pipeline.toydiff, "denoise_step", _no_compute)
    for kw in (dict(flow_block=5), dict(flow_search=3), dict(flow_tau_occ=0.5)):
        with pytest.raises(ValueError, match="flow bank built with"):
            pipeline.restore(lq, small_config(**kw), bank=bank)


def test_restore_rejects_bank_built_on_other_frame_size(monkeypatch):
    lq, big = small_video(), small_video(h=32, w=32)
    cfg = small_config()
    plan = plan_batches(len(lq), cfg.batch_size, cfg.seed)
    bank = pipeline.precompute_flows(big, plan, cfg)
    monkeypatch.setattr(pipeline.flowmod, "estimate_flow", _no_compute)
    monkeypatch.setattr(pipeline.toydiff, "denoise_step", _no_compute)
    with pytest.raises(ValueError, match=r"built on \(32, 32\) frames, restoring \(16, 16\) frames"):
        pipeline.restore(lq, cfg, bank=bank)


def test_restore_rejects_bank_missing_a_pair(monkeypatch):
    lq = small_video()
    cfg = small_config()
    # batches of 2 read keyframe pairs that a batch-of-3 plan does not hold
    plan = plan_batches(len(lq), 3, cfg.seed)
    bank = pipeline.precompute_flows(lq, plan, cfg)
    monkeypatch.setattr(pipeline.flowmod, "estimate_flow", _no_compute)
    monkeypatch.setattr(pipeline.toydiff, "denoise_step", _no_compute)
    with pytest.raises(ValueError, match="lacks"):
        pipeline.restore(lq, small_config(batch_size=2), bank=bank)
    del bank.mask[(0, 2)]
    with pytest.raises(ValueError, match="lacks 1 frame pairs"):
        pipeline.restore(lq, cfg, bank=bank)


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
    plan = plan_batches(len(lq), 3, 0)
    with_bank = [pipeline.restore(lq, c, pipeline.precompute_flows(lq, plan, c)) for c in configs]

    def refuse(*args, **kwargs):
        raise AssertionError("flows estimated for a restore that reads none")

    monkeypatch.setattr(flowmod, "estimate_flow", refuse)
    monkeypatch.setattr(pipeline, "precompute_flows", refuse)
    for cfg, expected in zip(configs, with_bank):
        out = pipeline.restore(lq, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(out.frames, expected.frames))
    monkeypatch.undo()  # the metrics estimate their own flows; no bank may be built
    monkeypatch.setattr(pipeline, "precompute_flows", refuse)
    variants = {
        "stages": {"off_off": pipeline.STAGE_VARIANTS["off_off"]},
        "v": {"cos_no_hlw": dict(hlw_windows=(), **cosine), "r0": dict(hlw_windows=(), tome_r=0.0)},
    }
    table = pipeline.ablate(lq, small_config(), variants=variants)
    assert table["stages"]["off_off"] == table["v"]["r0"]


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

    # with unit masks every chain blend keeps the keyframe
    bank = pipeline.precompute_flows(lq, plan, cfg)
    for key in bank.mask:
        bank.mask[key] = np.ones_like(bank.mask[key])
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


def test_temporal_consistency_lengths():
    lq = small_video(n=5)
    e_warp, e_inter = pipeline.temporal_consistency(lq, small_config())
    assert len(e_warp) == 4
    assert len(e_inter) == 3


def test_ablate_shares_one_bank_per_plan_and_flow_settings(monkeypatch):
    lq = small_video(n=4, h=16, w=16)
    cfg = small_config(batch_size=2)
    built = []
    precompute = pipeline.precompute_flows

    def counting_precompute(seq, plan, config):
        built.append((config.batch_size, config.flow_block))
        return precompute(seq, plan, config)

    monkeypatch.setattr(pipeline, "precompute_flows", counting_precompute)
    pipeline.ablate(lq, cfg)
    assert built == [(2, cfg.flow_block)]

    built.clear()
    variants = {"v": {"a": {}, "b": dict(flow_block=5), "c": dict(batch_size=3), "d": {}}}
    table = pipeline.ablate(lq, cfg, variants=variants)
    assert built == [(2, cfg.flow_block), (2, 5), (3, cfg.flow_block)]
    assert set(table) == {"v"}  # only the groups run, no empty ones
    assert table["v"]["a"] == table["v"]["d"]


def test_ablate_table_shape():
    lq = small_video(n=4, h=16, w=16)
    cfg = small_config(batch_size=2)
    variants = {
        "correspondence": {
            "flow_flow": pipeline.CORRESPONDENCE_VARIANTS["flow_flow"],
        },
        "stages": {"off_off": pipeline.STAGE_VARIANTS["off_off"]},
    }
    table = pipeline.ablate(lq, cfg, variants=variants)
    assert set(table) == {"correspondence", "stages"}
    row = table["correspondence"]["flow_flow"]
    assert set(row) == {"e_warp_mean", "e_warp_mean_x1000", "e_inter_mean"}
    assert row["e_warp_mean_x1000"] == pytest.approx(1e3 * row["e_warp_mean"])

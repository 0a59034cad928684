import numpy as np

from zsvr import latentwarp as lw
from zsvr import pipeline
from zsvr.cli import degrade_video, make_demo_video
from zsvr.flow import occlusion_mask, resample_flow, resample_mask, warp
from zsvr.pipeline import RestoreConfig, plan_batches

from reference import split_blends


def test_blend_warped_is_convex_combination():
    rng = np.random.default_rng(3)
    own = rng.standard_normal((6, 6, 3))
    source = rng.standard_normal((6, 6, 3))
    fl = rng.uniform(-2, 2, (6, 6, 2))
    mask = rng.random((6, 6))
    out = lw.blend_warped(own, source, fl, mask)
    warped = warp(source, fl)
    lo = np.minimum(own, warped)
    hi = np.maximum(own, warped)
    assert np.all(out >= lo - 1e-12)
    assert np.all(out <= hi + 1e-12)


# The keyframe chain runs inside pipeline.restore_latents: per step, each
# batch's keyframe x0 is one blend_warped call with the previous batch's
# post-chain keyframe x0 as source. These tests run it on 7 frames in batches
# of 3, 3 and 1, with latent warping in every step and no token merging.

CHAIN_CFG = RestoreConfig(
    steps=4, batch_size=3, latent_scale=2, seed=0, hlw_until=1.0, tome_until=0.0
)


def _chain_video():
    return degrade_video(make_demo_video(n=7, h=16, w=16, seed=0), 2, 0.05, 0)


def _chain_bank(lq, edit=None):
    """The flow bank restore reads, with edit(bank, chain_pairs) applied."""
    plan = plan_batches(len(lq), CHAIN_CFG.batch_size, CHAIN_CFG.seed)
    bank = pipeline.precompute_flows(lq, CHAIN_CFG)
    pairs = [(plan.keyframe_of[b], plan.keyframe_of[b - 1]) for b in range(1, len(plan.batches))]
    if edit is not None:
        edit(bank, pairs)
    return bank, pairs


def _run_chain(monkeypatch, lq, bank):
    """Per batch, per step: (chain call or None, keyframe x0, star calls).

    A call is (own, source, flow, mask, result) of blend_warped.
    """
    blend = lw.blend_warped
    calls = []

    def spy_blend(own, source, flow, mask):
        result = blend(own, source, flow, mask)
        calls.append((own.copy(), source.copy(), flow.copy(), mask.copy(), result.copy()))
        return result

    with monkeypatch.context() as mp:
        mp.setattr(lw, "blend_warped", spy_blend)
        pipeline.restore_latents(lq, CHAIN_CFG, bank)
    plan = plan_batches(len(lq), CHAIN_CFG.batch_size, CHAIN_CFG.seed)
    assert [stop - start for start, stop in plan.batches] == [3, 3, 1]
    return split_blends(calls, plan, CHAIN_CFG.steps)


def _mask(bank, pair, hl, wl):
    """The occlusion mask restore reads for pair, on the hl x wl latent grid."""
    return resample_mask(occlusion_mask(bank.conf[pair], CHAIN_CFG.flow_tau_occ), hl, wl)


def _zero_chain_links(bank, pairs):
    # zero flows, and unit confidences: zero masks
    for pair in pairs:
        bank.flow[pair] = np.zeros_like(bank.flow[pair])
        bank.conf[pair] = np.ones_like(bank.conf[pair])


def test_chain_mask_one_keeps_keyframes(monkeypatch):
    def unit_masks(bank, pairs):
        for pair in pairs:
            bank.conf[pair] = np.zeros_like(bank.conf[pair])

    lq = _chain_video()
    bank, _ = _chain_bank(lq, unit_masks)
    batches = _run_chain(monkeypatch, lq, bank)
    assert all(chain is None for chain, _, _ in batches[0])
    for steps in batches[1:]:
        for (own, _, _, _, result), keyframe, _ in steps:
            assert np.array_equal(result, own)
            assert np.array_equal(keyframe, own)


def test_chain_mask_zero_zero_flow_copies_first(monkeypatch):
    lq = _chain_video()
    bank, _ = _chain_bank(lq, _zero_chain_links)
    batches = _run_chain(monkeypatch, lq, bank)
    for steps in batches[1:]:
        for s, (_, keyframe, _) in enumerate(steps):
            assert np.allclose(keyframe, batches[0][s][1])


def test_chain_matches_elementwise_oracle(monkeypatch):
    lq = _chain_video()
    bank, pairs = _chain_bank(lq)
    batches = _run_chain(monkeypatch, lq, bank)
    hl, wl = lq.shape[0] // 2, lq.shape[1] // 2
    for b in (1, 2):
        flow = resample_flow(bank.flow[pairs[b - 1]], hl, wl)
        m = _mask(bank, pairs[b - 1], hl, wl)
        assert 0.0 < m.mean() < 1.0  # both branches of the blend are exercised
        prev = [keyframe for _, keyframe, _ in batches[b - 1]]
        for s, ((own, source, used_flow, used_mask, result), keyframe, _) in enumerate(batches[b]):
            assert np.array_equal(used_flow, flow)
            assert np.array_equal(used_mask, m)
            assert np.array_equal(source, prev[s])
            want = m[:, :, None] * own + (1 - m[:, :, None]) * warp(prev[s], flow)
            assert np.abs(result - want).max() <= 1e-12
            assert np.array_equal(keyframe, result)


def test_chain_uses_updated_predecessor_not_original(monkeypatch):
    # with M=0 and zero flows, batch 2's keyframe must equal batch 0's, which
    # only happens if batch 1's chain update feeds forward
    lq = _chain_video()
    bank, _ = _chain_bank(lq, _zero_chain_links)
    batches = _run_chain(monkeypatch, lq, bank)
    for s in range(CHAIN_CFG.steps):
        (own1, _, _, _, result1), _, _ = batches[1][s]
        (_, source2, _, _, _), keyframe2, _ = batches[2][s]
        assert np.array_equal(source2, result1)
        assert not np.allclose(source2, own1)
        assert np.allclose(keyframe2, batches[0][s][1])


# Star propagation also runs inside pipeline.restore_latents: per step, each
# batch member x0 is one blend_warped call with the batch's keyframe x0 as
# source.


def test_propagate_keyframe_copies_unchanged():
    rng = np.random.default_rng(7)
    kf = rng.standard_normal((4, 4, 3))
    out = lw.blend_warped(kf.copy(), kf, np.zeros((4, 4, 2)), np.zeros((4, 4)))
    assert np.allclose(out, kf)


def test_propagate_masked_member_untouched():
    rng = np.random.default_rng(8)
    kf = rng.standard_normal((4, 4, 3))
    member = rng.standard_normal((4, 4, 3))
    out = lw.blend_warped(member, kf, rng.uniform(-1, 1, (4, 4, 2)), np.ones((4, 4)))
    assert np.array_equal(out, member)


def test_propagate_matches_per_member_oracle(monkeypatch):
    lq = _chain_video()
    bank, _ = _chain_bank(lq)
    batches = _run_chain(monkeypatch, lq, bank)
    plan = plan_batches(len(lq), CHAIN_CFG.batch_size, CHAIN_CFG.seed)
    hl, wl = lq.shape[0] // 2, lq.shape[1] // 2
    occluded = []
    for b, (start, stop) in enumerate(plan.batches):
        kf = plan.keyframe_of[b]
        members = [f for f in range(start, stop) if f != kf]
        flows = [resample_flow(bank.flow[(m, kf)], hl, wl) for m in members]
        masks = [_mask(bank, (m, kf), hl, wl) for m in members]
        occluded += [m.mean() for m in masks]
        for _, keyframe, star in batches[b]:
            # one call per member, in frame order, each from the keyframe
            assert len(star) == len(members)
            for (own, source, used_flow, used_mask, result), f, m in zip(star, flows, masks):
                assert np.array_equal(source, keyframe)
                assert np.array_equal(used_flow, f)
                assert np.array_equal(used_mask, m)
                want = m[:, :, None] * own + (1 - m[:, :, None]) * warp(keyframe, f)
                assert np.abs(result - want).max() <= 1e-12
    assert any(0.0 < frac < 1.0 for frac in occluded)  # both branches of the blend run

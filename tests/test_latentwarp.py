import numpy as np
import pytest

from zsvr import latentwarp as lw
from zsvr import pipeline
from zsvr.cli import degrade_video, make_demo_video
from zsvr.flow import resample_flow, resample_mask, warp
from zsvr.pipeline import RestoreConfig, plan_batches


def test_predict_x0_abar_one_is_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 4, 3))
    eps = rng.standard_normal((4, 4, 3))
    assert np.array_equal(lw.predict_x0(x, eps, 1.0), x)


def test_predict_x0_inverts_forward_noising():
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal((5, 5, 3))
    eps = rng.standard_normal((5, 5, 3))
    abar = 0.37
    x_t = np.sqrt(abar) * x0 + np.sqrt(1 - abar) * eps
    assert np.abs(lw.predict_x0(x_t, eps, abar) - x0).max() <= 1e-6


def test_predict_x0_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    x_t = rng.standard_normal((3, 4, 2))
    eps = rng.standard_normal((3, 4, 2))
    abar = 0.6
    got = lw.predict_x0(x_t, eps, abar)
    for y in range(3):
        for x in range(4):
            for c in range(2):
                want = (x_t[y, x, c] - np.sqrt(1 - abar) * eps[y, x, c]) / np.sqrt(abar)
                assert abs(got[y, x, c] - want) <= 1e-12


def test_predict_x0_rejects_bad_abar():
    x = np.zeros((2, 2, 3))
    with pytest.raises(ValueError, match="abar"):
        lw.predict_x0(x, x, 0.0)
    with pytest.raises(ValueError, match="abar"):
        lw.predict_x0(x, x, 1.5)


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
    steps=4, batch_size=3, latent_scale=2, seed=0, hlw_windows=[(0.0, 1.0)], tome_enabled=False
)


def _chain_video():
    return degrade_video(make_demo_video(n=7, h=16, w=16, seed=0), 2, 0.05, 0)


def _chain_bank(lq, edit=None):
    """The flow bank restore reads, with edit(bank, chain_pairs) applied."""
    plan = plan_batches(len(lq), CHAIN_CFG.batch_size, CHAIN_CFG.seed)
    bank = pipeline.precompute_flows(lq, plan, CHAIN_CFG)
    pairs = [(plan.keyframe_of[b], plan.keyframe_of[b - 1]) for b in range(1, len(plan.batches))]
    if edit is not None:
        edit(bank, pairs)
    return bank, pairs


def _run_chain(monkeypatch, lq, bank):
    """Per batch, per step: (chain call or None, keyframe x0 it propagates).

    A chain call is (own, source, flow, mask, result) of blend_warped.
    """
    blend, propagate = lw.blend_warped, lw.propagate_to_batch
    events, in_star = [], []

    def spy_blend(own, source, flow, mask):
        result = blend(own, source, flow, mask)
        if not in_star:
            events.append(("chain", own.copy(), source.copy(), flow.copy(), mask.copy(), result.copy()))
        return result

    def spy_propagate(keyframe, *args):
        events.append(("star", keyframe.copy()))
        in_star.append(True)
        try:
            return propagate(keyframe, *args)
        finally:
            in_star.pop()

    with monkeypatch.context() as mp:
        mp.setattr(lw, "blend_warped", spy_blend)
        mp.setattr(lw, "propagate_to_batch", spy_propagate)
        pipeline.restore_latents(lq, CHAIN_CFG, bank)
    steps, chain = [], None
    for ev in events:
        if ev[0] == "chain":
            assert chain is None
            chain = ev[1:]
        else:
            steps.append((chain, ev[1]))
            chain = None
    n = CHAIN_CFG.steps
    assert len(steps) == 3 * n
    return [steps[b * n : (b + 1) * n] for b in range(3)]


def _zero_chain_links(bank, pairs):
    for pair in pairs:
        bank.flow[pair] = np.zeros_like(bank.flow[pair])
        bank.mask[pair] = np.zeros_like(bank.mask[pair])


def test_chain_mask_one_keeps_keyframes(monkeypatch):
    def unit_masks(bank, pairs):
        for pair in pairs:
            bank.mask[pair] = np.ones_like(bank.mask[pair])

    lq = _chain_video()
    bank, _ = _chain_bank(lq, unit_masks)
    batches = _run_chain(monkeypatch, lq, bank)
    assert all(chain is None for chain, _ in batches[0])
    for steps in batches[1:]:
        for (own, _, _, _, result), keyframe in steps:
            assert np.array_equal(result, own)
            assert np.array_equal(keyframe, own)


def test_chain_mask_zero_zero_flow_copies_first(monkeypatch):
    lq = _chain_video()
    bank, _ = _chain_bank(lq, _zero_chain_links)
    batches = _run_chain(monkeypatch, lq, bank)
    for steps in batches[1:]:
        for s, (_, keyframe) in enumerate(steps):
            assert np.allclose(keyframe, batches[0][s][1])


def test_chain_matches_elementwise_oracle(monkeypatch):
    lq = _chain_video()
    bank, pairs = _chain_bank(lq)
    batches = _run_chain(monkeypatch, lq, bank)
    hl, wl = lq.shape[0] // 2, lq.shape[1] // 2
    for b in (1, 2):
        flow = resample_flow(bank.flow[pairs[b - 1]], hl, wl)
        m = resample_mask(bank.mask[pairs[b - 1]], hl, wl)
        assert 0.0 < m.mean() < 1.0  # both branches of the blend are exercised
        prev = [keyframe for _, keyframe in batches[b - 1]]
        for s, ((own, source, used_flow, used_mask, result), keyframe) in enumerate(batches[b]):
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
        (own1, _, _, _, result1), _ = batches[1][s]
        (_, source2, _, _, _), keyframe2 = batches[2][s]
        assert np.array_equal(source2, result1)
        assert not np.allclose(source2, own1)
        assert np.allclose(keyframe2, batches[0][s][1])


def test_propagate_keyframe_copies_unchanged():
    rng = np.random.default_rng(7)
    kf = rng.standard_normal((4, 4, 3))
    members = [kf.copy(), kf.copy()]
    flows = [np.zeros((4, 4, 2))] * 2
    masks = [np.zeros((4, 4))] * 2
    out = lw.propagate_to_batch(kf, members, flows, masks)
    for latent in out:
        assert np.allclose(latent, kf)


def test_propagate_masked_member_untouched():
    rng = np.random.default_rng(8)
    kf = rng.standard_normal((4, 4, 3))
    member = rng.standard_normal((4, 4, 3))
    out = lw.propagate_to_batch(
        kf, [member], [rng.uniform(-1, 1, (4, 4, 2))], [np.ones((4, 4))]
    )
    assert np.array_equal(out[0], member)


def test_propagate_matches_per_member_oracle():
    rng = np.random.default_rng(9)
    kf = rng.standard_normal((5, 5, 3))
    members = [rng.standard_normal((5, 5, 3)) for _ in range(3)]
    flows = [rng.uniform(-1, 1, (5, 5, 2)) for _ in range(3)]
    masks = [(rng.random((5, 5)) < 0.5).astype(float) for _ in range(3)]
    out = lw.propagate_to_batch(kf, members, flows, masks)
    for i in range(3):
        m = masks[i][:, :, None]
        want = m * members[i] + (1 - m) * warp(kf, flows[i])
        assert np.abs(out[i] - want).max() <= 1e-12


def test_propagate_count_mismatch():
    kf = np.zeros((2, 2, 3))
    with pytest.raises(ValueError, match="per batch member"):
        lw.propagate_to_batch(kf, [kf], [], [])

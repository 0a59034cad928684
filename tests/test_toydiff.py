import math
import tracemalloc

import numpy as np
import pytest

from zsvr import toydiff
from zsvr.latentwarp import predict_x0
from zsvr.toydiff import (
    BlockKind,
    ToyDenoiser,
    denoise_step,
    forward_diffuse,
    make_schedule,
    sample,
    step_indices,
)


def test_make_schedule_single_step():
    s = make_schedule(1, 0.1, 0.1)
    assert np.allclose(s.alphas, [0.9])
    assert np.allclose(s.abars, [0.9])


def test_make_schedule_two_steps():
    s = make_schedule(2, 0.1, 0.1)
    assert np.allclose(s.abars, [0.9, 0.81])


def test_make_schedule_abars_strictly_decreasing():
    s = make_schedule(1000, 1e-4, 0.02)
    assert np.all(np.diff(s.abars) < 0)
    assert s.abars[0] > 0.99


def test_make_schedule_validation():
    with pytest.raises(ValueError):
        make_schedule(0, 0.1, 0.2)
    with pytest.raises(ValueError):
        make_schedule(10, 0.2, 0.1)
    with pytest.raises(ValueError):
        make_schedule(10, 0.0, 0.1)


def test_forward_diffuse_limits():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((1, 4, 4, 3))
    eps = rng.standard_normal((1, 4, 4, 3))
    s = make_schedule(100, 1e-8, 1e-8)
    assert np.abs(forward_diffuse(x0, 0, eps, s) - x0).max() < 1e-3
    s2 = make_schedule(100, 1e-4, 0.02)
    got = forward_diffuse(np.zeros_like(x0), 50, eps, s2)
    assert np.allclose(got, math.sqrt(1 - s2.abars[50]) * eps)


def test_forward_diffuse_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal((1, 3, 3, 2))
    eps = rng.standard_normal((1, 3, 3, 2))
    s = make_schedule(10, 0.01, 0.05)
    t = 4
    got = forward_diffuse(x0, t, eps, s)
    want = math.sqrt(s.abars[t]) * x0 + math.sqrt(1 - s.abars[t]) * eps
    assert np.abs(got - want).max() <= 1e-12


def test_denoiser_deterministic_weights():
    a = ToyDenoiser(seed=5)
    b = ToyDenoiser(seed=5)
    assert np.array_equal(a.w_in, b.w_in)
    for wa, wb in zip(a.weights, b.weights):
        for key in wa:
            assert np.array_equal(wa[key], wb[key])


def test_denoiser_shape_and_determinism():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 6, 6, 3))
    d = ToyDenoiser(seed=0)
    out1 = d(x)
    out2 = d(x.copy())
    assert out1.shape == x.shape
    assert np.array_equal(out1, out2)


def test_denoiser_batch_rows_independent():
    # hookless attention is per-frame, so each batch row only depends on
    # its own frame
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 4, 4, 3))
    d = ToyDenoiser(seed=1)
    joint = d(x)
    for i in range(3):
        solo = d(x[i : i + 1])
        assert np.array_equal(joint[i], solo[0])


def test_denoiser_odd_sizes():
    rng = np.random.default_rng(4)
    d = ToyDenoiser(seed=0)
    for h, w in [(5, 7), (3, 3), (4, 6)]:
        x = rng.standard_normal((1, h, w, 3))
        assert d(x).shape == x.shape


def test_attention_hook_sees_all_blocks():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 4, 4, 3))
    kinds = []

    def hook(kind, chunk, attn):
        kinds.append(kind)
        return np.stack([attn(chunk.tokens[i]) for i in range(chunk.tokens.shape[0])])

    d = ToyDenoiser(seed=0)
    out_hooked = d(x, attention_hook=hook)
    out_plain = d(x)
    assert kinds == [BlockKind.DOWN, BlockKind.DOWN, BlockKind.UP, BlockKind.UP]
    assert np.array_equal(out_hooked, out_plain)


def _attend_fresh(d, tokens, block):
    """The former ToyDenoiser._attend: a fresh score matrix on every call."""
    w = d.weights[block]
    q = tokens @ w["q"]
    k = tokens @ w["k"]
    v = tokens @ w["v"]
    scores = q @ k.T
    scores /= math.sqrt(d.width)
    return toydiff._softmax(scores) @ v


def test_attend_score_scratch_matches_fresh_scores():
    # K grows, shrinks to 1 and grows again, so the scratch is reused both
    # as a prefix of a larger block and after reallocation
    rng = np.random.default_rng(7)
    d = ToyDenoiser(seed=3)
    returned = []
    for i, k in enumerate([5, 1, 40, 12, 1, 64, 3, 100, 64, 1]):
        tokens = rng.standard_normal((k, d.width))
        block = i % d.N_BLOCKS
        got = d._attend(tokens, block)
        assert np.array_equal(got, _attend_fresh(d, tokens, block))
        returned.append((got, got.copy()))
    for got, snapshot in returned:  # no later call wrote into a result
        assert np.array_equal(got, snapshot)
    assert d._scores.size == 100 * 100  # grown to exactly the largest K**2


def test_attend_reuses_score_scratch_at_same_k():
    k = 300
    tokens = np.random.default_rng(8).standard_normal((k, 16))
    d = ToyDenoiser(seed=0)
    d._attend(tokens, 0)
    tracemalloc.start()
    try:
        d._attend(tokens, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < k * k * 8 / 2


def test_denoise_step_single_step_returns_x0():
    rng = np.random.default_rng(6)
    s = make_schedule(4, 0.05, 0.1)
    x = rng.standard_normal((1, 4, 4, 3))
    d = ToyDenoiser(seed=0)
    x0, eps = denoise_step(x, 3, d, s)
    eps_hat = d(x)
    assert np.array_equal(eps, eps_hat)
    assert np.array_equal(x0, predict_x0(x, eps_hat, s.abars[3]))


def test_sample_two_step_hand_unrolled():
    rng = np.random.default_rng(9)
    s = make_schedule(10, 0.01, 0.05)
    x = rng.standard_normal((1, 4, 4, 3))
    d = ToyDenoiser(seed=3)
    got = sample(x, d, s, 2)

    ts = step_indices(10, 2)
    eps1 = d(x)
    x0_1 = predict_x0(x, eps1, s.abars[ts[0]])
    x1 = math.sqrt(s.abars[ts[1]]) * x0_1 + math.sqrt(1 - s.abars[ts[1]]) * eps1
    eps2 = d(x1)
    want = predict_x0(x1, eps2, s.abars[ts[1]])
    assert np.array_equal(got, want)


def test_step_indices_properties():
    for T, steps in [(100, 10), (100, 100), (50, 1), (10, 7)]:
        ts = step_indices(T, steps)
        assert len(ts) == steps
        assert ts[0] == T - 1
        if steps > 1:
            assert ts[-1] == 0
        assert all(a > b for a, b in zip(ts, ts[1:]))
    with pytest.raises(ValueError):
        step_indices(10, 0)
    with pytest.raises(ValueError):
        step_indices(10, 11)


def test_sample_deterministic():
    rng = np.random.default_rng(10)
    s = make_schedule(30, 0.01, 0.05)
    x = rng.standard_normal((2, 4, 4, 3))
    d = ToyDenoiser(seed=0)
    assert np.array_equal(sample(x, d, s, 6), sample(x, d, s, 6))

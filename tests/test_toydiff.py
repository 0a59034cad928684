import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsvr import toydiff
from zsvr.tokenmerge import serial_rows
from zsvr.toydiff import (
    BlockKind,
    ToyDenoiser,
    denoise_step,
    forward_diffuse,
    make_schedule,
    predict_x0,
    step_indices,
)

from reference import attend_blocks, sample


def test_make_schedule_single_step():
    s = make_schedule(1, 0.1, 0.1)
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


def test_predict_x0_abar_one_is_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 4, 3))
    eps = rng.standard_normal((4, 4, 3))
    assert np.array_equal(predict_x0(x, eps, 1.0), x)


def test_predict_x0_inverts_forward_noising():
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal((5, 5, 3))
    eps = rng.standard_normal((5, 5, 3))
    abar = 0.37
    x_t = np.sqrt(abar) * x0 + np.sqrt(1 - abar) * eps
    assert np.abs(predict_x0(x_t, eps, abar) - x0).max() <= 1e-6


def test_predict_x0_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    x_t = rng.standard_normal((3, 4, 2))
    eps = rng.standard_normal((3, 4, 2))
    abar = 0.6
    got = predict_x0(x_t, eps, abar)
    for y in range(3):
        for x in range(4):
            for c in range(2):
                want = (x_t[y, x, c] - np.sqrt(1 - abar) * eps[y, x, c]) / np.sqrt(abar)
                assert abs(got[y, x, c] - want) <= 1e-12


def test_predict_x0_rejects_bad_abar():
    x = np.zeros((2, 2, 3))
    with pytest.raises(ValueError, match="abar"):
        predict_x0(x, x, 0.0)
    with pytest.raises(ValueError, match="abar"):
        predict_x0(x, x, 1.5)


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
    """ToyDenoiser._attend as one row block: a fresh score matrix against
    contiguous keys, normalised after the product with the values."""
    w = d.weights[block]
    q = tokens @ w["q"]
    kt = np.ascontiguousarray((tokens @ w["k"]).T)
    v = tokens @ w["v"]
    scores = q @ kt
    scores /= math.sqrt(d.width)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    return (scores @ v) / scores.sum(axis=-1, keepdims=True)


def _attend_textbook(d, tokens, block):
    """softmax(q k^T / sqrt(width)) v, with the probabilities normalised
    before the product with the values."""
    w = d.weights[block]
    q = tokens @ w["q"]
    k = tokens @ w["k"]
    v = tokens @ w["v"]
    scores = q @ k.T / math.sqrt(d.width)
    p = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    return p @ v


def test_attend_score_scratch_matches_fresh_scores():
    # every K here fits in one row block (serial_rows(100, 16) = 163), and
    # scaling q by 1/4 instead of the scores is exact, so each result keeps
    # the one-block formula's bits
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


def test_attend_row_blocks_stay_close_to_former_formula():
    # 1936 tokens are 242 blocks of 8 rows
    tokens = np.random.default_rng(8).standard_normal((1936, 16))
    d = ToyDenoiser(seed=0)
    got = d._attend(tokens, 1)
    assert np.abs(got - _attend_textbook(d, tokens, 1)).max() <= 1e-12


@st.composite
def _attend_inputs(draw):
    # K = 8m + r covers every residue mod 8 evenly; OpenBLAS takes another
    # edge kernel when K mod 8 is 1-4
    k = 8 * draw(st.integers(0, 87)) + draw(st.integers(1, 8))
    scale = 10.0 ** draw(st.floats(-3.0, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal((k, 16)) * scale, draw(st.integers(0, 3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_attend_inputs())
def test_attend_is_a_close_convex_combination_of_values_property(case):
    tokens, block = case
    d = ToyDenoiser(seed=0)
    got = d._attend(tokens, block)
    v = tokens @ d.weights[block]["v"]
    # every output is a convex combination of rows of v, so max |v| is the
    # scale of the result
    tol = 1e-12 * np.abs(v).max()
    assert np.isfinite(got).all()
    assert np.abs(got - _attend_textbook(d, tokens, block)).max() <= tol
    assert np.all(got >= v.min(axis=0) - tol)
    assert np.all(got <= v.max(axis=0) + tol)


def test_attend_stacks_match_per_block_reference(monkeypatch):
    # K = 8m + r over every residue mod 8. At 1929-1944 tokens the blocks
    # are 8 rows, 4 to a stack, with a shorter last stack, and a short last
    # block except at K = 1936. Smaller budgets make stacks of 2 blocks of
    # 53-55 rows at K near 300, and stacks of one block
    rng = np.random.default_rng(24)
    d = ToyDenoiser(seed=0)
    sizes = {65536: range(1929, 1945), 32768: range(297, 305), 4096: [1999, 2003]}
    for budget, ks in sizes.items():
        monkeypatch.setattr(toydiff, "STACK_SCORES", budget)
        for k in ks:
            rows = serial_rows(k, d.width)
            assert k // rows > max(1, budget // (rows * k))  # several stacks
            tokens = rng.standard_normal((k, d.width))
            for block in range(d.N_BLOCKS):
                assert np.array_equal(d._attend(tokens, block), attend_blocks(d, tokens, block))


def test_attention_maps_zero_tokens_to_zero_rows():
    # a hook may hand the attention callable an empty token set
    rng = np.random.default_rng(25)
    x = rng.standard_normal((2, 4, 4, 3))
    empty = []

    def hook(kind, chunk, attn):
        empty.append(attn(np.empty((0, chunk.tokens.shape[2]))))
        return np.stack([attn(t) for t in chunk.tokens])

    d = ToyDenoiser(seed=0)
    assert np.array_equal(d(x, attention_hook=hook), d(x))
    assert len(empty) == d.N_BLOCKS
    assert all(e.shape == (0, d.width) for e in empty)


def test_attend_memory_is_bounded():
    # the former formula held a 1936 x 1936 float64 score array (30 MB)
    tokens = np.random.default_rng(8).standard_normal((1936, 16))
    d = ToyDenoiser(seed=0)
    tracemalloc.start()
    try:
        d._attend(tokens, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_one_denoiser_serves_two_threads():
    rng = np.random.default_rng(10)
    xs = [rng.standard_normal((2, 24, 24, 3)) for _ in range(6)]
    d = ToyDenoiser(seed=0)
    serial = [d(x) for x in xs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        for _ in range(3):
            threaded = list(pool.map(d, xs))
            for got, want in zip(threaded, serial):
                assert np.array_equal(got, want)


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

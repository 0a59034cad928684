import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsvr import toydiff
from zsvr.pipeline import RestoreConfig
from zsvr.tokenmerge import serial_rows
from zsvr.toydiff import (
    BlockKind,
    ToyDenoiser,
    denoise_step,
    forward_diffuse,
    predict_x0,
    step_indices,
)

from reference import attend_blocks, sample


def test_abars_is_the_fixed_read_only_schedule():
    abars = toydiff.ABARS
    want = np.cumprod(1.0 - np.linspace(1e-4, 0.02, 100))
    assert toydiff.T == 100 and abars.shape == (toydiff.T,)
    assert abars.dtype == want.dtype and abars.tobytes() == want.tobytes()
    assert not abars.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        abars[0] = 0.5
    assert np.all(np.diff(abars) < 0)
    assert 0.0 < abars[-1] and abars[0] < 1.0
    RestoreConfig(steps=toydiff.T).validate()
    with pytest.raises(ValueError, match=f"steps must be in \\[1, {toydiff.T}\\]"):
        RestoreConfig(steps=toydiff.T + 1).validate()


def test_forward_diffuse_limits():
    rng = np.random.default_rng(0)
    eps = rng.standard_normal((1, 4, 4, 3))
    # t = 0 is one step of beta 1e-4, so abar_0 = 1 - 1e-4 exactly
    one, zero = np.ones(1), np.zeros(1)
    assert forward_diffuse(one, 0, zero)[0] == math.sqrt(1.0 - 1e-4)
    assert forward_diffuse(zero, 0, one)[0] == math.sqrt(1.0 - (1.0 - 1e-4))
    got = forward_diffuse(np.zeros_like(eps), 50, eps)
    assert np.allclose(got, math.sqrt(1 - toydiff.ABARS[50]) * eps)


def test_forward_diffuse_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal((1, 3, 3, 2))
    eps = rng.standard_normal((1, 3, 3, 2))
    abars = toydiff.ABARS
    t = 4
    got = forward_diffuse(x0, t, eps)
    want = math.sqrt(abars[t]) * x0 + math.sqrt(1 - abars[t]) * eps
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
    x = rng.standard_normal((1, 4, 4, 3))
    d = ToyDenoiser(seed=0)
    x0, eps = denoise_step(x, 3, d)
    eps_hat = d(x)
    assert np.array_equal(eps, eps_hat)
    assert np.array_equal(x0, predict_x0(x, eps_hat, toydiff.ABARS[3]))


def test_sample_two_step_hand_unrolled():
    rng = np.random.default_rng(9)
    abars = toydiff.ABARS
    x = rng.standard_normal((1, 4, 4, 3))
    d = ToyDenoiser(seed=3)
    got = sample(x, d, 2)

    ts = step_indices(2)
    eps1 = d(x)
    x0_1 = predict_x0(x, eps1, abars[ts[0]])
    x1 = math.sqrt(abars[ts[1]]) * x0_1 + math.sqrt(1 - abars[ts[1]]) * eps1
    eps2 = d(x1)
    want = predict_x0(x1, eps2, abars[ts[1]])
    assert np.array_equal(got, want)


def test_step_indices_properties():
    for steps in (10, 100, 1, 7, 2):
        ts = step_indices(steps)
        assert len(ts) == steps
        assert ts[0] == toydiff.T - 1
        if steps > 1:
            assert ts[-1] == 0
        assert all(a > b for a, b in zip(ts, ts[1:]))
    with pytest.raises(ValueError):
        step_indices(0)
    with pytest.raises(ValueError):
        step_indices(toydiff.T + 1)


def test_sample_deterministic():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 4, 4, 3))
    d = ToyDenoiser(seed=0)
    assert np.array_equal(sample(x, d, 6), sample(x, d, 6))

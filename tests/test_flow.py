import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsvr import flow


def warp_oracle(grid, fl):
    """Scalar-loop bilinear backward warp with clamped coordinates."""
    g = grid[:, :, None] if grid.ndim == 2 else grid
    h, w, c = g.shape
    out = np.zeros_like(g, dtype=np.float64)
    for y in range(h):
        for x in range(w):
            px = min(max(x + fl[y, x, 0], 0.0), w - 1.0)
            py = min(max(y + fl[y, x, 1], 0.0), h - 1.0)
            x0, y0 = int(math.floor(px)), int(math.floor(py))
            x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
            fx, fy = px - x0, py - y0
            for ch in range(c):
                out[y, x, ch] = (
                    g[y0, x0, ch] * (1 - fx) * (1 - fy)
                    + g[y0, x1, ch] * fx * (1 - fy)
                    + g[y1, x0, ch] * (1 - fx) * fy
                    + g[y1, x1, ch] * fx * fy
                )
    return out[:, :, 0] if grid.ndim == 2 else out


def fb_confidence_oracle(f_fwd, f_bwd):
    bwd_at = warp_oracle(f_bwd, f_fwd)
    h, w = f_fwd.shape[:2]
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            ru = f_fwd[y, x, 0] + bwd_at[y, x, 0]
            rv = f_fwd[y, x, 1] + bwd_at[y, x, 1]
            out[y, x] = math.exp(-(ru * ru + rv * rv))
    return out


def estimate_flow_oracle(src, dst, block, search):
    """Exhaustive per-pixel SSD block matching with clamped patch sampling.

    The per-pixel squared error is channel-summed first and the block cost
    accumulates as a row sum of column sums, mirroring the implementation's
    addition order so exact ties resolve identically.
    """
    src = src[:, :, None] if src.ndim == 2 else src
    dst = dst[:, :, None] if dst.ndim == 2 else dst
    h, w, c = src.shape
    half = block // 2
    cands = sorted(
        (dy * dy + dx * dx, dy, dx)
        for dy in range(-search, search + 1)
        for dx in range(-search, search + 1)
    )
    out = np.zeros((h, w, 2))

    def err_at(y, x, dy, dx):
        dyy = min(max(y + dy, 0), h - 1)
        dxx = min(max(x + dx, 0), w - 1)
        e = 0.0
        for ch in range(c):
            diff = src[y, x, ch] - dst[dyy, dxx, ch]
            e += diff * diff
        return e

    for y in range(h):
        for x in range(w):
            best = math.inf
            best_d = (0, 0)
            for _, dy, dx in cands:
                cost = 0.0
                for oy in range(-half, block - half):
                    sy = min(max(y + oy, 0), h - 1)
                    row = 0.0
                    for ox in range(-half, block - half):
                        sx = min(max(x + ox, 0), w - 1)
                        row += err_at(sy, sx, dy, dx)
                    cost += row
                if cost < best:
                    best = cost
                    best_d = (dx, dy)
            out[y, x] = best_d
    return out


def test_estimate_flow_identity():
    rng = np.random.default_rng(0)
    img = rng.random((12, 14, 3))
    fl = flow.estimate_flow(img, img, block=5, search=3)
    assert np.array_equal(fl, np.zeros((12, 14, 2)))


def test_estimate_flow_translation_interior():
    rng = np.random.default_rng(1)
    wide = rng.random((20, 40, 3))
    src = wide[:, 0:20]
    dst = wide[:, 3:23]  # dst is src shifted left: content moves -3 in x
    fl = flow.estimate_flow(src, dst, block=7, search=4)
    interior = fl[6:-6, 6:-6]
    assert np.all(interior[:, :, 0] == -3)
    assert np.all(interior[:, :, 1] == 0)


def test_estimate_flow_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        flow.estimate_flow(np.zeros((4, 4)), np.zeros((5, 4)), 7, 4)


def test_estimate_flow_matches_oracle():
    rng = np.random.default_rng(2)
    for _ in range(3):
        src = rng.random((7, 8))
        dst = rng.random((7, 8))
        got = flow.estimate_flow(src, dst, block=3, search=2)
        want = estimate_flow_oracle(src, dst, block=3, search=2)
        assert np.array_equal(got, want)


@st.composite
def _flow_cases(draw):
    h = draw(st.integers(1, 12))
    w = draw(st.integers(1, 12))
    shape = (h, w) if draw(st.booleans()) else (h, w, 3)
    # few levels, so equal block costs (ties) are common
    levels = draw(st.integers(1, 4))
    cells = st.integers(0, levels)
    n = int(np.prod(shape))
    src = np.array(draw(st.lists(cells, min_size=n, max_size=n))).reshape(shape) / 4
    dst = np.array(draw(st.lists(cells, min_size=n, max_size=n))).reshape(shape) / 4
    return src, dst, draw(st.integers(1, 9)), draw(st.integers(0, 6))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_flow_cases())
def test_estimate_flow_matches_oracle_property(case):
    # block and search may exceed the frame, so clamping covers whole patches
    src, dst, block, search = case
    got = flow.estimate_flow(src, dst, block=block, search=search)
    want = estimate_flow_oracle(src, dst, block=block, search=search)
    assert np.array_equal(got, want)


def test_warp_zero_flow_identity():
    rng = np.random.default_rng(3)
    img = rng.random((6, 7, 3))
    assert np.allclose(flow.warp(img, np.zeros((6, 7, 2))), img)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 10),
    st.integers(1, 10),
    st.sampled_from([None, 1, 3]),
    st.integers(0, 2**32 - 1),
    st.floats(1e-3, 1e6),
)
def test_warp_zero_flow_identity_property(h, w, c, seed, scale):
    rng = np.random.default_rng(seed)
    img = scale * rng.standard_normal((h, w) if c is None else (h, w, c))
    assert np.array_equal(flow.warp(img, np.zeros((h, w, 2))), img)


def test_warp_matches_oracle():
    rng = np.random.default_rng(4)
    for _ in range(5):
        img = rng.random((6, 6, 3))
        fl = rng.uniform(-3, 3, (6, 6, 2))
        assert np.abs(flow.warp(img, fl) - warp_oracle(img, fl)).max() < 1e-12


def test_warp_2d_grid():
    rng = np.random.default_rng(5)
    img = rng.random((5, 5))
    fl = rng.uniform(-2, 2, (5, 5, 2))
    got = flow.warp(img, fl)
    assert got.shape == (5, 5)
    assert np.allclose(got, warp_oracle(img, fl))


def test_warp_is_linear_in_grid():
    rng = np.random.default_rng(6)
    x = rng.random((6, 6, 3))
    y = rng.random((6, 6, 3))
    fl = rng.uniform(-2, 2, (6, 6, 2))
    lhs = flow.warp(2.0 * x + 3.0 * y, fl)
    rhs = 2.0 * flow.warp(x, fl) + 3.0 * flow.warp(y, fl)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_fb_confidence_consistent_flows():
    f = np.full((4, 4, 2), 1.5)
    assert np.allclose(flow.fb_confidence(f, -f), 1.0)


def test_fb_confidence_unit_residual():
    # zero forward flow, backward flow (1, 0): residual norm exactly 1
    f_fwd = np.zeros((3, 3, 2))
    f_bwd = np.zeros((3, 3, 2))
    f_bwd[:, :, 0] = 1.0
    sigma = flow.fb_confidence(f_fwd, f_bwd)
    assert np.allclose(sigma, math.exp(-1.0), atol=1e-12)


def test_fb_confidence_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(5):
        f_fwd = rng.uniform(-2, 2, (6, 6, 2))
        f_bwd = rng.uniform(-2, 2, (6, 6, 2))
        got = flow.fb_confidence(f_fwd, f_bwd)
        want = fb_confidence_oracle(f_fwd, f_bwd)
        assert np.abs(got - want).max() < 1e-6


def test_occlusion_mask_polarity_and_threshold():
    f_fwd = np.zeros((3, 3, 2))
    f_bwd = np.zeros((3, 3, 2))
    assert np.array_equal(flow.occlusion_mask(f_fwd, f_bwd, 0.9), np.zeros((3, 3)))
    f_bwd[:, :, 0] = 1.0  # residual norm 1 -> sigma = e^-1 < 0.5
    assert np.array_equal(flow.occlusion_mask(f_fwd, f_bwd, 0.5), np.ones((3, 3)))


def test_occlusion_mask_matches_thresholded_confidence():
    rng = np.random.default_rng(8)
    f_fwd = rng.uniform(-2, 2, (6, 6, 2))
    f_bwd = rng.uniform(-2, 2, (6, 6, 2))
    sigma = fb_confidence_oracle(f_fwd, f_bwd)
    mask = flow.occlusion_mask(f_fwd, f_bwd, 0.368)
    assert np.array_equal(mask, (sigma < 0.368).astype(float))


def test_occlusion_mask_monotone_in_tau():
    rng = np.random.default_rng(9)
    f_fwd = rng.uniform(-2, 2, (8, 8, 2))
    f_bwd = rng.uniform(-2, 2, (8, 8, 2))
    m_lo = flow.occlusion_mask(f_fwd, f_bwd, 0.2)
    m_hi = flow.occlusion_mask(f_fwd, f_bwd, 0.8)
    assert np.all(m_hi >= m_lo)


def test_bilinear_resample_same_size_identity():
    rng = np.random.default_rng(10)
    img = rng.random((7, 9, 3))
    assert np.array_equal(flow.bilinear_resample(img, 7, 9), img)


def test_resample_flow_constant_field_halved():
    fl = np.zeros((8, 8, 2))
    fl[:, :, 0] = 4.0
    fl[:, :, 1] = 2.0
    out = flow.resample_flow(fl, 4, 4)
    assert np.allclose(out[:, :, 0], 2.0)
    assert np.allclose(out[:, :, 1], 1.0)


def test_resample_flow_same_size_identity():
    rng = np.random.default_rng(11)
    fl = rng.uniform(-3, 3, (6, 6, 2))
    assert np.allclose(flow.resample_flow(fl.copy(), 6, 6), fl)


def test_resample_down_up_bounded_by_local_variation():
    rng = np.random.default_rng(12)
    fl = rng.uniform(-1, 1, (16, 16, 2))
    down = flow.resample_flow(fl.copy(), 8, 8)
    up = flow.resample_flow(down, 16, 16)
    # local Lipschitz bound: 2px of travel times the max neighbor gradient
    gy = np.abs(np.diff(fl, axis=0)).max()
    gx = np.abs(np.diff(fl, axis=1)).max()
    bound = 2.0 * (gx + gy) + 1e-9
    assert np.abs(up[4:-4, 4:-4] - fl[4:-4, 4:-4]).max() <= bound


def test_resample_mask_preserves_binary():
    rng = np.random.default_rng(13)
    mask = (rng.random((10, 10)) < 0.4).astype(float)
    out = flow.resample_mask(mask, 5, 7)
    assert out.shape == (5, 7)
    assert set(np.unique(out)) <= {0.0, 1.0}

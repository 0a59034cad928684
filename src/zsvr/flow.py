"""Dense optical flow at desk scale: block matching, warping, consistency.

Conventions:
  * A flow field is an (h, w, 2) array; channel 0 is the horizontal
    displacement u (pixels), channel 1 the vertical displacement v.
  * estimate_flow(src, dst)[y, x] = d such that src[y, x] corresponds to
    dst at (x, y) + d.
  * warp(grid, flow)[p] = grid(p + flow(p)), bilinear, coordinates clamped
    to the valid rectangle. To align frame j onto frame i's geometry, pass
    flow = estimate_flow(frame_i, frame_j).
"""

from __future__ import annotations

import functools

import numpy as np


def _as_3d(img: np.ndarray) -> np.ndarray:
    return img[:, :, None] if img.ndim == 2 else img


# float64 values per buffer of a candidate group, so that the group's
# error/cost and row-sum buffers stay in a core's L2 cache; an int32 group
# holds twice as many values in the same bytes
GROUP_BUDGET = 32768


def _box_pass(src: np.ndarray, out: np.ndarray, length: int, step: int, block: int) -> None:
    """out[:length] = src[:length] + src[step:] + ... + src[(block-1)*step:], in order."""
    if block == 1:
        np.copyto(out[:length], src[:length])
        return
    np.add(src[:length], src[step : step + length], out=out[:length])
    for k in range(2, block):
        out[:length] += src[k * step : k * step + length]


def _codes(img: np.ndarray) -> np.ndarray | None:
    """The uint8 codes k of a float array whose every value is exactly k/255
    with k in [0, 255], that is rint(x*255)/255 == x; None for any other
    array (NaN, inf, values off the 8-bit grid, non-float dtypes)."""
    if img.dtype.kind != "f":
        return None
    q = np.rint(img * 255)
    if not (np.array_equal(q / 255, img) and np.all((q >= 0) & (q <= 255))):
        return None
    return q.astype(np.uint8)


def estimate_flow(src: np.ndarray, dst: np.ndarray, block: int, search: int) -> np.ndarray:
    """Exhaustive SSD block matching within +-search pixels.

    Ties are broken toward the smallest displacement magnitude, then raster
    order of the displacement, so flat regions report zero motion. Patch
    sampling clamps at image borders, so a displacement past max(h, w) - 1
    costs exactly what a nearer one tried before it costs; search is capped
    there, with the same flow. The cost of a candidate is the per-pixel
    squared error summed over channels in order, then over the block as a
    sum of row sums, in raster offset order.

    On 8-bit inputs the costs are exact, so the tie rule holds for every
    exact tie of the true SSD. 8-bit means both frames are uint8 codes, or
    both are float arrays whose values are each exactly k/255 with k in
    [0, 255]. The costs are then integer SSDs of the codes: in int32 while
    block**2 * channels * 255**2 < 2**31 (block <= 104 at 3 channels), else
    in float64, which holds them exactly too. Any other input is matched in
    float64 on its values, where a tie is an exact tie of the rounded costs.

    Layout: every plane has one flat row stride W = max(w + 2*search,
    w + block - 1). With half = block // 2, src sits at columns
    [half, half + w) of W-wide rows, and dst, edge-padded by search, is
    stored flat after a lead of half values, so each candidate's window is
    one contiguous run starting at (search + dy) * W + search + dx.

    Candidates are taken in sorted order, GROUP_BUDGET // S at a time for
    float64 costs and twice that for int32 (at least one), where
    S = (h + block - 1) * W is one candidate's flat segment. A candidate's
    squared error, summed over channels, fills rows [half, half + h) of its
    segment, and the x edge clamp fills the columns around them. The row
    pass is then block - 1 adds of shifted runs over the whole group's flat
    range at once, the y edge clamp fills the rows above and below, and the
    column pass does the same with shifts of W, so candidate i's cost lands
    at [i*S, i*S + h*W). Every valid output reads only its own segment.
    Selection is a strict < running minimum over the candidates in sorted
    order.
    """
    if src.shape != dst.shape:
        raise ValueError(f"shape mismatch: {src.shape} vs {dst.shape}")
    if block < 1:
        raise ValueError("block must be >= 1")
    if search < 0:
        raise ValueError("search must be >= 0")
    search = min(search, max(src.shape[:2]) - 1)
    a, b = (src, dst) if src.dtype == dst.dtype == np.uint8 else (_codes(src), _codes(dst))
    dtype = np.float64
    if a is not None and b is not None:
        src, dst = a, b
        channels = 1 if src.ndim == 2 else src.shape[2]
        if block * block * channels * 255**2 < 2**31:
            dtype = np.int32
    return _match(_as_3d(np.asarray(src, dtype)), _as_3d(np.asarray(dst, dtype)), block, search)


def _match(src: np.ndarray, dst: np.ndarray, block: int, search: int) -> np.ndarray:
    """estimate_flow's block matching of two (h, w, c) arrays of one dtype,
    float64 or int32, whose costs are computed in that dtype."""
    h, w, c = src.shape
    dtype = src.dtype

    candidates = sorted(
        (dy * dy + dx * dx, dy, dx)
        for dy in range(-search, search + 1)
        for dx in range(-search, search + 1)
    )
    half = block // 2
    W = max(w + 2 * search, w + block - 1)
    n = h * W
    S = (h + block - 1) * W
    offsets = [(search + dy) * W + search + dx for _, dy, dx in candidates]

    src_flat = np.zeros((c, h, W), dtype)
    src_flat[:, :, half : half + w] = src.transpose(2, 0, 1)
    src_flat = src_flat.reshape(c, n)
    hp = h + 2 * search
    # one spare row: the last candidate's window ends up to 2 * search
    # values past the padded rows
    dst_flat = np.zeros((c, (hp + 1) * W), dtype)
    dst_rows = dst_flat[:, half : half + hp * W].reshape(c, hp, W)
    s = search
    dst_rows[:, s : s + h, s : s + w] = dst.transpose(2, 0, 1)
    dst_rows[:, s : s + h, :s] = dst_rows[:, s : s + h, s : s + 1]
    dst_rows[:, s : s + h, s + w : w + 2 * s] = dst_rows[:, s : s + h, s + w - 1 : s + w]
    dst_rows[:, :s, : w + 2 * s] = dst_rows[:, s : s + 1, : w + 2 * s]
    dst_rows[:, s + h :, : w + 2 * s] = dst_rows[:, s + h - 1 : s + h, : w + 2 * s]

    group = max(1, min(len(candidates), GROUP_BUDGET * 8 // (dtype.itemsize * S)))
    sq = np.empty((c, n), dtype)
    # err holds the group's squared errors, then its block costs
    err = np.zeros(group * S, dtype)
    rows = np.zeros(group * S, dtype)
    err_3d = err.reshape(group, h + block - 1, W)
    rows_3d = rows.reshape(group, h + block - 1, W)
    better = np.empty(n, dtype=bool)
    # every int32 cost is below 2**31, so at most the initial maximum
    best_cost = np.full(n, np.inf if dtype.kind == "f" else np.iinfo(dtype).max, dtype)
    best_k = np.zeros(n, dtype=np.intp)
    for k0 in range(0, len(candidates), group):
        g = min(group, len(candidates) - k0)
        for i, off in enumerate(offsets[k0 : k0 + g]):
            e = err[i * S + half * W : i * S + half * W + n]
            np.subtract(src_flat, dst_flat[:, off : off + n], out=sq)
            np.multiply(sq, sq, out=sq)
            if c == 1:
                np.copyto(e, sq[0])
            else:
                np.add(sq[0], sq[1], out=e)
                for ch in range(2, c):
                    e += sq[ch]
        err_g = err_3d[:g, half : half + h]
        err_g[:, :, :half] = err_g[:, :, half : half + 1]
        err_g[:, :, half + w : w + block - 1] = err_g[:, :, half + w - 1 : half + w]
        # separable block sum in a fixed offset order, so exact ties resolve
        # by candidate order alone. A row sum for one of the first w columns
        # only reads its own row, and the columns from w + block - 1 on are
        # scratch; a column sum for one of the first h rows of a segment only
        # reads that segment. Sums of squares are never -0.0, so starting
        # from the first term equals starting from zero. Scratch values may
        # wrap in int32; no valid output reads them.
        _box_pass(err, rows, g * S - (block - 1), 1, block)
        rows_g = rows_3d[:g]
        rows_g[:, :half] = rows_g[:, half : half + 1]
        rows_g[:, half + h :] = rows_g[:, half + h - 1 : half + h]
        _box_pass(rows, err, g * S - (block - 1) * W, W, block)
        for i in range(g):
            cost = err[i * S : i * S + n]
            np.less(cost, best_cost, out=better)
            # equals copying cost where better: costs are never -0.0, and
            # fmin keeps best_cost where cost is NaN, as < does
            np.fmin(best_cost, cost, out=best_cost)
            np.putmask(best_k, better, k0 + i)
    best_k = best_k.reshape(h, W)[:, :w]
    du = np.array([dx for _, _, dx in candidates], dtype=np.float64)
    dv = np.array([dy for _, dy, _ in candidates], dtype=np.float64)
    return np.stack([du[best_k], dv[best_k]], axis=2)


@functools.lru_cache(maxsize=16)
def _pixel_grid(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float (h*w, 1) column and row coordinates of an (h, w) grid."""
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64).reshape(2, h * w, 1)
    xs.setflags(write=False)
    ys.setflags(write=False)
    return xs, ys


def _weighted_sum(nb: np.ndarray, weights) -> np.ndarray:
    """sum over k of (nb[k] * a_k) * b_k, left to right, as a new array.

    nb holds the 4 gathered neighbours (y0, x0), (y0, x1), (y1, x0) and
    (y1, x1); weights is their 4 (a_k, b_k) pairs. nb[1:] is scratch. The
    result owns its memory, so it does not keep the 4x larger nb alive.
    """
    (a0, b0), *rest = weights
    out = nb[0] * a0
    out *= b0
    for t, (a, b) in zip(nb[1:], rest):
        t *= a
        t *= b
        out += t
    return out


def warp(grid: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """Backward warp with bilinear sampling and clamped coordinates."""
    if flow.shape[:2] != grid.shape[:2]:
        raise ValueError(
            f"flow resolution {flow.shape[:2]} != grid resolution {grid.shape[:2]}"
        )
    squeeze = grid.ndim == 2
    grid = _as_3d(np.asarray(grid, dtype=np.float64))
    h, w, c = grid.shape
    xs, ys = _pixel_grid(h, w)
    fl = flow.reshape(h * w, 2)
    px = xs + fl[:, :1]
    py = ys + fl[:, 1:]
    np.clip(px, 0.0, w - 1.0, out=px)
    np.clip(py, 0.0, h - 1.0, out=py)

    x0 = np.floor(px).astype(np.intp)
    y0 = np.floor(py).astype(np.intp)
    fx = px - x0
    fy = py - y0
    cx = 1 - fx
    cy = 1 - fy
    x0, y0 = x0[:, 0], y0[:, 0]
    idx = np.empty((4, h * w), dtype=np.intp)
    np.multiply(y0, w, out=idx[0])
    idx[0] += x0
    np.add(idx[0], x0 < w - 1, out=idx[1])
    np.add(idx[0], w * (y0 < h - 1), out=idx[2])
    np.add(idx[2], x0 < w - 1, out=idx[3])
    nb = np.take(grid.reshape(h * w, c), idx, axis=0)
    out = _weighted_sum(nb, ((cx, cy), (fx, cy), (cx, fy), (fx, fy))).reshape(h, w, c)
    return out[:, :, 0] if squeeze else out


def fb_confidence(f_fwd: np.ndarray, f_bwd: np.ndarray) -> np.ndarray:
    """Forward-backward consistency confidence in (0, 1].

    sigma(p) = exp(-||f_fwd(p) + f_bwd(p + f_fwd(p))||^2), the backward flow
    sampled bilinearly at the displaced point with clamped coordinates.
    """
    if f_fwd.shape != f_bwd.shape:
        raise ValueError(f"shape mismatch: {f_fwd.shape} vs {f_bwd.shape}")
    bwd_at_dst = warp(f_bwd, f_fwd)
    residual = f_fwd + bwd_at_dst
    return np.exp(-(residual**2).sum(axis=2))


def occlusion_mask(conf: np.ndarray, tau_occ: float) -> np.ndarray:
    """Binary mask: 1 where a forward-backward confidence is < tau_occ (occluded)."""
    if not 0.0 < tau_occ <= 1.0:
        raise ValueError(f"tau_occ must be in (0, 1], got {tau_occ}")
    return (conf < tau_occ).astype(np.float64)


@functools.lru_cache(maxsize=32)
def _resample_taps(h: int, w: int, h2: int, w2: int) -> tuple[np.ndarray, ...]:
    """Read-only bilinear taps from an (h, w) grid to (h2, w2).

    The flat (4, h2, w2) indices of the 4 neighbours of each target pixel,
    and the weights 1 - fy, fy as (h2, 1, 1) and 1 - fx, fx as (1, w2, 1).
    """
    ys = np.clip((np.arange(h2) + 0.5) * h / h2 - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(w2) + 0.5) * w / w2 - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    fy = (ys - y0)[:, None, None]
    fx = (xs - x0)[None, :, None]
    idx = np.empty((4, h2, w2), dtype=np.intp)
    idx[0] = (y0 * w)[:, None] + x0
    idx[1] = idx[0] + (x0 < w - 1)
    idx[2] = idx[0] + (w * (y0 < h - 1))[:, None]
    idx[3] = idx[2] + (x0 < w - 1)
    taps = (idx, 1 - fy, fy, 1 - fx, fx)
    for a in taps:
        a.setflags(write=False)
    return taps


def bilinear_resample(grid: np.ndarray, h2: int, w2: int) -> np.ndarray:
    """Bilinear resample of an (h, w[, c]) grid to (h2, w2[, c]).

    Pixel centers are aligned so resampling to the same size is the identity.
    """
    if h2 < 1 or w2 < 1:
        raise ValueError("target size must be >= 1")
    squeeze = grid.ndim == 2
    grid = _as_3d(np.asarray(grid, dtype=np.float64))
    h, w, c = grid.shape
    idx, cy, fy, cx, fx = _resample_taps(h, w, h2, w2)
    nb = np.take(grid.reshape(h * w, c), idx, axis=0)
    out = _weighted_sum(nb, ((cy, cx), (cy, fx), (fy, cx), (fy, fx)))
    return out[:, :, 0] if squeeze else out


def resample_flow(flow: np.ndarray, h2: int, w2: int) -> np.ndarray:
    """Bilinear resample of a flow field with displacement rescaling."""
    h, w = flow.shape[:2]
    out = bilinear_resample(flow, h2, w2)
    out[:, :, 0] *= w2 / w
    out[:, :, 1] *= h2 / h
    return out


def resample_mask(mask: np.ndarray, h2: int, w2: int) -> np.ndarray:
    """Nearest-neighbor resample of a binary mask; binary values preserved."""
    if h2 < 1 or w2 < 1:
        raise ValueError("target size must be >= 1")
    h, w = mask.shape[:2]
    ys = np.minimum(((np.arange(h2) + 0.5) * h / h2).astype(int), h - 1)
    xs = np.minimum(((np.arange(w2) + 0.5) * w / w2).astype(int), w - 1)
    return mask[np.ix_(ys, xs)]

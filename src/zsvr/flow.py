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


# 8-byte units per buffer of a candidate group, so that a group's buffers
# stay in a core's L2 cache: an int64 group holds GROUP_BUDGET // S
# candidates, and an int32 group, whose values take half the bytes,
# 2 * GROUP_BUDGET // S (each at least one). A group is whole rows of dy
# while a row fits, else part of one row
GROUP_BUDGET = 32768

# most values in one plane of estimate_flow, max(h + block - 1,
# h + 2*search + 1) rows of W: 4K UHD frames (2160x3840) at block 7 and
# search 4 need 8.35 M
PLANE_BUDGET = 2**24


def _box_pass(src: np.ndarray, out: np.ndarray, step: int, block: int) -> None:
    """out[p] = src[p] + src[p + step] + ... + src[p + (block-1)*step] for
    every p < len(src) - (block-1)*step, on integer src; src is scratch after.

    run[p] = src[p] + ... + src[p + (span-1)*step] for span = 1, 2, 4, ...,
    each run from the last by one shifted add, and acc gathers the runs the
    bits of block select, low bits first. A run is doubled in place unless
    acc still reads its buffer: a forward shift in place reads each value
    before it is written, and numpy copies nothing for it. Values from
    len(src) - (block-1)*step on are scratch.
    """
    size = len(src)
    run, acc, covered, span = src, None, 0, 1
    while True:
        if block & span:
            if acc is None:
                acc = run
            else:
                k = covered * step
                into = out if 2 * span > block else acc
                np.add(acc[: size - k], run[k:], out=into[: size - k])
                acc = into
            covered += span
        if 2 * span > block:
            break
        k = span * step
        if acc is None:
            into = out
        elif acc is run:
            into = out if run is src else src
        else:
            into = run
        np.add(run[: size - k], run[k:], out=into[: size - k])
        run, span = into, 2 * span
    if acc is not out:  # block 1
        np.copyto(out, acc)


def estimate_flow(src: np.ndarray, dst: np.ndarray, block: int, search: int) -> np.ndarray:
    """Exhaustive SSD block matching of uint8 frames within +-search pixels.

    Ties are broken toward the smallest displacement magnitude, then raster
    order of the displacement, so flat regions report zero motion. Patch
    sampling clamps at image borders, so a displacement past max(h, w) - 1
    costs exactly what a nearer one tried before it costs; search is capped
    there, with the same flow. The cost of a candidate is the SSD of the
    codes over the block and its channels, an exact integer in any order of
    summation, so the tie rule decides every exact tie of the true SSD.

    Both frames are uint8 codes with at least one channel; any other frame
    is refused before anything is allocated. Frames with no row or no column
    give an empty (h, w, 2) flow. Float frames in [0, 1] are
    matched on their nearest codes: convert them with mediaio.code_frame,
    the rounding write_frames does. Costs are int32 while
    block**2 * channels * 255**2 < 2**31 (block <= 104 at 3 channels), else
    int64.

    Layout: every plane has one flat row stride W = max(w + 2*search,
    w + block - 1). With half = block // 2, src sits at columns
    [half, half + w) of W-wide rows, and dst, edge-padded by search, is
    stored flat after a lead of half values, so each candidate's window is
    one contiguous run of n = h * W values starting at
    (search + dy) * W + search + dx.

    Candidates are taken in groups. Each candidate of a group has a flat
    segment of S = (h + block - 1) * W values. Its squared error, summed
    over channels, fills rows [half, half + h) of its segment, and the x
    edge clamp fills the columns around them. The row pass then sums runs
    of block values over the whole group's flat range at once, the y edge
    clamp fills the rows above and below, and the column pass does the
    same with a stride of W. So candidate i's cost lands at [i*S, i*S + n),
    and every valid output reads only its own segment. A group is
    2 * GROUP_BUDGET // S candidates with int32 costs, GROUP_BUDGET // S
    with int64 (at least one), in whole rows of dy (2*search + 1
    candidates) while a row fits, else in parts of one row. A group's
    windows are one slice of a read-only strided view of the padded dst
    plane, so each channel's subtract, square and sum is one numpy call per
    group. Each pass sums by doubling, runs of 2, 4, 8, ... values combined
    by the bits of block, so block 7 takes 4 adds, not 6. The winner is the
    least packed key cost << bits | rank, where rank is the candidate's
    place in tie-break order: one minimum over the group, then a running
    minimum across groups. The least key has the least cost, and of equal
    costs the first rank. The keys are int32 while
    block**2 * channels * 255**2 << bits < 2**31, else int64; a block and
    search whose keys would reach 2**63 are refused before anything is
    allocated.

    Memory: a group's buffers hold at least S values each, and the padded
    dst plane (h + 2*search + 1) * W a channel. Before anything is
    allocated, a block and search whose taller plane, max(S,
    (h + 2*search + 1) * W), exceeds PLANE_BUDGET values are refused. So
    whatever block and search are set, a call's buffers stay below about
    20 planes' worth at 3 channels, 2.7 GB as int64 at the budget.
    """
    if src.shape != dst.shape:
        raise ValueError(f"shape mismatch: {src.shape} vs {dst.shape}")
    for frame in (src, dst):
        if frame.dtype != np.uint8:
            raise ValueError(f"block matching reads uint8 codes, not {frame.dtype}: "
                             "convert the frame with mediaio.code_frame")
    if block < 1:
        raise ValueError("block must be >= 1")
    if search < 0:
        raise ValueError("search must be >= 0")
    channels = 1 if src.ndim == 2 else src.shape[2]
    if channels < 1:
        raise ValueError(f"frames of shape {src.shape} have no channel")
    h, w = src.shape[:2]
    if h == 0 or w == 0:
        return np.zeros((h, w, 2))
    search = min(search, max(h, w) - 1)
    plane = max(h + block - 1, h + 2 * search + 1) * max(w + 2 * search, w + block - 1)
    if plane > PLANE_BUDGET:
        raise ValueError(f"block {block} and search {search} on {h}x{w} frames need planes "
                         f"of {plane} values, over flow.PLANE_BUDGET = {PLANE_BUDGET}")
    top = block * block * channels * 255**2  # the largest cost
    key = top << ((2 * search + 1) ** 2 - 1).bit_length()
    if key >= 2**63:
        raise ValueError(f"block {block} and search {search} at {channels} channels need "
                         f"keys of {key.bit_length()} bits, over int64's 63")
    dtype = np.int32 if top < 2**31 else np.int64
    return _match(_as_3d(np.asarray(src, dtype)), _as_3d(np.asarray(dst, dtype)), block, search)


@functools.lru_cache(maxsize=16)
def _candidates(search: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables of the (2*search + 1)**2 displacements of a search.

    du and dv are the dx and dy of each candidate, as floats, in tie-break
    order (dy**2 + dx**2, dy, dx). rank[(dy + search) * (2*search + 1) +
    dx + search] is the place of candidate (dy, dx) in that order.
    """
    d = np.arange(-search, search + 1)
    dy, dx = np.repeat(d, len(d)), np.tile(d, len(d))
    order = np.lexsort((dx, dy, dy * dy + dx * dx))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    tables = (dx[order].astype(np.float64), dy[order].astype(np.float64), rank)
    for a in tables:
        a.setflags(write=False)
    return tables


def _match(src: np.ndarray, dst: np.ndarray, block: int, search: int) -> np.ndarray:
    """estimate_flow's block matching of two (h, w, c) arrays of codes, int32
    or int64, whose costs are computed in that dtype."""
    h, w, c = src.shape
    half = block // 2
    W = max(w + 2 * search, w + block - 1)
    n, S = h * W, (h + block - 1) * W
    src_flat = np.zeros((c, h, W), src.dtype)
    src_flat[:, :, half : half + w] = src.transpose(2, 0, 1)
    src_flat = src_flat.reshape(c, n)
    hp = h + 2 * search
    # one spare row: the last candidate's window ends up to 2 * search
    # values past the padded rows
    dst_flat = np.zeros((c, (hp + 1) * W), dst.dtype)
    dst_rows = dst_flat[:, half : half + hp * W].reshape(c, hp, W)
    s = search
    dst_rows[:, s : s + h, s : s + w] = dst.transpose(2, 0, 1)
    dst_rows[:, s : s + h, :s] = dst_rows[:, s : s + h, s : s + 1]
    dst_rows[:, s : s + h, s + w : w + 2 * s] = dst_rows[:, s : s + h, s + w - 1 : s + w]
    dst_rows[:, :s, : w + 2 * s] = dst_rows[:, s : s + 1, : w + 2 * s]
    dst_rows[:, s + h :, : w + 2 * s] = dst_rows[:, s + h - 1 : s + h, : w + 2 * s]

    side = 2 * search + 1
    it = dst_flat.itemsize
    # windows[dy + search, dx + search] is candidate (dy, dx)'s (c, n) window
    windows = np.lib.stride_tricks.as_strided(
        dst_flat, (side, side, c, n), (W * it, it, dst_flat.strides[0], it), writeable=False
    )
    per_group = max(1, GROUP_BUDGET * 8 // (S * it))
    rows, cols = (min(side, per_group // side), side) if per_group >= side else (1, per_group)
    # err holds a group's squared errors summed over channels, then its
    # block costs and keys; scratch one channel's squared errors at a time,
    # then the row sums. No valid output reads a value an earlier group
    # left, and scratch values may wrap
    err = np.empty((rows * cols, S), src.dtype)
    scratch = np.empty(rows * cols * S, src.dtype)
    lead = half * W
    bits = (side * side - 1).bit_length()
    key_dtype = np.int64 if (block * block * c * 255**2) << bits >= 2**31 else np.int32
    du, dv, rank = _candidates(search)
    rank = rank.astype(key_dtype).reshape(side, side)
    keys = err[:, :n] if err.dtype == key_dtype else np.empty((rows * cols, n), key_dtype)
    best = np.full(n, np.iinfo(key_dtype).max, key_dtype)
    for r0 in range(0, side, rows):
        r1 = min(side, r0 + rows)
        for x0 in range(0, side, cols):
            x1 = min(side, x0 + cols)
            g = (r1 - r0) * (x1 - x0)
            e = err[:g, lead : lead + n]
            sq = scratch[: g * n].reshape(g, n)
            for ch in range(c):
                np.subtract(src_flat[ch], windows[r0:r1, x0:x1, ch], out=sq.reshape(r1 - r0, x1 - x0, n))
                if ch == 0:
                    np.multiply(sq, sq, out=e)
                else:
                    np.multiply(sq, sq, out=sq)
                    e += sq
            _block_costs(err[:g].reshape(-1), scratch[: g * S], h, w, W, block)
            np.left_shift(err[:g, :n], bits, out=keys[:g], dtype=key_dtype)
            keys[:g] |= rank[r0:r1, x0:x1].reshape(g, 1)
            np.minimum(best, np.minimum.reduce(keys[:g], axis=0), out=best)
    best = (best & ((1 << bits) - 1)).reshape(h, W)[:, :w]
    return np.stack([du[best], dv[best]], axis=2)


def _block_costs(err, rows, h: int, w: int, W: int, block: int) -> None:
    """A group's block costs, in place in the flat err.

    err holds the squared errors in rows [half, half + h) of each segment of
    h + block - 1 rows of W, and gets each candidate's costs at the start of
    its segment; rows, of err's length, is scratch.
    """
    half = block // 2
    err_g = err.reshape(-1, h + block - 1, W)[:, half : half + h]
    err_g[:, :, :half] = err_g[:, :, half : half + 1]
    err_g[:, :, half + w : w + block - 1] = err_g[:, :, half + w - 1 : half + w]
    # a row sum for one of the first w columns only reads its own row, and
    # the columns from w + block - 1 on are scratch; a column sum for one of
    # the first h rows of a segment only reads that segment
    _box_pass(err, rows, 1, block)
    rows_g = rows.reshape(-1, h + block - 1, W)
    rows_g[:, :half] = rows_g[:, half : half + 1]
    rows_g[:, half + h :] = rows_g[:, half + h - 1 : half + h]
    _box_pass(rows, err, W, block)


@functools.lru_cache(maxsize=16)
def _pixel_grid(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float (h*w,) column and row coordinates of an (h, w) grid."""
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64).reshape(2, h * w)
    xs.setflags(write=False)
    ys.setflags(write=False)
    return xs, ys


def _weighted_sum(values: np.ndarray, idx: np.ndarray, first, second) -> np.ndarray:
    """Bilinear sums of P pixels, as a new (P, c) array.

    values is an (n, c) array and idx the (4, P) flat indices of each
    pixel's neighbours (y0, x0), (y0, x1), (y1, x0) and (y1, x1). Neighbour
    k = 2*ky + kx gets the weights first and second broadcast to (2, 2, P)
    at [ky, kx]: x weights are shaped (2, P), y weights (2, 1, P). The sum
    is ((t_0 + t_1) + t_2) + t_3 of t_k = (values[idx[k]] * first_k) *
    second_k. The neighbours are gathered channel-major, as c planes of 4P
    values, so each of the two multiplies is one numpy call over all 4
    neighbours along the pixels, not along the 2-3 channels of a pixel, and
    the last add writes the (P, c) result. Every value takes the same
    operations in the same order as in a pixel-major gather, so the bits do
    not change. The result does not keep the 4x larger gather alive.
    """
    c, p = values.shape[1], idx.shape[1]
    nb = np.take(values.T, idx, axis=1)
    taps = nb.reshape(c, 2, 2, p)
    taps *= first
    taps *= second
    acc = nb[:, 0]
    acc += nb[:, 1]
    acc += nb[:, 2]
    out = np.empty((p, c))
    np.add(acc, nb[:, 3], out=out.T)
    return out


def _taps(px: np.ndarray, py: np.ndarray, h: int, w: int) -> tuple[np.ndarray, ...]:
    """Bilinear taps of P points (px, py), clamped to an (h, w) grid.

    The flat (4, P) indices of each point's neighbours, in _weighted_sum's
    order, its weights 1 - fx, fx as (2, P) and 1 - fy, fy as (2, 1, P).
    """
    x0 = np.floor(px).astype(np.intp)
    y0 = np.floor(py).astype(np.intp)
    wx = np.empty((2, len(px)))
    wy = np.empty((2, 1, len(px)))
    np.subtract(px, x0, out=wx[1])
    np.subtract(py, y0, out=wy[1, 0])
    np.subtract(1, wx[1], out=wx[0])
    np.subtract(1, wy[1, 0], out=wy[0, 0])
    idx = np.empty((4, len(px)), dtype=np.intp)
    np.multiply(y0, w, out=idx[0])
    idx[0] += x0
    np.add(idx[0], x0 < w - 1, out=idx[1])
    np.add(idx[0], w * (y0 < h - 1), out=idx[2])
    np.add(idx[2], x0 < w - 1, out=idx[3])
    return idx, wx, wy


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
    px = xs + fl[:, 0]
    py = ys + fl[:, 1]
    np.clip(px, 0.0, w - 1.0, out=px)
    np.clip(py, 0.0, h - 1.0, out=py)
    idx, wx, wy = _taps(px, py, h, w)
    out = _weighted_sum(grid.reshape(h * w, c), idx, wx, wy).reshape(h, w, c)
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
    """Read-only _taps of every pixel center of (h2, w2) on an (h, w) grid."""
    ys = np.clip((np.arange(h2) + 0.5) * h / h2 - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(w2) + 0.5) * w / w2 - 0.5, 0.0, w - 1.0)
    taps = _taps(np.tile(xs, h2), np.repeat(ys, w2), h, w)
    for a in taps:
        a.setflags(write=False)
    return taps


def bilinear_resample(grid: np.ndarray, h2: int, w2: int) -> np.ndarray:
    """Bilinear resample of an (h, w[, c]) grid to (h2, w2[, c]).

    Pixel centers are aligned so resampling to the same size is the identity.
    """
    if h2 < 1 or w2 < 1:
        raise ValueError("target size must be >= 1")
    if grid.shape[0] < 1 or grid.shape[1] < 1:
        raise ValueError(f"cannot resample an empty grid of shape {grid.shape}")
    squeeze = grid.ndim == 2
    grid = _as_3d(np.asarray(grid, dtype=np.float64))
    h, w, c = grid.shape
    idx, wx, wy = _resample_taps(h, w, h2, w2)
    # y weights first, (v * fy) * fx, unlike warp's (v * fx) * fy: the two round differently
    out = _weighted_sum(grid.reshape(h * w, c), idx, wy, wx).reshape(h2, w2, c)
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
    if h < 1 or w < 1:
        raise ValueError(f"cannot resample an empty mask of shape {mask.shape}")
    ys = np.minimum(((np.arange(h2) + 0.5) * h / h2).astype(int), h - 1)
    xs = np.minimum(((np.arange(w2) + 0.5) * w / w2).astype(int), w - 1)
    return mask[np.ix_(ys, xs)]

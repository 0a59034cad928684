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


# float64 values per buffer of a candidate group, so that a group's buffers
# stay in a core's L2 cache: a float64 group holds GROUP_BUDGET // S
# candidates, and an int32 group, whose values take half the bytes,
# 2 * GROUP_BUDGET // S (each at least one). An int32 group is whole rows
# of dy while a row fits, else part of one row
GROUP_BUDGET = 32768

# most values in one plane of estimate_flow, max(h + block - 1,
# h + 2*search + 1) rows of W: 4K UHD frames (2160x3840) at block 7 and
# search 4 need 8.35 M
PLANE_BUDGET = 2**24


def _box_pass(src: np.ndarray, out: np.ndarray, step: int, block: int) -> None:
    """out[p] = src[p] + src[p + step] + ... + src[p + (block-1)*step], in
    that order, for every p < len(src) - (block-1)*step."""
    length = len(src) - (block - 1) * step
    if block == 1:
        np.copyto(out[:length], src[:length])
        return
    np.add(src[:length], src[step : step + length], out=out[:length])
    for k in range(2, block):
        out[:length] += src[k * step : k * step + length]


def _box_pass_doubling(src: np.ndarray, out: np.ndarray, step: int, block: int) -> None:
    """_box_pass's sums of integer src, in another order; src is scratch after.

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
    """Exhaustive SSD block matching within +-search pixels.

    Ties are broken toward the smallest displacement magnitude, then raster
    order of the displacement, so flat regions report zero motion. Patch
    sampling clamps at image borders, so a displacement past max(h, w) - 1
    costs exactly what a nearer one tried before it costs; search is capped
    there, with the same flow. The cost of a candidate is the per-pixel
    squared error summed over channels, then over the block as a sum of row
    sums.

    A uint8 frame pairs only with a uint8 frame; a mixed pair is refused
    before anything is allocated. Two uint8 frames whose costs fit int32,
    block**2 * channels * 255**2 < 2**31 (block <= 104 at 3 channels), take
    the int32 kernel. Each of its costs is the exact SSD of the codes,
    whatever order it is summed in, so the tie rule holds for every exact
    tie of the true SSD. Any other pair takes the float64 kernel, which
    sums each cost in one fixed order: over channels in order, then row
    sums in raster offset order. On codes above the int32 bound its costs
    are exact too; on values, a tie is an exact tie of the rounded costs.

    Layout, shared by both kernels: every plane has one flat row stride
    W = max(w + 2*search, w + block - 1). With half = block // 2, src sits
    at columns [half, half + w) of W-wide rows, and dst, edge-padded by
    search, is stored flat after a lead of half values, so each candidate's
    window is one contiguous run of n = h * W values starting at
    (search + dy) * W + search + dx.

    Candidates are taken in groups. Each candidate of a group has a flat
    segment of S = (h + block - 1) * W values. Its squared error, summed
    over channels, fills rows [half, half + h) of its segment, and the x
    edge clamp fills the columns around them. The row pass then sums runs
    of block values over the whole group's flat range at once, the y edge
    clamp fills the rows above and below, and the column pass does the
    same with a stride of W. So candidate i's cost lands at [i*S, i*S + n),
    and every valid output reads only its own segment.
      * float64: GROUP_BUDGET // S candidates at a time (at least one), in
        tie-break order. Each pass is block - 1 adds of shifted runs, and
        selection is a strict < running minimum in that order.
      * int32: 2 * GROUP_BUDGET // S candidates at a time (at least one),
        in whole rows of dy (2*search + 1 candidates) while a row fits,
        else in parts of one row. A group's windows are one slice of a
        read-only strided view of the padded dst plane, so each channel's
        subtract, square and sum is one numpy call per group. Each pass
        sums by doubling, runs of 2, 4, 8, ... values combined by the bits
        of block, so block 7 takes 4 adds, not 6. The winner is the least
        packed key cost << bits | rank, where rank is the candidate's place
        in tie-break order: one minimum over the group, then a running
        minimum across groups. The least key has the least cost, and of
        equal costs the first rank, which is the strict < scan's winner.
        The keys are int32 while block**2 * channels * 255**2 << bits
        < 2**31, else int64.

    Memory: a group's buffers hold at least S values each, and the padded
    dst plane (h + 2*search + 1) * W a channel. Before anything is
    allocated, a block and search whose taller plane, max(S,
    (h + 2*search + 1) * W), exceeds PLANE_BUDGET values are refused. So
    whatever block and search are set, a call's buffers stay below about
    20 planes' worth at 3 channels, 2.7 GB as float64 at the budget.
    """
    if src.shape != dst.shape:
        raise ValueError(f"shape mismatch: {src.shape} vs {dst.shape}")
    if (src.dtype == np.uint8) != (dst.dtype == np.uint8):
        raise ValueError(f"dtype mismatch: {src.dtype} vs {dst.dtype}: uint8 pairs only with uint8")
    if block < 1:
        raise ValueError("block must be >= 1")
    if search < 0:
        raise ValueError("search must be >= 0")
    h, w = src.shape[:2]
    search = min(search, max(h, w) - 1)
    plane = max(h + block - 1, h + 2 * search + 1) * max(w + 2 * search, w + block - 1)
    if plane > PLANE_BUDGET:
        raise ValueError(f"block {block} and search {search} on {h}x{w} frames need planes "
                         f"of {plane} values, over flow.PLANE_BUDGET = {PLANE_BUDGET}")
    channels = 1 if src.ndim == 2 else src.shape[2]
    exact = src.dtype == np.uint8 and block * block * channels * 255**2 < 2**31
    dtype = np.int32 if exact else np.float64
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
    """estimate_flow's block matching of two (h, w, c) arrays of one dtype,
    int32 codes or float64 values, whose costs are computed in that dtype."""
    h, w, c = src.shape
    half = block // 2
    W = max(w + 2 * search, w + block - 1)
    src_flat = np.zeros((c, h, W), src.dtype)
    src_flat[:, :, half : half + w] = src.transpose(2, 0, 1)
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

    kernel = _match_codes if src.dtype == np.int32 else _match_values
    best = kernel(src_flat.reshape(c, h * W), dst_flat, h, w, block, search)
    du, dv, _ = _candidates(search)
    best = best.reshape(h, W)[:, :w]
    return np.stack([du[best], dv[best]], axis=2)


def _match_values(src_flat, dst_flat, h: int, w: int, block: int, search: int) -> np.ndarray:
    """The float64 kernel: the winning rank at each of the n flat pixels."""
    c, n = src_flat.shape
    W = n // h
    S = (h + block - 1) * W
    du, dv, _ = _candidates(search)
    offsets = ((search + dv) * W + search + du).astype(np.intp).tolist()
    group = max(1, min(len(offsets), GROUP_BUDGET // S))
    sq = np.empty((c, n))
    # err holds the group's squared errors, then its block costs
    err = np.zeros(group * S)
    rows = np.zeros(group * S)
    lead = block // 2 * W
    better = np.empty(n, dtype=bool)
    best_cost = np.full(n, np.inf)
    best_k = np.zeros(n, dtype=np.intp)
    for k0 in range(0, len(offsets), group):
        g = min(group, len(offsets) - k0)
        for i, off in enumerate(offsets[k0 : k0 + g]):
            e = err[i * S + lead : i * S + lead + n]
            np.subtract(src_flat, dst_flat[:, off : off + n], out=sq)
            np.multiply(sq, sq, out=sq)
            if c == 1:
                np.copyto(e, sq[0])
            else:
                np.add(sq[0], sq[1], out=e)
                for ch in range(2, c):
                    e += sq[ch]
        # block sums in a fixed offset order, so exact ties resolve by
        # candidate order alone. Sums of squares are never -0.0, so starting
        # from the first term equals starting from zero
        _block_costs(err[: g * S], rows[: g * S], h, w, W, block, _box_pass)
        for i in range(g):
            cost = err[i * S : i * S + n]
            np.less(cost, best_cost, out=better)
            # equals copying cost where better: costs are never -0.0, and
            # fmin keeps best_cost where cost is NaN, as < does
            np.fmin(best_cost, cost, out=best_cost)
            np.putmask(best_k, better, k0 + i)
    return best_k


def _match_codes(src_flat, dst_flat, h: int, w: int, block: int, search: int) -> np.ndarray:
    """The int32 kernel: the winning rank at each of the n flat pixels."""
    c, n = src_flat.shape
    W = n // h
    S = (h + block - 1) * W
    side = 2 * search + 1
    it = dst_flat.itemsize
    # windows[dy + search, dx + search] is candidate (dy, dx)'s (c, n) window
    windows = np.lib.stride_tricks.as_strided(
        dst_flat, (side, side, c, n), (W * it, it, dst_flat.strides[0], it), writeable=False
    )
    per_group = max(1, 2 * GROUP_BUDGET // S)
    rows, cols = (min(side, per_group // side), side) if per_group >= side else (1, per_group)
    # err holds a group's squared errors summed over channels, then its
    # block costs and keys; scratch one channel's squared errors at a time,
    # then the row sums. No valid output reads a value an earlier group
    # left, and scratch values may wrap
    err = np.empty((rows * cols, S), np.int32)
    scratch = np.empty(rows * cols * S, np.int32)
    lead = block // 2 * W
    bits = (side * side - 1).bit_length()
    wide = (block * block * c * 255**2) << bits >= 2**31
    key_dtype = np.int64 if wide else np.int32
    rank = _candidates(search)[2].astype(key_dtype).reshape(side, side)
    keys = np.empty((rows * cols, n), key_dtype) if wide else err[:, :n]
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
            _block_costs(err[:g].reshape(-1), scratch[: g * S], h, w, W, block, _box_pass_doubling)
            np.left_shift(err[:g, :n], bits, out=keys[:g], dtype=key_dtype)
            keys[:g] |= rank[r0:r1, x0:x1].reshape(g, 1)
            np.minimum(best, np.minimum.reduce(keys[:g], axis=0), out=best)
    return best & ((1 << bits) - 1)


def _block_costs(err, rows, h: int, w: int, W: int, block: int, box_pass) -> None:
    """A group's block costs, in place in the flat err.

    err holds the squared errors in rows [half, half + h) of each segment of
    h + block - 1 rows of W, and gets each candidate's costs at the start of
    its segment; rows, of err's length, is scratch. box_pass(src, out, step,
    block) sums the runs of block values.
    """
    half = block // 2
    err_g = err.reshape(-1, h + block - 1, W)[:, half : half + h]
    err_g[:, :, :half] = err_g[:, :, half : half + 1]
    err_g[:, :, half + w : w + block - 1] = err_g[:, :, half + w - 1 : half + w]
    # a row sum for one of the first w columns only reads its own row, and
    # the columns from w + block - 1 on are scratch; a column sum for one of
    # the first h rows of a segment only reads that segment
    box_pass(err, rows, 1, block)
    rows_g = rows.reshape(-1, h + block - 1, W)
    rows_g[:, :half] = rows_g[:, half : half + 1]
    rows_g[:, half + h :] = rows_g[:, half + h - 1 : half + h]
    box_pass(rows, err, W, block)


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

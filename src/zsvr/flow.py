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

import numpy as np


def _as_3d(img: np.ndarray) -> np.ndarray:
    return img[:, :, None] if img.ndim == 2 else img


# float64 values per plane of a candidate group, so that the group's
# error/cost and row-sum planes stay in a core's L2 cache
GROUP_BUDGET = 32768


def estimate_flow(src: np.ndarray, dst: np.ndarray, block: int, search: int) -> np.ndarray:
    """Exhaustive SSD block matching within +-search pixels.

    Ties are broken toward the smallest displacement magnitude, then raster
    order of the displacement, so flat regions report zero motion. Patch
    sampling clamps at image borders. The cost of a candidate is the
    per-pixel squared error summed over channels in order, then over the
    block as a sum of row sums, in raster offset order.

    Layout: every plane has one flat row stride W = max(w + 2*search,
    w + block - 1). With half = block // 2, src sits at columns
    [half, half + w) of W-wide rows, and dst, edge-padded by search, is
    stored flat after a lead of half values, so each candidate's window is one contiguous run starting at
    (search + dy) * W + search + dx. Squared error and the channel sum run
    per candidate on these runs. Candidates are then taken in sorted order
    GROUP_BUDGET // (h * W) at a time (at least one), and the x edge clamp,
    the row pass, the y edge clamp and the column pass each run once over
    the whole group. Selection is a strict < running minimum over the
    candidates in sorted order.
    """
    if src.shape != dst.shape:
        raise ValueError(f"shape mismatch: {src.shape} vs {dst.shape}")
    if block < 1:
        raise ValueError("block must be >= 1")
    if search < 0:
        raise ValueError("search must be >= 0")
    src = _as_3d(np.asarray(src, dtype=np.float64))
    dst = _as_3d(np.asarray(dst, dtype=np.float64))
    h, w, c = src.shape

    candidates = sorted(
        (dy * dy + dx * dx, dy, dx)
        for dy in range(-search, search + 1)
        for dx in range(-search, search + 1)
    )
    half = block // 2
    W = max(w + 2 * search, w + block - 1)
    n = h * W
    offsets = [(search + dy) * W + search + dx for _, dy, dx in candidates]

    src_flat = np.zeros((c, h, W))
    src_flat[:, :, half : half + w] = src.transpose(2, 0, 1)
    src_flat = src_flat.reshape(c, n)
    hp = h + 2 * search
    # one spare row: the last candidate's window ends up to 2 * search
    # values past the padded rows
    dst_flat = np.zeros((c, (hp + 1) * W))
    dst_rows = dst_flat[:, half : half + hp * W].reshape(c, hp, W)
    pad = ((search, search), (search, search), (0, 0))
    dst_rows[:, :, : w + 2 * search] = np.pad(dst, pad, mode="edge").transpose(2, 0, 1)

    group = max(1, min(len(candidates), GROUP_BUDGET // n))
    sq = np.empty((c, n))
    # err holds a candidate's squared error, then the group's block costs
    err = np.zeros((group, n))
    rows = np.zeros((group, (h + block - 1) * W))
    err_3d = err.reshape(group, h, W)
    rows_3d = rows.reshape(group, h + block - 1, W)
    # The row pass runs over each candidate's flattened rows: an output in
    # one of the first w columns only sums its own row, and the columns
    # from w + block - 1 on are scratch, never read into a valid column.
    n_row = n - (block - 1)
    better = np.empty(n, dtype=bool)
    best_cost = np.full(n, np.inf)
    best_k = np.zeros(n, dtype=np.intp)
    for k0 in range(0, len(candidates), group):
        g = min(group, len(candidates) - k0)
        for i, off in enumerate(offsets[k0 : k0 + g]):
            np.subtract(src_flat, dst_flat[:, off : off + n], out=sq)
            np.multiply(sq, sq, out=sq)
            if c == 1:
                err[i] = sq[0]
            else:
                np.add(sq[0], sq[1], out=err[i])
                for ch in range(2, c):
                    err[i] += sq[ch]
        err_g = err_3d[:g]
        err_g[:, :, :half] = err_g[:, :, half : half + 1]
        err_g[:, :, half + w : w + block - 1] = err_g[:, :, half + w - 1 : half + w]
        # separable block sum in a fixed offset order, so exact ties resolve
        # by candidate order alone; sums of squares are never -0.0, so
        # starting from the first term equals starting from zero
        row_sum = rows[:g, half * W : half * W + n_row]
        np.copyto(row_sum, err[:g, :n_row])
        for k in range(1, block):
            row_sum += err[:g, k : k + n_row]
        rows_g = rows_3d[:g]
        rows_g[:, :half] = rows_g[:, half : half + 1]
        rows_g[:, half + h :] = rows_g[:, half + h - 1 : half + h]
        cost = err[:g]
        np.copyto(cost, rows[:g, :n])
        for k in range(1, block):
            cost += rows[:g, k * W : k * W + n]
        for i in range(g):
            np.less(cost[i], best_cost, out=better)
            # equals copying cost where better: costs are never -0.0, and
            # fmin keeps best_cost where cost is NaN, as < does
            np.fmin(best_cost, cost[i], out=best_cost)
            np.putmask(best_k, better, k0 + i)
    best_k = best_k.reshape(h, W)[:, :w]
    du = np.array([dx for _, _, dx in candidates], dtype=np.float64)
    dv = np.array([dy for _, dy, _ in candidates], dtype=np.float64)
    return np.stack([du[best_k], dv[best_k]], axis=2)


def warp(grid: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """Backward warp with bilinear sampling and clamped coordinates."""
    if flow.shape[:2] != grid.shape[:2]:
        raise ValueError(
            f"flow resolution {flow.shape[:2]} != grid resolution {grid.shape[:2]}"
        )
    squeeze = grid.ndim == 2
    grid = _as_3d(np.asarray(grid, dtype=np.float64))
    h, w = grid.shape[:2]
    ys, xs = np.mgrid[0:h, 0:w]
    px = np.clip(xs + flow[:, :, 0], 0.0, w - 1.0)
    py = np.clip(ys + flow[:, :, 1], 0.0, h - 1.0)

    x0 = np.floor(px).astype(int)
    y0 = np.floor(py).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (px - x0)[:, :, None]
    fy = (py - y0)[:, :, None]

    out = (
        grid[y0, x0] * (1 - fx) * (1 - fy)
        + grid[y0, x1] * fx * (1 - fy)
        + grid[y1, x0] * (1 - fx) * fy
        + grid[y1, x1] * fx * fy
    )
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


def occlusion_mask(f_fwd: np.ndarray, f_bwd: np.ndarray, tau_occ: float) -> np.ndarray:
    """Binary mask: 1 where forward-backward confidence < tau_occ (occluded)."""
    if not 0.0 < tau_occ <= 1.0:
        raise ValueError(f"tau_occ must be in (0, 1], got {tau_occ}")
    return (fb_confidence(f_fwd, f_bwd) < tau_occ).astype(np.float64)


def bilinear_resample(grid: np.ndarray, h2: int, w2: int) -> np.ndarray:
    """Bilinear resample of an (h, w[, c]) grid to (h2, w2[, c]).

    Pixel centers are aligned so resampling to the same size is the identity.
    """
    if h2 < 1 or w2 < 1:
        raise ValueError("target size must be >= 1")
    squeeze = grid.ndim == 2
    grid = _as_3d(np.asarray(grid, dtype=np.float64))
    h, w = grid.shape[:2]
    ys = np.clip((np.arange(h2) + 0.5) * h / h2 - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(w2) + 0.5) * w / w2 - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None, None]
    fx = (xs - x0)[None, :, None]
    out = (
        grid[np.ix_(y0, x0)] * (1 - fy) * (1 - fx)
        + grid[np.ix_(y0, x1)] * (1 - fy) * fx
        + grid[np.ix_(y1, x0)] * fy * (1 - fx)
        + grid[np.ix_(y1, x1)] * fy * fx
    )
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

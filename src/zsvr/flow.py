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


def estimate_flow(src: np.ndarray, dst: np.ndarray, block: int, search: int) -> np.ndarray:
    """Exhaustive SSD block matching within +-search pixels.

    Ties are broken toward the smallest displacement magnitude, then raster
    order of the displacement, so flat regions report zero motion. Patch
    sampling clamps at image borders. The cost of a candidate is the
    per-pixel squared error summed over channels in order, then over the
    block as a sum of row sums, in raster offset order.
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

    candidates = [
        (dy, dx)
        for dy in range(-search, search + 1)
        for dx in range(-search, search + 1)
    ]
    candidates.sort(key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1]))

    # Clamped sampling as basic slices of edge-padded arrays: dst is padded
    # by the search radius once, each candidate's error image by the block
    # halves in x, and its row sums by the block halves in y. Channels are
    # planes, so the channel sum adds contiguous arrays in channel order.
    half = block // 2
    wp = w + block - 1
    src_c = np.ascontiguousarray(src.transpose(2, 0, 1))
    pad = ((search, search), (search, search), (0, 0))
    dst_c = np.ascontiguousarray(np.pad(dst, pad, mode="edge").transpose(2, 0, 1))
    err_pad = np.zeros((h, wp))
    err = err_pad[:, half : half + w]
    rows_pad = np.zeros((h + block - 1, wp))
    rows = rows_pad[half : half + h]
    # The row pass runs over the flattened rows: an output in one of the
    # first w columns only sums its own row, and the block - 1 spare
    # columns on the right are scratch, never read into a valid column.
    n_flat = h * wp - (block - 1)
    err_flat = err_pad.reshape(-1)
    rows_flat = rows.reshape(-1)[:n_flat]
    cost = np.empty((h, wp))
    better = np.empty((h, wp), dtype=bool)

    best_cost = np.full((h, wp), np.inf)
    best_u = np.zeros((h, wp))
    best_v = np.zeros((h, wp))
    for dy, dx in candidates:
        sq = src_c - dst_c[:, search + dy : search + dy + h, search + dx : search + dx + w]
        sq *= sq
        err[...] = sq[0]
        for ch in range(1, c):
            err += sq[ch]
        err_pad[:, :half] = err[:, :1]
        err_pad[:, half + w :] = err[:, w - 1 :]
        # separable block sum in a fixed offset order, so exact ties resolve
        # by candidate order alone; sums of squares are never -0.0, so
        # starting from the first term equals starting from zero
        rows_flat[...] = err_flat[:n_flat]
        for k in range(1, block):
            rows_flat += err_flat[k : k + n_flat]
        rows_pad[:half] = rows[:1]
        rows_pad[half + h :] = rows[h - 1 :]
        cost[...] = rows_pad[:h]
        for k in range(1, block):
            cost += rows_pad[k : k + h]
        np.less(cost, best_cost, out=better)
        np.copyto(best_cost, cost, where=better)
        np.copyto(best_u, dx, where=better)
        np.copyto(best_v, dy, where=better)
    return np.stack([best_u[:, :w], best_v[:, :w]], axis=2)


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

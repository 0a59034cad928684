"""Image quality and temporal-consistency metrics.

Temporal metrics score one adjacent pair (E_warp) or one triple (E_inter) per
call; pipeline.temporal_consistency loops over a sequence. They consume flows
in the warp convention of the flow module: a field aligning frame j onto
frame i is estimate_flow(frame_i, frame_j).
"""

from __future__ import annotations

import math

import numpy as np

from .flow import warp

SSIM_WINDOW = 8
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def require_values(*frames: np.ndarray) -> None:
    """Refuse uint8 frames: the metrics read values in [0, 1], and codes
    0-255 read as values give a wrong number, not an error."""
    if any(np.asarray(f).dtype == np.uint8 for f in frames):
        raise ValueError("uint8 codes, not values in [0, 1]: convert them with mediaio.float_frame")


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio with peak 1.0; identical frames give inf."""
    require_values(a, b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    mse = float(np.mean((np.asarray(a, dtype=np.float64) - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean SSIM over non-overlapping 8x8 windows of the channel-mean luminance."""
    require_values(a, b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    la = np.asarray(a, dtype=np.float64)
    lb = np.asarray(b, dtype=np.float64)
    if la.ndim == 3:
        la = la.mean(axis=2)
        lb = lb.mean(axis=2)
    h, w = la.shape
    n, m = h // SSIM_WINDOW, w // SSIM_WINDOW
    if n == 0 or m == 0:
        raise ValueError(
            f"frame {h}x{w} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window"
        )
    wa = la[: n * SSIM_WINDOW, : m * SSIM_WINDOW].reshape(n, SSIM_WINDOW, m, SSIM_WINDOW)
    wb = lb[: n * SSIM_WINDOW, : m * SSIM_WINDOW].reshape(n, SSIM_WINDOW, m, SSIM_WINDOW)
    mu_a = wa.mean(axis=(1, 3))
    mu_b = wb.mean(axis=(1, 3))
    var_a = (wa**2).mean(axis=(1, 3)) - mu_a**2
    var_b = (wb**2).mean(axis=(1, 3)) - mu_b**2
    cov = (wa * wb).mean(axis=(1, 3)) - mu_a * mu_b
    c1 = SSIM_K1**2
    c2 = SSIM_K2**2
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float((num / den).mean())


def warping_error(prev: np.ndarray, cur: np.ndarray, flow: np.ndarray, mask: np.ndarray) -> float:
    """Flicker between adjacent frames: the mean over non-occluded pixels of the
    squared channel norm of cur - warp(prev, flow). mask marks occluded pixels
    with 1; an all-occluded pair scores 0.
    """
    require_values(prev, cur)
    sq = ((np.asarray(cur, dtype=np.float64) - warp(prev, flow)) ** 2).sum(axis=2)
    valid = mask == 0
    return float(sq[valid].mean()) if valid.any() else 0.0


def interpolation_error(
    prev: np.ndarray, cur: np.ndarray, nxt: np.ndarray, flow_fwd: np.ndarray, flow_bwd: np.ndarray
) -> float:
    """Error of reconstructing cur from its two temporal neighbors.

    flow_fwd aligns prev onto nxt's geometry (estimate_flow(nxt, prev)),
    flow_bwd the reverse. cur is estimated as the pixel mean of both half-flow
    warps; the error is the RMS difference scaled by 255.
    """
    require_values(prev, cur, nxt)
    est = 0.5 * (warp(prev, 0.5 * flow_fwd) + warp(nxt, 0.5 * flow_bwd))
    diff = est - np.asarray(cur, dtype=np.float64)
    return float(np.sqrt(np.mean(diff**2)) * 255.0)

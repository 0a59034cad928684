"""Image quality and temporal-consistency metrics.

Temporal metrics consume flows in the warp convention of the flow module:
a field aligning frame j onto frame i is estimate_flow(frame_i, frame_j).
"""

from __future__ import annotations

import math

import numpy as np

from .flow import warp

SSIM_WINDOW = 8
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio with peak 1.0; identical frames give inf."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    mse = float(np.mean((np.asarray(a, dtype=np.float64) - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean SSIM over non-overlapping 8x8 windows of the channel-mean luminance."""
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


def warping_error(
    frames: list[np.ndarray],
    flows: list[np.ndarray],
    masks: list[np.ndarray] | None = None,
) -> tuple[list[float], float]:
    """Flicker measure between adjacent frames.

    Per pair t: mean over non-occluded pixels of the squared channel norm of
    frame_t - warp(frame_{t-1}, flows[t-1]). masks[t-1] marks occluded pixels
    with 1; None means no occlusions. Returns (per-pair values, mean).
    """
    n = len(frames)
    if n < 2:
        raise ValueError(f"too short: need at least 2 frames, got {n}")
    if len(flows) != n - 1:
        raise ValueError(f"need {n - 1} flows for {n} frames, got {len(flows)}")
    if masks is not None and len(masks) != n - 1:
        raise ValueError(f"need {n - 1} masks, got {len(masks)}")
    per_pair = []
    for t in range(1, n):
        warped = warp(frames[t - 1], flows[t - 1])
        sq = ((np.asarray(frames[t], dtype=np.float64) - warped) ** 2).sum(axis=2)
        if masks is not None:
            valid = masks[t - 1] == 0
            value = float(sq[valid].mean()) if valid.any() else 0.0
        else:
            value = float(sq.mean())
        per_pair.append(value)
    return per_pair, float(np.mean(per_pair))


def interpolation_error(
    frames: list[np.ndarray],
    flows_fwd: list[np.ndarray],
    flows_bwd: list[np.ndarray],
) -> tuple[list[float], float]:
    """Error of reconstructing each frame from its two temporal neighbors.

    flows_fwd[t-1] aligns frame_{t-1} onto frame_{t+1}'s geometry (i.e.
    estimate_flow(frame_{t+1}, frame_{t-1})); flows_bwd[t-1] the reverse.
    Frame t is estimated as the pixel mean of both half-flow warps; the error
    is the RMS difference scaled by 255. Returns (per-triple values, mean).
    """
    n = len(frames)
    if n < 3:
        raise ValueError(f"too short: need at least 3 frames, got {n}")
    if len(flows_fwd) != n - 2 or len(flows_bwd) != n - 2:
        raise ValueError(
            f"need {n - 2} forward and backward flows, got "
            f"{len(flows_fwd)} and {len(flows_bwd)}"
        )
    per_triple = []
    for t in range(1, n - 1):
        from_prev = warp(frames[t - 1], 0.5 * flows_fwd[t - 1])
        from_next = warp(frames[t + 1], 0.5 * flows_bwd[t - 1])
        est = 0.5 * (from_prev + from_next)
        diff = est - np.asarray(frames[t], dtype=np.float64)
        per_triple.append(float(np.sqrt(np.mean(diff**2)) * 255.0))
    return per_triple, float(np.mean(per_triple))

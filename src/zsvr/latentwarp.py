"""Hierarchical latent warping: clean-latent prediction and propagation.

Latents are (h, w, c) arrays. Occlusion masks M are (h, w) with 1 marking
unreliable correspondences: a masked position keeps its own latent, an
unmasked one takes the warped content of the source latent. Each keyframe
latent is blended with the already-chained previous keyframe (one
blend_warped call per step), then propagated star-shaped to the other frames
of its batch.
"""

from __future__ import annotations

import math

import numpy as np

from .flow import warp


def predict_x0(x_t: np.ndarray, eps: np.ndarray, abar_t: float) -> np.ndarray:
    """Invert the forward diffusion: x0 = (x_t - sqrt(1-abar)*eps) / sqrt(abar)."""
    if not 0.0 < abar_t <= 1.0:
        raise ValueError(f"abar_t must be in (0, 1], got {abar_t}")
    if x_t.shape != eps.shape:
        raise ValueError(f"shape mismatch: {x_t.shape} vs {eps.shape}")
    return (x_t - math.sqrt(1.0 - abar_t) * eps) / math.sqrt(abar_t)


def blend_warped(
    own: np.ndarray, source: np.ndarray, flow: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """M * own + (1 - M) * warp(source, flow), mask broadcast over channels."""
    if flow.shape[:2] != own.shape[:2] or mask.shape[:2] != own.shape[:2]:
        raise ValueError(
            f"flow/mask resolution does not match latent resolution {own.shape[:2]}"
        )
    m = mask[:, :, None] if own.ndim == 3 else mask
    return m * own + (1.0 - m) * warp(source, flow)


def propagate_to_batch(
    keyframe: np.ndarray,
    members: list[np.ndarray],
    flows: list[np.ndarray],
    masks: list[np.ndarray],
) -> list[np.ndarray]:
    """Warp a keyframe latent onto every non-keyframe member of its batch.

    Star topology: each member is updated independently from the keyframe.
    """
    if len(flows) != len(members) or len(masks) != len(members):
        raise ValueError(
            f"need one flow and mask per batch member ({len(members)}), "
            f"got {len(flows)} and {len(masks)}"
        )
    return [
        blend_warped(member, keyframe, f, m)
        for member, f, m in zip(members, flows, masks)
    ]

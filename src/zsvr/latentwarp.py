"""Hierarchical latent warping: confidence-blended warping of clean latents.

Latents are (h, w, c) arrays. Occlusion masks M are (h, w) with 1 marking
unreliable correspondences: a masked position keeps its own latent, an
unmasked one takes the warped content of the source latent. The restore loop
makes one blend_warped call per step for each keyframe latent, with the
already-chained previous keyframe as source, and then one per other frame of
its batch, with the keyframe as source (star topology).
"""

from __future__ import annotations

import numpy as np

from .flow import warp


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

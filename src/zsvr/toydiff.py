"""Deterministic toy latent-diffusion denoiser and DDIM sampler.

The denoiser is an untrained, seeded stand-in for a UNet: two down blocks and
two up blocks, each a linear token projection followed by self-attention and a
residual add, with 2x2 mean pooling between the down blocks and nearest
upsampling between the up blocks. It exposes one hook surface, the one token
merging attaches to:

  * attention_hook(kind, chunk, attention) -> tokens, called instead of the
    block's own attention: chunk is the block's TokenChunk, checked once
    here, and the hook returns the attended (B, A, C) array. `attention`
    maps any (K, C) token array through the block's joint self-attention.
    Without a hook (None), attention is applied to each frame's tokens
    independently, so batched sampling is bit-identical to per-frame
    sampling.

denoise_step returns the predicted clean latents and noise (x0, eps) of a
batch; the caller may edit x0 (latent warping does) before the DDIM step to
t_prev, which with eta=0 is forward_diffuse(x0, t_prev, eps). Sampling is
fully deterministic given seeds and inputs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .latentwarp import predict_x0
from .tokenmerge import TokenChunk


class BlockKind(enum.Enum):
    DOWN = "down"
    UP = "up"


@dataclass
class NoiseSchedule:
    """Linear-beta schedule with cumulative alpha products."""

    T: int
    betas: np.ndarray
    alphas: np.ndarray
    abars: np.ndarray


def make_schedule(T: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if not 0.0 < beta_start <= beta_end < 1.0:
        raise ValueError(
            f"need 0 < beta_start <= beta_end < 1, got {beta_start}, {beta_end}"
        )
    betas = np.linspace(beta_start, beta_end, T)
    alphas = 1.0 - betas
    abars = np.cumprod(alphas)
    return NoiseSchedule(T=T, betas=betas, alphas=alphas, abars=abars)


def forward_diffuse(
    x0: np.ndarray, t: int, eps: np.ndarray, sched: NoiseSchedule
) -> np.ndarray:
    """x_t = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps."""
    if not 0 <= t < sched.T:
        raise IndexError(f"t={t} out of range [0, {sched.T})")
    abar = sched.abars[t]
    return math.sqrt(abar) * x0 + math.sqrt(1.0 - abar) * eps


def _softmax(x: np.ndarray) -> np.ndarray:
    """Row softmax computed in place in x, which it returns."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


class ToyDenoiser:
    """Seeded pseudo-random denoiser; same seed gives bit-identical weights.

    Latent channels are embedded to a wider token width before the blocks
    (cosine matching needs a non-trivial feature dimension) and projected
    back afterwards. The predicted noise is RMS-normalized per frame so the
    untrained network stands in for a unit-variance noise estimate and the
    sampling dynamics stay bounded.

    Each instance owns one float64 attention score scratch, sized to the
    largest token count it has attended so far, so one instance must not
    serve concurrent calls.
    """

    N_BLOCKS = 4  # down, down, up, up

    def __init__(self, channels: int = 3, seed: int = 0, width: int = 16):
        self.channels = channels
        self.width = width
        self.seed = seed
        rng = np.random.default_rng(seed)
        scale = 1.0 / math.sqrt(width)
        self.w_in = rng.standard_normal((channels, width)) / math.sqrt(channels)
        self.w_out = rng.standard_normal((width, channels)) * scale
        self.weights = []
        for _ in range(self.N_BLOCKS):
            self.weights.append(
                {
                    name: rng.standard_normal((width, width)) * scale
                    for name in ("p", "q", "k", "v")
                }
            )
        self._scores = np.empty(0)

    def _attend(self, tokens: np.ndarray, block: int) -> np.ndarray:
        """Joint self-attention over an arbitrary (K, C) token set."""
        w = self.weights[block]
        q = tokens @ w["q"]
        k = tokens @ w["k"]
        v = tokens @ w["v"]
        n = len(tokens)
        if self._scores.size < n * n:
            # release the old block first, so both are never held at once
            self._scores = None
            self._scores = np.empty(n * n)
        scores = np.matmul(q, k.T, out=self._scores[: n * n].reshape(n, n))
        scores /= math.sqrt(self.width)
        return _softmax(scores) @ v  # a fresh array: the scratch stays here

    def _block(
        self,
        x: np.ndarray,
        block: int,
        kind: BlockKind,
        content: tuple[int, int],
        attention_hook: Callable | None,
        target_index: int,
    ) -> np.ndarray:
        b, h, w, c = x.shape
        tokens = x.reshape(b, h * w, c)
        proj = tokens @ self.weights[block]["p"]
        if attention_hook is not None:
            chunk = TokenChunk(
                tokens=proj,
                layout=(h, w),
                content=content,
                target_index=target_index,
            )
            attended = np.asarray(
                attention_hook(kind, chunk, lambda t: self._attend(t, block))
            )
            if attended.shape != proj.shape:
                raise ValueError(
                    f"attention hook changed shape {proj.shape} -> {attended.shape}"
                )
        else:
            attended = np.stack([self._attend(proj[i], block) for i in range(b)])
        return (tokens + attended).reshape(b, h, w, c)

    def __call__(
        self, x: np.ndarray, attention_hook: Callable | None = None, target_index: int = 0
    ) -> np.ndarray:
        """Predict noise for a batch of latents (B, h, w, c)."""
        b, h, w, c = x.shape
        if c != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {c}")
        hp, wp = h + h % 2, w + w % 2
        padded = np.zeros((b, hp, wp, self.width))
        padded[:, :h, :w, :] = x @ self.w_in

        half = ((h + 1) // 2, (w + 1) // 2)
        y = self._block(padded, 0, BlockKind.DOWN, (h, w), attention_hook, target_index)
        y = y.reshape(b, hp // 2, 2, wp // 2, 2, self.width).mean(axis=(2, 4))
        y = self._block(y, 1, BlockKind.DOWN, half, attention_hook, target_index)
        y = self._block(y, 2, BlockKind.UP, half, attention_hook, target_index)
        y = y.repeat(2, axis=1).repeat(2, axis=2)
        y = self._block(y, 3, BlockKind.UP, (h, w), attention_hook, target_index)
        eps = y[:, :h, :w, :] @ self.w_out
        rms = np.sqrt((eps**2).mean(axis=(1, 2, 3), keepdims=True)) + 1e-12
        return eps / rms


def denoise_step(
    x_t: np.ndarray,
    t: int,
    denoiser: ToyDenoiser,
    sched: NoiseSchedule,
    attention_hook: Callable | None = None,
    target_index: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Predict (x0_hat, eps_hat) for a batch of latents at step t.

    The deterministic DDIM step to t_prev is forward_diffuse(x0_hat, t_prev,
    eps_hat, sched); after the last step x0_hat is the sample.
    """
    eps_hat = denoiser(x_t, attention_hook, target_index)
    return predict_x0(x_t, eps_hat, sched.abars[t]), eps_hat


def step_indices(T: int, steps: int) -> list[int]:
    """Strided descending subset of [0, T) with `steps` distinct entries."""
    if not 1 <= steps <= T:
        raise ValueError(f"steps must be in [1, {T}], got {steps}")
    idx = np.unique(np.round(np.linspace(T - 1, 0, steps)).astype(int))
    return list(idx[::-1])


def sample(
    x_T: np.ndarray, denoiser: ToyDenoiser, sched: NoiseSchedule, steps: int
) -> np.ndarray:
    """Hookless DDIM over a strided step subset; returns the x0 batch."""
    ts = step_indices(sched.T, steps)
    x = x_T
    for t, t_prev in zip(ts, ts[1:] + [None]):
        x0, eps = denoise_step(x, t, denoiser, sched)
        x = x0 if t_prev is None else forward_diffuse(x0, t_prev, eps, sched)
    return x

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
    The chunk's content grid is one of content_grids(h, w) of the latent.
    The denoiser knows nothing of keyframes: a hook that merges toward one
    frame of the batch is bound to that frame by its caller.
    Without a hook (None), attention is applied to each frame's tokens
    independently, so batched sampling is bit-identical to per-frame
    sampling.

The DDIM algebra lives here, over one fixed noise schedule: T = 100 steps
of linear betas from 1e-4 to 0.02, whose cumulative alpha products are the
read-only ABARS. forward_diffuse noises a clean latent to step t, and
predict_x0 inverts it given the noise. denoise_step returns the
predicted clean latents and noise (x0, eps) of a batch; the caller may edit x0
(latent warping does) before the DDIM step to t_prev, which with eta=0 is
forward_diffuse(x0, t_prev, eps). Sampling is fully deterministic given seeds
and inputs.
"""

from __future__ import annotations

import enum
import math
from typing import Callable

import numpy as np

from .tokenmerge import TokenChunk, serial_rows


class BlockKind(enum.Enum):
    DOWN = "down"
    UP = "up"


# The fixed toy noise schedule: the step count is configurable, the schedule not.
T = 100
ABARS = np.cumprod(1.0 - np.linspace(1e-4, 0.02, T))
ABARS.flags.writeable = False


def forward_diffuse(x0: np.ndarray, t: int, eps: np.ndarray) -> np.ndarray:
    """x_t = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps."""
    if not 0 <= t < T:
        raise IndexError(f"t={t} out of range [0, {T})")
    abar = ABARS[t]
    return math.sqrt(abar) * x0 + math.sqrt(1.0 - abar) * eps


def predict_x0(x_t: np.ndarray, eps: np.ndarray, abar_t: float) -> np.ndarray:
    """Invert the forward diffusion: x0 = (x_t - sqrt(1-abar)*eps) / sqrt(abar)."""
    if not 0.0 < abar_t <= 1.0:
        raise ValueError(f"abar_t must be in (0, 1], got {abar_t}")
    if x_t.shape != eps.shape:
        raise ValueError(f"shape mismatch: {x_t.shape} vs {eps.shape}")
    return (x_t - math.sqrt(1.0 - abar_t) * eps) / math.sqrt(abar_t)


def content_grids(h: int, w: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The unpadded token grids of an (h, w) latent's outer and inner blocks."""
    return (h, w), ((h + 1) // 2, (w + 1) // 2)


# most score values of one stack of attention row blocks: 512 KB of float64
STACK_SCORES = 65536


def _softmax_v(
    q: np.ndarray, kt: np.ndarray, v: np.ndarray, x: np.ndarray, out: np.ndarray
) -> None:
    """out = softmax(q @ kt) @ v for a (rows, C) block of queries or a
    (g, rows, C) stack of them, normalised after the product with v; x is
    the scores' buffer, of q's leading shape by K."""
    np.matmul(q, kt, out=x)
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    np.matmul(x, v, out=out)
    out /= x.sum(axis=-1, keepdims=True)


class ToyDenoiser:
    """Seeded pseudo-random denoiser; same seed gives bit-identical weights.

    Its shape is fixed and its seed is its one parameter: the 3 latent
    channels (an RGB frame, area-downsampled) are embedded to a token width
    of 16 before the blocks (cosine matching needs a non-trivial feature
    dimension) and projected back afterwards. The predicted noise is
    RMS-normalized per frame so the untrained network stands in for a
    unit-variance noise estimate and the sampling dynamics stay bounded.

    Attention over K tokens runs in row blocks of serial_rows(K, width) =
    max(1, 262144 // (K * width)) queries, so no K x K score array is made
    and OpenBLAS never threads an attention product. The blocks are taken
    in stacks of at most STACK_SCORES score values, one numpy call per step
    for a whole stack, but still one gemm per block. The keys are held as
    one C-contiguous (width, K) array, and each block's softmax is
    normalised after its product with the values. The block height, the key
    layout and that order are all part of the output contract: each
    changes the bits. The stacking is not, since numpy multiplies a stack
    block by block and every other step works row by row. An instance
    holds no scratch: after construction it is read only, and one instance
    may serve concurrent calls.
    """

    N_BLOCKS = 4  # down, down, up, up
    channels = 3
    width = 16

    def __init__(self, seed: int):
        channels, width = self.channels, self.width
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

    def _attend(self, tokens: np.ndarray, block: int) -> np.ndarray:
        """Joint self-attention over an arbitrary (K, C) token set.

        q is scaled by 1/sqrt(width) once, and the keys are copied to a
        C-contiguous (C, K) array, so OpenBLAS does not repack a transposed
        operand for every block. The query rows are cut into blocks of
        serial_rows(K, C) rows, the last block short when K is not a
        multiple, and the whole blocks are taken g at a time, g = max(1,
        STACK_SCORES // (rows * K)). For each stack: scores against every
        key, one gemm per block, into one (g, rows, K) buffer that every
        stack reuses; exp of the scores less their row maximum; @ v into the
        stack's rows of the output, again one gemm per block; and those rows
        divided by the row sums of the exps, as FlashAttention defers the
        normalisation. Each row sum is at least 1, since the row maximum
        contributes exp(0). The short block takes the same steps alone.
        Every step but the products works row by row, so no bit depends on
        how many blocks share a stack. 0 tokens give a (0, C) result.
        """
        w = self.weights[block]
        q = tokens @ w["q"]
        q *= 1.0 / math.sqrt(self.width)
        kt = np.ascontiguousarray((tokens @ w["k"]).T)
        v = tokens @ w["v"]
        n, c = v.shape
        out = np.empty_like(v)
        if n == 0:
            return out
        rows = min(serial_rows(n, c), n)
        whole = n - n % rows
        g = max(1, min(whole // rows, STACK_SCORES // (rows * n)))
        # one score buffer for every stack: with the copied keys, a fresh
        # array per block left holes in the heap, and the peak RSS of
        # repeated restores crept up by about 2 MB
        scores = np.empty((g, rows, n))
        for r0 in range(0, whole, g * rows):
            k = min(g, (whole - r0) // rows)
            span, stack = slice(r0, r0 + k * rows), (k, rows, c)
            _softmax_v(q[span].reshape(stack), kt, v, scores[:k], out[span].reshape(stack))
        if whole < n:
            _softmax_v(q[whole:], kt, v, scores[0, : n - whole], out[whole:])
        return out

    def _block(
        self,
        x: np.ndarray,
        block: int,
        kind: BlockKind,
        content: tuple[int, int],
        attention_hook: Callable | None,
    ) -> np.ndarray:
        b, h, w, c = x.shape
        tokens = x.reshape(b, h * w, c)
        proj = tokens @ self.weights[block]["p"]
        if attention_hook is not None:
            chunk = TokenChunk(tokens=proj, layout=(h, w), content=content)
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

    def __call__(self, x: np.ndarray, attention_hook: Callable | None = None) -> np.ndarray:
        """Predict noise for a batch of latents (B, h, w, c)."""
        b, h, w, c = x.shape
        if c != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {c}")
        hp, wp = h + h % 2, w + w % 2
        padded = np.zeros((b, hp, wp, self.width))
        padded[:, :h, :w, :] = x @ self.w_in

        full, half = content_grids(h, w)
        y = self._block(padded, 0, BlockKind.DOWN, full, attention_hook)
        y = y.reshape(b, hp // 2, 2, wp // 2, 2, self.width).mean(axis=(2, 4))
        y = self._block(y, 1, BlockKind.DOWN, half, attention_hook)
        y = self._block(y, 2, BlockKind.UP, half, attention_hook)
        y = y.repeat(2, axis=1).repeat(2, axis=2)
        y = self._block(y, 3, BlockKind.UP, full, attention_hook)
        eps = y[:, :h, :w, :] @ self.w_out
        rms = np.sqrt((eps**2).mean(axis=(1, 2, 3), keepdims=True)) + 1e-12
        return eps / rms


def denoise_step(
    x_t: np.ndarray,
    t: int,
    denoiser: ToyDenoiser,
    attention_hook: Callable | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Predict (x0_hat, eps_hat) for a batch of latents at step t.

    The deterministic DDIM step to t_prev is forward_diffuse(x0_hat, t_prev,
    eps_hat); after the last step x0_hat is the sample.
    """
    eps_hat = denoiser(x_t, attention_hook)
    return predict_x0(x_t, eps_hat, ABARS[t]), eps_hat


def step_indices(steps: int) -> list[int]:
    """Strided descending subset of [0, T) with `steps` distinct entries."""
    if not 1 <= steps <= T:
        raise ValueError(f"steps must be in [1, {T}], got {steps}")
    idx = np.unique(np.round(np.linspace(T - 1, 0, steps)).astype(int))
    return list(idx[::-1])

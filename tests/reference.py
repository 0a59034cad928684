"""Independent reference paths for the tests.

The hook-free sampler and per-frame baseline are the mechanism-off oracles
that `restore` with hlw_until = tome_until = 0 must equal bit for bit.
split_blends reads restore's latent-warping calls back by batch and step.
estimate_flow_exact is block matching on 8-bit frames with exact integer
costs. attend_blocks is attention one row block per call, and
select_top_r_lexsort top-r selection by a full sort. Nothing in the package
calls them.
"""

import math

import numpy as np

from zsvr import pipeline, toydiff
from zsvr.mediaio import FrameSequence, float_frame
from zsvr.tokenmerge import INVALID, serial_rows
from zsvr.toydiff import ToyDenoiser


def sample(x_T, denoiser, steps):
    """Hookless DDIM over a strided step subset; returns the x0 batch."""
    ts = toydiff.step_indices(steps)
    x = x_T
    for t, t_prev in zip(ts, ts[1:] + [None]):
        x0, eps = toydiff.denoise_step(x, t, denoiser)
        x = x0 if t_prev is None else toydiff.forward_diffuse(x0, t_prev, eps)
    return x


def per_frame_baseline(seq, config):
    """Independent per-frame sampling with no hooks; the mechanism-off reference."""
    config.validate()
    h, w, _ = seq.shape
    scale = config.latent_scale
    hl, wl = h // scale, w // scale
    denoiser = ToyDenoiser(config.seed)
    out = []
    for f, frame in enumerate(seq.frames):
        x0 = pipeline.encode_latent(float_frame(frame), scale)[None]
        eps = pipeline.frame_noise(config.seed, f, (hl, wl, 3))[None]
        ts = toydiff.step_indices(config.steps)
        x = toydiff.forward_diffuse(x0, ts[0], eps)
        x = sample(x, denoiser, config.steps)
        out.append(pipeline.decode_latent(x[0], h, w))
    return FrameSequence(out)


def split_blends(calls, plan, steps):
    """Split the blend_warped calls of a restore that warps in every step.

    calls are (own, source, flow, mask, result) in call order. In each step,
    a batch after the first makes one chain call, then one star call per
    member in frame order, whose source is the keyframe. Returns, per batch,
    per step, (chain call or None, keyframe latent, star calls); a batch
    without members has its chain result as keyframe.
    """
    calls = iter(calls)
    batches = []
    for b, (start, stop) in enumerate(plan.batches):
        rows = []
        for _ in range(steps):
            chain = next(calls) if b > 0 else None
            star = [next(calls) for _ in range(stop - start - 1)]
            rows.append((chain, star[0][1] if star else chain[4], star))
        batches.append(rows)
    assert next(calls, None) is None, "more blend_warped calls than the plan makes"
    return batches


def estimate_flow_exact(src, dst, block, search):
    """Exhaustive SSD block matching on 8-bit frames, with exact costs.

    src and dst are uint8 codes. A candidate's cost is the SSD of the int64
    codes over the edge-clamped block, taken from a summed-area table, so it
    is exact whatever the order of summation. The first candidate in
    (|d|^2, dy, dx) order with the least cost wins, as estimate_flow's tie
    rule states.
    """

    def codes(img):
        assert img.dtype == np.uint8, f"uint8 codes only, got {img.dtype}"
        k = img.astype(np.int64)
        return k[:, :, None] if k.ndim == 2 else k

    s, d = codes(src), codes(dst)
    h, w, _ = s.shape
    lo, hi = block // 2, block - 1 - block // 2
    cands = sorted(
        (dy * dy + dx * dx, dy, dx)
        for dy in range(-search, search + 1)
        for dx in range(-search, search + 1)
    )
    costs = np.empty((len(cands), h, w), dtype=np.int64)
    for k, (_, dy, dx) in enumerate(cands):
        ys = np.clip(np.arange(h) + dy, 0, h - 1)
        xs = np.clip(np.arange(w) + dx, 0, w - 1)
        err = ((s - d[np.ix_(ys, xs)]) ** 2).sum(axis=2)
        sat = np.zeros((h + block, w + block), dtype=np.int64)
        sat[1:, 1:] = np.pad(err, ((lo, hi), (lo, hi)), mode="edge").cumsum(0).cumsum(1)
        costs[k] = sat[block:, block:] - sat[:h, block:] - sat[block:, :w] + sat[:h, :w]
    best = costs.argmin(axis=0)
    du = np.array([dx for _, _, dx in cands], dtype=np.float64)
    dv = np.array([dy for _, dy, _ in cands], dtype=np.float64)
    return np.stack([du[best], dv[best]], axis=2)


def attend_blocks(denoiser, tokens, block):
    """ToyDenoiser._attend with every row block in its own numpy calls.

    The same q, contiguous keys and v, and blocks of serial_rows(K, C)
    query rows, the last one short; each block's scores go into one reused
    buffer, less their row maximum, exp, @ v, then divided by the row sums.
    """
    w = denoiser.weights[block]
    q = tokens @ w["q"]
    q *= 1.0 / math.sqrt(denoiser.width)
    kt = np.ascontiguousarray((tokens @ w["k"]).T)
    v = tokens @ w["v"]
    n = len(tokens)
    out = np.empty_like(v)
    rows = serial_rows(n, v.shape[1])
    scores = np.empty((min(rows, n), n))
    for r0 in range(0, n, rows):
        x = scores[: min(rows, n - r0)]
        np.matmul(q[r0 : r0 + rows], kt, out=x)
        x -= x.max(axis=-1, keepdims=True)
        np.exp(x, out=x)
        o = out[r0 : r0 + rows]
        np.matmul(x, v, out=o)
        o /= x.sum(axis=-1, keepdims=True)
    return out


def select_top_r_lexsort(targets, criteria, r_i):
    """select_top_r by a full sort: the valid pairs ordered by descending
    criterion, then by source index, the first floor(r_i * N) returned in
    source order."""
    k = math.floor(r_i * len(targets))
    valid = np.flatnonzero(targets != INVALID)
    if k == 0 or len(valid) == 0:
        return np.empty(0, dtype=np.int64)
    order = valid[np.lexsort((valid, -criteria[valid]))]
    return np.sort(order[: min(k, len(valid))])

"""Independent reference paths for the tests.

The hook-free sampler and per-frame baseline are the mechanism-off oracles
that `restore` with both window lists empty must equal bit for bit.
split_blends reads restore's latent-warping calls back by batch and step.
estimate_flow_exact is block matching on 8-bit frames with exact integer
costs. Nothing in the package calls them.
"""

import numpy as np

from zsvr import pipeline, toydiff
from zsvr.mediaio import FrameSequence
from zsvr.toydiff import ToyDenoiser


def sample(x_T, denoiser, sched, steps):
    """Hookless DDIM over a strided step subset; returns the x0 batch."""
    ts = toydiff.step_indices(sched.T, steps)
    x = x_T
    for t, t_prev in zip(ts, ts[1:] + [None]):
        x0, eps = toydiff.denoise_step(x, t, denoiser, sched)
        x = x0 if t_prev is None else toydiff.forward_diffuse(x0, t_prev, eps, sched)
    return x


def per_frame_baseline(seq, config):
    """Independent per-frame sampling with no hooks; the mechanism-off reference."""
    config.validate()
    h, w, _ = seq.shape
    scale = config.latent_scale
    hl, wl = h // scale, w // scale
    sched = toydiff.make_schedule(pipeline.SCHED_T, pipeline.BETA_START, pipeline.BETA_END)
    denoiser = ToyDenoiser(config.seed)
    out = []
    for f, frame in enumerate(seq.frames):
        x0 = pipeline.encode_latent(frame, scale)[None]
        eps = pipeline.frame_noise(config.seed, f, (hl, wl, 3))[None]
        ts = toydiff.step_indices(sched.T, config.steps)
        x = toydiff.forward_diffuse(x0, ts[0], eps, sched)
        x = sample(x, denoiser, sched, config.steps)
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

    src and dst are uint8 codes or floats k/255. A candidate's cost is the
    SSD of the int64 codes over the edge-clamped block, taken from a
    summed-area table, so it is exact whatever the order of summation. The
    first candidate in (|d|^2, dy, dx) order with the least cost wins, as
    estimate_flow's tie rule states.
    """

    def codes(img):
        k = img.astype(np.int64) if img.dtype == np.uint8 else np.rint(img * 255).astype(np.int64)
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

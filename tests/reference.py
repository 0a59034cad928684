"""Independent reference paths for the tests: the hook-free sampler.

These are the mechanism-off oracles that `restore` with both window lists
empty must equal bit for bit. Nothing in the package calls them.
"""

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
    denoiser = ToyDenoiser(channels=3, seed=config.seed)
    out = []
    for f, frame in enumerate(seq.frames):
        x0 = pipeline.encode_latent(frame, scale)[None]
        eps = pipeline.frame_noise(config.seed, f, (hl, wl, 3))[None]
        ts = toydiff.step_indices(sched.T, config.steps)
        x = toydiff.forward_diffuse(x0, ts[0], eps, sched)
        x = sample(x, denoiser, sched, config.steps)
        out.append(pipeline.decode_latent(x[0], h, w))
    return FrameSequence(out)

"""End-to-end restoration: batching, flow precomputation, stage scheduling.

restore() processes the video batch by batch through the toy DDIM sampler
and decides once per step which mechanisms run. Hierarchical latent warping
runs in the steps of its windows, on the predicted clean latents between the
denoiser's prediction and the DDIM update: the batch keyframe is chained from
the previous batch's keyframe (its clean-latent prediction at the same step,
after its own chain blend), then propagated star-shaped to the batch members.
Token merging wraps every self-attention in the steps of its windows where
the annealed merge ratio is positive: flow-guided in down blocks, spatially
weighted cosine in up blocks.

The "encoder/decoder" is area downsampling / bilinear upsampling, not a VAE:
latents are downsampled frames. This is a deliberate desk-scale substitution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import flow as flowmod
from . import latentwarp, metrics, toydiff
from .mediaio import FrameSequence
from .tokenmerge import MergeMode, anneal_ratio, hybrid_merge_pass
from .toydiff import BlockKind, ToyDenoiser

# Fixed toy noise schedule; the step count is configurable, the schedule not.
SCHED_T = 100
BETA_START = 1e-4
BETA_END = 0.02


def _hlw_until(text: str) -> tuple[tuple[float, float], ...]:
    """Config key hlw_until = v: latent warping in the leading step fraction v."""
    v = float(text)
    if not 0.0 <= v <= 1.0:
        raise ValueError("hlw_until must be in [0, 1]")
    return ((0.0, v),) if v > 0 else ()


_CONFIG_KEYS = {
    "batch_size": ("batch_size", int),
    "steps": ("steps", int),
    "seed": ("seed", int),
    "hlw_until": ("hlw_windows", _hlw_until),
    "tome.i_beg": ("tome_i_beg", int),
    "tome.i_end": ("tome_i_end", int),
    "tome.delta": ("tome_delta", float),
    "tome.r": ("tome_r", float),
    "tome.R": ("tome_R", float),
    "flow.block": ("flow_block", int),
    "flow.search": ("flow_search", int),
    "flow.tau_occ": ("flow_tau_occ", float),
    "latent_scale": ("latent_scale", int),
}


@dataclass
class RestoreConfig:
    batch_size: int = 8
    steps: int = 50
    seed: int = 0
    tome_i_beg: int | None = None  # anneal start; default 60% of steps, below steps
    tome_i_end: int | None = None  # anneal end; default step count
    tome_delta: float = 1.0
    tome_r: float = 0.8
    tome_R: float = 4.0
    flow_block: int = 7
    flow_search: int = 4
    flow_tau_occ: float = 0.368
    latent_scale: int = 4
    # Ablation knobs (not config-file keys).
    down_mode: MergeMode = MergeMode.FLOW_DOWN
    up_mode: MergeMode = MergeMode.COSINE_UP
    # Step-fraction windows [lo, hi) in which each mechanism runs; empty is off.
    hlw_windows: tuple[tuple[float, float], ...] = ((0.0, 0.2),)
    tome_windows: tuple[tuple[float, float], ...] = ((0.0, 1.0),)

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 1 <= self.steps <= SCHED_T:
            raise ValueError(f"steps must be in [1, {SCHED_T}]")
        if not 0.0 <= self.tome_r <= 1.0:
            raise ValueError("tome.r must be in [0, 1]")
        if not 0 < self.tome_delta < math.inf:
            raise ValueError("tome.delta must be finite and > 0")
        if not self.tome_R > 0:
            raise ValueError("tome.R must be > 0 (inf turns the spatial prior off)")
        if self.latent_scale < 1:
            raise ValueError("latent_scale must be >= 1")
        if self.flow_block < 1 or self.flow_search < 0:
            raise ValueError("bad flow.block / flow.search")
        if not 0.0 < self.flow_tau_occ <= 1.0:
            raise ValueError("flow.tau_occ must be in (0, 1]")
        beg, end = self.anneal_range()
        if beg >= end:
            raise ValueError("tome.i_beg must be < tome.i_end")
        for name in ("hlw_windows", "tome_windows"):
            for lo, hi in getattr(self, name):
                if not 0.0 <= lo < hi <= 1.0:
                    raise ValueError(f"{name} entry ({lo}, {hi}) needs 0 <= lo < hi <= 1")

    def anneal_range(self) -> tuple[int, int]:
        default_beg = min(round(0.6 * self.steps), self.steps - 1)
        beg = self.tome_i_beg if self.tome_i_beg is not None else default_beg
        end = self.tome_i_end if self.tome_i_end is not None else self.steps
        return beg, end

    def active_tome_windows(self) -> tuple[tuple[float, float], ...]:
        return self.tome_windows

    @property
    def tome_enabled(self) -> bool:
        """Read-only; like active_tome_windows, kept only until perfbench reads step_plan."""
        return bool(self.tome_windows)


def parse_config(text: str) -> RestoreConfig:
    """Parse line-based `key = value` text; unknown and repeated keys are errors."""
    values = {}
    line_of = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in line_of:
            raise ValueError(f"line {lineno}: config key {key!r} repeats line {line_of[key]}")
        line_of[key] = lineno
        attr, conv = _CONFIG_KEYS[key]
        try:
            values[attr] = conv(val)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key}: {val!r}") from exc
    cfg = RestoreConfig(**values)
    cfg.validate()
    return cfg


def load_config(path: str) -> RestoreConfig:
    with open(path) as fh:
        return parse_config(fh.read())


@dataclass
class BatchPlan:
    """Contiguous frame batches, each with one randomly chosen keyframe."""

    batch_size: int
    batches: list[tuple[int, int]]  # [start, end) frame ranges
    keyframe_of: list[int]  # global frame index, inside its batch
    seed: int


def plan_batches(n: int, batch_size: int, seed: int) -> BatchPlan:
    if n < 1 or batch_size < 1:
        raise ValueError("n and batch_size must be >= 1")
    rng = np.random.default_rng(seed)
    batches = []
    keyframes = []
    for start in range(0, n, batch_size):
        end = min(start + batch_size, n)
        batches.append((start, end))
        keyframes.append(start + int(rng.integers(end - start)))
    return BatchPlan(batch_size=batch_size, batches=batches, keyframe_of=keyframes, seed=seed)


@dataclass
class FlowBank:
    """Precomputed flows between the frame pairs restore reads, at LQ resolution.

    flow[(i, j)] = estimate_flow(frame_i, frame_j): sampled at frame i's
    positions, pointing at the corresponding position in frame j, so
    warp(x_j, flow[(i, j)]) aligns frame j's content onto frame i.
    conf/mask[(i, j)] qualify that warp. The bank holds conf and mask for the
    pairs of _needed_pairs, flows for them and their reverses, and records
    the flow settings it was built with. One bank
    serves every restore of the same frames with the same batch plan
    (batch_size, seed) and flow settings (flow.block, flow.search,
    flow.tau_occ); restore rejects a bank whose settings or pairs differ.
    """

    block: int
    search: int
    tau_occ: float
    flow: dict = field(default_factory=dict)
    conf: dict = field(default_factory=dict)
    mask: dict = field(default_factory=dict)


def _needed_pairs(plan: BatchPlan) -> set[tuple[int, int]]:
    """The pairs (i, j) whose flow, confidence and mask restore reads: each
    batch member with its keyframe (star propagation and flow-guided merging)
    and each keyframe with the previous batch's keyframe (the chain)."""
    pairs = {(plan.keyframe_of[b], plan.keyframe_of[b - 1]) for b in range(1, len(plan.batches))}
    for b, (start, end) in enumerate(plan.batches):
        kf = plan.keyframe_of[b]
        pairs.update((m, kf) for m in range(start, end) if m != kf)
    return pairs


def precompute_flows(seq: FrameSequence, plan: BatchPlan, config: RestoreConfig) -> FlowBank:
    """Block-matching flows, confidences, and occlusion masks on the LQ frames.

    Flows are estimated both ways for each pair restore reads, because its
    forward-backward confidence needs the reverse flow too.
    """
    bank = FlowBank(config.flow_block, config.flow_search, config.flow_tau_occ)
    read = _needed_pairs(plan)
    for i, j in sorted(read | {(j, i) for i, j in read}):
        bank.flow[(i, j)] = flowmod.estimate_flow(
            seq.frames[i], seq.frames[j], config.flow_block, config.flow_search
        )
    for i, j in sorted(read):
        bank.conf[(i, j)] = flowmod.fb_confidence(bank.flow[(i, j)], bank.flow[(j, i)])
        bank.mask[(i, j)] = (bank.conf[(i, j)] < config.flow_tau_occ).astype(np.float64)
    return bank


def _check_bank(bank: FlowBank, plan: BatchPlan, config: RestoreConfig) -> None:
    built = (bank.block, bank.search, bank.tau_occ)
    wanted = (config.flow_block, config.flow_search, config.flow_tau_occ)
    if built != wanted:
        raise ValueError(
            f"flow bank built with flow.block/search/tau_occ {built}, config has {wanted}"
        )
    missing = _needed_pairs(plan) - (bank.flow.keys() & bank.conf.keys() & bank.mask.keys())
    if missing:
        raise ValueError(
            f"flow bank lacks {len(missing)} frame pairs restore reads, e.g. {min(missing)}"
        )


def encode_latent(frame: np.ndarray, scale: int) -> np.ndarray:
    """Area-downsample a frame by an integer factor."""
    h, w, c = frame.shape
    if h % scale or w % scale:
        raise ValueError(
            f"frame size {h}x{w} not divisible by latent_scale {scale}"
        )
    return frame.reshape(h // scale, scale, w // scale, scale, c).mean(axis=(1, 3))


def decode_latent(latent: np.ndarray, h: int, w: int) -> np.ndarray:
    """Bilinear-upsample a latent back to frame resolution, clipped to [0, 1]."""
    return np.clip(flowmod.bilinear_resample(latent, h, w), 0.0, 1.0)


def frame_noise(seed: int, frame_index: int, shape: tuple[int, ...]) -> np.ndarray:
    """Independent per-frame initial noise, deterministic in (seed, frame)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, frame_index]))
    return rng.standard_normal(shape)


def _in_windows(frac: float, windows) -> bool:
    return any(lo <= frac < hi for lo, hi in windows)


def step_plan(config: RestoreConfig) -> tuple[list[bool], list[float]]:
    """Per denoising step: does latent warping run, and at which merge ratio (0: none)."""
    config.validate()
    beg, end = config.anneal_range()
    fracs = [pos / config.steps for pos in range(config.steps)]
    hlw_on = [_in_windows(f, config.hlw_windows) for f in fracs]
    ratios = [
        anneal_ratio(pos, config.tome_r, config.tome_delta, beg, end)
        if _in_windows(f, config.tome_windows) else 0.0
        for pos, f in enumerate(fracs)
    ]
    return hlw_on, ratios


def _flow_readers(config: RestoreConfig) -> tuple[bool, bool]:
    """Does restore read flows to warp latents, and to merge tokens along them?"""
    hlw_on, ratios = step_plan(config)
    return any(hlw_on), any(ratios) and MergeMode.FLOW_DOWN in (config.down_mode, config.up_mode)


def _merge_attention(config: RestoreConfig, fields: dict, r_i: float, kind, chunk, attention):
    """Attention hook: one hybrid merge pass at merge ratio r_i.

    fields maps each content token grid to the batch's merge flows and
    confidences on that grid, as hybrid_merge_pass takes them.
    """
    mode = config.down_mode if kind is BlockKind.DOWN else config.up_mode
    if mode is MergeMode.FLOW_DOWN:
        kwargs = fields[chunk.content]
    else:
        kwargs = {"R": config.tome_R}
    return hybrid_merge_pass(chunk, mode, attention, r_i, **kwargs)


def restore_latents(
    seq: FrameSequence, config: RestoreConfig, bank: FlowBank | None = None
) -> np.ndarray:
    """Run the full zero-shot restoration; return the sampler's final latents.

    The result has shape (n, h / latent_scale, w / latent_scale, 3). bank, if
    given, must come from precompute_flows on the same frames with the same
    batch plan and flow settings; otherwise the flows needed are computed here.
    """
    config.validate()
    n = len(seq)
    h, w, _ = seq.shape
    scale = config.latent_scale
    if h % scale or w % scale:
        raise ValueError(f"frame size {h}x{w} not divisible by latent_scale {scale}")
    hl, wl = h // scale, w // scale
    grids = ((hl, wl), ((hl + 1) // 2, (wl + 1) // 2))  # the blocks' content grids

    plan = plan_batches(n, config.batch_size, config.seed)
    sched = toydiff.make_schedule(SCHED_T, BETA_START, BETA_END)
    ts = toydiff.step_indices(sched.T, config.steps)
    hlw_on, ratios = step_plan(config)
    warps, flow_merges = _flow_readers(config)

    if bank is not None:
        _check_bank(bank, plan, config)
    elif warps or flow_merges:
        bank = precompute_flows(seq, plan, config)
    denoiser = ToyDenoiser(channels=3, seed=config.seed)

    out = np.empty((n, hl, wl, 3))
    prev_kf_x0: dict[int, np.ndarray] = {}  # step -> previous keyframe's post-chain x0

    for b, (start, stop) in enumerate(plan.batches):
        kf = plan.keyframe_of[b]
        kf_off = kf - start
        members = [f for f in range(start, stop) if f != kf]
        member_offs = [f - start for f in members]

        x0s = np.stack([encode_latent(seq.frames[f], scale) for f in range(start, stop)])
        eps0 = np.stack([frame_noise(config.seed, f, (hl, wl, 3)) for f in range(start, stop)])
        x = toydiff.forward_diffuse(x0s, ts[0], eps0, sched)

        # The batch's member flows, resampled once to each grid that reads them.
        read = {(hl, wl)} if warps else set()
        if members and flow_merges:
            read.update(grids)
        member_flows = {
            g: [flowmod.resample_flow(bank.flow[(m, kf)], *g) for m in members] for g in read
        }

        chain = None
        if warps:
            star_flows = member_flows[(hl, wl)]
            star_masks = [flowmod.resample_mask(bank.mask[(m, kf)], hl, wl) for m in members]
            if b > 0:
                pair = (kf, plan.keyframe_of[b - 1])
                chain = (
                    flowmod.resample_flow(bank.flow[pair], hl, wl),
                    flowmod.resample_mask(bank.mask[pair], hl, wl),
                )
        fields = {}
        if members and flow_merges:
            fields = {
                (hc, wc): {
                    "flows": member_flows[(hc, wc)],
                    "confidences": [
                        flowmod.bilinear_resample(bank.conf[(m, kf)], hc, wc) for m in members
                    ],
                }
                for hc, wc in grids
            }

        kf_x0: dict[int, np.ndarray] = {}
        for pos, (t, t_prev) in enumerate(zip(ts, ts[1:] + [None])):
            hook = None
            if members and ratios[pos] > 0.0:
                hook = functools.partial(_merge_attention, config, fields, ratios[pos])
            x0, eps = toydiff.denoise_step(x, t, denoiser, sched, hook, target_index=kf_off)
            if hlw_on[pos]:
                if chain is not None:
                    x0[kf_off] = latentwarp.blend_warped(x0[kf_off], prev_kf_x0[pos], *chain)
                kf_x0[pos] = x0[kf_off].copy()
                warped = latentwarp.propagate_to_batch(
                    x0[kf_off], [x0[o] for o in member_offs], star_flows, star_masks
                )
                for off, latent in zip(member_offs, warped):
                    x0[off] = latent
            x = x0 if t_prev is None else toydiff.forward_diffuse(x0, t_prev, eps, sched)
        prev_kf_x0 = kf_x0
        out[start:stop] = x

    return out


def restore(
    seq: FrameSequence, config: RestoreConfig, bank: FlowBank | None = None
) -> FrameSequence:
    """Run the full zero-shot restoration over a frame sequence.

    The decoded frames of restore_latents, which documents the arguments.
    """
    h, w, _ = seq.shape
    return FrameSequence([decode_latent(x, h, w) for x in restore_latents(seq, config, bank)])


def per_frame_baseline(seq: FrameSequence, config: RestoreConfig) -> FrameSequence:
    """Independent per-frame sampling with no hooks; the mechanism-off reference."""
    config.validate()
    h, w, _ = seq.shape
    scale = config.latent_scale
    hl, wl = h // scale, w // scale
    sched = toydiff.make_schedule(SCHED_T, BETA_START, BETA_END)
    denoiser = ToyDenoiser(channels=3, seed=config.seed)
    out = []
    for f, frame in enumerate(seq.frames):
        x0 = encode_latent(frame, scale)[None]
        eps = frame_noise(config.seed, f, (hl, wl, 3))[None]
        ts = toydiff.step_indices(sched.T, config.steps)
        x = toydiff.forward_diffuse(x0, ts[0], eps, sched)
        x = toydiff.sample(x, denoiser, sched, config.steps)
        out.append(decode_latent(x[0], h, w))
    return FrameSequence(out)


def temporal_consistency(
    seq: FrameSequence,
    config: RestoreConfig,
    flow_source: FrameSequence | None = None,
) -> tuple[list[float], list[float]]:
    """E_warp and E_inter per-item arrays for a sequence.

    Flows (and occlusion masks for E_warp) are estimated from flow_source,
    which defaults to the measured sequence itself; pass the LQ input to
    compare restored variants under identical flows. These adjacent and
    skip-one flows are not in restore's FlowBank.
    """
    src = flow_source if flow_source is not None else seq
    if len(src) != len(seq):
        raise ValueError("flow_source length differs from sequence length")
    n = len(seq)
    est = lambda i, j: flowmod.estimate_flow(
        src.frames[i], src.frames[j], config.flow_block, config.flow_search
    )
    warp_flows, warp_masks = [], []
    for t in range(1, n):
        fwd = est(t, t - 1)
        bwd = est(t - 1, t)
        warp_flows.append(fwd)
        warp_masks.append(flowmod.occlusion_mask(fwd, bwd, config.flow_tau_occ))
    e_warp, e_inter = [], []
    if n >= 2:
        e_warp, _ = metrics.warping_error(seq.frames, warp_flows, warp_masks)
    if n >= 3:
        fwd2 = [est(t + 1, t - 1) for t in range(1, n - 1)]
        bwd2 = [est(t - 1, t + 1) for t in range(1, n - 1)]
        e_inter, _ = metrics.interpolation_error(seq.frames, fwd2, bwd2)
    return e_warp, e_inter


# tome_R = inf is cosine matching without the spatial prior.
CORRESPONDENCE_VARIANTS = {
    "flow_flow": dict(down_mode=MergeMode.FLOW_DOWN, up_mode=MergeMode.FLOW_DOWN, tome_R=math.inf),
    "cos_cos": dict(down_mode=MergeMode.COSINE_UP, up_mode=MergeMode.COSINE_UP, tome_R=math.inf),
    "cos_flow": dict(down_mode=MergeMode.COSINE_UP, up_mode=MergeMode.FLOW_DOWN, tome_R=math.inf),
    "flow_cos": dict(down_mode=MergeMode.FLOW_DOWN, up_mode=MergeMode.COSINE_UP, tome_R=math.inf),
    "flow_cos_spatial": dict(down_mode=MergeMode.FLOW_DOWN, up_mode=MergeMode.COSINE_UP),
}

# Step-fraction thirds standing in for early/mid/late denoising stages.
_EARLY = (0.0, 1.0 / 3.0)
_MID = (1.0 / 3.0, 2.0 / 3.0)
_LATE = (2.0 / 3.0, 1.0)

STAGE_VARIANTS = {
    "off_off": dict(hlw_windows=[], tome_windows=[]),
    "early_early": dict(hlw_windows=[_EARLY], tome_windows=[_EARLY]),
    "earlymid_all": dict(hlw_windows=[_EARLY, _MID], tome_windows=[_EARLY, _MID, _LATE]),
    "all_all": dict(hlw_windows=[_EARLY, _MID, _LATE], tome_windows=[_EARLY, _MID, _LATE]),
    "early_all": dict(hlw_windows=[_EARLY], tome_windows=[_EARLY, _MID, _LATE]),
}


def ablate(seq: FrameSequence, config: RestoreConfig, variants: dict | None = None) -> dict:
    """Run restore under correspondence and stage variants; emit a metrics table.

    Variants with the same batch plan and flow settings share one FlowBank,
    built only once a variant reads flows; the built-in variants override
    neither, so they all share one.
    """
    table: dict = {"correspondence": {}, "stages": {}}
    groups = variants or {
        "correspondence": CORRESPONDENCE_VARIANTS,
        "stages": STAGE_VARIANTS,
    }
    banks: dict = {}
    for group, entries in groups.items():
        for name, overrides in entries.items():
            cfg = replace(config, **overrides)
            cfg.validate()
            key = (cfg.batch_size, cfg.seed, cfg.flow_block, cfg.flow_search, cfg.flow_tau_occ)
            if key not in banks and any(_flow_readers(cfg)):
                plan = plan_batches(len(seq), cfg.batch_size, cfg.seed)
                banks[key] = precompute_flows(seq, plan, cfg)
            restored = restore(seq, cfg, bank=banks.get(key))
            e_warp, e_inter = temporal_consistency(restored, config, flow_source=seq)
            table.setdefault(group, {})[name] = {
                "e_warp_mean": float(np.mean(e_warp)) if e_warp else None,
                "e_warp_mean_x1000": float(1e3 * np.mean(e_warp)) if e_warp else None,
                "e_inter_mean": float(np.mean(e_inter)) if e_inter else None,
            }
    return table

"""End-to-end restoration: batching, flow precomputation, stage scheduling.

restore_iter() makes a restore's constants once (which mechanisms run in
each step, the flow bank, the sampler), then takes one batch at a time through
the toy DDIM sampler and yields its latents; restore_latents() concatenates
them and restore() decodes each batch as it comes.
Hierarchical latent warping runs in the leading step fraction hlw_until, on
the predicted clean latents between the denoiser's prediction and the DDIM
update: the batch keyframe is chained from the previous batch's keyframe (its
clean-latent prediction at the same step, after its own chain blend: the only
state that crosses batches), then propagated star-shaped to the batch
members. Token merging toward the keyframe wraps every self-attention in the
leading step fraction tome_until where the annealed merge ratio is positive:
flow-guided in down blocks, spatially weighted cosine in up blocks.

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
from .mediaio import FrameSequence, code_frame, float_frame
from .tokenmerge import (
    MergeMode, anneal_ratio, flow_correspondence, hybrid_merge_pass, spatial_table
)
from .toydiff import BlockKind, ToyDenoiser

_CONFIG_KEYS = {
    "batch_size": ("batch_size", int),
    "steps": ("steps", int),
    "seed": ("seed", int),
    "hlw_until": ("hlw_until", float),
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
    # Each mechanism runs in the steps pos with pos / steps < until, so 0 is
    # off; hlw_until is also the config key of that name.
    hlw_until: float = 0.2
    tome_until: float = 1.0

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 1 <= self.steps <= toydiff.T:
            raise ValueError(f"steps must be in [1, {toydiff.T}]")
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
            default = " (default: 60% of steps, below steps)" if self.tome_i_beg is None else ""
            raise ValueError(f"tome.i_beg {beg}{default} must be < tome.i_end {end}")
        for key in ("hlw_until", "tome_until"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise ValueError(f"{key} must be in [0, 1]")

    def anneal_range(self) -> tuple[int, int]:
        default_beg = min(round(0.6 * self.steps), self.steps - 1)
        beg = self.tome_i_beg if self.tome_i_beg is not None else default_beg
        end = self.tome_i_end if self.tome_i_end is not None else self.steps
        return beg, end

    def active_tome_windows(self) -> tuple[tuple[float, float], ...]:
        return ((0.0, self.tome_until),) if self.tome_until > 0 else ()

    @property
    def tome_enabled(self) -> bool:
        """Read-only; like active_tome_windows, kept only until perfbench reads step_plan."""
        return self.tome_until > 0


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

    batches: list[tuple[int, int]]  # [start, end) frame ranges
    keyframe_of: list[int]  # global frame index, inside its batch


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
    return BatchPlan(batches=batches, keyframe_of=keyframes)


@dataclass
class FlowBank:
    """Block-matching flows and confidences between frames of seq, each
    estimated the first time it is read and kept until dropped.

    flow_of(i, j) = estimate_flow(frame_i, frame_j) at LQ resolution: sampled
    at frame i's positions, pointing at the corresponding position in frame
    j, so warp(x_j, flow_of(i, j)) aligns frame j's content onto frame i.
    seq's frames go to estimate_flow as their mediaio.code_frame: uint8
    frames as they are, float frames rounded to the nearest code, so a bank
    of float frames reads the flows of the 8-bit frames write_frames would
    write for them. conf_of(i, j) is its forward-backward confidence, which
    reads flow_of(j, i) too; readers threshold it into an occlusion mask at
    their own flow.tau_occ. flow and conf hold what has been read and not
    dropped. One bank serves every restore and metric of seq at its block
    and search. Only the code that made a bank drops from it, each once it
    has read a pair for the last time: restore_iter before a batch's first
    step, temporal_consistency once a pair or triple is scored, and
    `zsvr flow` once a pair's files are written. A bank a caller passes in
    is never pruned.
    """

    seq: FrameSequence
    block: int
    search: int
    flow: dict = field(default_factory=dict)
    conf: dict = field(default_factory=dict)

    def flow_of(self, i: int, j: int) -> np.ndarray:
        if (i, j) not in self.flow:
            src, dst = (code_frame(self.seq.frames[k]) for k in (i, j))
            self.flow[(i, j)] = flowmod.estimate_flow(src, dst, self.block, self.search)
        return self.flow[(i, j)]

    def conf_of(self, i: int, j: int) -> np.ndarray:
        if (i, j) not in self.conf:
            self.conf[(i, j)] = flowmod.fb_confidence(self.flow_of(i, j), self.flow_of(j, i))
        return self.conf[(i, j)]

    def drop(self, i: int, j: int) -> None:
        """Forget the flows (i, j) and (j, i) and both confidences; a later
        read estimates them again."""
        for key in ((i, j), (j, i)):
            self.flow.pop(key, None)
            self.conf.pop(key, None)


def _check_bank(bank: FlowBank, config: RestoreConfig, diff: list[str]) -> None:
    """Raise unless diff (how bank's frames differ from the caller's) is empty
    and bank has config's block-matching settings, naming each difference."""
    settings = ("block", bank.block, config.flow_block), ("search", bank.search, config.flow_search)
    diff = diff + [f"flow.{k} {a} in the bank, {b} here" for k, a, b in settings if a != b]
    if diff:
        raise ValueError(f"flow bank does not match: {'; '.join(diff)}")


def _needed_pairs(plan: BatchPlan, chain: bool) -> set[tuple[int, int]]:
    """The pairs (i, j) whose flow and confidence restore reads: each batch
    member with its keyframe (star propagation and flow-guided merging) and,
    if chain (latent warping runs in some step), each keyframe with the
    previous batch's keyframe."""
    pairs = set(zip(plan.keyframe_of[1:], plan.keyframe_of)) if chain else set()
    for b, (start, end) in enumerate(plan.batches):
        kf = plan.keyframe_of[b]
        pairs.update((m, kf) for m in range(start, end) if m != kf)
    return pairs


def precompute_flows(seq: FrameSequence, config: RestoreConfig) -> FlowBank:
    """A FlowBank of seq that has read every pair a restore under config can
    read: each batch member with its keyframe and, only if latent warping
    runs, each keyframe with the previous one.

    The reads are eager, not left to restore, so that each flow is estimated
    here: perfbench checks the estimate_flow calls made inside this function
    against len(bank.flow). Each pair's confidence estimates both directions.
    """
    bank = FlowBank(seq, config.flow_block, config.flow_search)
    plan = plan_batches(len(seq), config.batch_size, config.seed)
    for i, j in sorted(_needed_pairs(plan, config.hlw_until > 0)):
        bank.conf_of(i, j)
    return bank


def encode_latent(frame: np.ndarray, scale: int) -> np.ndarray:
    """Area-downsample a frame of values by an integer factor."""
    metrics.require_values(frame)
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


def step_plan(config: RestoreConfig) -> tuple[list[bool], list[float]]:
    """Per denoising step: does latent warping run, and at which merge ratio (0: none)."""
    config.validate()
    beg, end = config.anneal_range()
    fracs = [pos / config.steps for pos in range(config.steps)]
    hlw_on = [f < config.hlw_until for f in fracs]
    ratios = [
        anneal_ratio(pos, config.tome_r, config.tome_delta, beg, end)
        if f < config.tome_until else 0.0
        for pos, f in enumerate(fracs)
    ]
    return hlw_on, ratios


def _merge_attention(
    config: RestoreConfig, matches, tables, r_i: float, target: int, kind, chunk, attention
):
    """Attention hook: one hybrid merge pass toward batch frame target at merge ratio r_i.

    The block kind picks config.down_mode or up_mode. A FLOW_DOWN pass gets
    matches[content grid], the batch's flow-guided (targets, criteria) made
    once per batch, and a COSINE_UP pass gets tables[content grid], the
    grid's spatial_table at config.tome_R made once per restore.
    """
    mode = config.down_mode if kind is BlockKind.DOWN else config.up_mode
    if mode is MergeMode.FLOW_DOWN:
        return hybrid_merge_pass(chunk, target, attention, r_i, matches=matches[chunk.content])
    return hybrid_merge_pass(chunk, target, attention, r_i, table=tables[chunk.content])


def restore_iter(seq: FrameSequence, config: RestoreConfig, bank: FlowBank | None = None):
    """Run the full zero-shot restoration; yield each batch's final sampler latents.

    Batches run in order, each yielded as soon as it is done, with shape
    (batch frames, h / latent_scale, w / latent_scale, 3). bank, if given,
    must hold seq itself and config's flow.block and flow.search; the pairs
    it has not read yet are estimated as restore reads them, and it keeps
    every pair. Without one, precompute_flows builds the bank when a step
    reads flows, and each batch drops its pairs from it once it has read
    them, before its first denoising step, as no later step or batch reads
    them. Being a generator, it checks config, frame size and bank at the
    first next(), and then, when a cosine merge pass will run, builds each
    content grid's spatial table, kept until the restore ends, before any
    flow is estimated.
    """
    hlw_on, ratios = step_plan(config)  # validates config first
    h, w, _ = seq.shape
    scale = config.latent_scale
    if h % scale or w % scale:
        raise ValueError(f"frame size {h}x{w} not divisible by latent_scale {scale}")
    if bank is not None:
        _check_bank(bank, config, ["other frames in the bank"] if bank.seq is not seq else [])
    plan = plan_batches(len(seq), config.batch_size, config.seed)
    grids = toydiff.content_grids(h // scale, w // scale)
    merges = any(ratios) and any(b - a > 1 for a, b in plan.batches)  # as the loop gates its hook
    modes = config.down_mode, config.up_mode
    flow_merges = merges and MergeMode.FLOW_DOWN in modes
    cosine_merges = merges and MergeMode.COSINE_UP in modes
    # grids[0], the latent grid, is the larger one, so a refused grid allocates nothing
    tables = {g: spatial_table(*g, config.tome_R) for g in grids} if cosine_merges else {}

    ts = toydiff.step_indices(config.steps)
    warps = any(hlw_on)
    own_bank = bank is None and (warps or flow_merges)
    if own_bank:
        bank = precompute_flows(seq, config)
    denoiser = ToyDenoiser(config.seed)
    latent = grids[0]
    # Masks are the bank's confidences thresholded at this config's flow.tau_occ.
    mask = lambda p: flowmod.resample_mask(
        flowmod.occlusion_mask(bank.conf_of(*p), config.flow_tau_occ), *latent
    )

    # The keyframe chain: the previous batch's keyframe and its post-chain x0
    # at each latent-warping step, the only state that crosses batches.
    prev_kf, prev_x0s = None, iter(())
    for (start, stop), kf in zip(plan.batches, plan.keyframe_of):
        frames, kf_off = range(start, stop), kf - start
        members = [f for f in frames if f != kf]

        x0s = np.stack([encode_latent(float_frame(seq.frames[f]), scale) for f in frames])
        eps0 = np.stack([frame_noise(config.seed, f, (*latent, 3)) for f in frames])
        x = toydiff.forward_diffuse(x0s, ts[0], eps0)

        # Every bank read of the batch: member flows resampled once per grid
        # that reads them, star masks, the chain's flow and mask, merge
        # confidences. The flow-guided matches are fixed for the batch.
        merge_grids = set(grids) if members and flow_merges else set()
        read = merge_grids | ({latent} if warps else set())
        flows = {g: [flowmod.resample_flow(bank.flow_of(m, kf), *g) for m in members] for g in read}
        star, chain = [], None
        if warps:
            star = [(m - start, f, mask((m, kf))) for m, f in zip(members, flows[latent])]
            if prev_kf is not None:
                pair = (kf, prev_kf)
                chain = (flowmod.resample_flow(bank.flow_of(*pair), *latent), mask(pair))
        matches = {
            g: flow_correspondence(
                *g, flows[g], [flowmod.bilinear_resample(bank.conf_of(m, kf), *g) for m in members]
            )
            for g in merge_grids
        }
        if own_bank:  # every read of the batch's pairs is made, and no later batch reads them
            for m in members:
                bank.drop(m, kf)
            if prev_kf is not None:
                bank.drop(kf, prev_kf)

        kf_x0s = []
        for pos, (t, t_prev) in enumerate(zip(ts, ts[1:] + [None])):
            hook = None
            if members and ratios[pos] > 0.0:
                hook = functools.partial(_merge_attention, config, matches, tables, ratios[pos], kf_off)
            x0, eps = toydiff.denoise_step(x, t, denoiser, hook)
            if hlw_on[pos]:
                if chain is not None:
                    x0[kf_off] = latentwarp.blend_warped(x0[kf_off], next(prev_x0s), *chain)
                kf_x0s.append(x0[kf_off].copy())
                for off, f, m in star:
                    x0[off] = latentwarp.blend_warped(x0[off], x0[kf_off], f, m)
            x = x0 if t_prev is None else toydiff.forward_diffuse(x0, t_prev, eps)
        del flows, matches, star, chain, hook  # generator locals outlive the yield
        yield x
        prev_kf, prev_x0s = kf, iter(kf_x0s)


def restore_latents(
    seq: FrameSequence, config: RestoreConfig, bank: FlowBank | None = None
) -> np.ndarray:
    """The latents restore_iter yields, concatenated: (n, h / latent_scale, w / latent_scale, 3)."""
    return np.concatenate(list(restore_iter(seq, config, bank)))


def restore(
    seq: FrameSequence, config: RestoreConfig, bank: FlowBank | None = None
) -> FrameSequence:
    """Run the full zero-shot restoration over a frame sequence.

    Decodes each batch of restore_iter, which documents the arguments, as it is yielded.
    """
    h, w, _ = seq.shape
    batches = restore_iter(seq, config, bank)
    return FrameSequence([decode_latent(x, h, w) for batch in batches for x in batch])


def temporal_consistency(
    seq: FrameSequence,
    config: RestoreConfig,
    flow_source: FrameSequence | FlowBank | None = None,
) -> tuple[list[float], list[float]]:
    """E_warp and E_inter per-item arrays for a sequence.

    Adjacent and skip-one flows (and occlusion masks for E_warp) are read
    from flow_source: a FlowBank, or frames to estimate a fresh one from,
    by default the measured sequence itself. Pass the LQ input's bank to
    score restored variants under identical flows, each estimated once; it
    keeps every flow read. A bank made here from frames scores one pair or
    triple at a time, in one sweep over the frames, and drops its flows
    once scored, so it holds a constant number of flows at any length. The
    bank's frames must have seq's count and shape, checked before any flow
    is estimated.
    """
    own_bank = not isinstance(flow_source, FlowBank)
    if own_bank:
        src = flow_source if flow_source is not None else seq
        bank, where = FlowBank(src, config.flow_block, config.flow_search), "flow_source"
    else:
        bank, where = flow_source, "the bank"
    n, theirs = len(seq), bank.seq
    diff = [f"{len(theirs)} frames in {where}, {n} here"] if len(theirs) != n else []
    if theirs.shape != seq.shape:
        diff.append(f"frames of {theirs.shape} in {where}, of {seq.shape} here")
    if not own_bank:
        _check_bank(bank, config, diff)
    elif diff:  # a bank made here has config's settings
        raise ValueError(f"flow_source does not match: {'; '.join(diff)}")
    value = lambda i: float_frame(seq.frames[i])
    e_warp, e_inter = [], []
    for t in range(1, n):
        mask = flowmod.occlusion_mask(bank.conf_of(t, t - 1), config.flow_tau_occ)
        flow = bank.flow_of(t, t - 1)
        e_warp.append(metrics.warping_error(value(t - 1), value(t), flow, mask))
        if own_bank:
            bank.drop(t, t - 1)
        if t < 2:
            continue
        fwd, bwd = bank.flow_of(t, t - 2), bank.flow_of(t - 2, t)
        e_inter.append(metrics.interpolation_error(value(t - 2), value(t - 1), value(t), fwd, bwd))
        if own_bank:
            bank.drop(t, t - 2)
    return e_warp, e_inter


# tome_R = inf is cosine matching without the spatial prior.
CORRESPONDENCE_VARIANTS = {
    "flow_flow": dict(down_mode=MergeMode.FLOW_DOWN, up_mode=MergeMode.FLOW_DOWN, tome_R=math.inf),
    "cos_cos": dict(down_mode=MergeMode.COSINE_UP, up_mode=MergeMode.COSINE_UP, tome_R=math.inf),
    "cos_flow": dict(down_mode=MergeMode.COSINE_UP, up_mode=MergeMode.FLOW_DOWN, tome_R=math.inf),
    "flow_cos": dict(down_mode=MergeMode.FLOW_DOWN, up_mode=MergeMode.COSINE_UP, tome_R=math.inf),
    "flow_cos_spatial": dict(down_mode=MergeMode.FLOW_DOWN, up_mode=MergeMode.COSINE_UP),
}

# Leading step fractions of none, the first third (early), two thirds or all
# steps, standing in for the early/mid/late denoising stages.
STAGE_VARIANTS = {
    "off_off": dict(hlw_until=0.0, tome_until=0.0),
    "early_early": dict(hlw_until=1.0 / 3.0, tome_until=1.0 / 3.0),
    "earlymid_all": dict(hlw_until=2.0 / 3.0, tome_until=1.0),
    "all_all": dict(hlw_until=1.0, tome_until=1.0),
    "early_all": dict(hlw_until=1.0 / 3.0, tome_until=1.0),
}


def ablate(seq: FrameSequence, config: RestoreConfig) -> dict:
    """Restore seq under each of CORRESPONDENCE_VARIANTS and STAGE_VARIANTS
    applied to config; return a table of each variant's mean E_warp and E_inter.

    No variant overrides batch_size, seed, flow.block or flow.search, so one
    FlowBank, precomputed for config before the first variant, serves every
    restore. With config.hlw_until = 0 it holds no keyframe-chain pair, and
    the first stage variant that warps estimates those pairs into it as it
    reads them. Each restored variant is scored under flows estimated afresh
    from seq, as perfbench's expected call counts assume.
    """
    config.validate()
    bank = precompute_flows(seq, config)
    table: dict = {}
    for group, entries in (("correspondence", CORRESPONDENCE_VARIANTS), ("stages", STAGE_VARIANTS)):
        rows = table[group] = {}
        for name, overrides in entries.items():
            restored = restore(seq, replace(config, **overrides), bank=bank)
            e_warp, e_inter = temporal_consistency(restored, config, flow_source=seq)
            rows[name] = {
                "e_warp_mean": float(np.mean(e_warp)) if e_warp else None,
                "e_warp_mean_x1000": float(1e3 * np.mean(e_warp)) if e_warp else None,
                "e_inter_mean": float(np.mean(e_inter)) if e_inter else None,
            }
    return table

"""Workloads: inputs made from a seed, one closed-loop job, and its checks.

The restore config's own seed picks the toy denoiser's weights, the initial
noise and the keyframes: it stands for the model under test and is held at
the canonical demo value. The benchmark seed varies the clip and its
degradation, so different seeds are different videos through one model.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from zsvr import cli, mediaio, metrics, pipeline
from zsvr.mediaio import FrameSequence

MODEL_SEED = 0
DEGRADE_SCALE = 4
DEGRADE_NOISE = 0.08
N_BLOCKS = 4  # attention blocks per denoiser call


@dataclass(frozen=True)
class Workload:
    name: str
    frames: int
    size: int
    config: Callable[[], pipeline.RestoreConfig]
    ablate: bool
    # Clips scored for the quality metrics; the first is the job's own. One
    # 8-frame 32x32 clip's E_warp has an IQR/median of 0.17 across seeds,
    # too much for any bound, so ablate8 averages its headline variant
    # over 12 clips (about 0.04).
    quality_clips: int


def _ablate8_config() -> pipeline.RestoreConfig:
    # The demo moves at most 2 px between the frames compared.
    return replace(cli.demo_config(MODEL_SEED), flow_search=2, flow_block=5)


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload was chosen is in BENCHMARK.json and the README.
        Workload("demo24", 24, 64, lambda: cli.demo_config(MODEL_SEED), False, 1),
        Workload("steps50", 8, 64, lambda: pipeline.RestoreConfig(seed=MODEL_SEED), False, 1),
        Workload("ablate8", 8, 32, _ablate8_config, True, 12),
    )
}


def make_clip(wl: Workload, seed: int) -> tuple[FrameSequence, FrameSequence]:
    """(HQ, LQ) demo clip for a seed, degraded as `zsvr demo` does."""
    hq = cli.make_demo_video(n=wl.frames, h=wl.size, w=wl.size, seed=seed)
    lq = cli.degrade_video(hq, scale=DEGRADE_SCALE, noise_std=DEGRADE_NOISE, seed=seed)
    return hq, lq


def quality_seeds(wl: Workload, seed: int) -> list[int]:
    extra = np.random.SeedSequence([seed, 0x51]).generate_state(wl.quality_clips - 1)
    return [seed] + [int(s) for s in extra]


@dataclass
class JobResult:
    digest: str
    e_warp: list[float]  # the headline output's per-pair E_warp (restore jobs)
    e_inter: list[float]
    restored: FrameSequence | None
    table: dict | None


def run_job(wl: Workload, cfg: pipeline.RestoreConfig, lq_dir: str, out_dir: str) -> JobResult:
    """The timed unit: read the LQ frames, restore or ablate, write the output."""
    lq = mediaio.read_frames(lq_dir)
    if wl.ablate:
        table = pipeline.ablate(lq, cfg)
        text = json.dumps(table, sort_keys=True)
        with open(os.path.join(out_dir, "table.json"), "w") as fh:
            fh.write(text)
        return JobResult(hashlib.sha256(text.encode()).hexdigest(), [], [], None, table)
    restored = pipeline.restore(lq, cfg)
    mediaio.write_frames(restored, out_dir)
    e_warp, e_inter = pipeline.temporal_consistency(restored, cfg, flow_source=lq)
    stacked = np.ascontiguousarray(np.stack(restored.frames), dtype="<f8")
    return JobResult(hashlib.sha256(stacked.tobytes()).hexdigest(), e_warp, e_inter, restored, None)


def check_job(wl: Workload, res: JobResult, first_digest: str | None) -> list[str]:
    """Problems with a job's output; empty when it is correct."""
    problems = []
    n = wl.frames
    if wl.ablate:
        for group, variants in (
            ("correspondence", pipeline.CORRESPONDENCE_VARIANTS),
            ("stages", pipeline.STAGE_VARIANTS),
        ):
            rows = res.table.get(group, {})
            if set(rows) != set(variants):
                problems.append(f"{group} rows {sorted(rows)} != {sorted(variants)}")
            for name, row in rows.items():
                for k, v in row.items():
                    if not (isinstance(v, float) and math.isfinite(v) and v >= 0):
                        problems.append(f"{group}.{name}.{k} = {v!r}")
    else:
        frames = res.restored.frames
        if len(frames) != n:
            problems.append(f"{len(frames)} frames, expected {n}")
        for i, f in enumerate(frames):
            if f.shape != (wl.size, wl.size, 3):
                problems.append(f"frame {i} shape {f.shape}")
            elif not (np.isfinite(f).all() and f.min() >= 0.0 and f.max() <= 1.0):
                problems.append(f"frame {i} has values outside [0, 1]")
        if len(res.e_warp) != n - 1 or len(res.e_inter) != n - 2:
            problems.append("wrong number of E_warp / E_inter items")
        elif not np.isfinite(res.e_warp + res.e_inter).all():
            problems.append("non-finite E_warp / E_inter")
    if first_digest is not None and res.digest != first_digest:
        problems.append(f"digest {res.digest[:16]} differs from the first job's {first_digest[:16]}")
    return problems


def quality(wl: Workload, cfg: pipeline.RestoreConfig, first: JobResult, clips: list) -> dict:
    """Deterministic quality of the headline output under LQ-derived flows.

    clips holds (HQ, LQ as read back from disk) pairs; the first is the
    job's own clip and the metrics are means over all of them. For ablate8
    the first clip's E_warp / E_inter must equal its ablation table row.
    """
    rows = []
    for i, (hq, lq) in enumerate(clips):
        if i == 0 and not wl.ablate:
            out, e_warp, e_inter = first.restored, first.e_warp, first.e_inter
        else:
            headline = pipeline.CORRESPONDENCE_VARIANTS["flow_cos_spatial"]
            out = pipeline.restore(lq, replace(cfg, **headline))
            e_warp, e_inter = pipeline.temporal_consistency(out, cfg, flow_source=lq)
        if i == 0 and wl.ablate:
            row = first.table["correspondence"]["flow_cos_spatial"]
            if (row["e_warp_mean"], row["e_inter_mean"]) != (np.mean(e_warp), np.mean(e_inter)):
                raise AssertionError("ablation row differs from a restore of the same variant")
        psnr = [metrics.psnr(a, b) for a, b in zip(out.frames, hq.frames)]
        ssim = [metrics.ssim(a, b) for a, b in zip(out.frames, hq.frames)]
        rows.append((1e3 * np.mean(e_warp), np.mean(e_inter), np.mean(psnr), np.mean(ssim)))
    m = np.mean(rows, axis=0)
    return {"e_warp_x1000": m[0], "e_inter": m[1], "psnr_db": m[2], "ssim": m[3]}


def _merge_active_steps(cfg: pipeline.RestoreConfig) -> list[bool]:
    """Per step: does token merging run (enabled, in window, ratio > 0)?"""
    beg, end = cfg.anneal_range()
    active = []
    for pos in range(cfg.steps):
        ramp = min(max(cfg.tome_delta * (pos - beg) / (end - beg), 0.0), 1.0)
        in_window = any(lo <= pos / cfg.steps < hi for lo, hi in cfg.active_tome_windows())
        r_i = cfg.tome_r * math.cos(0.5 * math.pi * ramp)
        active.append(cfg.tome_enabled and in_window and r_i > 0.0)
    return active


def job_configs(wl: Workload, cfg: pipeline.RestoreConfig) -> list[pipeline.RestoreConfig]:
    """The configs one job restores with."""
    if not wl.ablate:
        return [cfg]
    groups = (pipeline.CORRESPONDENCE_VARIANTS, pipeline.STAGE_VARIANTS)
    return [replace(cfg, **ov) for g in groups for ov in g.values()]


def expected_calls(wl: Workload, cfg: pipeline.RestoreConfig, bank_pairs: int) -> dict:
    """Exact call counts one job must make, derived from the workload.

    bank_pairs is the number of flows the job's FlowBanks hold; every one is
    estimated once, and each temporal_consistency call estimates the
    forward and backward flow of every adjacent and skip-one pair.
    """
    n = wl.frames
    sizes = [min(cfg.batch_size, n - s) for s in range(0, n, cfg.batch_size)]
    configs = job_configs(wl, cfg)
    denoise = merge = attend = 0
    for c in configs:
        active = _merge_active_steps(c)
        for size in sizes:
            denoise += c.steps
            for on in active:
                merged = on and size >= 2
                merge += N_BLOCKS * merged
                attend += N_BLOCKS * (1 if merged else size)
    return {
        "toydiff.denoise_step": denoise,
        "tokenmerge.merge_pass": merge,
        "toydiff.attend": attend,
        "flow.estimate_flow": bank_pairs + len(configs) * (2 * (n - 1) + 2 * (n - 2)),
    }

"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each zsvr module (and the toy
denoiser's per-block methods) with spans. A span records its inclusive time
and the time its traced children covered, so a layer's self time is its
span minus its child spans and no time is counted twice. Observers attached
to a span compute counters (pair counts, merge ratios, occlusion shares)
from the call's arguments and result; their cost is kept out of every
span's self time.

A function imported elsewhere with ``from ... import`` has more than one
binding. `Tracer.install` replaces every binding it finds in the loaded
zsvr modules, so a call through any of them is traced; the benchmark then
checks exact call counts, so a missed binding fails instead of reading 0 s.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

from zsvr import flow, latentwarp, mediaio, metrics, pipeline, tokenmerge, toydiff


@dataclass
class SpanStats:
    calls: int = 0
    s: float = 0.0  # inclusive time of outermost calls
    self_s: float = 0.0  # inclusive time minus traced children


@dataclass
class JobTrace:
    """Everything one traced job recorded."""

    spans: dict = field(default_factory=lambda: defaultdict(SpanStats))
    counters: dict = field(default_factory=lambda: defaultdict(float))
    flow_inputs: set = field(default_factory=set)
    observe_s: float = 0.0


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _on_estimate_flow(tr, fn, args, kwargs, result, parent):
    a = _bind(fn, args, kwargs)
    digest = hashlib.sha1(a["src"].tobytes())
    digest.update(a["dst"].tobytes())
    tr.job.flow_inputs.add((digest.hexdigest(), a["src"].shape, a["block"], a["search"]))
    if parent == "pipeline.temporal_consistency":
        tr.job.counters["pipeline.temporal_consistency.pairs"] += 1
    elif parent == "pipeline.precompute_flows":
        tr.job.counters["flow.estimate_flow.calls_in_precompute"] += 1


def _on_precompute_flows(tr, fn, args, kwargs, result, parent):
    tr.job.counters["pipeline.precompute_flows.pairs"] += len(result.flow)


def _on_attend(tr, fn, args, kwargs, result, parent):
    k = args[1].shape[0]
    c = tr.job.counters
    c["toydiff.attend.tokens_max"] = max(c["toydiff.attend.tokens_max"], k)
    c["toydiff.attend.score_bytes"] += k * k * 8


def _on_flow_correspondence(tr, fn, args, kwargs, result, parent):
    targets = result[0]
    tr.job.counters["tokenmerge.flow_pairs"] += len(targets)
    tr.job.counters["tokenmerge.flow_invalid"] += int((targets == tokenmerge.INVALID).sum())


def _on_select_top_r(tr, fn, args, kwargs, result, parent):
    a = _bind(fn, args, kwargs)
    n = len(a["targets"])
    c = tr.job.counters
    c["tokenmerge.sources"] += n
    c["tokenmerge.requested"] += math.floor(a["r_i"] * n)
    c["tokenmerge.selected"] += len(result)


def _on_blend_warped(tr, fn, args, kwargs, result, parent):
    mask = _bind(fn, args, kwargs)["mask"]
    tr.job.counters["latentwarp.mask_occluded"] += float(mask.sum())
    tr.job.counters["latentwarp.mask_px"] += mask.size


# (owner, attribute, span key, observer). The owner is a module or a class;
# a callable key names the span from the call's arguments.
TRACED = [
    (flow, "estimate_flow", "flow.estimate_flow", _on_estimate_flow),
    (flow, "fb_confidence", "flow.fb_confidence", None),
    (flow, "resample_flow", "flow.resample", None),
    (flow, "resample_mask", "flow.resample", None),
    (flow, "bilinear_resample", "flow.resample", None),
    (flow, "warp", "flow.warp", None),
    (pipeline, "restore", "pipeline.restore", None),
    (pipeline, "precompute_flows", "pipeline.precompute_flows", _on_precompute_flows),
    (pipeline, "temporal_consistency", "pipeline.temporal_consistency", None),
    (toydiff, "denoise_step", "toydiff.denoise_step", None),
    (toydiff.ToyDenoiser, "_block", lambda args: f"toydiff.block{args[2]}", None),
    (toydiff.ToyDenoiser, "_attend", "toydiff.attend", _on_attend),
    (tokenmerge, "hybrid_merge_pass", "tokenmerge.merge_pass", None),
    (tokenmerge, "flow_correspondence", "tokenmerge.correspondence", _on_flow_correspondence),
    (tokenmerge, "cosine_scores", "tokenmerge.correspondence", None),
    (tokenmerge, "grid_positions", "tokenmerge.correspondence", None),
    (tokenmerge, "spatial_weight", "tokenmerge.correspondence", None),
    (tokenmerge, "cosine_correspondence", "tokenmerge.correspondence", None),
    (tokenmerge, "select_top_r", "tokenmerge.select_top_r", _on_select_top_r),
    (tokenmerge, "merge", "tokenmerge.merge", None),
    (tokenmerge, "unmerge", "tokenmerge.unmerge", None),
    (tokenmerge, "strip_padding", "tokenmerge.padding", None),
    (tokenmerge, "restore_padding", "tokenmerge.padding", None),
    (latentwarp, "blend_warped", "latentwarp.blend_warped", _on_blend_warped),
    (metrics, "warping_error", "metrics.warping_error", None),
    (metrics, "interpolation_error", "metrics.interpolation_error", None),
    (metrics, "psnr", "metrics.psnr_ssim", None),
    (metrics, "ssim", "metrics.psnr_ssim", None),
    (mediaio, "read_frames", "mediaio.read_frames", None),
    (mediaio, "write_frames", "mediaio.write_frames", None),
]

LAYERS = ("flow", "pipeline", "toydiff", "tokenmerge", "latentwarp", "metrics", "mediaio")


class Tracer:
    """Installs spans on every traced binding; records into `self.job`."""

    def __init__(self):
        self.job = JobTrace()
        self._stack: list[list] = []  # [key, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def take(self) -> JobTrace:
        """Return what was recorded since the last call and start afresh."""
        job, self.job = self.job, JobTrace()
        return job

    def _wrap(self, fn, key, observer):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            name = key(args) if callable(key) else key
            frame = [name, 0.0]
            # a call inside a span of the same key (resample_flow calling
            # bilinear_resample) adds self time but not a call or span time
            nested = any(f[0] == name for f in stack)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st = self.job.spans[name]
                st.self_s += dt - frame[1]
                if not nested:
                    st.calls += 1
                    st.s += dt
            obs_s = 0.0
            if observer is not None:
                t1 = clock()
                observer(self, fn, args, kwargs, result, stack[-1][0] if stack else None)
                obs_s = clock() - t1
                self.job.observe_s += obs_s
            if stack:
                stack[-1][1] += dt + obs_s
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of each traced function in the loaded zsvr modules."""
        zsvr_modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "zsvr"]
        for owner, attr, key, observer in TRACED:
            orig = owner.__dict__[attr]
            wrapper = self._wrap(orig, key, observer)
            holders = [owner] if isinstance(owner, type) else zsvr_modules
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is orig:
                        self._patched.append((holder, name, orig))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, orig in reversed(self._patched):
            setattr(holder, name, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

"""zsvr benchmark: one workload, a closed loop of one job at a time.

    python3 perfbench/run.py --workload demo24 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory. With --trace 0 the run times jobs untraced and reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced jobs
and reports the per-layer metrics. Every job's output is checked. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5


def import_program():
    """Import zsvr from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "zsvr", "__init__.py")):
        sys.exit(f"error: no zsvr sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import zsvr

    if os.path.dirname(os.path.dirname(os.path.abspath(zsvr.__file__))) != SRC:
        sys.exit(f"error: zsvr was imported from {zsvr.__file__}, not {SRC}")


def host_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters importing zsvr.cli (after one warm-up)."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    cmd = [sys.executable, "-c", "import zsvr.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def stage(seq, path):
    """Write frames to disk and read them back, as the job sees them."""
    from zsvr import mediaio

    mediaio.write_frames(seq, path)
    return mediaio.read_frames(path)


class Loop:
    """Closed loop: one job at a time, checked, until the budget would run out."""

    def __init__(self, wl, cfg, lq_dir, out_dir):
        self.wl, self.cfg, self.lq_dir, self.out_dir = wl, cfg, lq_dir, out_dir
        self.attempted = 0
        self.failed = 0
        self.first = None  # the first correct job's result

    def job(self):
        """Run and check one job; its wall time, or None if it failed."""
        import workloads

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            res = workloads.run_job(self.wl, self.cfg, self.lq_dir, self.out_dir)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        dt = time.perf_counter() - t0
        problems = workloads.check_job(self.wl, res, self.first and self.first.digest)
        if problems:
            print(f"job {self.attempted} failed its check: {'; '.join(problems)}", file=sys.stderr)
            self.failed += 1
            return None
        self.first = self.first or res
        return dt

    def run(self, seconds, step=None):
        """Repeat `step` (default: one job) until the next would end after
        `seconds`; return the durations of the steps that succeeded."""
        step = step or self.job
        times = []
        start = time.perf_counter()
        n = 0
        while True:
            n += 1
            dt = step()
            if dt is not None:
                times.append(dt)
            elapsed = time.perf_counter() - start
            expected = statistics.median(times) if times else elapsed / n
            if elapsed + expected > seconds:
                return times


def warm_up(wl, cfg, work):
    """One tiny job through the same code, so lazy set-up is not timed."""
    import workloads
    from zsvr import cli

    tiny = replace(wl, frames=3, size=16)
    stage(cli.degrade_video(cli.make_demo_video(3, 16, 16, 0), 4, 0.08, 0), os.path.join(work, "warm_lq"))
    out = os.path.join(work, "warm_out")
    os.makedirs(out)
    workloads.run_job(tiny, replace(cfg, steps=2), os.path.join(work, "warm_lq"), out)


def quality_clips(wl, seed, hq, lq_dir, work):
    import workloads
    from zsvr import mediaio

    clips = [(hq, mediaio.read_frames(lq_dir))]
    for i, clip_seed in enumerate(workloads.quality_seeds(wl, seed)[1:], start=1):
        clip_hq, clip_lq = workloads.make_clip(wl, clip_seed)
        clips.append((clip_hq, stage(clip_lq, os.path.join(work, f"quality_{i}"))))
    return clips


def describe(values):
    return f"median of {len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def run_untraced(wl, cfg, loop, seconds, seed, hq, work, setup):
    import workloads

    frames_per_job = wl.frames * len(workloads.job_configs(wl, cfg))
    times = loop.run(seconds)
    if not times:
        raise RuntimeError("no job completed correctly")
    fps = [frames_per_job / t for t in times]
    q = workloads.quality(wl, cfg, loop.first, quality_clips(wl, seed, hq, loop.lq_dir, work))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "frames_per_s": statistics.median(fps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_mb,
        "e_warp_x1000": float(q["e_warp_x1000"]),
        "e_inter": float(q["e_inter"]),
        "psnr_db": float(q["psnr_db"]),
    }
    print(f"frames_per_s: {describe(fps)} jobs of {frames_per_job} frames")
    print(f"setup_s: {describe(setup)} fresh imports of zsvr.cli")
    print(f"quality over {wl.quality_clips} clip(s): ssim {float(q['ssim']):.6f} (not bounded: "
          f"near 0 and sign-changing with the untrained denoiser)")
    print(f"failed_frac: {loop.failed / loop.attempted:.6g} ({loop.failed} of {loop.attempted} jobs)")
    return values


def layer_metrics(jt, quality_trace) -> dict:
    from tracer import LAYERS

    sp, c = jt.spans, jt.counters
    m = {}

    def span(key, *fields):
        for f in fields:
            m[f"{key}.{f}"] = getattr(sp[key], f)

    span("flow.estimate_flow", "calls", "s")
    m["flow.estimate_flow.distinct_frac"] = len(jt.flow_inputs) / max(sp["flow.estimate_flow"].calls, 1)
    for k in ("fb_confidence", "resample", "warp"):
        span(f"flow.{k}", "calls", "s")
    span("pipeline.restore", "s", "self_s")
    span("pipeline.precompute_flows", "s")
    m["pipeline.precompute_flows.pairs"] = c["pipeline.precompute_flows.pairs"]
    span("pipeline.temporal_consistency", "s")
    m["pipeline.temporal_consistency.pairs"] = c["pipeline.temporal_consistency.pairs"]
    span("toydiff.denoise_step", "calls", "s")
    for b in range(4):
        span(f"toydiff.block{b}", "s")
    span("toydiff.attend", "calls", "s")
    m["toydiff.attend.tokens_max"] = c["toydiff.attend.tokens_max"]
    m["toydiff.attend.score_bytes"] = c["toydiff.attend.score_bytes"]
    span("tokenmerge.merge_pass", "calls", "s", "self_s")
    for k in ("correspondence", "select_top_r", "merge", "unmerge", "padding"):
        span(f"tokenmerge.{k}", "s")
    sources = max(c["tokenmerge.sources"], 1)
    m["tokenmerge.ratio_requested"] = c["tokenmerge.requested"] / sources
    m["tokenmerge.ratio_achieved"] = c["tokenmerge.selected"] / sources
    m["tokenmerge.invalid_frac"] = c["tokenmerge.flow_invalid"] / max(c["tokenmerge.flow_pairs"], 1)
    span("latentwarp.blend_warped", "calls", "s")
    m["latentwarp.occluded_frac"] = c["latentwarp.mask_occluded"] / max(c["latentwarp.mask_px"], 1)
    span("metrics.warping_error", "s")
    span("metrics.interpolation_error", "s")
    m["metrics.psnr_ssim.s"] = quality_trace.spans["metrics.psnr_ssim"].s
    span("mediaio.read_frames", "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(st.self_s for k, st in sp.items() if k.split(".")[0] == layer)
    return m


def check_calls(wl, cfg, jt):
    """Exact call counts; a binding the tracer missed shows up here."""
    import workloads

    bank_pairs = int(jt.counters["pipeline.precompute_flows.pairs"])
    if jt.counters["flow.estimate_flow.calls_in_precompute"] != bank_pairs:
        raise AssertionError(
            f"precompute_flows holds {bank_pairs} flows but "
            f"{jt.counters['flow.estimate_flow.calls_in_precompute']:.0f} estimate_flow calls were traced in it"
        )
    expected = workloads.expected_calls(wl, cfg, bank_pairs)
    for b in range(workloads.N_BLOCKS):
        expected[f"toydiff.block{b}"] = expected["toydiff.denoise_step"]
    got = {k: jt.spans[k].calls for k in expected}
    if got != expected:
        raise AssertionError(f"traced call counts {got} != expected {expected}")
    return got


def run_traced(wl, cfg, loop, seconds, seed, hq, work):
    """Alternate untraced and traced jobs, so both see the same host state."""
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced = [], []

    def pair():
        u = loop.job()
        with tracer:
            t = loop.job()
            jt = tracer.take()
        if u is None or t is None:
            return None
        counts = check_calls(wl, cfg, jt)
        if not traced:
            print(f"call counts per job (as expected): {json.dumps(counts)}")
        untraced.append(u)
        traced.append((t, jt))
        return u + t

    loop.run(seconds, pair)
    if not traced:
        raise RuntimeError("no traced job completed correctly")
    with tracer:
        workloads.quality(wl, cfg, loop.first, quality_clips(wl, seed, hq, loop.lq_dir, work))
        quality_trace = tracer.take()
    per_job = [layer_metrics(jt, quality_trace) for _, jt in traced]
    values = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
    traced_s = [dt for dt, _ in traced]
    values["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced) - 1.0
    observe = statistics.median(jt.observe_s for _, jt in traced)
    print(f"traced jobs: {describe(traced_s)} s; untraced: {describe(untraced)} s; "
          f"observers {observe:.6g} s per job")
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    cfg = wl.config()
    print(f"host: {json.dumps(host_facts(), sort_keys=True)}")

    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{wl.name}-{args.seed}-{os.getpid()}")
    try:
        os.makedirs(work)
        setup = None if args.trace else measure_setup()
        hq, lq = workloads.make_clip(wl, args.seed)
        lq_dir = os.path.join(work, "lq")
        stage(lq, lq_dir)
        out_dir = os.path.join(work, "out")
        os.makedirs(out_dir)
        warm_up(wl, cfg, work)
        loop = Loop(wl, cfg, lq_dir, out_dir)
        if args.trace:
            values = run_traced(wl, cfg, loop, args.seconds, args.seed, hq, work)
        else:
            values = run_untraced(wl, cfg, loop, args.seconds, args.seed, hq, work, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print(f"digest {wl.name} seed {args.seed}: sha256 {loop.first.digest}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    names = [(m["name"], m["unit"]) for m in listed]
    if set(values) != {n for n, _ in names}:
        raise AssertionError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ {n for n, _ in names})}")
    for name, unit in names:
        print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {n: {"value": float(values[n]), "unit": u} for n, u in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: flow, restore, metrics, ablate, demo.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Output files are
written to a temporary name and renamed on success, so failures leave no
partial outputs.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import replace

import numpy as np

from . import flow as flowmod
from . import mediaio, metrics, pipeline
from .mediaio import FrameSequence, float_frame


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _atomic_write_json(obj: dict, path: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
        os.chmod(tmp, 0o666 & ~_umask())  # mkstemp made it 0600; open() would not
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# What each directory-writing command writes, as paths relative to --out.
RESTORE_OUTPUTS = ("frame_*.ppm", "latents/latent_*.rtf")
FLOW_OUTPUTS = ("flow_*.flo", "conf_*.rtf")
DEMO_VIDEOS = ("hq", "lq", "ours", "baseline")
DEMO_OUTPUTS = tuple(f"{d}/frame_*.ppm" for d in DEMO_VIDEOS) + ("report.json",)


def _check_replaceable(out_dir: str, outputs: tuple[str, ...]) -> None:
    """Refuse an existing out_dir unless every entry in it is a file matching
    one of the outputs patterns or a directory those patterns name."""
    if not os.path.lexists(out_dir):
        return
    if not os.path.isdir(out_dir) or os.path.islink(out_dir):
        raise ValueError(f"--out {out_dir} exists and is not a directory")
    subdirs = {os.path.dirname(p) for p in outputs} - {""}
    entries = list(os.scandir(out_dir))
    for entry in entries:  # grows by the entries of each output subdirectory
        name = os.path.relpath(entry.path, out_dir)
        if name in subdirs and entry.is_dir(follow_symlinks=False):
            entries += os.scandir(entry.path)
        elif not (
            entry.is_file(follow_symlinks=False)
            and any(fnmatch.fnmatch(name, p) for p in outputs)
        ):
            raise ValueError(
                f"--out {out_dir} holds {entry.path}, which this command does not "
                "write; refusing to replace it"
            )


def _write_atomic(out_dir: str, outputs: tuple[str, ...], write) -> None:
    """Run write(tmp) on a fresh directory beside out_dir, then rename it to
    out_dir; an existing out_dir must hold only outputs (_check_replaceable)."""
    _check_replaceable(out_dir, outputs)
    parent = os.path.dirname(os.path.abspath(out_dir)) or "."
    tmp = tempfile.mkdtemp(dir=parent)
    try:
        write(tmp)
        os.chmod(tmp, 0o777 & ~_umask())  # mkdtemp made it 0700; mkdir would not
        if os.path.isdir(out_dir):
            shutil.rmtree(out_dir)
        os.replace(tmp, out_dir)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _load_config(args) -> pipeline.RestoreConfig:
    cfg = pipeline.load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def cmd_flow(args) -> int:
    _check_replaceable(args.out_dir, FLOW_OUTPUTS)
    bank = pipeline.FlowBank(mediaio.read_frames(args.in_dir), args.block, args.search)

    def write(tmp):
        digits = mediaio.index_digits(len(bank.seq) - 1)
        for t in range(len(bank.seq) - 1):
            index = f"{t:0{digits}d}"
            mediaio.write_flo(bank.flow_of(t + 1, t), os.path.join(tmp, f"flow_{index}.flo"))
            mediaio.write_raw_tensor(bank.conf_of(t + 1, t), os.path.join(tmp, f"conf_{index}.rtf"))
            bank.drop(t + 1, t)

    _write_atomic(args.out_dir, FLOW_OUTPUTS, write)
    return 0


def cmd_restore(args) -> int:
    # the input's frames match RESTORE_OUTPUTS, so _check_replaceable passes it
    dirs = args.in_dir, args.out_dir
    if all(map(os.path.exists, dirs)) and os.path.samefile(*dirs):
        raise ValueError(f"--out {args.out_dir} is the --in directory; "
                         "refusing to replace its frames")
    _check_replaceable(args.out_dir, RESTORE_OUTPUTS)
    seq = mediaio.read_frames(args.in_dir)
    cfg = _load_config(args)
    if args.no_hlw:
        cfg.hlw_until = 0.0
    if args.no_tome:
        cfg.tome_until = 0.0
    h, w, _ = seq.shape

    def write(tmp):  # each batch's frames and latents as restore_iter yields it
        if args.dump_latents:
            os.mkdir(os.path.join(tmp, "latents"))
        start = 0
        digits = mediaio.index_digits(len(seq))
        for latents in pipeline.restore_iter(seq, cfg):
            restored = FrameSequence([pipeline.decode_latent(x, h, w) for x in latents])
            mediaio.write_frames(restored, tmp, start, len(seq))
            if args.dump_latents:
                for f, latent in enumerate(latents, start):
                    path = os.path.join(tmp, "latents", f"latent_{f:0{digits}d}.rtf")
                    mediaio.write_raw_tensor(latent, path)
            start += len(latents)

    _write_atomic(args.out_dir, RESTORE_OUTPUTS, write)
    return 0


def _report_for(seq, cfg, ref=None, meta=None, flow_source=None) -> dict:
    if ref is not None and (len(ref), ref.shape) != (len(seq), seq.shape):
        raise ValueError(
            f"--ref has {len(ref)} frames of {ref.shape}, --in {len(seq)} frames of {seq.shape}"
        )
    e_warp, e_inter = pipeline.temporal_consistency(seq, cfg, flow_source)
    psnr, ssim = [], []
    if ref is not None:
        for a, b in zip(seq.frames, ref.frames):
            a, b = float_frame(a), float_frame(b)
            psnr.append(metrics.psnr(a, b))
            ssim.append(metrics.ssim(a, b))
    return mediaio.report_to_dict(psnr, ssim, e_warp, e_inter, meta)


def cmd_metrics(args) -> int:
    seq = mediaio.read_frames(args.in_dir)
    cfg = pipeline.RestoreConfig()
    ref = mediaio.read_frames(args.ref_dir) if args.ref_dir else None
    report = _report_for(seq, cfg, ref, meta={"in": args.in_dir, "ref": args.ref_dir})
    _atomic_write_json(report, args.out_file)
    return 0


def cmd_ablate(args) -> int:
    seq = mediaio.read_frames(args.in_dir)
    cfg = _load_config(args)
    table = pipeline.ablate(seq, cfg)
    table["metadata"] = {"in": args.in_dir, "seed": cfg.seed, "steps": cfg.steps}
    _atomic_write_json(table, args.out_file)
    return 0


def _box5_wrap(a: np.ndarray, axis: int) -> np.ndarray:
    """Mean over a centered 5-wide window along axis, wrapping at the edges.

    Bit-identical to scipy.ndimage.uniform_filter1d(a, 5, axis, mode="wrap")
    because it adds in scipy's order: the first window left to right, then a
    running sum of (entering - leaving), each sum then divided by 5.
    """
    a = np.moveaxis(a, axis, 0)
    n = len(a)
    p = a[np.arange(-2, n + 2) % n]
    first = p[0] + p[1] + p[2] + p[3] + p[4]
    sums = np.cumsum(np.concatenate([first[None], p[5:] - p[:-5]]), axis=0)
    return np.moveaxis(sums / 5, 0, axis)


def make_demo_video(
    n: int = 24, h: int = 64, w: int = 64, seed: int = 0
) -> FrameSequence:
    """Textured video with global translation plus a rotating center pattern."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD0]))
    margin = n + 4
    texture = rng.random((h + margin, w + margin, 3))
    for _ in range(3):
        texture = _box5_wrap(_box5_wrap(texture, 0), 1)
    # stretch contrast back after smoothing
    texture = (texture - texture.min()) / (texture.max() - texture.min())

    ys, xs = np.mgrid[0:h, 0:w]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rad = np.hypot(ys - cy, xs - cx)
    ang = np.arctan2(ys - cy, xs - cx)
    disk = rad < min(h, w) / 5.0

    frames = []
    for t in range(n):
        frame = texture[t : t + h, t : t + w].copy()  # 1 px/frame diagonal pan
        spin = 0.5 + 0.5 * np.cos(3.0 * ang - 0.35 * t)
        for c in range(3):
            ch = frame[:, :, c]
            ch[disk] = 0.25 + 0.5 * spin[disk]
        frames.append(np.clip(frame, 0.0, 1.0))
    return FrameSequence(frames)


def degrade_video(seq: FrameSequence, scale: int, noise_std: float, seed: int) -> FrameSequence:
    """Downsample by `scale`, upsample back, add per-frame Gaussian noise, and
    round to uint8 frames, as an 8-bit source holds them."""
    h, w, _ = seq.shape
    out = []
    for f, frame in enumerate(seq.frames):
        small = pipeline.encode_latent(frame, scale)
        up = flowmod.bilinear_resample(small, h, w)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDE, f]))
        noisy = up + noise_std * rng.standard_normal(up.shape)
        out.append(np.rint(np.clip(noisy, 0.0, 1.0) * 255).astype(np.uint8))
    return FrameSequence(out)


# zsvr demo --frames at most: make_demo_video's texture has (n + 68)**2 * 3
# values at 64x64, 27 MB at this bound, and 2.4 GB at n = 10000
MAX_DEMO_FRAMES = 1000


def demo_config(seed: int) -> pipeline.RestoreConfig:
    return pipeline.RestoreConfig(seed=seed, steps=10, batch_size=8, latent_scale=4)


def cmd_demo(args) -> int:
    _check_replaceable(args.out_dir, DEMO_OUTPUTS)
    hq = make_demo_video(n=args.frames, seed=args.seed)
    lq = degrade_video(hq, scale=4, noise_std=0.08, seed=args.seed)
    cfg = demo_config(args.seed)
    # ours reads one LQ bank, and both outputs are scored under its flows: like for like
    bank = pipeline.FlowBank(lq, cfg.flow_block, cfg.flow_search)
    ours = pipeline.restore(lq, cfg, bank)
    baseline = pipeline.restore(lq, replace(cfg, hlw_until=0.0, tome_until=0.0))
    report = {
        name: _report_for(seq, cfg, hq, {"variant": name, "seed": args.seed}, flow_source=bank)
        for name, seq in (("baseline", baseline), ("ours", ours))
    }

    def write(tmp):
        for name, seq in zip(DEMO_VIDEOS, (hq, lq, ours, baseline)):
            mediaio.write_frames(seq, os.path.join(tmp, name))
        _atomic_write_json(report, os.path.join(tmp, "report.json"))

    _write_atomic(args.out_dir, DEMO_OUTPUTS, write)
    return 0


def _int_at_least(lo: int, hi: int | None = None):
    """argparse type: an integer >= lo, and <= hi if given, so a bad value is
    a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be <= {hi}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zsvr",
        description="Zero-shot temporal consistency toolkit for video restoration.",
        epilog="Config file keys (key = value, one per line): "
        + ", ".join(pipeline._CONFIG_KEYS)
        + ".",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pf = sub.add_parser("flow", help="adjacent-pair flows and confidences")
    pf.add_argument("--in", dest="in_dir", required=True)
    pf.add_argument("--out", dest="out_dir", required=True)
    pf.add_argument("--block", type=_int_at_least(1), default=pipeline.RestoreConfig.flow_block)
    pf.add_argument("--search", type=_int_at_least(0), default=pipeline.RestoreConfig.flow_search)
    pf.set_defaults(func=cmd_flow)

    pr = sub.add_parser("restore", help="run the restoration pipeline")
    pr.add_argument("--in", dest="in_dir", required=True)
    pr.add_argument("--out", dest="out_dir", required=True)
    pr.add_argument("--config", required=True)
    pr.add_argument("--seed", type=_int_at_least(0), default=None)
    pr.add_argument("--dump-latents", action="store_true")
    pr.add_argument("--no-hlw", action="store_true")
    pr.add_argument("--no-tome", action="store_true")
    pr.set_defaults(func=cmd_restore)

    pm = sub.add_parser("metrics", help="consistency metrics, PSNR/SSIM with --ref")
    pm.add_argument("--in", dest="in_dir", required=True)
    pm.add_argument("--ref", dest="ref_dir", default=None)
    pm.add_argument("--out", dest="out_file", required=True)
    pm.set_defaults(func=cmd_metrics)

    pa = sub.add_parser("ablate", help="correspondence and stage ablation grid")
    pa.add_argument("--in", dest="in_dir", required=True)
    pa.add_argument("--out", dest="out_file", required=True)
    pa.add_argument("--config", required=True)
    pa.add_argument("--seed", type=_int_at_least(0), default=None)
    pa.set_defaults(func=cmd_ablate)

    pd = sub.add_parser("demo", help="synthetic end-to-end comparison")
    pd.add_argument("--out", dest="out_dir", required=True)
    pd.add_argument("--seed", type=_int_at_least(0), default=0)
    pd.add_argument("--frames", type=_int_at_least(1, MAX_DEMO_FRAMES), default=24)
    pd.set_defaults(func=cmd_demo)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        raise
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

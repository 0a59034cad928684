"""Bit-exact readers/writers for frames, flows, raw tensors, and metric reports.

Formats:
  * PNM P5/P6 (binary, maxval 255) for frame sequences
  * Middlebury .flo (magic float 202021.25, little-endian) for flow fields
  * RawTensorFile: b"RTF1" | u32 rank | u32 dims[rank] | f32 payload, all LE
  * metric reports as stable-order dicts, which the CLI writes as JSON

Readers reject malformed inputs instead of sanitizing them.
"""

from __future__ import annotations

import math
import os
import re
import struct
from dataclasses import dataclass

import numpy as np

FLO_MAGIC = 202021.25
RTF_MAGIC = b"RTF1"
PNM_SUFFIXES = (".pgm", ".ppm", ".pnm")
# Between PNM header tokens: whitespace and '#' comments, each to the end of its line.
_PNM_BLANK = re.compile(rb"\s*(?:#[^\n]*\s*)*")
_PNM_TOKEN = re.compile(rb"\S+")


class FormatError(ValueError):
    """A file does not conform to its declared format."""


@dataclass
class FrameSequence:
    """Ordered RGB frames of one dtype: uint8 codes k, which stand for the
    values k/255 (frames read from 8-bit sources), or floats in [0, 1].
    Readers that need values take them from float_frame."""

    frames: list[np.ndarray]

    def __post_init__(self):
        if not self.frames:
            raise ValueError("FrameSequence requires at least one frame")
        shape, dtype = self.frames[0].shape, self.frames[0].dtype
        if len(shape) != 3 or shape[2] != 3 or shape[0] < 1 or shape[1] < 1:
            raise ValueError(f"frames must have shape (h, w, 3), got {shape}")
        if dtype != np.uint8 and dtype.kind != "f":
            raise ValueError(f"frames must be uint8 or float, got {dtype}")
        for i, f in enumerate(self.frames):
            if (f.shape, f.dtype) != (shape, dtype):
                raise ValueError(f"frame {i} is {f.dtype} {f.shape}, frame 0 is {dtype} {shape}")
            if dtype.kind == "f" and not (np.isfinite(f).all() and 0.0 <= f.min() <= f.max() <= 1.0):
                raise ValueError(f"frame {i} has values outside [0, 1]")

    def __len__(self):
        return len(self.frames)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.frames[0].shape


def float_frame(frame: np.ndarray) -> np.ndarray:
    """A FrameSequence frame's values: uint8 codes k as float64 k/255, float
    frames as they are."""
    return frame.astype(np.float64) / 255.0 if frame.dtype == np.uint8 else frame


def code_frame(frame: np.ndarray) -> np.ndarray:
    """A FrameSequence frame's uint8 codes: uint8 frames as they are, float
    frames rounded to the nearest code, rint(255 v) (halves to even). This
    is what write_frames writes and read_frames reads back."""
    if frame.dtype == np.uint8:
        return frame
    return np.clip(np.rint(frame * 255.0), 0, 255).astype(np.uint8)


def _pnm_token(data: bytes, pos: int, path: str) -> tuple[bytes, int]:
    """The PNM header token after offset pos, and the offset just past it."""
    m = _PNM_TOKEN.match(data, _PNM_BLANK.match(data, pos).end())
    if m is None:
        raise FormatError(f"{path}: truncated PNM header")
    return m[0], m.end()


def _pnm_number(data: bytes, pos: int, path: str) -> tuple[int, int]:
    """A numeric header field (ASCII decimal digits only) and the offset past it."""
    token, pos = _pnm_token(data, pos, path)
    if not token.isdigit():  # bytes.isdigit is ASCII-only; int() would take +, - and _
        raise FormatError(f"{path}: malformed PNM header field {token!r}")
    return int(token), pos


def _read_pnm(path: str) -> np.ndarray:
    """Decode one binary PNM file into an (h, w, 3) uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()

    magic, pos = _pnm_token(data, 0, path)
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"{path}: unsupported PNM magic {magic!r}")
    width, pos = _pnm_number(data, pos, path)
    height, pos = _pnm_number(data, pos, path)
    maxval, pos = _pnm_number(data, pos, path)
    if width < 1 or height < 1:
        raise FormatError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace byte after maxval

    channels = 1 if magic == b"P5" else 3
    expected = width * height * channels
    payload = data[pos:]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return np.repeat(raw, 3, axis=2) if channels == 1 else raw.copy()


def read_frames(path: str) -> FrameSequence:
    """Read all PNM files in a directory, in lexicographic filename order,
    as uint8 frames; a P5 file's gray channel is repeated to 3."""
    names = sorted(
        n
        for n in os.listdir(path)
        if os.path.splitext(n)[1].lower() in PNM_SUFFIXES
    )
    if not names:
        raise FormatError(f"no frames found in {path}")
    frames = [_read_pnm(os.path.join(path, n)) for n in names]
    shape = frames[0].shape
    for name, f in zip(names, frames):
        if f.shape != shape:
            raise ValueError(
                f"{name}: frame shape {f.shape} differs from first frame {shape}"
            )
    return FrameSequence(frames)


def index_digits(count: int) -> int:
    """Digits of the zero-padded index in every name of an output of count
    numbered files: 4 below 10 000, else those of the last index, so that
    lexicographic order is index order."""
    return max(4, len(str(count - 1)))


def write_frames(seq: FrameSequence, path: str, start: int = 0, count: int | None = None) -> None:
    """Write a FrameSequence's code_frames as P6 files frame_0000.ppm,
    frame_0001.ppm, ..., numbered from start. count is the number of frames
    in the whole output, start + len(seq) unless a caller writes it in
    parts; it sets the digits of every name (index_digits)."""
    digits = index_digits(start + len(seq) if count is None else count)
    os.makedirs(path, exist_ok=True)
    for i, frame in enumerate(map(code_frame, seq.frames), start):
        h, w, _ = frame.shape
        header = f"P6\n{w} {h}\n255\n".encode("ascii")
        with open(os.path.join(path, f"frame_{i:0{digits}d}.ppm"), "wb") as fh:
            fh.write(header)
            fh.write(frame.tobytes())


def read_flo(path: str) -> np.ndarray:
    """Read a Middlebury .flo file into an (h, w, 2) float32 field."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12:
        raise FormatError(f"{path}: too short for a .flo header")
    magic = struct.unpack("<f", data[0:4])[0]
    if magic != FLO_MAGIC:
        raise FormatError(f"{path}: bad .flo magic {magic}")
    w, h = struct.unpack("<ii", data[4:12])
    if w < 1 or h < 1:
        raise FormatError(f"{path}: bad .flo dimensions {w}x{h}")
    expected = 12 + 8 * w * h
    if len(data) != expected:
        raise FormatError(
            f"{path}: payload is {len(data) - 12} bytes, expected {8 * w * h}"
        )
    flow = np.frombuffer(data[12:], dtype="<f4").reshape(h, w, 2)
    return flow.copy()


def write_flo(flow: np.ndarray, path: str) -> None:
    """Write an (h, w, 2) field as a Middlebury .flo file."""
    if flow.ndim != 3 or flow.shape[2] != 2:
        raise ValueError(f"flow must have shape (h, w, 2), got {flow.shape}")
    h, w = flow.shape[:2]
    with open(path, "wb") as fh:
        fh.write(struct.pack("<f", FLO_MAGIC))
        fh.write(struct.pack("<ii", w, h))
        fh.write(np.ascontiguousarray(flow, dtype="<f4").tobytes())


def read_raw_tensor(path: str) -> np.ndarray:
    """Read a RawTensorFile into a float32 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8 or data[:4] != RTF_MAGIC:
        raise FormatError(f"{path}: bad RawTensorFile magic")
    rank = struct.unpack("<I", data[4:8])[0]
    header_end = 8 + 4 * rank
    if len(data) < header_end:
        raise FormatError(f"{path}: truncated RawTensorFile dims")
    dims = struct.unpack(f"<{rank}I", data[8:header_end])
    count = math.prod(dims)  # a Python int: np.prod would wrap past 2**63
    if len(data) != header_end + 4 * count:
        raise FormatError(
            f"{path}: payload is {len(data) - header_end} bytes, "
            f"expected {4 * count}"
        )
    return np.frombuffer(data[header_end:], dtype="<f4").reshape(dims).copy()


def write_raw_tensor(arr: np.ndarray, path: str) -> None:
    """Write an array as a RawTensorFile (float32, little-endian)."""
    arr = np.asarray(arr)
    with open(path, "wb") as fh:
        fh.write(RTF_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _json_value(x, label: str):
    """Map a metric value to JSON; +inf is a legal PSNR sentinel, NaN is a bug."""
    x = float(x)
    if math.isnan(x):
        raise ValueError(f"non-finite value in {label}")
    if math.isinf(x):
        if x > 0 and label.startswith("psnr"):
            return "inf"
        raise ValueError(f"non-finite value in {label}")
    return x


def report_to_dict(psnr=(), ssim=(), e_warp=(), e_inter=(), metadata=None) -> dict:
    """A stable-order dict: per metric its items and their mean (None if there
    are none), for e_warp also the mean x 1000; then the metadata."""
    out = {}
    for key, items_key, values in (
        ("psnr", "per_frame", psnr),
        ("ssim", "per_frame", ssim),
        ("e_warp", "per_pair", e_warp),
        ("e_inter", "per_triple", e_inter),
    ):
        values = list(values)
        block = {
            items_key: [_json_value(v, key) for v in values],
            "mean": _json_value(np.mean(values), key) if values else None,
        }
        if key == "e_warp":
            block["mean_x1000"] = (
                _json_value(1000.0 * np.mean(values), key) if values else None
            )
        out[key] = block
    out["metadata"] = dict(metadata or {})
    return out

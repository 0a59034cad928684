import json
import math
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from zsvr import mediaio
from zsvr.mediaio import FormatError, FrameSequence


def _write_pnm(path, magic, w, h, payload, maxval=255, comment=None):
    header = f"{magic}\n"
    if comment:
        header += f"# {comment}\n"
    header += f"{w} {h}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload)


def test_read_frames_gray_p5(tmp_path):
    payload = bytes([128] * 16)
    for i in range(3):
        _write_pnm(tmp_path / f"f{i}.pgm", "P5", 4, 4, payload)
    seq = mediaio.read_frames(str(tmp_path))
    assert len(seq) == 3
    for f in seq.frames:
        # uint8 codes, the gray channel repeated to 3
        assert f.shape == (4, 4, 3) and f.dtype == np.uint8
        assert (f == 128).all()


def test_read_frames_empty_dir(tmp_path):
    with pytest.raises(FormatError, match="no frames"):
        mediaio.read_frames(str(tmp_path))


def test_read_frames_lexicographic_order(tmp_path):
    for name, val in (("b.pgm", 20), ("a.pgm", 10), ("c.pgm", 30)):
        _write_pnm(tmp_path / name, "P5", 2, 2, bytes([val] * 4))
    seq = mediaio.read_frames(str(tmp_path))
    got = [int(f[0, 0, 0]) for f in seq.frames]
    assert got == [10, 20, 30]


def test_read_frames_ignores_other_extensions(tmp_path):
    _write_pnm(tmp_path / "f.ppm", "P6", 2, 2, bytes(range(12)))
    (tmp_path / "notes.txt").write_text("not a frame")
    seq = mediaio.read_frames(str(tmp_path))
    assert len(seq) == 1


def test_p6_gradient_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    # an 8x6 gradient plus a second random frame
    grad = np.linspace(0, 1, 8 * 6 * 3).reshape(6, 8, 3)
    rand = rng.random((6, 8, 3))
    seq = FrameSequence([grad, rand])
    out = tmp_path / "out"
    mediaio.write_frames(seq, str(out))
    back = mediaio.read_frames(str(out))
    for a, b in zip(seq.frames, back.frames):
        assert np.abs(a - mediaio.float_frame(b)).max() <= 1.0 / 510.0 + 1e-12


def test_write_frames_extremes(tmp_path):
    seq = FrameSequence([np.zeros((2, 3, 3)), np.ones((2, 3, 3))])
    mediaio.write_frames(seq, str(tmp_path / "o"))
    p0 = (tmp_path / "o" / "frame_0000.ppm").read_bytes()
    p1 = (tmp_path / "o" / "frame_0001.ppm").read_bytes()
    assert p0.endswith(bytes([0] * 18))
    assert p1.endswith(bytes([255] * 18))


def test_frames_past_ten_thousand_read_back_in_order(tmp_path):
    # 4-digit names would put frame_10000 before frame_1001; every name of
    # an output of 10 001 frames gets 5 digits instead, also when it is
    # written in parts, as zsvr restore writes its batches
    frames = [np.array([[[k % 256, k // 256, 0]]], np.uint8) for k in range(10_001)]
    mediaio.write_frames(FrameSequence(frames[:5000]), str(tmp_path), 0, len(frames))
    mediaio.write_frames(FrameSequence(frames[5000:]), str(tmp_path), 5000)
    names = sorted(os.listdir(tmp_path))
    assert names[0] == "frame_00000.ppm" and names[-1] == "frame_10000.ppm"
    back = mediaio.read_frames(str(tmp_path)).frames
    assert len(back) == len(frames)
    assert all(np.array_equal(a, b) for a, b in zip(frames, back))


def test_pnm_bad_magic(tmp_path):
    _write_pnm(tmp_path / "f.pnm", "P3", 2, 2, bytes(12))
    with pytest.raises(FormatError, match="magic"):
        mediaio.read_frames(str(tmp_path))


def test_pnm_bad_maxval(tmp_path):
    _write_pnm(tmp_path / "f.pgm", "P5", 2, 2, bytes(4), maxval=65535)
    with pytest.raises(FormatError, match="maxval"):
        mediaio.read_frames(str(tmp_path))


def test_pnm_truncated_payload(tmp_path):
    _write_pnm(tmp_path / "f.ppm", "P6", 4, 4, bytes(10))
    with pytest.raises(FormatError, match="payload"):
        mediaio.read_frames(str(tmp_path))


@pytest.mark.parametrize(
    "header",
    [
        b"P6\n+2 1\n255\n",
        b"P6\n2 1\n2_55\n",
        b"P6\n0_2 1\n+255\n",
        b"P6\n2 -1\n255\n",
        "P6\n\u0662 1\n255\n".encode(),  # ARABIC-INDIC DIGIT TWO
        "P6\n2 1\n\uff12\uff15\uff15\n".encode(),  # fullwidth 255
    ],
    ids=["plus", "underscore", "underscore-and-plus", "minus", "arabic-indic", "fullwidth"],
)
def test_pnm_header_fields_are_ascii_digits(tmp_path, header):
    (tmp_path / "f.ppm").write_bytes(header + bytes(6))
    with pytest.raises(FormatError, match="malformed PNM header"):
        mediaio.read_frames(str(tmp_path))


def test_pnm_header_comment(tmp_path):
    _write_pnm(tmp_path / "f.pgm", "P5", 2, 2, bytes([7] * 4), comment="made by hand")
    seq = mediaio.read_frames(str(tmp_path))
    assert (seq.frames[0] == 7).all()


def test_read_frames_inconsistent_shapes(tmp_path):
    _write_pnm(tmp_path / "a.pgm", "P5", 2, 2, bytes(4))
    _write_pnm(tmp_path / "b.pgm", "P5", 3, 2, bytes(6))
    with pytest.raises(ValueError, match="differs"):
        mediaio.read_frames(str(tmp_path))


def test_frame_sequence_validation():
    with pytest.raises(ValueError):
        FrameSequence([])
    with pytest.raises(ValueError, match="outside"):
        FrameSequence([np.full((2, 2, 3), 1.5)])
    with pytest.raises(ValueError):
        FrameSequence([np.zeros((2, 2))])


def test_frame_sequence_holds_one_dtype_of_uint8_or_float():
    codes = np.arange(12, dtype=np.uint8).reshape(2, 2, 3) * 23  # 0 to 253
    assert FrameSequence([codes, codes]).frames[1] is codes
    for dtype in (np.float32, np.float64):
        FrameSequence([(codes / 255).astype(dtype)] * 2)
    with pytest.raises(ValueError, match=r"frame 1 is float64 \(4, 1, 3\), frame 0 is uint8 \(2, 2, 3\)"):
        FrameSequence([codes, codes.reshape(4, 1, 3) / 255])
    with pytest.raises(ValueError, match=r"frame 1 is float64 \(2, 2, 3\), frame 0 is uint8"):
        FrameSequence([codes, codes / 255])
    with pytest.raises(ValueError, match="frame 2 is uint8 .*, frame 0 is float64"):
        FrameSequence([codes / 255, codes / 255, codes])
    for dtype in (np.int64, np.uint16, bool):
        with pytest.raises(ValueError, match=f"must be uint8 or float, got {np.dtype(dtype)}"):
            FrameSequence([codes.astype(dtype)])


def test_float_frame_is_the_codes_over_255():
    codes = np.arange(256, dtype=np.uint8).reshape(16, 16, 1).repeat(3, axis=2)
    got = mediaio.float_frame(codes)
    assert got.dtype == np.float64
    assert np.array_equal(got, codes.astype(np.float64) / 255.0)
    # the same bits as k/255 for every code, and float frames pass through
    assert got[..., 0].ravel().tolist() == [k / 255 for k in range(256)]
    assert mediaio.float_frame(got) is got


def test_flo_zero_flow(tmp_path):
    import struct

    path = tmp_path / "z.flo"
    with open(path, "wb") as fh:
        fh.write(struct.pack("<f", 202021.25))
        fh.write(struct.pack("<ii", 1, 1))
        fh.write(struct.pack("<ff", 0.0, 0.0))
    assert np.array_equal(mediaio.read_flo(str(path)), np.zeros((1, 1, 2)))


def test_flo_read_order(tmp_path):
    import struct

    path = tmp_path / "o.flo"
    with open(path, "wb") as fh:
        fh.write(struct.pack("<f", 202021.25))
        fh.write(struct.pack("<ii", 2, 1))
        fh.write(struct.pack("<ffff", 1.0, 0.0, -1.0, 0.0))
    flow = mediaio.read_flo(str(path))
    assert flow.shape == (1, 2, 2)
    assert flow[0, 0, 0] == 1.0 and flow[0, 1, 0] == -1.0


def test_flo_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    flow = rng.standard_normal((5, 7, 2)).astype(np.float32)
    path = tmp_path / "r.flo"
    mediaio.write_flo(flow, str(path))
    assert np.array_equal(mediaio.read_flo(str(path)), flow)


def test_flo_bad_magic(tmp_path):
    (tmp_path / "bad.flo").write_bytes(b"\x00" * 20)
    with pytest.raises(FormatError, match="magic"):
        mediaio.read_flo(str(tmp_path / "bad.flo"))


def test_flo_truncated(tmp_path):
    import struct

    path = tmp_path / "t.flo"
    with open(path, "wb") as fh:
        fh.write(struct.pack("<f", 202021.25))
        fh.write(struct.pack("<ii", 3, 3))
        fh.write(b"\x00" * 8)
    with pytest.raises(FormatError):
        mediaio.read_flo(str(path))


def test_raw_tensor_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    for shape in [(4,), (2, 3), (2, 3, 4), (1, 2, 3, 4)]:
        arr = rng.standard_normal(shape).astype(np.float32)
        path = tmp_path / "t.rtf"
        mediaio.write_raw_tensor(arr, str(path))
        back = mediaio.read_raw_tensor(str(path))
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)


def test_raw_tensor_bad_magic(tmp_path):
    (tmp_path / "x.rtf").write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(FormatError, match="magic"):
        mediaio.read_raw_tensor(str(tmp_path / "x.rtf"))


def test_raw_tensor_dims_product_overflow(tmp_path):
    # 65536**4 == 2**64, which a fixed-width product wraps to 0 bytes
    path = tmp_path / "huge.rtf"
    path.write_bytes(mediaio.RTF_MAGIC + struct.pack("<5I", 4, *[65536] * 4))
    with pytest.raises(FormatError, match="payload"):
        mediaio.read_raw_tensor(str(path))


# Property tests: per format, a write-then-read round trip is exact, and every
# strict prefix of a valid file and every corruption of its magic is rejected.

_FORMAT_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


def _pnm_write(path, frames):
    mediaio.write_frames(FrameSequence(list(frames)), path)
    return os.path.join(path, "frame_0000.ppm")


def _pnm_read(path):
    # the codes' values: float k/255 frames round-trip bit for bit
    return np.stack([mediaio.float_frame(f) for f in mediaio.read_frames(os.path.dirname(path)).frames])


def _flo_write(path, flow):
    mediaio.write_flo(flow, os.path.join(path, "f.flo"))
    return os.path.join(path, "f.flo")


def _rtf_write(path, arr):
    mediaio.write_raw_tensor(arr, os.path.join(path, "t.rtf"))
    return os.path.join(path, "t.rtf")


_FORMATS = {
    # name: (strategy for written values, write(dir, value) -> a file, read(file), magic size)
    "pnm": (
        # 1-3 frames with values on the 1/255 grid; the first frame's file is corrupted
        hnp.arrays(np.uint8, st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
                                       st.just(3))).map(lambda a: a / 255.0),
        _pnm_write,
        _pnm_read,
        2,
    ),
    "flo": (
        hnp.arrays(np.float32, st.tuples(st.integers(1, 4), st.integers(1, 4), st.just(2)),
                   elements=st.floats(width=32, allow_nan=False)),
        _flo_write,
        mediaio.read_flo,
        4,
    ),
    "rtf": (
        hnp.arrays(np.float32, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
                   elements=st.floats(width=32, allow_nan=False)),
        _rtf_write,
        mediaio.read_raw_tensor,
        4,
    ),
}


@pytest.mark.parametrize("fmt", sorted(_FORMATS))
def test_format_roundtrip_and_rejection_property(fmt, tmp_path_factory):
    values, write, read, magic_size = _FORMATS[fmt]

    @_FORMAT_SETTINGS
    @given(values, st.integers(0, magic_size - 1), st.integers(1, 255))
    def check(value, magic_pos, flip):
        d = str(tmp_path_factory.mktemp(fmt))
        path = write(d, value)
        back = read(path)
        assert back.shape == value.shape and back.dtype == value.dtype
        assert back.tobytes() == value.tobytes()
        with open(path, "rb") as fh:
            data = fh.read()
        for bad in [data[:k] for k in range(len(data))] + [
            data[:magic_pos] + bytes([data[magic_pos] ^ flip]) + data[magic_pos + 1 :]
        ]:
            with open(path, "wb") as fh:
                fh.write(bad)
            with pytest.raises(FormatError):
                read(path)

    check()


# Property tests of mutated header fields: a reader accepts a header exactly
# when it names the payload's size, returns the payload unchanged in the
# shape the header names, and never allocates more than a fixed multiple of
# the file's size, whatever size the header claims.

_HEADER_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
_SIZES = st.one_of(st.integers(0, 17), st.integers(-(2**31), 2**32))


def _read_mutated(read, path, header: bytes, payload: bytes):
    """Write header + payload to path and read it back; a FormatError is
    returned, any other outcome must be the payload unchanged."""
    data = header + payload
    path.write_bytes(data)
    tracemalloc.start()
    try:
        try:
            got = read(str(path))
        except FormatError as exc:
            got = exc
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * len(data) + (1 << 16)
    return got


def test_pnm_mutated_header_field_property(tmp_path_factory):
    d = tmp_path_factory.mktemp("pnm")
    tokens = st.one_of(
        _SIZES.map(lambda i: str(i).encode()),
        st.integers(2**62, 2**70).map(lambda i: str(i).encode()),
        st.integers(0, 300).map(lambda i: b"0%d" % i),
        st.binary(min_size=1, max_size=8).filter(lambda b: not re.search(rb"\s", b)),
    )

    @_HEADER_SETTINGS
    @given(hnp.arrays(np.uint8, st.tuples(st.integers(1, 4), st.integers(1, 4), st.just(3))),
           st.integers(0, 2), tokens)
    def check(raw, field, token):
        h, w, _ = raw.shape
        fields = [b"%d" % w, b"%d" % h, b"255"]  # width, height, maxval
        fields[field] = token
        header = b"P6\n%s %s\n%s\n" % tuple(fields)
        got = _read_mutated(lambda p: mediaio.read_frames(os.path.dirname(p)).frames[0],
                            d / "frame.ppm", header, raw.tobytes())
        if re.fullmatch(rb"-?[0-9]+", token):
            w2, h2, maxval = map(int, fields)
            valid = w2 >= 1 and h2 >= 1 and maxval == 255 and w2 * h2 == w * h
            assert isinstance(got, FormatError) != valid
            if valid:
                assert got.shape == (h2, w2, 3)
        if not isinstance(got, FormatError):
            assert got.dtype == np.uint8 and got.tobytes() == raw.tobytes()

    check()


def test_flo_mutated_dims_property(tmp_path_factory):
    path = tmp_path_factory.mktemp("flo") / "f.flo"

    @_HEADER_SETTINGS
    @given(hnp.arrays("<f4", st.tuples(st.integers(1, 4), st.integers(1, 4), st.just(2)),
                      elements=st.floats(width=32, allow_nan=False)),
           st.integers(0, 1), _SIZES.filter(lambda i: -(2**31) <= i < 2**31))
    def check(flow, field, value):
        h, w, _ = flow.shape
        dims = [w, h]
        dims[field] = value
        got = _read_mutated(mediaio.read_flo, path,
                            struct.pack("<f2i", mediaio.FLO_MAGIC, *dims), flow.tobytes())
        valid = min(dims) >= 1 and dims[0] * dims[1] == w * h
        assert isinstance(got, FormatError) != valid
        if valid:
            assert got.shape == (dims[1], dims[0], 2) and got.tobytes() == flow.tobytes()

    check()


def test_rtf_mutated_rank_and_dims_property(tmp_path_factory):
    path = tmp_path_factory.mktemp("rtf") / "t.rtf"

    @_HEADER_SETTINGS
    @given(hnp.arrays("<f4", hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
                      elements=st.floats(width=32, allow_nan=False)),
           st.integers(0, 3), _SIZES.filter(lambda i: 0 <= i < 2**32))
    def check(arr, field, value):
        # field 0 is the rank, field i > 0 the (i-1)-th dim
        header = [arr.ndim, *arr.shape]
        field %= len(header)
        header[field] = value
        got = _read_mutated(mediaio.read_raw_tensor, path,
                            mediaio.RTF_MAGIC + struct.pack(f"<{len(header)}I", *header),
                            arr.tobytes())
        if field:
            valid = math.prod(header[1:]) == arr.size
            assert isinstance(got, FormatError) != valid
            if valid:
                assert got.shape == tuple(header[1:])
        elif value == arr.ndim:
            assert got.shape == arr.shape
        if not isinstance(got, FormatError):
            # the rank moved the header's end: the payload is the file's tail
            data = path.read_bytes()
            assert 8 + 4 * got.ndim + got.nbytes == len(data)
            assert got.tobytes() == data[len(data) - got.nbytes :]

    check()


def test_report_roundtrip():
    rep = mediaio.report_to_dict(
        psnr=[30.0, 31.5],
        ssim=[0.9, 0.95],
        e_warp=[0.001, 0.002],
        e_inter=[1.0],
        metadata={"seed": 3},
    )
    parsed = json.loads(json.dumps(rep))
    assert list(parsed) == ["psnr", "ssim", "e_warp", "e_inter", "metadata"]
    assert parsed["psnr"]["per_frame"] == [30.0, 31.5]
    assert parsed["psnr"]["mean"] == pytest.approx(30.75)
    assert parsed["e_warp"]["mean_x1000"] == pytest.approx(1.5)
    assert parsed["metadata"] == {"seed": 3}


def test_report_empty_arrays_mean_null():
    parsed = json.loads(json.dumps(mediaio.report_to_dict()))
    assert parsed["psnr"]["mean"] is None
    assert parsed["e_warp"]["mean_x1000"] is None


def test_report_psnr_inf_sentinel():
    d = mediaio.report_to_dict(psnr=[math.inf, 40.0])
    assert d["psnr"]["per_frame"][0] == "inf"


def test_report_rejects_nan():
    with pytest.raises(ValueError, match="non-finite"):
        mediaio.report_to_dict(ssim=[math.nan])


def test_report_rejects_inf_outside_psnr():
    with pytest.raises(ValueError, match="non-finite"):
        mediaio.report_to_dict(e_warp=[math.inf])


def test_report_bytes_pinned():
    # key order, mean_x1000, the "inf" PSNR sentinel and null means, byte for byte
    rep = mediaio.report_to_dict(
        psnr=[math.inf, 40.0], ssim=[0.5, 0.75], e_warp=[0.25, 0.75], metadata={"seed": 3}
    )
    assert json.dumps(rep) == (
        '{"psnr": {"per_frame": ["inf", 40.0], "mean": "inf"}, '
        '"ssim": {"per_frame": [0.5, 0.75], "mean": 0.625}, '
        '"e_warp": {"per_pair": [0.25, 0.75], "mean": 0.5, "mean_x1000": 500.0}, '
        '"e_inter": {"per_triple": [], "mean": null}, '
        '"metadata": {"seed": 3}}'
    )

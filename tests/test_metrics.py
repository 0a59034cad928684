import functools
import math

import numpy as np
import pytest

from zsvr import cli, mediaio, metrics, pipeline
from zsvr.flow import warp


def test_psnr_identical_is_inf():
    a = np.random.default_rng(0).random((8, 8, 3))
    assert metrics.psnr(a, a.copy()) == math.inf


def test_psnr_constant_offset():
    a = np.zeros((8, 8, 3))
    b = np.full((8, 8, 3), 0.1)
    assert metrics.psnr(a, b) == pytest.approx(20.0, abs=1e-9)


def test_psnr_symmetric_and_matches_oracle():
    rng = np.random.default_rng(1)
    a = rng.random((6, 7, 3))
    b = rng.random((6, 7, 3))
    got = metrics.psnr(a, b)
    assert got == metrics.psnr(b, a)
    mse = 0.0
    for y in range(6):
        for x in range(7):
            for c in range(3):
                mse += (a[y, x, c] - b[y, x, c]) ** 2
    mse /= 6 * 7 * 3
    assert got == pytest.approx(10 * math.log10(1 / mse), abs=1e-9)


def test_psnr_shape_mismatch():
    with pytest.raises(ValueError):
        metrics.psnr(np.zeros((4, 4, 3)), np.zeros((5, 4, 3)))


def test_ssim_identical_is_one():
    a = np.random.default_rng(2).random((16, 16, 3))
    assert metrics.ssim(a, a.copy()) == pytest.approx(1.0)


def test_ssim_two_constants_closed_form():
    a = np.full((8, 8, 3), 0.3)
    b = np.full((8, 8, 3), 0.7)
    c1, c2 = 0.01**2, 0.03**2
    want = ((2 * 0.3 * 0.7 + c1) * c2) / ((0.3**2 + 0.7**2 + c1) * c2)
    assert metrics.ssim(a, b) == pytest.approx(want, abs=1e-12)


def test_ssim_matches_windowed_oracle():
    rng = np.random.default_rng(3)
    a = rng.random((16, 24, 3))
    b = np.clip(a + 0.1 * rng.standard_normal(a.shape), 0, 1)
    got = metrics.ssim(a, b)
    la, lb = a.mean(axis=2), b.mean(axis=2)
    c1, c2 = 0.01**2, 0.03**2
    vals = []
    for wy in range(2):
        for wx in range(3):
            pa = la[wy * 8 : wy * 8 + 8, wx * 8 : wx * 8 + 8]
            pb = lb[wy * 8 : wy * 8 + 8, wx * 8 : wx * 8 + 8]
            mu_a, mu_b = pa.mean(), pb.mean()
            va = (pa**2).mean() - mu_a**2
            vb = (pb**2).mean() - mu_b**2
            cov = (pa * pb).mean() - mu_a * mu_b
            vals.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a**2 + mu_b**2 + c1) * (va + vb + c2))
            )
    assert got == pytest.approx(np.mean(vals), abs=1e-9)


def test_ssim_rejects_tiny_frames():
    with pytest.raises(ValueError, match="window"):
        metrics.ssim(np.zeros((4, 4, 3)), np.zeros((4, 4, 3)))


NO_OCCLUSION = np.zeros((8, 8))


def test_warping_error_static_video():
    frame = np.random.default_rng(4).random((8, 8, 3))
    assert metrics.warping_error(frame, frame, np.zeros((8, 8, 2)), NO_OCCLUSION) == 0.0


def test_warping_error_exact_warp_is_zero():
    rng = np.random.default_rng(5)
    f0 = rng.random((8, 8, 3))
    fl = rng.uniform(-1, 1, (8, 8, 2))
    f1 = warp(f0, fl)
    assert metrics.warping_error(f0, f1, fl, NO_OCCLUSION) <= 1e-24


def test_warping_error_matches_scalar_oracle():
    rng = np.random.default_rng(6)
    frames = [rng.random((6, 6, 3)) for _ in range(3)]
    flows = [rng.uniform(-1, 1, (6, 6, 2)) for _ in range(2)]
    masks = [(rng.random((6, 6)) < 0.3).astype(float) for _ in range(2)]
    for t in range(1, 3):
        got = metrics.warping_error(frames[t - 1], frames[t], flows[t - 1], masks[t - 1])
        warped = warp(frames[t - 1], flows[t - 1])
        total, count = 0.0, 0
        for y in range(6):
            for x in range(6):
                if masks[t - 1][y, x] == 0:
                    sq = 0.0
                    for c in range(3):
                        sq += (frames[t][y, x, c] - warped[y, x, c]) ** 2
                    total += sq
                    count += 1
        assert got == pytest.approx(total / count, abs=1e-6)


def test_warping_error_all_occluded_pair_is_zero():
    rng = np.random.default_rng(7)
    f0, f1 = (rng.random((4, 4, 3)) for _ in range(2))
    assert metrics.warping_error(f0, f1, np.zeros((4, 4, 2)), np.ones((4, 4))) == 0.0


def test_interpolation_error_static_video():
    frame = np.random.default_rng(8).random((8, 8, 3))
    flow = np.zeros((8, 8, 2))
    assert metrics.interpolation_error(frame, frame, frame, flow, flow) == 0.0


def test_interpolation_error_constant_translation_interior():
    # constant-velocity pan: the half-flow interpolation recovers the middle
    # frame away from the borders
    rng = np.random.default_rng(9)
    wide = rng.random((16, 40, 3))
    frames = [wide[:, 4 * t : 4 * t + 24] for t in range(3)]
    fwd = np.zeros((16, 24, 2))
    fwd[:, :, 0] = 8.0  # warp(frame0, fwd) reads 8 px to the right: frame 2
    bwd = np.zeros((16, 24, 2))
    bwd[:, :, 0] = -8.0
    interior = [f[:, 8:-8] for f in frames]
    est_prev = warp(frames[0], 0.5 * fwd)
    est_next = warp(frames[2], 0.5 * bwd)
    est = 0.5 * (est_prev + est_next)
    assert np.abs(est[:, 8:-8] - interior[1]).max() <= 1e-12
    # full-frame metric is nonzero only because of border clamping
    assert metrics.interpolation_error(*frames, fwd, bwd) < 60.0


def test_interpolation_error_matches_scalar_oracle():
    rng = np.random.default_rng(10)
    frames = [rng.random((6, 6, 3)) for _ in range(4)]
    fwd = [rng.uniform(-1, 1, (6, 6, 2)) for _ in range(2)]
    bwd = [rng.uniform(-1, 1, (6, 6, 2)) for _ in range(2)]
    for t in range(1, 3):
        got = metrics.interpolation_error(*frames[t - 1 : t + 2], fwd[t - 1], bwd[t - 1])
        ep = warp(frames[t - 1], 0.5 * fwd[t - 1])
        en = warp(frames[t + 1], 0.5 * bwd[t - 1])
        total = 0.0
        for y in range(6):
            for x in range(6):
                for c in range(3):
                    d = 0.5 * (ep[y, x, c] + en[y, x, c]) - frames[t][y, x, c]
                    total += d * d
        want = math.sqrt(total / (6 * 6 * 3)) * 255.0
        assert got == pytest.approx(want, abs=1e-6)


def test_monotone_degradation_static_video():
    rng = np.random.default_rng(11)
    base = rng.random((16, 16, 3)) * 0.5 + 0.25
    flow = np.zeros((16, 16, 2))
    mask = np.zeros((16, 16))
    means_w, means_i = [], []
    for amp in (0.01, 0.05, 0.1):
        frames = [
            np.clip(base + amp * np.random.default_rng(100 + i).standard_normal(base.shape), 0, 1)
            for i in range(4)
        ]
        means_w.append(np.mean([metrics.warping_error(*frames[t - 1 : t + 1], flow, mask)
                                for t in range(1, 4)]))
        means_i.append(np.mean([metrics.interpolation_error(*frames[t - 1 : t + 2], flow, flow)
                                for t in range(1, 3)]))
    assert means_w[0] < means_w[1] < means_w[2]
    assert means_i[0] < means_i[1] < means_i[2]


_READERS = {
    "psnr": lambda f, a, fl, m: metrics.psnr(f, a),
    "psnr b": lambda f, a, fl, m: metrics.psnr(a, f),
    "ssim": lambda f, a, fl, m: metrics.ssim(f, a),
    "ssim b": lambda f, a, fl, m: metrics.ssim(a, f),
    "warping_error prev": lambda f, a, fl, m: metrics.warping_error(f, a, fl, m),
    "warping_error cur": lambda f, a, fl, m: metrics.warping_error(a, f, fl, m),
    "interpolation_error prev": lambda f, a, fl, m: metrics.interpolation_error(f, a, a, fl, fl),
    "interpolation_error cur": lambda f, a, fl, m: metrics.interpolation_error(a, f, a, fl, fl),
    "interpolation_error nxt": lambda f, a, fl, m: metrics.interpolation_error(a, a, f, fl, fl),
    "encode_latent": lambda f, a, fl, m: pipeline.encode_latent(f, 2),
    "degrade_video": lambda f, a, fl, m: cli.degrade_video(mediaio.FrameSequence([f]), 2, 0.1, 0),
}


@pytest.mark.parametrize("reader", list(_READERS))
def test_uint8_codes_are_refused_where_values_are_read(reader):
    # a code frame against itself plus one reads 48.1 dB as values; read as
    # codes against a peak of 1.0 it would read 0.0 dB, so codes are refused
    # wherever values in [0, 1] are read, and the message names the conversion
    codes = np.random.default_rng(12).integers(0, 255, (8, 8, 3)).astype(np.uint8)
    a, b = mediaio.float_frame(codes), mediaio.float_frame(codes + 1)
    assert metrics.psnr(a, b) == pytest.approx(48.13, abs=0.01)
    call = functools.partial(_READERS[reader], a=a, fl=np.zeros((8, 8, 2)), m=np.zeros((8, 8)))
    call(a)
    with pytest.raises(ValueError, match=r"uint8 codes.*mediaio\.float_frame"):
        call(codes)

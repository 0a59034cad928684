import math

import numpy as np
import pytest

from zsvr import metrics
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


def test_warping_error_static_video():
    frames = [np.random.default_rng(4).random((8, 8, 3))] * 4
    flows = [np.zeros((8, 8, 2))] * 3
    per_pair, mean = metrics.warping_error(frames, flows)
    assert per_pair == [0.0, 0.0, 0.0]
    assert mean == 0.0


def test_warping_error_exact_warp_is_zero():
    rng = np.random.default_rng(5)
    f0 = rng.random((8, 8, 3))
    fl = rng.uniform(-1, 1, (8, 8, 2))
    f1 = warp(f0, fl)
    per_pair, mean = metrics.warping_error([f0, f1], [fl])
    assert mean <= 1e-24


def test_warping_error_matches_scalar_oracle():
    rng = np.random.default_rng(6)
    frames = [rng.random((6, 6, 3)) for _ in range(3)]
    flows = [rng.uniform(-1, 1, (6, 6, 2)) for _ in range(2)]
    masks = [(rng.random((6, 6)) < 0.3).astype(float) for _ in range(2)]
    per_pair, mean = metrics.warping_error(frames, flows, masks)
    for t in range(1, 3):
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
        assert per_pair[t - 1] == pytest.approx(total / count, abs=1e-6)
    assert mean == pytest.approx(np.mean(per_pair))


def test_warping_error_all_occluded_pair_is_zero():
    rng = np.random.default_rng(7)
    frames = [rng.random((4, 4, 3)) for _ in range(2)]
    per_pair, mean = metrics.warping_error(
        frames, [np.zeros((4, 4, 2))], [np.ones((4, 4))]
    )
    assert per_pair == [0.0]


def test_warping_error_count_validation():
    frames = [np.zeros((4, 4, 3))] * 3
    with pytest.raises(ValueError, match="flows"):
        metrics.warping_error(frames, [np.zeros((4, 4, 2))])


def test_interpolation_error_static_video():
    frames = [np.random.default_rng(8).random((8, 8, 3))] * 3
    flows = [np.zeros((8, 8, 2))]
    per_triple, mean = metrics.interpolation_error(frames, flows, flows)
    assert mean == 0.0


def test_warping_error_too_short():
    with pytest.raises(ValueError, match="too short"):
        metrics.warping_error([np.zeros((4, 4, 3))], [])


def test_interpolation_error_too_short():
    frames = [np.zeros((4, 4, 3))] * 2
    with pytest.raises(ValueError, match="too short"):
        metrics.interpolation_error(frames, [], [])


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
    per_triple, _ = metrics.interpolation_error(frames, [fwd], [bwd])
    assert per_triple[0] < 60.0


def test_interpolation_error_matches_scalar_oracle():
    rng = np.random.default_rng(10)
    frames = [rng.random((6, 6, 3)) for _ in range(4)]
    fwd = [rng.uniform(-1, 1, (6, 6, 2)) for _ in range(2)]
    bwd = [rng.uniform(-1, 1, (6, 6, 2)) for _ in range(2)]
    per_triple, mean = metrics.interpolation_error(frames, fwd, bwd)
    for t in range(1, 3):
        ep = warp(frames[t - 1], 0.5 * fwd[t - 1])
        en = warp(frames[t + 1], 0.5 * bwd[t - 1])
        total = 0.0
        for y in range(6):
            for x in range(6):
                for c in range(3):
                    d = 0.5 * (ep[y, x, c] + en[y, x, c]) - frames[t][y, x, c]
                    total += d * d
        want = math.sqrt(total / (6 * 6 * 3)) * 255.0
        assert per_triple[t - 1] == pytest.approx(want, abs=1e-6)


def test_monotone_degradation_static_video():
    rng = np.random.default_rng(11)
    base = rng.random((16, 16, 3)) * 0.5 + 0.25
    flows = [np.zeros((16, 16, 2))] * 3
    means_w, means_i = [], []
    for amp in (0.01, 0.05, 0.1):
        frames = [
            np.clip(base + amp * np.random.default_rng(100 + i).standard_normal(base.shape), 0, 1)
            for i in range(4)
        ]
        _, mw = metrics.warping_error(frames, flows)
        _, mi = metrics.interpolation_error(frames, flows[:2], flows[:2])
        means_w.append(mw)
        means_i.append(mi)
    assert means_w[0] < means_w[1] < means_w[2]
    assert means_i[0] < means_i[1] < means_i[2]

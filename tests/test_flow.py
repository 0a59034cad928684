import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import estimate_flow_exact
from zsvr import cli, flow, mediaio, pipeline
from zsvr.mediaio import FrameSequence


def warp_oracle(grid, fl):
    """Scalar-loop bilinear backward warp with clamped coordinates."""
    g = grid[:, :, None] if grid.ndim == 2 else grid
    h, w, c = g.shape
    out = np.zeros_like(g, dtype=np.float64)
    for y in range(h):
        for x in range(w):
            px = min(max(x + fl[y, x, 0], 0.0), w - 1.0)
            py = min(max(y + fl[y, x, 1], 0.0), h - 1.0)
            x0, y0 = int(math.floor(px)), int(math.floor(py))
            x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
            fx, fy = px - x0, py - y0
            for ch in range(c):
                out[y, x, ch] = (
                    g[y0, x0, ch] * (1 - fx) * (1 - fy)
                    + g[y0, x1, ch] * fx * (1 - fy)
                    + g[y1, x0, ch] * (1 - fx) * fy
                    + g[y1, x1, ch] * fx * fy
                )
    return out[:, :, 0] if grid.ndim == 2 else out


def bilinear_resample_oracle(grid, h2, w2):
    """Scalar-loop bilinear resample with aligned pixel centers and clamping."""
    g = grid[:, :, None] if grid.ndim == 2 else grid
    h, w, c = g.shape
    out = np.zeros((h2, w2, c))
    for y in range(h2):
        sy = min(max((y + 0.5) * h / h2 - 0.5, 0.0), h - 1.0)
        y0 = int(math.floor(sy))
        y1, fy = min(y0 + 1, h - 1), sy - y0
        for x in range(w2):
            sx = min(max((x + 0.5) * w / w2 - 0.5, 0.0), w - 1.0)
            x0 = int(math.floor(sx))
            x1, fx = min(x0 + 1, w - 1), sx - x0
            for ch in range(c):
                out[y, x, ch] = (
                    g[y0, x0, ch] * (1 - fy) * (1 - fx)
                    + g[y0, x1, ch] * (1 - fy) * fx
                    + g[y1, x0, ch] * fy * (1 - fx)
                    + g[y1, x1, ch] * fy * fx
                )
    return out[:, :, 0] if grid.ndim == 2 else out


def fb_confidence_oracle(f_fwd, f_bwd):
    bwd_at = warp_oracle(f_bwd, f_fwd)
    h, w = f_fwd.shape[:2]
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            ru = f_fwd[y, x, 0] + bwd_at[y, x, 0]
            rv = f_fwd[y, x, 1] + bwd_at[y, x, 1]
            out[y, x] = math.exp(-(ru * ru + rv * rv))
    return out


def estimate_flow_oracle(src, dst, block, search):
    """Exhaustive per-pixel SSD block matching with clamped patch sampling.

    The per-pixel squared error is channel-summed first and the block cost
    accumulates as a row sum of column sums, mirroring the implementation's
    addition order so exact ties resolve identically.
    """
    src = src[:, :, None] if src.ndim == 2 else src
    dst = dst[:, :, None] if dst.ndim == 2 else dst
    h, w, c = src.shape
    half = block // 2
    cands = sorted(
        (dy * dy + dx * dx, dy, dx)
        for dy in range(-search, search + 1)
        for dx in range(-search, search + 1)
    )
    out = np.zeros((h, w, 2))

    def err_at(y, x, dy, dx):
        dyy = min(max(y + dy, 0), h - 1)
        dxx = min(max(x + dx, 0), w - 1)
        e = 0.0
        for ch in range(c):
            diff = src[y, x, ch] - dst[dyy, dxx, ch]
            e += diff * diff
        return e

    for y in range(h):
        for x in range(w):
            best = math.inf
            best_d = (0, 0)
            for _, dy, dx in cands:
                cost = 0.0
                for oy in range(-half, block - half):
                    sy = min(max(y + oy, 0), h - 1)
                    row = 0.0
                    for ox in range(-half, block - half):
                        sx = min(max(x + ox, 0), w - 1)
                        row += err_at(sy, sx, dy, dx)
                    cost += row
                if cost < best:
                    best = cost
                    best_d = (dx, dy)
            out[y, x] = best_d
    return out


def _fail_if_called(*args, **kwargs):
    raise AssertionError("called")


def test_estimate_flow_identity():
    rng = np.random.default_rng(0)
    img = rng.random((12, 14, 3))
    fl = flow.estimate_flow(img, img, block=5, search=3)
    assert np.array_equal(fl, np.zeros((12, 14, 2)))


def test_estimate_flow_translation_interior():
    rng = np.random.default_rng(1)
    wide = rng.random((20, 40, 3))
    src = wide[:, 0:20]
    dst = wide[:, 3:23]  # dst is src shifted left: content moves -3 in x
    fl = flow.estimate_flow(src, dst, block=7, search=4)
    interior = fl[6:-6, 6:-6]
    assert np.all(interior[:, :, 0] == -3)
    assert np.all(interior[:, :, 1] == 0)


def test_estimate_flow_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        flow.estimate_flow(np.zeros((4, 4)), np.zeros((5, 4)), 7, 4)


@pytest.mark.parametrize("block", [3, 10**6], ids=["small", "over budget"])
def test_mixed_uint8_and_float_pair_is_refused_before_any_buffer(monkeypatch, block):
    # codes 0-255 matched against values 0-1 would give flows, not an
    # error; the pair is refused before the plane check and any matching
    rng = np.random.default_rng(32)
    codes = rng.integers(0, 256, (8, 8, 3)).astype(np.uint8)
    monkeypatch.setattr(flow, "_match", _fail_if_called)
    for src, dst in ((codes, codes / 255), (codes / 255, codes)):
        with pytest.raises(ValueError, match=f"dtype mismatch: {src.dtype} vs {dst.dtype}"):
            flow.estimate_flow(src, dst, block, 2)


def test_estimate_flow_matches_oracle():
    rng = np.random.default_rng(2)
    for _ in range(3):
        src = rng.random((7, 8))
        dst = rng.random((7, 8))
        got = flow.estimate_flow(src, dst, block=3, search=2)
        want = estimate_flow_oracle(src, dst, block=3, search=2)
        assert np.array_equal(got, want)


@st.composite
def _flow_cases(draw):
    h = draw(st.integers(1, 12))
    w = draw(st.integers(1, 12))
    shape = (h, w) if draw(st.booleans()) else (h, w, 3)
    # few levels, so equal block costs (ties) are common
    levels = draw(st.integers(1, 4))
    cells = st.integers(0, levels)
    n = int(np.prod(shape))
    src = np.array(draw(st.lists(cells, min_size=n, max_size=n))).reshape(shape) / 4
    dst = np.array(draw(st.lists(cells, min_size=n, max_size=n))).reshape(shape) / 4
    return src, dst, draw(st.integers(1, 9)), draw(st.integers(0, 6))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_flow_cases())
def test_estimate_flow_matches_oracle_property(case):
    # block and search may exceed the frame, so clamping covers whole patches
    src, dst, block, search = case
    got = flow.estimate_flow(src, dst, block=block, search=search)
    want = estimate_flow_oracle(src, dst, block=block, search=search)
    assert np.array_equal(got, want)


def test_estimate_flow_matches_oracle_across_candidate_groups(monkeypatch):
    # the smallest search whose candidates span two or more groups of the
    # kernel's budget with a partial last group; few levels, so equal costs
    # fall on both sides of a group boundary
    h = w = 12
    block = 3
    for search in range(1, 20):
        W = max(w + 2 * search, w + block - 1)
        S = (h + block - 1) * W  # one candidate's flat segment
        k = (2 * search + 1) ** 2
        group = max(1, flow.GROUP_BUDGET // S)
        if k > group and k % group:
            break
    assert k > group and k % group
    rng = np.random.default_rng(14)
    src = rng.integers(0, 2, (h, w)) / 4
    dst = rng.integers(0, 2, (h, w)) / 4
    want = estimate_flow_oracle(src, dst, block=block, search=search)
    for budget in (flow.GROUP_BUDGET, S, 3 * S, 1):
        monkeypatch.setattr(flow, "GROUP_BUDGET", budget)
        assert np.array_equal(flow.estimate_flow(src, dst, block=block, search=search), want)


def _matched_dtypes(monkeypatch):
    """The dtypes estimate_flow's costs are computed in, one per later call."""
    dtypes, match = [], flow._match

    def spy(src, dst, block, search):
        dtypes.append(src.dtype)
        return match(src, dst, block, search)

    monkeypatch.setattr(flow, "_match", spy)
    return dtypes


@st.composite
def _eight_bit_cases(draw):
    h = draw(st.integers(1, 12))
    w = draw(st.integers(1, 12))
    shape = (h, w) if draw(st.booleans()) else (h, w, 3)
    # a few codes from the whole 8-bit range, so ties and flat regions are
    # common and squared errors reach 255**2
    levels = draw(st.lists(st.integers(0, 255), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src, dst = (rng.choice(levels, shape).astype(np.uint8) for _ in range(2))
    # one group, one candidate per group, or a few per group
    budget = draw(st.sampled_from([flow.GROUP_BUDGET, 1, 2000]))
    return src, dst, draw(st.integers(1, 15)), draw(st.integers(0, 6)), budget


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_eight_bit_cases())
def test_estimate_flow_on_eight_bit_frames_is_exact(case):
    # block and search may exceed the frame, so clamping covers whole patches
    src, dst, block, search, budget = case
    want = estimate_flow_exact(src, dst, block, search)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "GROUP_BUDGET", budget)
        dtypes = _matched_dtypes(mp)
        assert np.array_equal(flow.estimate_flow(src, dst, block, search), want)
    assert dtypes == [np.int32]


@pytest.mark.parametrize(
    "shape, block, dtype",
    [
        ((2, 3, 3), 104, np.int32),
        ((2, 3, 3), 105, np.float64),
        ((3, 2), 181, np.int32),
        ((3, 2), 182, np.float64),
    ],
)
def test_estimate_flow_int32_bound(monkeypatch, shape, block, dtype):
    # costs are int32 while block**2 * channels * 255**2 < 2**31; codes 0 and
    # 255 take them to the bound, and above it the codes are matched in
    # float64, which holds their costs exactly too
    rng = np.random.default_rng(block)
    src, dst = (rng.choice([0, 255], shape).astype(np.uint8) for _ in range(2))
    dtypes = _matched_dtypes(monkeypatch)
    want = estimate_flow_exact(src, dst, block, 1)
    assert np.array_equal(flow.estimate_flow(src, dst, block, 1), want)
    assert dtypes == [dtype]


@pytest.mark.parametrize("block", [9, 10])
def test_estimate_flow_key_width_bound(monkeypatch, block):
    # the int32 kernel packs cost << 7 | rank for search 4's 81 candidates,
    # in int32 keys while block**2 * 3 * 255**2 << 7 < 2**31 (block 9) and
    # int64 above (block 10). dst is mostly src's inverse, so many costs
    # come near the bound, where an int32 key at block 10 would wrap
    assert (9 * 9 * 3 * 255**2) << 7 < 2**31 <= (10 * 10 * 3 * 255**2) << 7
    rng = np.random.default_rng(block)
    src = rng.choice([0, 255], (5, 6, 3)).astype(np.uint8)
    dst = np.where(rng.random((5, 6, 1)) < 0.2, src, 255 - src).astype(np.uint8)
    dtypes = _matched_dtypes(monkeypatch)
    want = estimate_flow_exact(src, dst, block, 4)
    assert np.array_equal(flow.estimate_flow(src, dst, block, 4), want)
    assert dtypes == [np.int32]


def test_bank_and_estimate_flow_give_one_flow_per_eight_bit_pair(monkeypatch):
    # a bank of uint8 frames and estimate_flow on them agree with the exact
    # reference through reads, drops and re-reads, every match in int32. The
    # frames' float k/255 twins are float frames like any other: matched on
    # their values in float64, as the float oracle matches them
    rng = np.random.default_rng(27)
    codes = [rng.choice([0, 1, 2, 128, 255], (9, 11, 3)).astype(np.uint8) for _ in range(4)]
    twins = [c / 255 for c in codes]
    pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
    want = {}
    for i, j in pairs:
        want[(i, j)] = estimate_flow_exact(codes[i], codes[j], 5, 2)
        assert np.array_equal(flow.estimate_flow(codes[i], codes[j], 5, 2), want[(i, j)])
    dtypes = _matched_dtypes(monkeypatch)
    bank = pipeline.FlowBank(FrameSequence(codes), 5, 2)
    for i, j in pairs + pairs[::-1]:
        assert np.array_equal(bank.flow_of(i, j), want[(i, j)])
        bank.conf_of(i, j)
        bank.drop(i, j)
    # each read estimates both directions once: 48 matches
    assert dtypes == [np.int32] * 48
    bank = pipeline.FlowBank(FrameSequence(twins), 5, 2)
    for i, j in pairs[:3]:
        assert np.array_equal(bank.flow_of(i, j), estimate_flow_oracle(twins[i], twins[j], 5, 2))
    assert dtypes[48:] == [np.float64] * 3


def _matched_searches(monkeypatch):
    """The search radius estimate_flow's kernel runs at, one per later call."""
    searches, match = [], flow._match

    def spy(src, dst, block, search):
        searches.append(search)
        return match(src, dst, block, search)

    monkeypatch.setattr(flow, "_match", spy)
    return searches


@pytest.mark.parametrize("eight_bit", [True, False], ids=["8-bit", "float"])
@pytest.mark.parametrize("shape, block", [((1, 1), 1), ((3, 5, 3), 3), ((6, 2), 5), ((2, 3), 7)])
def test_search_is_capped_with_the_same_flow(monkeypatch, eight_bit, shape, block):
    # a displacement of more than max(h, w) - 1 reads only clamped border
    # pixels, so it costs what a nearer candidate tried first costs; four
    # levels make such equal costs common
    rng = np.random.default_rng(sum(shape) + block)
    src, dst = (rng.choice([0, 85, 170, 255], shape).astype(np.uint8) for _ in range(2))
    uncapped = estimate_flow_exact
    if not eight_bit:
        src, dst, uncapped = src / 255 + 0.25, dst / 255 + 0.25, estimate_flow_oracle
    cap = max(shape[:2]) - 1
    searches = _matched_searches(monkeypatch)
    want = flow.estimate_flow(src, dst, block, cap)
    for search in (cap + 1, cap + 3, cap + 7):
        assert np.array_equal(uncapped(src, dst, block, search), want)
        assert np.array_equal(flow.estimate_flow(src, dst, block, search), want)
    assert searches == [cap] * 4


def test_huge_search_runs_at_the_cap(monkeypatch):
    rng = np.random.default_rng(29)
    src, dst = (rng.integers(0, 256, (8, 8, 3)).astype(np.uint8) for _ in range(2))
    searches = _matched_searches(monkeypatch)
    got = flow.estimate_flow(src, dst, 3, 10**6)
    assert np.array_equal(got, flow.estimate_flow(src, dst, 3, 7))
    assert searches == [7, 7]


def _plane(h, w, block, search):
    """Values in estimate_flow's taller plane, with search already capped."""
    return max(h + block - 1, h + 2 * search + 1) * max(w + 2 * search, w + block - 1)


@pytest.mark.parametrize("block, search", [(9, 0), (3, 4), (1, 10**6)], ids=["block", "search", "capped"])
@pytest.mark.parametrize("eight_bit", [True, False], ids=["uint8", "float"])
def test_planes_over_the_budget_are_refused_before_any_buffer(monkeypatch, block, search, eight_bit):
    rng = np.random.default_rng(31)
    src, dst = (rng.integers(0, 256, (6, 5, 3)).astype(np.uint8) for _ in range(2))
    if not eight_bit:
        src, dst = src / 255, dst / 255
    want = flow.estimate_flow(src, dst, block, search)
    plane = _plane(6, 5, block, min(search, 5))
    matched = _matched_searches(monkeypatch)
    monkeypatch.setattr(flow, "PLANE_BUDGET", plane)
    assert np.array_equal(flow.estimate_flow(src, dst, block, search), want)
    assert len(matched) == 1
    monkeypatch.setattr(flow, "PLANE_BUDGET", plane - 1)
    with pytest.raises(ValueError, match=f"need planes of {plane} values, over flow.PLANE_BUDGET"):
        flow.estimate_flow(src, dst, block, search)
    assert len(matched) == 1


def test_default_budget_admits_large_frames_at_default_settings():
    block, search = pipeline.RestoreConfig.flow_block, pipeline.RestoreConfig.flow_search
    assert _plane(2160, 3840, block, search) <= flow.PLANE_BUDGET  # 4K UHD
    # and test_estimate_flow_int32_bound's thin frames at blocks up to 182
    assert max(_plane(3, 2, 182, 1), _plane(2, 3, 182, 1)) < 34_000


@pytest.mark.parametrize("off_grid", ["nudged", "above 1", "nan"])
def test_off_grid_frames_take_the_float_path(monkeypatch, off_grid):
    rng = np.random.default_rng(28)
    src = rng.integers(0, 3, (7, 8, 3)) / 255
    dst = rng.integers(0, 3, (7, 8, 3)) / 255
    src[3, 4, 1] = {"nudged": src[3, 4, 1] + 1e-9, "above 1": 256 / 255, "nan": np.nan}[off_grid]
    dtypes = _matched_dtypes(monkeypatch)
    got = flow.estimate_flow(src, dst, 3, 2)
    assert dtypes == [np.float64]
    assert np.array_equal(got, estimate_flow_oracle(src, dst, 3, 2))
    if off_grid == "nudged":  # a bank matches the pair on its float frames
        bank = pipeline.FlowBank(FrameSequence([src, dst]), 3, 2)
        assert np.array_equal(bank.flow_of(0, 1), got)
        assert dtypes == [np.float64, np.float64]


# (frames, size, block, search, pairs) of the golden digests: the benchmark's
# demo24 and ablate8 flow settings on the seed-0 demo LQ clip
GOLDEN_CASES = {
    "64x64-b7-s4": (
        24, 64, 7, 4,
        [(1, 0), (0, 1), (2, 0), (0, 2), (5, 4), (4, 6),
         (12, 11), (11, 12), (23, 22), (21, 23), (8, 15), (15, 8)],
    ),
    "32x32-b5-s2": (
        8, 32, 5, 2,
        [(1, 0), (0, 1), (2, 0), (0, 2), (3, 2), (2, 4),
         (5, 4), (4, 5), (7, 6), (5, 7), (0, 7), (7, 0)],
    ),
}


def _golden_flows(tmp_path, case):
    # the seed-0 demo LQ clip as the benchmark reads it back from disk, so
    # its 8-bit frames take estimate_flow's exact integer path; block
    # matching and bilinear sampling use no BLAS, so these outputs are the
    # same on any IEEE host
    n, size, block, search, pairs = GOLDEN_CASES[case]
    hq = cli.make_demo_video(n=n, h=size, w=size, seed=0)
    mediaio.write_frames(cli.degrade_video(hq, scale=4, noise_std=0.08, seed=0), str(tmp_path))
    frames = mediaio.read_frames(str(tmp_path)).frames
    flows = [flow.estimate_flow(frames[i], frames[j], block, search) for i, j in pairs]
    return [mediaio.float_frame(f) for f in frames], pairs, flows


def _sha(arrays):
    sha = hashlib.sha256()
    for a in arrays:
        sha.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize(
    "case, digest",
    [
        ("64x64-b7-s4", "bf41020b6f8d513ede9e6d12756e02cc2dc72601981c512fda7e35a29611a950"),
        ("32x32-b5-s2", "b067e1e461d36d6128988e0773c4d7e694d316473f580d6641140654d844fbcb"),
    ],
    ids=list(GOLDEN_CASES),
)
def test_estimate_flow_golden_digest(tmp_path, case, digest):
    _, _, flows = _golden_flows(tmp_path, case)
    assert _sha(flows) == digest


def _sampling_outputs(frames, pairs, flows):
    size = frames[0].shape[0]
    q = size // 4
    for k, (_, j) in enumerate(pairs):
        fl, bwd = flows[k], flows[k ^ 1]
        conf = flow.fb_confidence(fl, bwd)
        mask = flow.occlusion_mask(conf, 0.5)
        yield conf
        yield flow.warp(frames[j], fl)
        yield flow.warp(frames[j][:, :, 1], 0.5 * fl)
        for h2, w2 in ((q, q), (size // 8, size // 2), (size, size), (size + 3, q + 1)):
            yield flow.bilinear_resample(frames[j], h2, w2)
            yield flow.bilinear_resample(conf, h2, w2)
            yield flow.resample_flow(fl, h2, w2)
            yield flow.resample_mask(mask, h2, w2)
        # the latent path: warp a downsampled frame by its resampled flow,
        # then upsample back to frame size
        small = flow.bilinear_resample(frames[j], q, q)
        warped = flow.warp(small, flow.resample_flow(0.5 * fl, q, q))
        yield warped
        yield flow.bilinear_resample(warped, size, size)


@pytest.mark.parametrize(
    "case, digest",
    [
        ("64x64-b7-s4", "5a6e08629b0243bfcd80339a7d76f5e7c7ff848a87fdc9c36c9b4b48b64b2003"),
        ("32x32-b5-s2", "a33b28c0a563d1c00b92b3342066e3502923ba454f455a5bf8f81684d02e4de0"),
    ],
    ids=list(GOLDEN_CASES),
)
def test_sampling_golden_digest(tmp_path, case, digest):
    # warp, bilinear_resample, resample_flow, resample_mask and fb_confidence
    # on the golden flows, the pairs taken two by two as forward/backward
    frames, pairs, flows = _golden_flows(tmp_path, case)
    assert _sha(_sampling_outputs(frames, pairs, flows)) == digest


def test_warp_zero_flow_identity():
    rng = np.random.default_rng(3)
    img = rng.random((6, 7, 3))
    assert np.allclose(flow.warp(img, np.zeros((6, 7, 2))), img)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 10),
    st.integers(1, 10),
    st.sampled_from([None, 1, 3]),
    st.integers(0, 2**32 - 1),
    st.floats(1e-3, 1e6),
)
def test_warp_zero_flow_identity_property(h, w, c, seed, scale):
    rng = np.random.default_rng(seed)
    img = scale * rng.standard_normal((h, w) if c is None else (h, w, c))
    assert np.array_equal(flow.warp(img, np.zeros((h, w, 2))), img)


def test_warp_matches_oracle():
    rng = np.random.default_rng(4)
    for _ in range(5):
        img = rng.random((6, 6, 3))
        fl = rng.uniform(-3, 3, (6, 6, 2))
        assert np.array_equal(flow.warp(img, fl), warp_oracle(img, fl))


@st.composite
def _sampling_cases(draw):
    # frames up to 10x10, 2-D or 1-4 channels, flows reaching past every
    # border, and non-contiguous grids and flows
    h = draw(st.integers(1, 10))
    w = draw(st.integers(1, 10))
    c = draw(st.sampled_from([None, 1, 2, 3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (w, h) if c is None else (w, h, c)
    grid = rng.standard_normal(shape)
    grid = grid.swapaxes(0, 1) if draw(st.booleans()) else grid.reshape((h, w) + shape[2:])
    fl = np.stack(
        [rng.uniform(-2 * w, 2 * w, (h, w)), rng.uniform(-2 * h, 2 * h, (h, w))], axis=2
    )
    if draw(st.booleans()):
        fl = np.round(fl * 2) / 2  # land on pixel centres, halves and the borders
    if draw(st.booleans()):
        fl = fl[:, ::-1]
    return grid, fl, draw(st.integers(1, 12)), draw(st.integers(1, 12))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_sampling_cases())
def test_warp_and_resample_match_oracles_property(case):
    grid, fl, h2, w2 = case
    assert np.array_equal(flow.warp(grid, fl), warp_oracle(grid, fl))
    assert np.array_equal(
        flow.bilinear_resample(grid, h2, w2), bilinear_resample_oracle(grid, h2, w2)
    )


def test_sampling_caches_are_read_only():
    flow.warp(np.zeros((5, 6, 3)), np.zeros((5, 6, 2)))
    flow.bilinear_resample(np.zeros((5, 6)), 3, 9)
    for a in (*flow._pixel_grid(5, 6), *flow._resample_taps(5, 6, 3, 9)):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 1


def test_sampling_results_share_no_memory_with_caches():
    # a caller writing into a result must not change what later calls return
    rng = np.random.default_rng(15)
    for grid in (rng.random((5, 6)), rng.random((5, 6, 3))):
        fl = rng.uniform(-3, 3, (5, 6, 2))
        calls = [
            lambda: flow.warp(grid, fl),
            lambda: flow.warp(grid, np.zeros((5, 6, 2))),
            lambda: flow.bilinear_resample(grid, 5, 6),
            lambda: flow.bilinear_resample(grid, 3, 9),
            lambda: flow.resample_flow(fl, 3, 9),
        ]
        cached = [
            *flow._pixel_grid(5, 6),
            *flow._resample_taps(5, 6, 5, 6),
            *flow._resample_taps(5, 6, 3, 9),
        ]
        for call in calls:
            out = call()
            want = out.copy()
            assert not any(np.shares_memory(out, a) for a in (grid, fl, *cached))
            out[...] = 7.0
            assert np.array_equal(call(), want)


def test_sampling_results_do_not_pin_the_gather_buffer():
    # the 4 gathered neighbours are 4x a result's size; a result that is a
    # view of them keeps all 4 alive
    rng = np.random.default_rng(16)
    small, grid = rng.random((16, 16, 3)), rng.random((64, 64, 3))
    fl = rng.uniform(-3, 3, (64, 64, 2))
    for call in (lambda: flow.bilinear_resample(small, 64, 64), lambda: flow.warp(grid, fl)):
        call()  # fills the coordinate and tap caches
        tracemalloc.start()
        try:
            out = call()
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.shape == (64, 64, 3) and live < 2 * out.nbytes


def test_warp_2d_grid():
    rng = np.random.default_rng(5)
    img = rng.random((5, 5))
    fl = rng.uniform(-2, 2, (5, 5, 2))
    got = flow.warp(img, fl)
    assert got.shape == (5, 5)
    assert np.allclose(got, warp_oracle(img, fl))


def test_warp_is_linear_in_grid():
    rng = np.random.default_rng(6)
    x = rng.random((6, 6, 3))
    y = rng.random((6, 6, 3))
    fl = rng.uniform(-2, 2, (6, 6, 2))
    lhs = flow.warp(2.0 * x + 3.0 * y, fl)
    rhs = 2.0 * flow.warp(x, fl) + 3.0 * flow.warp(y, fl)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_fb_confidence_consistent_flows():
    f = np.full((4, 4, 2), 1.5)
    assert np.allclose(flow.fb_confidence(f, -f), 1.0)


def test_fb_confidence_unit_residual():
    # zero forward flow, backward flow (1, 0): residual norm exactly 1
    f_fwd = np.zeros((3, 3, 2))
    f_bwd = np.zeros((3, 3, 2))
    f_bwd[:, :, 0] = 1.0
    sigma = flow.fb_confidence(f_fwd, f_bwd)
    assert np.allclose(sigma, math.exp(-1.0), atol=1e-12)


def test_fb_confidence_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(5):
        f_fwd = rng.uniform(-2, 2, (6, 6, 2))
        f_bwd = rng.uniform(-2, 2, (6, 6, 2))
        got = flow.fb_confidence(f_fwd, f_bwd)
        want = fb_confidence_oracle(f_fwd, f_bwd)
        assert np.abs(got - want).max() < 1e-6


def test_occlusion_mask_polarity_and_threshold():
    f_fwd = np.zeros((3, 3, 2))
    f_bwd = np.zeros((3, 3, 2))
    conf = flow.fb_confidence(f_fwd, f_bwd)
    assert np.array_equal(flow.occlusion_mask(conf, 0.9), np.zeros((3, 3)))
    f_bwd[:, :, 0] = 1.0  # residual norm 1 -> sigma = e^-1 < 0.5
    conf = flow.fb_confidence(f_fwd, f_bwd)
    assert np.array_equal(flow.occlusion_mask(conf, 0.5), np.ones((3, 3)))
    for tau in (0.0, 1.5):
        with pytest.raises(ValueError, match="tau_occ"):
            flow.occlusion_mask(conf, tau)


def test_occlusion_mask_matches_thresholded_confidence():
    rng = np.random.default_rng(8)
    f_fwd = rng.uniform(-2, 2, (6, 6, 2))
    f_bwd = rng.uniform(-2, 2, (6, 6, 2))
    sigma = fb_confidence_oracle(f_fwd, f_bwd)
    mask = flow.occlusion_mask(flow.fb_confidence(f_fwd, f_bwd), 0.368)
    assert np.array_equal(mask, (sigma < 0.368).astype(float))


def test_occlusion_mask_monotone_in_tau():
    rng = np.random.default_rng(9)
    f_fwd = rng.uniform(-2, 2, (8, 8, 2))
    f_bwd = rng.uniform(-2, 2, (8, 8, 2))
    conf = flow.fb_confidence(f_fwd, f_bwd)
    m_lo = flow.occlusion_mask(conf, 0.2)
    m_hi = flow.occlusion_mask(conf, 0.8)
    assert np.all(m_hi >= m_lo)


def test_bilinear_resample_same_size_identity():
    rng = np.random.default_rng(10)
    img = rng.random((7, 9, 3))
    assert np.array_equal(flow.bilinear_resample(img, 7, 9), img)


def test_resample_flow_constant_field_halved():
    fl = np.zeros((8, 8, 2))
    fl[:, :, 0] = 4.0
    fl[:, :, 1] = 2.0
    out = flow.resample_flow(fl, 4, 4)
    assert np.allclose(out[:, :, 0], 2.0)
    assert np.allclose(out[:, :, 1], 1.0)


def test_resample_flow_same_size_identity():
    rng = np.random.default_rng(11)
    fl = rng.uniform(-3, 3, (6, 6, 2))
    assert np.allclose(flow.resample_flow(fl.copy(), 6, 6), fl)


def test_resample_down_up_bounded_by_local_variation():
    rng = np.random.default_rng(12)
    fl = rng.uniform(-1, 1, (16, 16, 2))
    down = flow.resample_flow(fl.copy(), 8, 8)
    up = flow.resample_flow(down, 16, 16)
    # local Lipschitz bound: 2px of travel times the max neighbor gradient
    gy = np.abs(np.diff(fl, axis=0)).max()
    gx = np.abs(np.diff(fl, axis=1)).max()
    bound = 2.0 * (gx + gy) + 1e-9
    assert np.abs(up[4:-4, 4:-4] - fl[4:-4, 4:-4]).max() <= bound


def test_resample_mask_preserves_binary():
    rng = np.random.default_rng(13)
    mask = (rng.random((10, 10)) < 0.4).astype(float)
    out = flow.resample_mask(mask, 5, 7)
    assert out.shape == (5, 7)
    assert set(np.unique(out)) <= {0.0, 1.0}

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import select_top_r_lexsort
from zsvr import tokenmerge as tm
from zsvr.tokenmerge import (
    INVALID,
    MergeMode,
    TokenChunk,
    anneal_ratio,
)


def random_chunk(rng, b=None, h=None, w=None, c=None, target=None):
    b = b if b is not None else int(rng.integers(2, 5))
    h = h if h is not None else int(rng.integers(1, 5))
    w = w if w is not None else int(rng.integers(1, 5))
    c = c if c is not None else int(rng.integers(1, 6))
    tokens = rng.standard_normal((b, h * w, c))
    target = target if target is not None else int(rng.integers(0, b))
    return TokenChunk(tokens=tokens, layout=(h, w), content=(h, w)), target


# ---------------------------------------------------------------- anneal


def test_anneal_before_ramp():
    p = dict(r=0.8, delta=1.0, i_beg=10, i_end=20)
    assert anneal_ratio(0, **p) == 0.8
    assert anneal_ratio(10, **p) == 0.8


def test_anneal_end_is_zero():
    p = dict(r=0.8, delta=1.0, i_beg=10, i_end=20)
    assert anneal_ratio(20, **p) == 0.0
    assert anneal_ratio(25, **p) == 0.0


def test_anneal_midpoint():
    p = dict(r=0.8, delta=1.0, i_beg=0, i_end=10)
    assert anneal_ratio(5, **p) == pytest.approx(0.8 * math.cos(math.pi / 4), abs=1e-12)


def test_anneal_non_increasing_and_bounded():
    p = dict(r=0.6, delta=1.7, i_beg=3, i_end=29)
    vals = [anneal_ratio(i, **p) for i in range(40)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 0.6 for v in vals)


# ---------------------------------------------------------------- split


def test_split_b2_a1():
    chunk = TokenChunk(
        tokens=np.arange(6, dtype=float).reshape(2, 1, 3),
        layout=(1, 1),
        content=(1, 1),
    )
    src, tar, slots = tm.split_src_tar(chunk.tokens, 0)
    assert src.shape == (1, 3) and tar.shape == (1, 3)
    assert np.array_equal(tar, chunk.tokens[0])
    assert np.array_equal(src, chunk.tokens[1])
    assert list(slots) == [1]


def test_split_frame_order_skips_target():
    rng = np.random.default_rng(0)
    chunk, target = random_chunk(rng, b=3, h=2, w=2, c=5, target=1)
    src, tar, slots = tm.split_src_tar(chunk.tokens, target)
    assert src.shape == (8, 5)
    assert np.array_equal(src[:4], chunk.tokens[0])
    assert np.array_equal(src[4:], chunk.tokens[2])
    assert list(slots) == [0, 1, 2, 3, 8, 9, 10, 11]


def test_split_roundtrip_via_slot_map():
    rng = np.random.default_rng(1)
    for _ in range(20):
        chunk, target = random_chunk(rng)
        b, a, c = chunk.tokens.shape
        src, tar, slots = tm.split_src_tar(chunk.tokens, target)
        rebuilt = np.empty((b * a, c))
        rebuilt[slots] = src
        tb = target * a
        rebuilt[tb : tb + a] = tar
        assert np.array_equal(rebuilt.reshape(b, a, c), chunk.tokens)


def test_split_single_frame_rejected():
    rng = np.random.default_rng(2)
    chunk, _ = random_chunk(rng, b=2)
    with pytest.raises(ValueError, match="nothing to merge"):
        tm.split_src_tar(chunk.tokens[:1], 0)
    for target in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            tm.split_src_tar(chunk.tokens, target)


# ---------------------------------------------------------------- scores


def test_cosine_scores_parallel_and_orthogonal():
    tar = np.array([[1.0, 0.0], [0.0, 2.0]])
    src = np.array([[2.0, 0.0]])
    s = tm.cosine_scores(src, tar)
    assert s[0, 0] == pytest.approx(1.0)
    assert s[0, 1] == pytest.approx(0.0)


def test_cosine_scores_zero_norm_convention():
    src = np.zeros((1, 3))
    tar = np.ones((2, 3))
    assert np.array_equal(tm.cosine_scores(src, tar), np.zeros((1, 2)))


def cosine_scores_oracle(src, tar):
    """The former formula of tm.cosine_scores: separate denominator and output."""
    sn = np.linalg.norm(src, axis=1)
    tn = np.linalg.norm(tar, axis=1)
    dots = src @ tar.T
    denom = sn[:, None] * tn[None, :]
    out = np.zeros_like(dots)
    np.divide(dots, denom, out=out, where=denom > 0)
    return out


@st.composite
def _score_inputs(draw):
    k, a, c = draw(st.integers(1, 12)), draw(st.integers(1, 12)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # signed zeros give -0.0 dots; 1e-200 norms multiply to a zero denominator
    levels = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-200, -1e-200])
    src, tar = (
        rng.choice(levels, (n, c)) if draw(st.booleans()) else rng.standard_normal((n, c))
        for n in (k, a)
    )
    for x in (src, tar):
        x[rng.random(len(x)) < 0.3] = draw(st.sampled_from([0.0, -0.0]))
    return src, tar


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_score_inputs())
def test_cosine_scores_equals_former_formula_property(case):
    src, tar = case
    want = cosine_scores_oracle(src, tar)
    for got in (
        tm.cosine_scores(src, tar),
        tm.cosine_scores(src, tar, np.linalg.norm(tar, axis=1)),
    ):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_cosine_scores_matches_oracle():
    rng = np.random.default_rng(3)
    src = rng.standard_normal((3, 4))
    tar = rng.standard_normal((5, 4))
    got = tm.cosine_scores(src, tar)
    for i in range(3):
        for j in range(5):
            want = np.dot(src[i], tar[j]) / (
                np.linalg.norm(src[i]) * np.linalg.norm(tar[j])
            )
            assert abs(got[i, j] - want) <= 1e-6


# ---------------------------------------------------------------- spatial weight


def test_spatial_weight_boundaries():
    s = np.ones((1, 3))
    R = 4.0
    src_pos = np.array([[0.0, 0.0]])
    # distances^2: 0, exactly R, 2.5 R
    tar_pos = np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 1.0]])
    out = tm.spatial_weight(s, src_pos, tar_pos, R)
    assert out[0, 0] == 1.0
    assert out[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert out[0, 2] == pytest.approx(math.exp(-2.0), abs=1e-15)


def test_spatial_weight_rejects_bad_R():
    with pytest.raises(ValueError):
        tm.spatial_weight(np.ones((1, 1)), np.zeros((1, 2)), np.zeros((1, 2)), 0.0)


def test_spatial_table_equals_spatial_weight_bit_for_bit():
    # the in-place build takes squared offsets per axis; spatial_weight
    # takes them per (x, y) pair and sums over the pair
    grids = [(1, 1), (2, 3), (4, 4), (5, 7), (8, 8), (9, 11), (16, 16), (22, 22), (32, 32)]
    for h, w in grids:
        pos = tm.grid_positions(h, w)
        ones = np.ones((h * w, h * w))
        for R in (0.5, 1.0, 3.0, 4.0, 7.3, math.inf, 1e-300, 1e300):
            table = tm.spatial_table.__wrapped__(h, w, R)  # uncached: 8 MB at 32x32
            assert not table.flags.writeable
            assert np.array_equal(table, tm.spatial_weight(ones, pos, pos, R)), (h, w, R)


def test_spatial_table_builds_without_pair_temporaries():
    # the (256, 256) table is 0.5 MB; a build through (A, A, 2)
    # temporaries peaks at about 2.5 MB
    tracemalloc.start()
    try:
        table = tm.spatial_table.__wrapped__(16, 16, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == 2**19 and peak < 2**20


def test_spatial_table_rejects_bad_R():
    with pytest.raises(ValueError):
        tm.spatial_table.__wrapped__(2, 2, 0.0)


def test_spatial_table_refuses_grids_over_its_budget_before_allocating(monkeypatch):
    # 129x128 is the first grid past the 2**28 values of a 128x128 table
    tracemalloc.start()
    try:
        for h, w in ((129, 128), (128, 129), (1, 16385), (256, 256), (1024, 1024)):
            with pytest.raises(ValueError, match=f"a {h}x{w} token grid has {(h * w) ** 2} values"):
                tm.spatial_table.__wrapped__(h, w, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    # the bound itself, on small grids: at most TABLE_BUDGET values
    monkeypatch.setattr(tm, "TABLE_BUDGET", 36)
    assert tm.spatial_table.__wrapped__(2, 3, 4.0).shape == (6, 6)
    for h, w in ((1, 7), (7, 1), (3, 3)):
        with pytest.raises(ValueError, match="TABLE_BUDGET = 36"):
            tm.spatial_table.__wrapped__(h, w, 4.0)


# ---------------------------------------------------------------- correspondence


def test_cosine_correspondence_basic_and_ties():
    t, c = tm.cosine_correspondence(np.array([[0.1, 0.9, 0.3]]))
    assert t[0] == 1 and c[0] == pytest.approx(0.9)
    t, c = tm.cosine_correspondence(np.array([[0.5, 0.5, 0.5]]))
    assert t[0] == 0


def test_cosine_correspondence_matches_oracle():
    rng = np.random.default_rng(4)
    scores = rng.random((10, 6))
    targets, criteria = tm.cosine_correspondence(scores)
    for i in range(10):
        best_j, best = 0, -np.inf
        for j in range(6):
            if scores[i, j] > best:
                best, best_j = scores[i, j], j
        assert targets[i] == best_j
        assert criteria[i] == pytest.approx(best)


def test_flow_correspondence_zero_flow():
    h, w = 3, 4
    flows = [np.zeros((h, w, 2))]
    confs = [np.ones((h, w))]
    targets, criteria = tm.flow_correspondence(h, w, flows, confs)
    assert np.array_equal(targets, np.arange(h * w))
    assert np.all(criteria == 1.0)


def test_flow_correspondence_unit_shift_bounds():
    h = w = 2
    fl = np.zeros((h, w, 2))
    fl[:, :, 0] = 1.0
    conf = np.full((h, w), 0.7)
    targets, criteria = tm.flow_correspondence(h, w, [fl], [conf])
    # row-major grid: left column maps one cell right, right column leaves
    assert list(targets) == [1, INVALID, 3, INVALID]
    assert list(criteria) == [0.7, 0.0, 0.7, 0.0]


def test_flow_correspondence_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        h, w = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        nf = int(rng.integers(1, 4))
        flows = [rng.integers(-3, 4, (h, w, 2)).astype(float) for _ in range(nf)]
        confs = [rng.random((h, w)) for _ in range(nf)]
        targets, criteria = tm.flow_correspondence(h, w, flows, confs)
        row = 0
        for f in range(nf):
            for y in range(h):
                for x in range(w):
                    tx = int(math.floor(x + flows[f][y, x, 0] + 0.5))
                    ty = int(math.floor(y + flows[f][y, x, 1] + 0.5))
                    if 0 <= tx < w and 0 <= ty < h:
                        assert targets[row] == ty * w + tx
                        assert criteria[row] == pytest.approx(confs[f][y, x])
                    else:
                        assert targets[row] == INVALID
                        assert criteria[row] == 0.0
                    row += 1


def test_flow_correspondence_missing_flow():
    with pytest.raises(ValueError, match="one confidence per flow"):
        tm.flow_correspondence(2, 2, [np.zeros((2, 2, 2))], [np.ones((2, 2))] * 2)


def test_flow_correspondence_wrong_grid():
    with pytest.raises(ValueError, match="expected"):
        tm.flow_correspondence(2, 2, [np.zeros((2, 3, 2))], [np.ones((2, 3))])
    with pytest.raises(ValueError):
        tm.flow_correspondence(
            2, 2, [np.zeros((2, 2, 2)), np.zeros((2, 3, 2))], [np.ones((2, 2))] * 2
        )


# ---------------------------------------------------------------- selection


def test_select_top_r_degenerate():
    targets = np.array([0, 1, 2])
    criteria = np.array([0.5, 0.6, 0.7])
    assert len(tm.select_top_r(targets, criteria, 0.0)) == 0
    assert list(tm.select_top_r(targets, criteria, 1.0)) == [0, 1, 2]


def test_select_top_r_tie_by_index():
    targets = np.zeros(3, dtype=int)
    criteria = np.array([0.9, 0.5, 0.9])
    assert list(tm.select_top_r(targets, criteria, 2 / 3)) == [0, 2]


def test_select_top_r_skips_invalid():
    targets = np.array([INVALID, 0, INVALID, 1])
    criteria = np.array([9.0, 0.1, 9.0, 0.2])
    sel = tm.select_top_r(targets, criteria, 1.0)
    assert list(sel) == [1, 3]


def test_select_top_r_monotone_in_r():
    rng = np.random.default_rng(6)
    targets = rng.integers(0, 4, 20)
    targets[rng.random(20) < 0.2] = INVALID
    criteria = rng.random(20)
    sizes = [len(tm.select_top_r(targets, criteria, r)) for r in np.linspace(0, 1, 11)]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))


def test_select_top_r_matches_lexsort_reference():
    # ties, +-0.0, NaN and INVALID targets, at r_i of 0 and 1, k at or above
    # the valid count, and all targets INVALID
    rng = np.random.default_rng(26)
    pools = ([0.0, -0.0, 0.5], [1.0, 2.0], [0.0, np.nan, 1.0, -np.inf, np.inf], None)
    for case in range(600):
        n = int(rng.integers(0, 40))
        targets = rng.integers(INVALID, 4, n)
        if case % 10 == 0:
            targets[:] = INVALID
        pool = pools[case % len(pools)]
        criteria = rng.random(n) if pool is None else rng.choice(pool, n)
        n_valid = int((targets != INVALID).sum())
        for r_i in (0.0, 1.0, rng.random(), n_valid / max(n, 1), 1 / max(n, 1)):
            got = tm.select_top_r(targets, criteria, r_i)
            want = select_top_r_lexsort(targets, criteria, r_i)
            assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(
            st.integers(INVALID, 5),
            st.floats(-1e6, 1e6, allow_nan=False),
        ),
        max_size=40,
    ),
    st.floats(0.0, 1.0),
)
def test_select_top_r_never_selects_invalid_property(pairs, r_i):
    # INVALID pairs may carry any criterion, the largest included
    targets = np.array([t for t, _ in pairs], dtype=np.int64)
    criteria = np.array([c for _, c in pairs], dtype=np.float64)
    sel = tm.select_top_r(targets, criteria, r_i)
    assert np.all(targets[sel] != INVALID)
    n_valid = int((targets != INVALID).sum())
    assert len(sel) == min(math.floor(r_i * len(targets)), n_valid)
    assert np.array_equal(sel, np.unique(sel))


# ---------------------------------------------------------------- merge / unmerge


def _merge_from_chunk(chunk, target, r_i, rng):
    src, tar, slots = tm.split_src_tar(chunk.tokens, target)
    scores = tm.cosine_scores(src, tar)
    targets, criteria = tm.cosine_correspondence(scores)
    selected = tm.select_top_r(targets, criteria, r_i)
    b = chunk.tokens.shape[0]
    return (
        tm.merge(src, tar, targets, selected, slots, target, b),
        (src, tar, targets, selected, slots),
    )


def merge_oracle(src, tar, targets, selected, src_slots, target_index, n_frames):
    """Loop reference for tm.merge: merged rows and each row's slot group."""
    a = tar.shape[0]
    tar_base = target_index * a
    assigned = [[] for _ in range(a)]
    for i in selected:
        assigned[targets[i]].append(int(i))

    rows = []
    groups = []
    for j in range(a):
        members = [tar_base + j] + [int(src_slots[i]) for i in assigned[j]]
        if assigned[j]:
            stack = np.vstack([tar[j][None, :], src[assigned[j]]])
            rows.append(stack.mean(axis=0))
        else:
            rows.append(tar[j])
        groups.append(np.asarray(members, dtype=np.int64))
    selected_set = set(int(i) for i in selected)
    for i in range(src.shape[0]):
        if i not in selected_set:
            rows.append(src[i])
            groups.append(np.asarray([int(src_slots[i])], dtype=np.int64))
    return np.vstack(rows), groups


def unmerge_oracle(attended, groups, n_frames, n_tokens):
    """Loop reference for tm.unmerge."""
    out = np.empty((n_frames * n_tokens, attended.shape[1]), dtype=attended.dtype)
    for row, slots in enumerate(groups):
        out[slots] = attended[row]
    return out.reshape(n_frames, n_tokens, attended.shape[1])


@st.composite
def _merge_cases(draw):
    b = draw(st.integers(2, 5))
    h = draw(st.integers(1, 8))
    w = draw(st.integers(1, 8))
    c = draw(st.integers(1, 17))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # few levels make equal scores (ties) and large groups common
    levels = draw(st.integers(0, 3))
    if levels:
        tokens = rng.integers(-levels, levels + 1, (b, h * w, c)) / levels
    else:
        tokens = rng.standard_normal((b, h * w, c))
    chunk = TokenChunk(tokens, (h, w), (h, w))
    target = draw(st.integers(0, b - 1))
    mode = draw(st.sampled_from(list(MergeMode)))
    flows = [rng.integers(-2, 3, (h, w, 2)).astype(float) for _ in range(b - 1)]
    confs = [rng.integers(0, 4, (h, w)) / 3 for _ in range(b - 1)]
    R = draw(st.one_of(st.floats(0.25, 64.0), st.just(math.inf)))
    r_i = draw(st.floats(0.0, 1.0))
    return chunk, target, mode, flows, confs, R, r_i


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_merge_cases())
def test_merge_unmerge_match_oracle_property(case):
    chunk, target, mode, flows, confs, R, r_i = case
    b, a, c = chunk.tokens.shape
    h, w = chunk.layout
    src, tar, slots = tm.split_src_tar(chunk.tokens, target)
    scores = tm.cosine_scores(src, tar)
    pos = tm.grid_positions(h, w)
    weighted = (scores.reshape(b - 1, a, a) * tm.spatial_table(h, w, R)).reshape(-1, a)
    assert np.array_equal(weighted, tm.spatial_weight(scores, np.tile(pos, (b - 1, 1)), pos, R))
    if mode is MergeMode.COSINE_UP:
        targets, criteria = tm.cosine_correspondence(weighted)
    else:
        targets, criteria = tm.flow_correspondence(h, w, flows, confs)
    selected = tm.select_top_r(targets, criteria, r_i)
    args = (src, tar, targets, selected, slots, target, b)
    merged, slot_to_row = tm.merge(*args)
    want, groups = merge_oracle(*args)

    assert slot_to_row.max() + 1 == len(groups) == merged.shape[0]
    for row, group in enumerate(groups):
        assert np.array_equal(np.flatnonzero(slot_to_row == row), np.sort(group))
    if c > 1:
        assert np.array_equal(merged, want)
    else:
        # numpy's mean over a single column sums pairwise, not in source order
        size = np.bincount(slot_to_row)[:, None]
        assert np.all(np.abs(merged - want) <= 2 * size * np.finfo(float).eps * np.abs(src).max())

    # distinct rows, so any slot sent to the wrong row shows
    attended = np.arange(merged.size, dtype=float).reshape(merged.shape)
    want = unmerge_oracle(attended, groups, b, a).reshape(-1, c)
    assert np.array_equal(tm.unmerge(attended, slot_to_row), want)

    # merge then unmerge (identity attention) keeps the partition: the slots of
    # one row share its value, and a slot alone in its row comes back unchanged
    out = tm.unmerge(merged, slot_to_row)
    assert np.array_equal(out, merged[slot_to_row])
    alone = np.bincount(slot_to_row)[slot_to_row] == 1
    assert np.array_equal(out[alone], chunk.tokens.reshape(-1, c)[alone])

    # the whole pass fed these flow matches composes the same stages
    if mode is MergeMode.FLOW_DOWN:
        matches = (targets, criteria)
        got = tm.hybrid_merge_pass(chunk, target, lambda t: t, r_i, matches=matches)
        assert np.array_equal(got, out.reshape(chunk.tokens.shape))


def test_merge_empty_set_passthrough():
    rng = np.random.default_rng(7)
    chunk, target = random_chunk(rng, b=3, h=2, w=2, c=4, target=0)
    (merged, _), (src, tar, *_) = _merge_from_chunk(chunk, target, 0.0, rng)
    a = tar.shape[0]
    assert merged.shape == (a + src.shape[0], 4)
    assert np.array_equal(merged[:a], tar)
    assert np.array_equal(merged[a:], src)


def test_merge_identical_source_means_exact():
    tar = np.array([[2.0, 4.0]])
    src = np.array([[2.0, 4.0]])
    targets = np.array([0])
    merged, _ = tm.merge(src, tar, targets, np.array([0]), np.array([1]), 0, 2)
    assert merged.shape == (1, 2)
    assert np.array_equal(merged[0], tar[0])


def test_merge_group_means_match_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        chunk, target = random_chunk(rng)
        r_i = float(rng.random())
        (merged, slot_to_row), (src, tar, targets, selected, slots) = _merge_from_chunk(
            chunk, target, r_i, rng
        )
        flat = chunk.tokens.reshape(-1, chunk.tokens.shape[2])
        merged_count = merged.shape[0]
        for row in range(merged_count):
            group = np.flatnonzero(slot_to_row == row)
            want = flat[group].mean(axis=0)
            assert np.abs(merged[row] - want).max() <= 1e-6
        # the rows partition the slot set exactly: one row per slot, every row hit
        assert slot_to_row.shape == (flat.shape[0],)
        assert slot_to_row.min() >= 0
        assert slot_to_row.max() < merged_count
        assert len(np.unique(slot_to_row)) == merged_count


def test_unmerge_group_constancy_and_shape():
    rng = np.random.default_rng(9)
    for _ in range(20):
        chunk, target = random_chunk(rng)
        (merged, slot_to_row), _ = _merge_from_chunk(chunk, target, float(rng.random()), rng)
        attended = rng.standard_normal(merged.shape)
        flat = tm.unmerge(attended, slot_to_row)
        b, a, c = chunk.tokens.shape
        assert flat.shape == (b * a, c)
        for row in range(merged.shape[0]):
            group = np.flatnonzero(slot_to_row == row)
            assert np.array_equal(flat[group], np.tile(attended[row], (len(group), 1)))


def test_unmerge_rejects_length_mismatch():
    rng = np.random.default_rng(10)
    chunk, target = random_chunk(rng, b=2, h=2, w=2, c=3)
    (merged, slot_to_row), _ = _merge_from_chunk(chunk, target, 0.5, rng)
    with pytest.raises(ValueError, match="rows"):
        tm.unmerge(merged[:-1], slot_to_row)


def test_merge_all_sources_into_targets_roundtrip():
    # identical frames: every source merges into a same-valued target
    rng = np.random.default_rng(11)
    frame = rng.standard_normal((1, 4, 3))
    chunk = TokenChunk(np.repeat(frame, 2, axis=0), (2, 2), (2, 2))
    (merged, slot_to_row), _ = _merge_from_chunk(chunk, 0, 1.0, rng)
    out = tm.unmerge(merged, slot_to_row)
    assert np.abs(out - chunk.tokens.reshape(out.shape)).max() <= 1e-12


# ---------------------------------------------------------------- padding


def test_strip_padding_identity_when_unpadded():
    rng = np.random.default_rng(12)
    chunk, _ = random_chunk(rng, h=3, w=3)
    stripped = tm.strip_padding(chunk)
    assert np.array_equal(stripped, chunk.tokens)
    assert np.shares_memory(stripped, chunk.tokens)


def test_strip_padding_counts():
    rng = np.random.default_rng(13)
    tokens = rng.standard_normal((2, 16, 3))
    chunk = TokenChunk(tokens, (4, 4), (3, 4))
    stripped = tm.strip_padding(chunk)
    assert stripped.shape == (2, 12, 3)
    assert np.array_equal(stripped, tokens.reshape(2, 4, 4, 3)[:, :3].reshape(2, 12, 3))


def test_padding_roundtrip_bit_exact():
    rng = np.random.default_rng(14)
    for _ in range(10):
        h_tok, w_tok = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        h_img = int(rng.integers(1, h_tok + 1))
        w_img = int(rng.integers(1, w_tok + 1))
        tokens = rng.standard_normal((3, h_tok * w_tok, 4))
        chunk = TokenChunk(tokens, (h_tok, w_tok), (h_img, w_img))
        back = tm.restore_padding(chunk, tm.strip_padding(chunk))
        assert np.array_equal(back, chunk.tokens)
        assert not np.shares_memory(back, chunk.tokens)


def test_restore_padding_unpadded_returns_content_without_aliasing():
    rng = np.random.default_rng(20)
    chunk, _ = random_chunk(rng, b=3, h=4, w=5, c=2)
    for content in (rng.standard_normal(chunk.tokens.shape), chunk.tokens[::-1]):
        want = chunk.tokens.copy()
        want.reshape(3, 4, 5, 2)[...] = content.reshape(3, 4, 5, 2)
        got = tm.restore_padding(chunk, content)
        assert np.array_equal(got, want)
        assert not np.shares_memory(got, chunk.tokens)


def test_restore_padding_rejects_wrong_layout():
    rng = np.random.default_rng(15)
    chunk = TokenChunk(rng.standard_normal((2, 16, 3)), (4, 4), (3, 3))
    with pytest.raises(ValueError, match="do not match"):
        tm.restore_padding(chunk, rng.standard_normal((2, 4, 3)))


# ---------------------------------------------------------------- full pass


def test_hybrid_pass_r_zero_identity():
    rng = np.random.default_rng(16)
    chunk, target = random_chunk(rng, b=3, h=3, w=3, c=4)
    out = tm.hybrid_merge_pass(chunk, target, lambda t: t, 0.0, R=4.0)
    assert np.array_equal(out, chunk.tokens)


def test_hybrid_pass_identical_frames_identity():
    rng = np.random.default_rng(17)
    frame = rng.standard_normal((1, 9, 4))
    chunk = TokenChunk(np.repeat(frame, 2, axis=0), (3, 3), (3, 3))
    out = tm.hybrid_merge_pass(chunk, 0, lambda t: t, 1.0, R=4.0)
    assert np.abs(out - chunk.tokens).max() <= 1e-12


def test_hybrid_pass_matches_composed_oracle():
    rng = np.random.default_rng(18)
    # the last two split each source frame into several score row blocks:
    # serial_rows(256, 16) = 64, and serial_rows(144, 40) = 45, which leaves
    # a short last block
    shapes = [dict(c=4)] * 10 + [dict(b=3, h=16, w=16, c=16), dict(b=4, h=12, w=12, c=40)]
    for shape in shapes:
        chunk, target = random_chunk(rng, **shape)
        r_i = float(rng.random())
        out = tm.hybrid_merge_pass(chunk, target, lambda t: t, r_i, R=4.0)
        # compose the stages by hand
        stripped = tm.strip_padding(chunk)
        src, tar, slots = tm.split_src_tar(stripped, target)
        h, w = chunk.content
        pos = tm.grid_positions(h, w)
        b = stripped.shape[0]
        scores = tm.spatial_weight(
            tm.cosine_scores(src, tar), np.tile(pos, (b - 1, 1)), pos, 4.0
        )
        targets, criteria = tm.cosine_correspondence(scores)
        selected = tm.select_top_r(targets, criteria, r_i)
        merged, slot_to_row = tm.merge(src, tar, targets, selected, slots, target, b)
        want = tm.unmerge(merged, slot_to_row)
        assert np.array_equal(out, want.reshape(chunk.tokens.shape))


def test_flow_pass_matches_composed_oracle():
    # padded chunks: matches live on the content grid, padding passes through
    rng = np.random.default_rng(23)
    for b, (h, w), layout in [(2, (3, 3), (3, 3)), (3, (3, 2), (4, 4)), (4, (5, 4), (6, 5))]:
        tokens = rng.standard_normal((b, layout[0] * layout[1], 6))
        chunk, target = TokenChunk(tokens, layout, (h, w)), int(rng.integers(0, b))
        flows = [rng.uniform(-2, 2, (h, w, 2)) for _ in range(b - 1)]
        confs = [rng.random((h, w)) for _ in range(b - 1)]
        targets, criteria = tm.flow_correspondence(h, w, flows, confs)
        r_i = float(rng.random())
        out = tm.hybrid_merge_pass(chunk, target, lambda t: t, r_i, matches=(targets, criteria))
        stripped = tm.strip_padding(chunk)
        src, tar, slots = tm.split_src_tar(stripped, target)
        selected = tm.select_top_r(targets, criteria, r_i)
        merged, slot_to_row = tm.merge(src, tar, targets, selected, slots, target, b)
        want = tm.restore_padding(chunk, tm.unmerge(merged, slot_to_row).reshape(stripped.shape))
        assert np.array_equal(out, want)


def test_cosine_pass_memory_is_bounded():
    # 8 frames of 16x16 tokens: the 7 source frames' whole (7*256, 256) score
    # array would be 3.7 MB, and a whole-array pass made three such arrays
    chunk, target = random_chunk(np.random.default_rng(21), b=8, h=16, w=16, c=16)
    tm.spatial_table(16, 16, 4.0)  # cached across passes, so not one pass's cost
    tracemalloc.start()
    try:
        tm.hybrid_merge_pass(chunk, target, lambda t: t, 0.5, R=4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_cosine_pass_with_precomputed_norms_is_bit_identical(monkeypatch):
    # the pass computes the target and source norms once and passes them to
    # every cosine_scores call; recomputing them in each call gives the
    # same bits
    rng = np.random.default_rng(23)
    chunks = [random_chunk(rng, b=8, h=16, w=16, c=16), random_chunk(rng, b=3, h=5, w=7, c=4)]
    tokens = chunks[1][0].tokens
    tokens[:, ::3] = 0.0  # zero-norm targets and sources score 0
    cosine_scores = tm.cosine_scores
    given_norms = []

    def without_norms(src, tar, tar_norms=None, src_norms=None):
        given_norms.append(tar_norms is not None and src_norms is not None)
        return cosine_scores(src, tar)

    for chunk, target in chunks:
        want = tm.hybrid_merge_pass(chunk, target, lambda t: t, 0.7, R=4.0)
        monkeypatch.setattr(tm, "cosine_scores", without_norms)
        got = tm.hybrid_merge_pass(chunk, target, lambda t: t, 0.7, R=4.0)
        monkeypatch.setattr(tm, "cosine_scores", cosine_scores)
        assert np.array_equal(got, want)
    assert given_norms and all(given_norms)


def test_hybrid_pass_takes_exactly_one_of_R_and_matches():
    # matches makes the pass flow-guided and R makes it cosine; both or
    # neither names no correspondence
    rng = np.random.default_rng(19)
    chunk, target = random_chunk(rng, b=3, h=4, w=4, c=4)
    matches = tm.flow_correspondence(4, 4, [np.zeros((4, 4, 2))] * 2, [np.ones((4, 4))] * 2)
    for kwargs in ({}, dict(R=4.0, matches=matches)):
        with pytest.raises(ValueError, match="exactly one of R"):
            tm.hybrid_merge_pass(chunk, target, lambda t: t, 0.5, **kwargs)


def test_hybrid_pass_shape_preserved_flow_mode():
    rng = np.random.default_rng(20)
    chunk, target = random_chunk(rng, b=3, h=4, w=4, c=4)
    flows = [rng.uniform(-1, 1, (4, 4, 2)) for _ in range(2)]
    confs = [rng.random((4, 4)) for _ in range(2)]
    matches = tm.flow_correspondence(4, 4, flows, confs)
    out = tm.hybrid_merge_pass(chunk, target, lambda t: t, 0.6, matches=matches)
    assert out.shape == chunk.tokens.shape


def test_hybrid_pass_rejects_matches_of_another_source_count():
    # (B-1)*A = 2*16 source tokens; matches made for one or three source frames
    rng = np.random.default_rng(24)
    chunk, target = random_chunk(rng, b=3, h=4, w=4, c=4)
    for n_frames in (1, 3):
        flows = [np.zeros((4, 4, 2))] * n_frames
        matches = tm.flow_correspondence(4, 4, flows, [np.ones((4, 4))] * n_frames)
        with pytest.raises(ValueError, match="32"):
            tm.hybrid_merge_pass(chunk, target, lambda t: t, 0.5, matches=matches)


def test_hybrid_pass_padding_never_merged_with_content():
    rng = np.random.default_rng(21)
    tokens = rng.standard_normal((2, 16, 3))
    pad_marker = 99.0
    grid = tokens.reshape(2, 4, 4, 3)
    grid[:, 3, :, :] = pad_marker
    grid[:, :, 3, :] = pad_marker
    chunk = TokenChunk(grid.reshape(2, 16, 3), (4, 4), (3, 3))
    out = tm.hybrid_merge_pass(chunk, 0, lambda t: t, 1.0, R=4.0)
    out_grid = out.reshape(2, 4, 4, 3)
    assert np.all(out_grid[:, 3, :, :] == pad_marker)
    assert np.all(out_grid[:, :, 3, :] == pad_marker)
    # content region must not have absorbed the marker value
    assert not np.any(out_grid[:, :3, :3, :] == pad_marker)


def test_hybrid_pass_rejects_shape_changing_attention():
    rng = np.random.default_rng(22)
    chunk, target = random_chunk(rng, b=3, h=2, w=2, c=3)
    with pytest.raises(ValueError, match="shape"):
        tm.hybrid_merge_pass(chunk, target, lambda t: t[:-1], 0.0, R=4.0)

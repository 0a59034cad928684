"""Hybrid flow-guided, spatial-aware token merging around self-attention.

Tokens live in chunks of shape (B, A, C): B frames, A = h_tok * w_tok tokens
per frame in row-major layout, C channels. The caller names one frame of the
chunk, by its target_index, as the target (keyframe); the other B-1 frames
supply (B-1)*A source tokens. Sources are matched to target tokens either by
cosine similarity (optionally weighted by spatial distance) or by optical
flow with forward-backward confidence as the ranking criterion. The top
fraction r of sources is merged into its targets before self-attention and
unmerged afterwards, padding tokens are excluded from the whole process, and
r is annealed toward zero late in denoising.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

INVALID = -1

# OpenBLAS's default gemm threading threshold: a product of at most
# 4 x 65536 multiply-adds runs on one thread, so its bits do not depend on
# the BLAS thread count.
BLAS_SERIAL_MADDS = 262144

# Most values a spatial_table may hold, (h*w)**2 float64 values for an (h, w)
# content grid: 2 GiB at this bound, a 128x128 grid (512x512 frames at
# latent_scale 4); a 160x120 grid (640x480 frames) would need 2.7 GiB.
TABLE_BUDGET = 2**28


def serial_rows(n_cols: int, inner: int) -> int:
    """Rows of a block whose (rows, inner) @ (inner, n_cols) product OpenBLAS
    never threads: max(1, BLAS_SERIAL_MADDS // (n_cols * inner)). The block
    height is part of the output contract, since the bits depend on it."""
    return max(1, BLAS_SERIAL_MADDS // (n_cols * inner))


class MergeMode(enum.Enum):
    FLOW_DOWN = "flow"
    COSINE_UP = "cosine"


@dataclass
class TokenChunk:
    """Batched attention tokens with spatial layout, checked on construction.

    layout is the padded token grid (h_tok, w_tok); content is the unpadded
    extent (h_img, w_img), anchored top-left.
    """

    tokens: np.ndarray  # (B, A, C)
    layout: tuple[int, int]
    content: tuple[int, int]

    def __post_init__(self):
        if self.tokens.ndim != 3:
            raise ValueError(f"tokens must be (B, A, C), got {self.tokens.shape}")
        a = self.tokens.shape[1]
        if a != self.layout[0] * self.layout[1]:
            raise ValueError(f"A={a} does not match layout {self.layout}")
        if not (self.content[0] <= self.layout[0] and self.content[1] <= self.layout[1]):
            raise ValueError(f"content {self.content} exceeds layout {self.layout}")
        if not np.isfinite(self.tokens).all():
            raise ValueError("tokens must be finite")


def anneal_ratio(i: int, r: float, delta: float, i_beg: int, i_end: int) -> float:
    """Merge ratio at denoising step i: r * cos(pi/2 * clamped ramp).

    The ramp is delta * (i - i_beg) / (i_end - i_beg); RestoreConfig checks
    the arguments when it is made. Exactly 0 once the ramp reaches 1, where
    the cosine would leave ~1e-17.
    """
    ramp = delta * (i - i_beg) / (i_end - i_beg)
    ramp = min(max(ramp, 0.0), 1.0)
    if ramp == 1.0:
        return 0.0
    return r * math.cos(0.5 * math.pi * ramp)


def split_src_tar(tokens: np.ndarray, target_index: int):
    """Split (B, A, C) tokens into source and target tokens.

    Returns (src, tar, src_slots): src is ((B-1)*A, C) in frame order skipping
    the target frame, tar is the (A, C) target frame (a view of tokens), and
    src_slots[i] is the flat slot (frame * A + position) of source row i.
    """
    b, a, c = tokens.shape
    if b < 2:
        raise ValueError("nothing to merge: fewer than 2 frames")
    if not 0 <= target_index < b:
        raise ValueError(f"target_index {target_index} out of range [0,{b})")
    src = np.delete(tokens, target_index, axis=0).reshape(-1, c)
    src_slots = np.delete(np.arange(b * a).reshape(b, a), target_index, axis=0).ravel()
    return src, tokens[target_index], src_slots


def cosine_scores(
    src: np.ndarray,
    tar: np.ndarray,
    tar_norms: np.ndarray | None = None,
    src_norms: np.ndarray | None = None,
) -> np.ndarray:
    """Pairwise cosine similarity; zero-norm vectors score 0 against everything.

    tar_norms and src_norms, if given, must be np.linalg.norm(tar, axis=1)
    and np.linalg.norm(src, axis=1); a caller that scores many source blocks
    against one tar computes both once, as a row's norm does not depend on
    the rows beside it.
    """
    sn = np.linalg.norm(src, axis=1) if src_norms is None else src_norms
    tn = np.linalg.norm(tar, axis=1) if tar_norms is None else tar_norms
    dots = src @ tar.T
    denom = sn[:, None] * tn
    if sn.size and tn.size and sn.min() * tn.min() > 0:
        # every denominator is at least this product, so none is zero
        dots /= denom
        return dots
    nonzero = denom > 0
    np.divide(dots, denom, out=dots, where=nonzero)
    dots[~nonzero] = 0.0
    return dots


def grid_positions(h: int, w: int) -> np.ndarray:
    """(h*w, 2) array of (x, y) token-grid coordinates in row-major order."""
    ys, xs = np.mgrid[0:h, 0:w]
    return np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)


def spatial_weight(
    scores: np.ndarray, src_pos: np.ndarray, tar_pos: np.ndarray, R: float
) -> np.ndarray:
    """Down-weight scores by spatial distance: s' = s * exp(-floor(d^2 / R)).

    Positions are token-grid (x, y) coordinates on the frame plane; the frame
    offset is ignored, only spatial position matters.
    """
    if not R > 0:
        raise ValueError(f"R must be > 0, got {R}")
    d2 = ((src_pos[:, None, :] - tar_pos[None, :, :]) ** 2).sum(axis=2)
    tau = np.floor(d2 / R)
    return scores * np.exp(-tau)


def spatial_table(h: int, w: int, R: float) -> np.ndarray:
    """Read-only (A, A) spatial weights between the cells of an (h, w) grid.

    Entry [i, j] is the factor spatial_weight applies to a source at cell i
    scored against the target at cell j; every source frame shares the table.
    It is built in place from the (w, w) and (h, h) squared offsets, with no
    (A, A, 2) temporary; the squared distances are small integers, so it
    equals spatial_weight(np.ones((A, A)), pos, pos, R) bit for bit. At
    R = inf, any grid's table is one 1.0 broadcast to (A, A); any other
    table over TABLE_BUDGET values is refused before anything is allocated.
    """
    if not R > 0:
        raise ValueError(f"R must be > 0, got {R}")
    if R == math.inf:
        return np.broadcast_to(1.0, (h * w, h * w))
    if (h * w) ** 2 > TABLE_BUDGET:
        raise ValueError(
            f"the spatial table of a {h}x{w} token grid has {(h * w) ** 2} values, over "
            f"tokenmerge.TABLE_BUDGET = {TABLE_BUDGET}: raise latent_scale or merge by flow only"
        )
    xs, ys = np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64)
    dx2 = np.subtract.outer(xs, xs) ** 2
    dy2 = np.subtract.outer(ys, ys) ** 2
    table = np.empty((h * w, h * w))
    np.add(dx2[None, :, None, :], dy2[:, None, :, None], out=table.reshape(h, w, h, w))
    table /= R
    np.floor(table, out=table)
    np.negative(table, out=table)
    np.exp(table, out=table)
    table.setflags(write=False)
    return table


def cosine_correspondence(scores: np.ndarray):
    """Per source row: (argmax target index, max score); ties to smallest index."""
    targets = np.argmax(scores, axis=1).astype(np.int64, copy=False)
    criteria = scores[np.arange(scores.shape[0]), targets]
    return targets, criteria.astype(np.float64, copy=False)


def flow_correspondence(h: int, w: int, flows: list[np.ndarray], confidences: list[np.ndarray]):
    """Flow-guided correspondence on an (h, w) token grid.

    flows[f] is the (h, w, 2) displacement field from source frame f toward
    the target frame in token units; confidences[f] the matching (h, w)
    forward-backward confidence. A source token at grid position X maps to
    target cell round(X + flow(X)) with criterion sigma(X); displaced
    positions outside the grid are INVALID with criterion 0. Returns
    (targets, criteria), one entry per source token in frame order, as
    hybrid_merge_pass takes them as matches.
    """
    if len(flows) != len(confidences):
        raise ValueError(f"need one confidence per flow, got {len(flows)} and {len(confidences)}")
    fl = np.stack(flows)
    if fl.shape[1:3] != (h, w):
        raise ValueError(f"flows have shape {fl.shape[1:3]}, expected {(h, w)}")
    ys, xs = np.mgrid[0:h, 0:w]
    tx = np.floor(xs + fl[..., 0] + 0.5).astype(np.int64)
    ty = np.floor(ys + fl[..., 1] + 0.5).astype(np.int64)
    inside = (tx >= 0) & (tx < w) & (ty >= 0) & (ty < h)
    targets = np.where(inside, ty * w + tx, INVALID)
    criteria = np.where(inside, np.stack(confidences), 0.0)
    return targets.ravel(), criteria.ravel().astype(np.float64)


def select_top_r(targets: np.ndarray, criteria: np.ndarray, r_i: float) -> np.ndarray:
    """Indices of the floor(r_i * N) valid pairs with the largest criterion.

    Ties go to the smaller source index; INVALID pairs are never selected,
    and a NaN criterion ranks below every number. The result is in source
    order. In O(N): np.partition finds the k-th largest valid criterion,
    every larger one is selected, and the pairs equal to it fill the rest
    in source order, as a sort by (descending criterion, index) would.
    """
    if not 0.0 <= r_i <= 1.0:
        raise ValueError(f"r_i must be in [0, 1], got {r_i}")
    n = len(targets)
    k = math.floor(r_i * n)
    valid = np.flatnonzero(targets != INVALID)
    if k == 0 or len(valid) == 0:
        return np.empty(0, dtype=np.int64)
    if k >= len(valid):
        return valid
    # negated, as the sort was: NaN sorts last either way, and -0.0 == 0.0
    neg = -criteria[valid]
    kth = np.partition(neg, k - 1)[k - 1]
    if kth == kth:
        chosen, ties = neg < kth, neg == kth
    else:
        ties = np.isnan(neg)
        chosen = ~ties
    chosen[np.flatnonzero(ties)[: k - np.count_nonzero(chosen)]] = True
    return valid[chosen]


def merge(
    src: np.ndarray,
    tar: np.ndarray,
    targets: np.ndarray,
    selected: np.ndarray,
    src_slots: np.ndarray,
    target_index: int,
    n_frames: int,
):
    """Merge selected sources into their targets; returns (merged, slot_to_row).

    Each target's merged token is the arithmetic mean of the target and its
    assigned sources, added in the order of selected (source order, as
    select_top_r returns it sorted); unselected sources pass through
    unchanged. Rows of merged: the A targets first (by index), then the
    surviving sources (by slot index). slot_to_row[frame * A + position], a
    (B*A,) int64 array, is the row that holds that slot's value. Every row is
    hit at least once, so the rows partition the B*A slots.
    """
    a, c = tar.shape
    into = targets[selected]
    sums = tar.copy()
    # one flat index per added value, in the order of selected, so each sum
    # adds its terms in the same order as row-wise np.add.at, and faster
    flat = (into[:, None] * c + np.arange(c)).reshape(-1)
    np.add.at(sums.reshape(-1), flat, src[selected].reshape(-1))
    sums /= (np.bincount(into, minlength=a) + 1)[:, None]
    kept = np.ones(src.shape[0], dtype=bool)
    kept[selected] = False
    n_kept = int(kept.sum())

    slot_to_row = np.empty(n_frames * a, dtype=np.int64)
    slot_to_row[target_index * a : (target_index + 1) * a] = np.arange(a)
    slot_to_row[src_slots[selected]] = into
    slot_to_row[src_slots[kept]] = np.arange(a, a + n_kept)
    return np.concatenate([sums, src[kept]]), slot_to_row


def unmerge(attended: np.ndarray, slot_to_row: np.ndarray) -> np.ndarray:
    """Write each merged row's post-attention value back to all its slots.

    Returns the (B*A, C) slot array. The merge had slot_to_row.max() + 1
    rows, since every row holds at least one slot.
    """
    rows = int(slot_to_row.max()) + 1
    if attended.shape[0] != rows:
        raise ValueError(f"attended has {attended.shape[0]} rows, slot_to_row expects {rows}")
    return attended[slot_to_row]


def strip_padding(chunk: TokenChunk) -> np.ndarray:
    """The (B, h_img * w_img, C) content tokens of a chunk.

    A view of chunk.tokens when nothing is padded, else a copy.
    """
    h_img, w_img = chunk.content
    b, _, c = chunk.tokens.shape
    grid = chunk.tokens.reshape(b, *chunk.layout, c)
    return grid[:, :h_img, :w_img, :].reshape(b, h_img * w_img, c)


def restore_padding(chunk: TokenChunk, content_tokens: np.ndarray) -> np.ndarray:
    """chunk.tokens with its content region set to content_tokens.

    The result never shares memory with chunk.tokens. When nothing is
    padded it is content_tokens reshaped, with no copy, unless
    content_tokens is itself a view of chunk.tokens.
    """
    h_img, w_img = chunk.content
    b, _, c = chunk.tokens.shape
    if content_tokens.shape != (b, h_img * w_img, c):
        raise ValueError(
            f"content tokens {content_tokens.shape} do not match the chunk's "
            f"content {(b, h_img * w_img, c)}"
        )
    if chunk.content == chunk.layout and not np.may_share_memory(content_tokens, chunk.tokens):
        return content_tokens.astype(chunk.tokens.dtype, copy=False).reshape(chunk.tokens.shape)
    full = chunk.tokens.copy()
    grid = full.reshape(b, *chunk.layout, c)
    grid[:, :h_img, :w_img, :] = content_tokens.reshape(b, h_img, w_img, c)
    return full


def hybrid_merge_pass(
    chunk: TokenChunk,
    target_index: int,
    attention,
    r_i: float,
    table: np.ndarray | None = None,
    matches: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Full merge pipeline around one attention call; returns (B, A, C) tokens.

    strip padding -> split -> correspondence -> select top r_i -> merge ->
    attention over the merged tokens -> unmerge -> restore padding, with
    frame target_index of the chunk as the target; output shape equals
    input shape. Exactly one of matches and table is given, each made once
    by the caller for all its passes on the content token grid. matches
    makes the pass flow-guided: the (targets, criteria) of the (B-1)*A
    source tokens, as flow_correspondence returns them for a batch's fixed
    flows. table makes it spatially weighted cosine: every source frame's
    scores are weighted by the content grid's spatial_table. They are
    computed per source frame in blocks of serial_rows(A, C) source rows, so
    no (B-1)*A x A array is made and no score product is threaded by the
    BLAS; the target's and the sources' norms are computed once per pass.
    """
    if (table is None) == (matches is None):
        raise ValueError("give exactly one of table (cosine) and matches (flow-guided)")

    tokens = strip_padding(chunk)
    b = tokens.shape[0]
    src, tar, src_slots = split_src_tar(tokens, target_index)

    if matches is not None:
        targets, criteria = matches
        if len(targets) != len(src):
            raise ValueError(f"matches for {len(targets)} source tokens, the chunk has {len(src)}")
    else:
        a = len(tar)
        rows = serial_rows(a, src.shape[1])
        tar_norms = np.linalg.norm(tar, axis=1)
        src_norms = np.linalg.norm(src, axis=1)
        targets = np.empty(len(src), dtype=np.int64)
        criteria = np.empty(len(src))
        for f0 in range(0, len(src), a):
            for r0 in range(0, a, rows):
                r1 = min(r0 + rows, a)
                s0, s1 = f0 + r0, f0 + r1
                scores = cosine_scores(src[s0:s1], tar, tar_norms, src_norms[s0:s1])
                scores *= table[r0:r1]
                targets[s0:s1], criteria[s0:s1] = cosine_correspondence(scores)

    selected = select_top_r(targets, criteria, r_i)
    merged, slot_to_row = merge(src, tar, targets, selected, src_slots, target_index, b)
    attended = np.asarray(attention(merged))
    if attended.shape != merged.shape:
        raise ValueError(
            f"attention changed shape {merged.shape} -> {attended.shape}"
        )
    return restore_padding(chunk, unmerge(attended, slot_to_row).reshape(tokens.shape))

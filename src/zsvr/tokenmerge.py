"""Hybrid flow-guided, spatial-aware token merging around self-attention.

Tokens live in chunks of shape (B, A, C): B frames, A = h_tok * w_tok tokens
per frame in row-major layout, C channels. One frame of the chunk is the
target (keyframe); the other B-1 frames supply (B-1)*A source tokens. Sources
are matched to target tokens either by cosine similarity (optionally weighted
by spatial distance) or by optical flow with forward-backward confidence as
the ranking criterion. The top fraction r of sources is merged into its
targets before self-attention and unmerged afterwards, padding tokens are
excluded from the whole process, and r is annealed toward zero late in
denoising.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

INVALID = -1


class MergeMode(enum.Enum):
    FLOW_DOWN = "flow"
    COSINE_UP = "cosine"


@dataclass
class TokenChunk:
    """Batched attention tokens with spatial layout.

    layout is the padded token grid (h_tok, w_tok); content is the unpadded
    extent (h_img, w_img), anchored top-left.
    """

    tokens: np.ndarray  # (B, A, C)
    layout: tuple[int, int]
    content: tuple[int, int]
    target_index: int = 0

    def __post_init__(self):
        if self.tokens.ndim != 3:
            raise ValueError(f"tokens must be (B, A, C), got {self.tokens.shape}")
        b, a, _ = self.tokens.shape
        if a != self.layout[0] * self.layout[1]:
            raise ValueError(
                f"A={a} does not match layout {self.layout}"
            )
        if not (self.content[0] <= self.layout[0] and self.content[1] <= self.layout[1]):
            raise ValueError(f"content {self.content} exceeds layout {self.layout}")
        if not 0 <= self.target_index < b:
            raise ValueError(f"target_index {self.target_index} out of range [0,{b})")
        if not np.isfinite(self.tokens).all():
            raise ValueError("tokens must be finite")

    @property
    def shape(self):
        return self.tokens.shape


@dataclass
class AnnealParams:
    """Merge-ratio annealing: base ratio r decays by a cosine ramp."""

    r: float
    delta: float = 1.0
    i_beg: int = 0
    i_end: int = 1

    def __post_init__(self):
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r must be in [0, 1], got {self.r}")
        if self.delta <= 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if self.i_beg >= self.i_end:
            raise ValueError("i_beg must be < i_end")


def anneal_ratio(i: int, p: AnnealParams) -> float:
    """Merge ratio at denoising step i: r * cos(pi/2 * clamped ramp)."""
    ramp = p.delta * (i - p.i_beg) / (p.i_end - p.i_beg)
    ramp = min(max(ramp, 0.0), 1.0)
    return p.r * math.cos(0.5 * math.pi * ramp)


def split_src_tar(chunk: TokenChunk):
    """Split a chunk into source and target tokens.

    Returns (src, tar, src_slots): src is ((B-1)*A, C) in frame order skipping
    the target frame, tar is (A, C), and src_slots[i] is the flat chunk slot
    (frame * A + position) of source row i.
    """
    b, a, _ = chunk.tokens.shape
    if b < 2:
        raise ValueError("nothing to merge: chunk has fewer than 2 frames")
    frames = [f for f in range(b) if f != chunk.target_index]
    src = np.concatenate([chunk.tokens[f] for f in frames], axis=0)
    tar = chunk.tokens[chunk.target_index].copy()
    src_slots = np.concatenate(
        [np.arange(f * a, (f + 1) * a) for f in frames]
    )
    return src, tar, src_slots


def cosine_scores(src: np.ndarray, tar: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity; zero-norm vectors score 0 against everything."""
    sn = np.linalg.norm(src, axis=1)
    tn = np.linalg.norm(tar, axis=1)
    dots = src @ tar.T
    denom = sn[:, None] * tn[None, :]
    out = np.zeros_like(dots)
    np.divide(dots, denom, out=out, where=denom > 0)
    return out


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
    if R <= 0:
        raise ValueError(f"R must be > 0, got {R}")
    d2 = ((src_pos[:, None, :] - tar_pos[None, :, :]) ** 2).sum(axis=2)
    tau = np.floor(d2 / R)
    return scores * np.exp(-tau)


@functools.lru_cache(maxsize=16)
def spatial_table(h: int, w: int, R: float) -> np.ndarray:
    """Read-only (A, A) spatial weights between the cells of an (h, w) grid.

    Entry [i, j] is the factor spatial_weight applies to a source at cell i
    scored against the target at cell j; every source frame shares the table.
    """
    pos = grid_positions(h, w)
    table = spatial_weight(np.ones((h * w, h * w)), pos, pos, R)
    table.setflags(write=False)
    return table


def cosine_correspondence(scores: np.ndarray):
    """Per source row: (argmax target index, max score); ties to smallest index."""
    targets = np.argmax(scores, axis=1).astype(np.int64)
    criteria = scores[np.arange(scores.shape[0]), targets]
    return targets, criteria.astype(np.float64)


def flow_correspondence(
    h: int,
    w: int,
    n_src_frames: int,
    flows: list[np.ndarray],
    confidences: list[np.ndarray],
):
    """Flow-guided correspondence on an (h, w) token grid.

    flows[f] is the (h, w, 2) displacement field from source frame f toward
    the target frame in token units; confidences[f] the matching (h, w)
    forward-backward confidence. A source token at grid position X maps to
    target cell round(X + flow(X)) with criterion sigma(X); displaced
    positions outside the grid are INVALID with criterion 0.
    """
    if len(flows) != n_src_frames or len(confidences) != n_src_frames:
        raise ValueError(
            f"need one flow and confidence per source frame "
            f"({n_src_frames}), got {len(flows)} and {len(confidences)}"
        )
    targets = []
    criteria = []
    ys, xs = np.mgrid[0:h, 0:w]
    for f in range(n_src_frames):
        fl = flows[f]
        if fl.shape[:2] != (h, w):
            raise ValueError(
                f"flow for source frame {f} has shape {fl.shape[:2]}, "
                f"expected {(h, w)}"
            )
        tx = np.floor(xs + fl[:, :, 0] + 0.5).astype(np.int64)
        ty = np.floor(ys + fl[:, :, 1] + 0.5).astype(np.int64)
        inside = (tx >= 0) & (tx < w) & (ty >= 0) & (ty < h)
        tgt = np.where(inside, ty * w + tx, INVALID)
        crit = np.where(inside, confidences[f], 0.0)
        targets.append(tgt.ravel())
        criteria.append(crit.ravel())
    return np.concatenate(targets), np.concatenate(criteria).astype(np.float64)


def select_top_r(targets: np.ndarray, criteria: np.ndarray, r_i: float) -> np.ndarray:
    """Indices of the floor(r_i * N) valid pairs with the largest criterion.

    Ties go to the smaller source index; INVALID pairs are never selected.
    """
    if not 0.0 <= r_i <= 1.0:
        raise ValueError(f"r_i must be in [0, 1], got {r_i}")
    n = len(targets)
    k = math.floor(r_i * n)
    valid = np.flatnonzero(targets != INVALID)
    if k == 0 or len(valid) == 0:
        return np.empty(0, dtype=np.int64)
    order = valid[np.lexsort((valid, -criteria[valid]))]
    return np.sort(order[: min(k, len(valid))])


@dataclass
class MergeRecord:
    """Which merged row represents each chunk slot.

    slot_to_row[frame * A + position] is the row of the merged array that
    holds that slot's value. Rows 0..A-1 are the A targets, each the mean of
    the target token and the sources merged into it; rows A.. are the
    surviving source tokens in slot order. Every row is hit at least once, so
    the rows partition the B*A slots into merged_count groups.
    """

    slot_to_row: np.ndarray  # (B*A,) int64
    n_frames: int
    n_tokens: int  # A
    merged_count: int


def merge(
    src: np.ndarray,
    tar: np.ndarray,
    targets: np.ndarray,
    selected: np.ndarray,
    src_slots: np.ndarray,
    target_index: int,
    n_frames: int,
):
    """Merge selected sources into their targets.

    Each target's merged token is the arithmetic mean of the target and its
    assigned sources, added in the order of selected (source order, as
    select_top_r returns it sorted); unselected sources pass through
    unchanged. Output order: targets first (by index), then surviving sources
    (by slot index).
    """
    a = tar.shape[0]
    into = targets[selected]
    sums = tar.copy()
    np.add.at(sums, into, src[selected])
    sums /= (np.bincount(into, minlength=a) + 1)[:, None]
    kept = np.ones(src.shape[0], dtype=bool)
    kept[selected] = False
    n_kept = int(kept.sum())

    slot_to_row = np.empty(n_frames * a, dtype=np.int64)
    slot_to_row[target_index * a : (target_index + 1) * a] = np.arange(a)
    slot_to_row[src_slots[selected]] = into
    slot_to_row[src_slots[kept]] = np.arange(a, a + n_kept)
    merged = np.concatenate([sums, src[kept]])
    record = MergeRecord(slot_to_row, n_frames=n_frames, n_tokens=a, merged_count=a + n_kept)
    return merged, record


def unmerge(attended: np.ndarray, record: MergeRecord) -> np.ndarray:
    """Write each merged row's post-attention value back to all its slots.

    Returns the reassembled (B, A, C) token array.
    """
    if attended.shape[0] != record.merged_count:
        raise ValueError(
            f"attended has {attended.shape[0]} rows, record expects "
            f"{record.merged_count}"
        )
    b, a, c = record.n_frames, record.n_tokens, attended.shape[1]
    return attended[record.slot_to_row].reshape(b, a, c)


@dataclass
class PadSpec:
    """What strip_padding removed: the original chunk, to restore verbatim."""

    original: np.ndarray  # (B, A, C) full token array
    layout: tuple[int, int]
    content: tuple[int, int]
    target_index: int


def strip_padding(chunk: TokenChunk) -> tuple[TokenChunk, PadSpec]:
    """Drop token rows/columns outside the content extent."""
    h_tok, w_tok = chunk.layout
    h_img, w_img = chunk.content
    b, _, c = chunk.tokens.shape
    grid = chunk.tokens.reshape(b, h_tok, w_tok, c)
    inner = grid[:, :h_img, :w_img, :].reshape(b, h_img * w_img, c)
    spec = PadSpec(
        original=chunk.tokens.copy(),
        layout=chunk.layout,
        content=chunk.content,
        target_index=chunk.target_index,
    )
    stripped = TokenChunk(
        tokens=inner.copy(),
        layout=(h_img, w_img),
        content=(h_img, w_img),
        target_index=chunk.target_index,
    )
    return stripped, spec


def restore_padding(content_chunk: TokenChunk, spec: PadSpec) -> TokenChunk:
    """Reinsert the original padding tokens around the content region."""
    h_tok, w_tok = spec.layout
    h_img, w_img = spec.content
    if content_chunk.layout != (h_img, w_img):
        raise ValueError(
            f"content chunk layout {content_chunk.layout} does not match "
            f"PadSpec content {(h_img, w_img)}"
        )
    b, _, c = spec.original.shape
    if content_chunk.tokens.shape[0] != b or content_chunk.tokens.shape[2] != c:
        raise ValueError("content chunk is inconsistent with PadSpec")
    full = spec.original.copy().reshape(b, h_tok, w_tok, c)
    full[:, :h_img, :w_img, :] = content_chunk.tokens.reshape(b, h_img, w_img, c)
    return TokenChunk(
        tokens=full.reshape(b, h_tok * w_tok, c),
        layout=spec.layout,
        content=spec.content,
        target_index=spec.target_index,
    )


def hybrid_merge_pass(
    chunk: TokenChunk,
    mode: MergeMode,
    attention,
    r_i: float,
    R: float | None = None,
    flows: list[np.ndarray] | None = None,
    confidences: list[np.ndarray] | None = None,
) -> TokenChunk:
    """Full merge pipeline around one attention call.

    strip padding -> split -> correspondence (flow-guided or spatially
    weighted cosine) -> select top r_i -> merge -> attention over the merged
    tokens -> unmerge -> restore padding. Output shape equals input shape.
    Flows and confidences are per source frame on the content token grid,
    flows in token units. The cosine scores of every source frame are
    weighted by the one cached spatial_table of the content grid.
    """
    if mode is MergeMode.FLOW_DOWN and (flows is None or confidences is None):
        raise ValueError("FLOW_DOWN requires flows and confidences")
    if mode is MergeMode.COSINE_UP and R is None:
        raise ValueError("COSINE_UP requires R")

    stripped, pad = strip_padding(chunk)
    b = stripped.tokens.shape[0]
    h, w = stripped.layout
    src, tar, src_slots = split_src_tar(stripped)

    if mode is MergeMode.FLOW_DOWN:
        targets, criteria = flow_correspondence(h, w, b - 1, flows, confidences)
    else:
        scores = cosine_scores(src, tar)
        per_frame = scores.reshape(b - 1, h * w, h * w)
        np.multiply(per_frame, spatial_table(h, w, R), out=per_frame)
        targets, criteria = cosine_correspondence(scores)

    selected = select_top_r(targets, criteria, r_i)
    merged, record = merge(
        src, tar, targets, selected, src_slots, stripped.target_index, b
    )
    attended = attention(merged)
    attended = np.asarray(attended)
    if attended.shape != merged.shape:
        raise ValueError(
            f"attention changed shape {merged.shape} -> {attended.shape}"
        )
    tokens_out = unmerge(attended, record)
    out_chunk = TokenChunk(
        tokens=tokens_out,
        layout=stripped.layout,
        content=stripped.content,
        target_index=stripped.target_index,
    )
    return restore_padding(out_chunk, pad)

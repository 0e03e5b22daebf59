"""Greedy k-difference extension (Landau–Vishkin / Ukkonen).

The banded DP of :mod:`repro.align.banded` computes the *optimal* affine
score inside the band at Θ(band × length) cells.  When reads are
high-identity — the EST regime — the same decision can be made with the
O(k²)-work k-difference algorithm: diagonal ``d`` at edit level ``e``
stores the furthest row reachable with ``e`` unit edits, and exact-match
runs are consumed by "slides" along the diagonal.  Work is proportional
to the *errors tolerated*, not the band area, making this the fast
engine for large sweeps.

Semantics mirror :func:`repro.align.banded.extend_overlap`: the extension
starts at the seed edge and must reach the end of one string.  The
alignment found minimises unit edits; its affine score (computed from the
reconstructed edit transcript) therefore lower-bounds the banded
engine's optimal score, and coincides with it whenever the optimum is a
minimum-edit alignment — on ≥95%-identity overlaps, essentially always.

:func:`kdiff_extend` (dict state, a Python slide loop) is the oracle;
:func:`kdiff_extend_group`, which the batched aligner runs, does a whole
group one edit level per step over flat arrays, bit for bit the same.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.align.banded import ExtensionResult
from repro.align.scoring import ScoringParams

__all__ = ["kdiff_extend", "kdiff_extend_group", "score_ops"]


def kdiff_extend(
    x: np.ndarray,
    y: np.ndarray,
    params: ScoringParams,
    max_edits: int,
) -> ExtensionResult:
    """Minimum-edit overlap extension with at most ``max_edits`` edits.

    Returns the affine score of the reconstructed alignment (via
    :func:`score_ops`).  ``dp_cells`` reports diagonal-slots touched —
    O(max_edits²) — the honest work measure for comparisons with the
    banded engine.  If no end is reachable within the edit budget, a
    pessimistic pure-gap fallback is returned (always rejected by
    acceptance thresholds), mirroring the banded engine's narrow-band
    behaviour.

    Edits are tried in the order X (diagonal ``d``), D (``d - 1``), I
    (``d + 1``), a later one winning only if strictly further.  Every X is
    a true mismatch: the search stops at the first level with an entry at
    an end, so every entry below stopped its slide on a mismatch — and no
    candidate ever fails a bound, so a search ending at level ``e`` has
    ``dp_cells = (e + 1)²``.  :func:`kdiff_extend_group` relies on both.
    """
    if max_edits < 0:
        raise ValueError(f"max_edits must be >= 0, got {max_edits}")
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    lx, ly = len(x), len(y)
    if lx == 0 or ly == 0:
        return ExtensionResult(0.0, 0, 0, 0)
    x_list = x.tolist()
    y_list = y.tolist()

    def slide(i: int, j: int) -> int:
        while i < lx and j < ly and x_list[i] == y_list[j]:
            i += 1
            j += 1
        return i

    # reach[e][d] = furthest row i on diagonal d (= i - j) with e edits.
    # parent[(e, d)] = (prev_d, op) for traceback; op in {'X','D','I'}.
    reach: dict[int, dict[int, int]] = {}
    parent: dict[tuple[int, int], tuple[int, str]] = {}
    cells = 0

    i0 = slide(0, 0)
    reach[0] = {0: i0}
    cells += 1

    def _done(e: int) -> tuple[int, int] | None:
        for d, i in reach[e].items():
            j = i - d
            if i == lx or j == ly:
                return d, i
        return None

    hit = _done(0)
    e = 0
    while hit is None and e < max_edits:
        e += 1
        cur: dict[int, int] = {}
        prev = reach[e - 1]
        for d in range(-e, e + 1):
            best_i = -1
            op = "X"
            src = d
            # Substitution: same diagonal, advance one row.
            if d in prev and prev[d] + 1 <= lx and (prev[d] + 1 - d) <= ly:
                best_i, op, src = prev[d] + 1, "X", d
            # Deletion in y (consume x only): from diagonal d-1, row +1.
            if d - 1 in prev:
                cand = prev[d - 1] + 1
                if cand <= lx and (cand - d) <= ly and cand > best_i:
                    best_i, op, src = cand, "D", d - 1
            # Insertion in y (consume y only): from diagonal d+1, same row.
            if d + 1 in prev:
                cand = prev[d + 1]
                if cand <= lx and (cand - d) <= ly and cand > best_i:
                    best_i, op, src = cand, "I", d + 1
            if best_i < 0:
                continue
            j = best_i - d
            if j < 0:
                continue
            cur[d] = slide(best_i, j)
            parent[(e, d)] = (src, op)
            cells += 1
        reach[e] = cur
        hit = _done(e)

    if hit is None:
        # Out of budget: pessimistic pure-gap fallback (never accepted).
        if lx <= ly:
            return ExtensionResult(params.gap_open + max(lx - 1, 0) * params.gap_extend, lx, 0, cells)
        return ExtensionResult(params.gap_open + max(ly - 1, 0) * params.gap_extend, 0, ly, cells)

    # Traceback to reconstruct the op string (with slides as matches).
    d, i = hit
    j = i - d
    ops_rev: list[str] = []
    level = e
    while True:
        # Undo the slide into this state.
        base = reach[level][d]
        # The slide start: recompute from the parent edit.
        if level == 0:
            ops_rev.extend("M" * base)
            break
        src_d, op = parent[(level, d)]
        prev_i = reach[level - 1][src_d]
        if op == "X":
            edit_row = prev_i + 1
            slid = i - edit_row if i > edit_row else 0
        elif op == "D":
            edit_row = prev_i + 1
            slid = i - edit_row
        else:  # "I"
            edit_row = prev_i
            slid = i - edit_row
        ops_rev.extend("M" * max(0, slid))
        ops_rev.append(op)
        d, i = src_d, prev_i
        level -= 1
    ops = "".join(reversed(ops_rev))
    # Trim to the hit position (ops built exactly to it by construction).
    ci, cj = hit[1], hit[1] - hit[0]
    return ExtensionResult(score_ops(ops, params, x_list, y_list), ci, cj, cells)


#: Reach of a diagonal not live at a level, still below 0 after ``+ 1``.
_UNREACHED = -(1 << 30)
#: A cell's sources in the level below, in tie order (X, D, I), and the
#: rows each edit adds.
_SRC = np.array([0, -1, 1])
_ADV = np.array([1, 1, 0])
#: Sentinels after x, after y and at the buffer's end: they equal no
#: symbol and no other sentinel, so a slide stops at a string's end.
_XEND = np.array([-1], dtype=np.int8)
_YEND = np.array([-2], dtype=np.int8)
_TAIL = np.full(8, -3, dtype=np.int8)


def kdiff_extend_group(
    xs: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
    budgets: np.ndarray,
    params: ScoringParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`kdiff_extend` for a group, one edit level per step for every
    member at once (docs/ALGORITHMS.md §4.2).

    Level ``e`` is an ``int32`` block, diagonals ``-e-2 … e+2`` × active
    members (two unreached rows each side): the furthest candidate of
    every cell, then every cell's slide as one gather-and-compare.  A
    member stops at its first level with an end hit, or at its budget,
    and its columns leave the arrays.  Returns ``(score, consumed_x,
    consumed_y, dp_cells)`` arrays equal to :func:`kdiff_extend`'s results
    member by member.  All ``xs[k]``/``ys[k]`` must be non-empty.
    """
    g = len(xs)
    if g != len(ys) or g != len(budgets):
        raise ValueError(
            f"group size mismatch: {g} xs, {len(ys)} ys, {len(budgets)} budgets"
        )
    if g == 0:
        empty_i = np.empty(0, dtype=np.int64)
        return np.empty(0), empty_i, empty_i.copy(), empty_i.copy()
    budgets = np.asarray(budgets, dtype=np.int64)
    if budgets.min() < 0:
        raise ValueError("max_edits must be >= 0 for every group member")
    lxs = np.fromiter(map(len, xs), dtype=np.int64, count=g)
    lys = np.fromiter(map(len, ys), dtype=np.int64, count=g)
    if lxs.min() == 0 or lys.min() == 0:
        raise ValueError("empty extensions must be filtered before grouping")

    # x, sentinel, y, sentinel per member (reversed views copied forward).
    parts: list[np.ndarray] = []
    for x, y in zip(xs, ys):
        parts += (x, _XEND, y, _YEND)
    parts.append(_TAIL)
    buf = np.concatenate(parts, dtype=np.int8, casting="unsafe")
    # Eight symbols from every position as one unaligned word.
    words = np.ndarray((buf.size - 7,), np.int64, buf, strides=(1,))
    xo = np.cumsum(lxs + lys + 2) - (lxs + lys + 2)

    E = int(budgets.max())
    nd = 2 * E + 1
    dcol = np.arange(-E, E + 1)[:, None]
    # Per-member tables, compacted as members stop: end reach per diagonal
    # (i == lx or j == ly), y's offset less d, x's offset, budget.
    tab = np.empty((2 * nd + 2, g), dtype=np.int64)
    np.minimum(lxs, lys + dcol, out=tab[:nd])
    np.subtract(xo + lxs + 1, dcol, out=tab[nd : 2 * nd])
    tab[-2] = xo
    tab[-1] = budgets
    ids = np.arange(g)
    budget_levels = set(budgets.tolist())

    stop = np.full(g, -1)
    hit_d, hit_i = np.zeros((2, g), dtype=np.int64)
    hist: list[tuple[np.ndarray, np.ndarray]] = []
    # "Level -1": diagonal 0 one row above the seed edge.
    prev = np.full((3, g), _UNREACHED, dtype=np.int32)
    prev[1] = -1
    for e in range(E + 1):
        blk = np.full((2 * e + 5, tab.shape[1]), _UNREACHED, dtype=np.int32)
        c = blk[2:-2]
        # Furthest of X, D and I; ties pick the edit, not the reach, and
        # the traceback recomputes the edit.
        np.maximum(prev[1:-1], prev[:-2], out=c)
        c += 1
        np.maximum(c, prev[2:], out=c)
        rows = slice(E - e, E + e + 1)
        c += _slide(buf, words, c + tab[-2], c + tab[nd : 2 * nd][rows])
        hist.append((blk, ids))
        ended = c == tab[rows]
        stopped = ended.any(axis=0)
        cols = np.flatnonzero(stopped)
        if cols.size:
            # The lowest diagonal that reached an end, as _done scans.
            first = ended[:, cols].argmax(axis=0)
            who = ids[cols]
            stop[who] = e
            hit_d[who] = first - e
            hit_i[who] = c[first, cols]
        if e in budget_levels:
            stopped |= tab[-1] == e  # out of budget: the fallback
        elif not cols.size:
            prev = blk
            continue
        keep = ~stopped
        if not keep.any():
            break
        tab, ids, prev = tab[:, keep], ids[keep], blk[:, keep]

    # Out of budget: the pure-gap fallback to the nearer end, same floats.
    out = stop < 0
    score = params.gap_open + (np.minimum(lxs, lys) - 1) * params.gap_extend
    cx = np.where(out & (lxs <= lys), lxs, 0)
    cy = np.where(out & (lxs > lys), lys, 0)
    cells = (np.where(out, budgets, stop) + 1) ** 2
    won = np.flatnonzero(~out)
    if won.size:
        won = won[np.argsort(-stop[won], kind="stable")]
        cx[won] = hit_i[won]
        cy[won] = hit_i[won] - hit_d[won]
        score[won] = _score_transcripts(
            hist, won, stop[won], hit_d[won], hit_i[won], params
        )
    return score, cx, cy, cells


def _slide(
    buf: np.ndarray, words: np.ndarray, xi: np.ndarray, yi: np.ndarray
) -> np.ndarray:
    """Equal symbols from each ``xi`` / ``yi`` position pair on: eight at
    once as words (the first non-zero byte of the XOR is the mismatch),
    then doubling windows for the few cells equal on all eight."""
    diff = words[xi] ^ words[yi]
    same = diff == 0
    run = (diff.view(np.uint8).reshape(*diff.shape, 8) != 0).argmax(axis=-1)
    todo = np.flatnonzero(same)
    if not todo.size:
        return run
    flat = run.reshape(-1)
    flat[todo] = 8
    xi = xi.reshape(-1)[todo] + 8
    yi = yi.reshape(-1)[todo] + 8
    width = 32
    while todo.size:
        span = np.arange(width)
        ex = buf.take(xi[:, None] + span, mode="clip")
        eq = ex == buf.take(yi[:, None] + span, mode="clip")
        r = np.logical_and.accumulate(eq, axis=1).sum(axis=1)
        flat[todo] += r
        more = r == width
        todo, xi, yi = todo[more], xi[more] + width, yi[more] + width
        width *= 2
    return run


def _score_transcripts(
    hist: list, ids: np.ndarray, stop, d, i, params: ScoringParams
) -> np.ndarray:
    """Traceback of every member that hit an end, one level per step, then
    each transcript's running score.  ``ids`` come in decreasing ``stop``
    order, so the members still tracing at a level are a prefix."""
    top = int(stop[0])
    # Slide lengths and edits (indexes into _SRC) by member and level.
    slides, ops = np.zeros((2, ids.size, top + 1), dtype=np.int64)
    d, i = d.copy(), i.copy()
    tracing = np.searchsorted(-stop, -np.arange(top + 1), side="right").tolist()
    for lev in range(top, 0, -1):
        m = tracing[lev]
        blk, blk_ids = hist[lev - 1]
        col = np.searchsorted(blk_ids, ids[:m])
        row = d[:m] + (lev + 1)  # diagonal d in level lev - 1's block
        src = blk[row[:, None] + _SRC, col[:, None]]
        via = src + _ADV
        # The first maximum: X, then D, then I, each only if further.
        k = via.argmax(axis=1)
        at = np.arange(m)
        slides[:m, lev] = i[:m] - via[at, k]
        ops[:m, lev] = k
        i[:m] = src[at, k]
        d[:m] += _SRC[k]
    slides[:, 0] = i

    # Column scores in transcript order.  Slides are matches and every X a
    # mismatch (kdiff_extend's X invariant); a gap extends only the same
    # gap kind with no slide in between.
    levels = np.arange(top + 1)
    pos = np.cumsum(slides, axis=1) - slides + levels - 1
    ext = np.zeros(ops.shape, dtype=bool)
    ext[:, 1:] = (ops[:, 1:] > 0) & (ops[:, 1:] == ops[:, :-1])
    ext[:, 1:] &= slides[:, :-1] == 0
    gap = np.where(ext, params.gap_extend, params.gap_open)
    val = np.where(ops == 0, params.mismatch, gap)
    length = slides.sum(axis=1) + stop
    cols = np.arange(int(length.max()))
    mat = np.where(cols < length[:, None], params.match, 0.0)
    edit = (levels >= 1) & (levels <= stop[:, None])
    mat[np.nonzero(edit)[0], pos[edit]] = val[edit]
    # Row-wise accumulate is sequential: the exact running sum score_ops
    # keeps, for any float parameters.
    np.cumsum(mat, axis=1, out=mat)
    return mat[:, -1]


def score_ops(
    ops: str, params: ScoringParams, x: list[int], y: list[int]
) -> float:
    """Affine score of an edit transcript starting at (0, 0).

    'M' columns are re-checked against the strings so substituted
    positions recorded as matches (or vice versa) cannot inflate scores.
    """
    score = 0.0
    i = j = 0
    prev_gap: str | None = None
    for op in ops:
        if op in ("M", "X"):
            score += params.match if x[i] == y[j] else params.mismatch
            i += 1
            j += 1
            prev_gap = None
        elif op == "D":
            score += params.gap_extend if prev_gap == "D" else params.gap_open
            i += 1
            prev_gap = "D"
        elif op == "I":
            score += params.gap_extend if prev_gap == "I" else params.gap_open
            j += 1
            prev_gap = "I"
        else:
            raise ValueError(f"unknown op {op!r}")
    return score

"""Banded affine-gap extension dynamic programming.

The paper computes pairwise alignment "by merely extending the already
computed maximal substring match at both ends using gaps and mismatches",
further restricted to a band around the diagonal "where the band size is
determined by the number of errors tolerated" (§3.3, Fig. 5a).

:func:`extend_overlap` is that primitive for one direction: align a prefix
of ``x`` against a prefix of ``y`` such that the alignment *reaches the end
of at least one string* (overlap semantics — stopping mid-string would be
local alignment and would let bad pairs cherry-pick their best region),
maximising the affine-gap score within the band ``|i - j| ≤ band``.

Implementation: one numpy row per ``x`` character with three state rows
(match/mismatch M, gap-in-``y`` Ix, gap-in-``x`` Iy).  The within-row
recurrence of Iy (horizontal affine gaps) is vectorised with the classic
prefix-max trick: ``Iy[j] = open + (j-1)·ext + max_{k<j}(M[k] - k·ext)``.
``dp_cells`` reports the number of in-band cells — the work a C
implementation pays and the measure the banding ablation sweeps.

:func:`extend_overlap` keeps whole ``ly + 1``-wide rows and masks them to
the band; it is the oracle.  :func:`extend_overlap_group`, the kernel every
run uses, does the same recurrence for a group of extensions at once and
stores the band only, indexed by diagonal (docs/ALGORITHMS.md §4.1).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.align.scoring import ScoringParams

__all__ = [
    "extend_overlap",
    "extend_overlap_group",
    "BandedWorkspace",
    "ExtensionResult",
    "NEG_INF",
]

NEG_INF = -1.0e18


class ExtensionResult(tuple):
    """``(score, consumed_x, consumed_y, dp_cells)`` with named access."""

    __slots__ = ()

    def __new__(cls, score: float, consumed_x: int, consumed_y: int, dp_cells: int):
        return super().__new__(cls, (score, consumed_x, consumed_y, dp_cells))

    score = property(lambda self: self[0])
    consumed_x = property(lambda self: self[1])
    consumed_y = property(lambda self: self[2])
    dp_cells = property(lambda self: self[3])


def extend_overlap(
    x: np.ndarray,
    y: np.ndarray,
    params: ScoringParams,
    band: int,
) -> ExtensionResult:
    """Best banded extension of the seed boundary into ``x`` and ``y``.

    The alignment starts exactly at position (0, 0) (the seed edge) and
    must consume *all* of ``x`` or *all* of ``y``; the other string may be
    left partially unconsumed (it continues beyond the overlap).  Returns
    the best score and how much of each string the overlap consumed.
    """
    if band < 0:
        raise ValueError(f"band must be >= 0, got {band}")
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    lx, ly = len(x), len(y)
    if lx == 0 or ly == 0:
        # One side has nothing to extend into: the boundary is an end.
        return ExtensionResult(0.0, 0, 0, 0)

    match, mis = params.match, params.mismatch
    go, ge = params.gap_open, params.gap_extend
    js = np.arange(ly + 1, dtype=np.int64)

    # Row 0: only leading gaps in x (consuming y) are possible.
    m_row = np.full(ly + 1, NEG_INF)
    ix_row = np.full(ly + 1, NEG_INF)
    iy_row = np.full(ly + 1, NEG_INF)
    m_row[0] = 0.0
    if ly >= 1:
        iy_row[1:] = go + (js[1:] - 1) * ge
    _apply_band(m_row, ix_row, iy_row, 0, band, ly)

    dp_cells = int(min(ly, band)) + 1
    # Candidate ends in the last column (j = ly) of every row.
    best = NEG_INF
    best_i, best_j = 0, 0
    if abs(0 - ly) <= band:
        col_best = max(m_row[ly], ix_row[ly], iy_row[ly])
        if col_best > best:
            best, best_i, best_j = col_best, 0, ly

    for i in range(1, lx + 1):
        sub = np.where(x[i - 1] == y, match, mis)
        prev_best = np.maximum(np.maximum(m_row, ix_row), iy_row)
        new_m = np.full(ly + 1, NEG_INF)
        new_m[1:] = prev_best[:-1] + sub
        new_ix = np.maximum(np.maximum(m_row, iy_row) + go, ix_row + ge)
        # Band mask before the horizontal scan so out-of-band cells cannot
        # feed in-band gap runs.
        new_iy = np.full(ly + 1, NEG_INF)
        _apply_band(new_m, new_ix, new_iy, i, band, ly)
        run = np.maximum.accumulate(np.maximum(new_m, new_ix) - js * ge)
        new_iy[1:] = go + (js[1:] - 1) * ge + run[:-1]
        _apply_band(new_m, new_ix, new_iy, i, band, ly)

        m_row, ix_row, iy_row = new_m, new_ix, new_iy
        lo = max(0, i - band)
        hi = min(ly, i + band)
        if hi >= lo:
            dp_cells += hi - lo + 1
        if abs(i - ly) <= band:
            col_best = max(m_row[ly], ix_row[ly], iy_row[ly])
            if col_best > best:
                best, best_i, best_j = col_best, i, ly

    # Candidate ends along the last row (all of x consumed).
    final = np.maximum(np.maximum(m_row, ix_row), iy_row)
    j_best = int(np.argmax(final))
    if final[j_best] > best:
        best, best_i, best_j = float(final[j_best]), lx, j_best

    if best <= NEG_INF / 2:
        # A band narrower than |lx - ly| excludes every valid end: the
        # overlap would need more indels than the error budget tolerates.
        # Report a pure-gap-run score to the nearer end — pessimistic and
        # guaranteed to fail acceptance, without poisoning ratios with -inf.
        if lx <= ly:
            best, best_i, best_j = go + max(lx - 1, 0) * ge, lx, 0
        else:
            best, best_i, best_j = go + max(ly - 1, 0) * ge, 0, ly
    return ExtensionResult(float(best), best_i, best_j, dp_cells)


def _apply_band(m_row, ix_row, iy_row, i: int, band: int, ly: int) -> None:
    """Mask cells outside |i - j| <= band to -inf in all three states."""
    lo = i - band
    hi = i + band
    if lo > 0:
        m_row[:lo] = NEG_INF
        ix_row[:lo] = NEG_INF
        iy_row[:lo] = NEG_INF
    if hi < ly:
        m_row[hi + 1 :] = NEG_INF
        ix_row[hi + 1 :] = NEG_INF
        iy_row[hi + 1 :] = NEG_INF


# --------------------------------------------------------------------------- #
# batched group kernel
# --------------------------------------------------------------------------- #


class BandedWorkspace:
    """Grow-only scratch buffers shared across :func:`extend_overlap_group`
    calls, in band shape.

    A batch aligner runs the group kernel thousands of times per clustering;
    each call needs nine ``(2B+1, g)`` float arrays, the character-equality
    mask and the two padded character planes (~0.4 MB for 64 extensions of
    550 bp at band 33).  The workspace allocates once at the high-water mark
    and hands out contiguous views, so steady-state groups touch no
    allocator at all.  ``reuses`` and ``grows`` feed the
    ``align.buffer_reuse`` telemetry counter.
    """

    def __init__(self) -> None:
        self._cap = (0, 0, 0)  # cells of one state array, of xpad, of ypad
        self._state = np.empty((9, 0))  # float64 DP states and scratch
        self._eq = np.empty(0, dtype=bool)  # char equality
        self._xpad = np.empty(0, dtype=np.int8)
        self._ypad = np.empty(0, dtype=np.int8)
        #: Calls served without reallocating / calls that had to grow.
        self.reuses = 0
        self.grows = 0

    @property
    def nbytes(self) -> int:
        """Bytes the workspace holds."""
        arrays = (self._state, self._eq, self._xpad, self._ypad)
        return sum(a.nbytes for a in arrays)

    def acquire(self, g: int, w: int, max_lx: int, yw: int) -> list[np.ndarray]:
        """Contiguous views for ``g`` extensions of up to ``max_lx`` rows on
        ``w`` diagonals: nine ``(w, g)`` float arrays, ``eq`` ``(w, g)``,
        ``xpad`` ``(max_lx, g)``, ``ypad`` ``(yw, g)``.  Counts a reuse when
        the buffers were large enough, a grow when they were not.
        """
        need = (g * w, g * max_lx, g * yw)
        if any(n > c for n, c in zip(need, self._cap)):
            self._cap = cap = tuple(max(n, c) for n, c in zip(need, self._cap))
            self._state = np.empty((9, cap[0]))
            self._eq = np.empty(cap[0], dtype=bool)
            self._xpad = np.empty(cap[1], dtype=np.int8)
            self._ypad = np.empty(cap[2], dtype=np.int8)
            self.grows += 1
        else:
            self.reuses += 1
        views = [row[: g * w].reshape(w, g) for row in self._state]
        views.append(self._eq[: g * w].reshape(w, g))
        views.append(self._xpad[: g * max_lx].reshape(max_lx, g))
        views.append(self._ypad[: g * yw].reshape(yw, g))
        return views


def extend_overlap_group(
    xs: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
    bands: np.ndarray,
    params: ScoringParams,
    *,
    workspace: BandedWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised :func:`extend_overlap` over a group of extensions, in band
    coordinates (docs/ALGORITHMS.md §4.1).

    State arrays are ``(2B+1, g)``: member ``k`` is column ``k``, and entry
    ``d`` of DP row ``i`` is cell ``(i, j = i + d - B)``, ``B`` being the
    group's largest effective band.  In that frame M reads the previous
    row's best-of-three on the same diagonal, Ix reads diagonal ``d + 1``
    and Iy is the prefix-max scan along ``d`` — whole contiguous blocks,
    sized to the band, not to the strings.  ``x`` is padded with ``-1`` and
    ``y`` with ``-2`` (``B`` of them in front), sentinels that never match:
    cells with ``j < 0`` start at -inf and are only ever fed by each other,
    cells with ``j > ly`` or ``i > lx`` are fed by real cells but —
    information flows rightwards/downwards only — never feed one.  Every
    reachable cell sees the scalar kernel's floating-point operations in
    the same order, so results are bit-identical (the batch aligner's
    oracle property).

    All ``xs[k]``/``ys[k]`` must be non-empty (callers shortcut empty
    extensions to ``ExtensionResult(0.0, 0, 0, 0)`` like the scalar path).

    Returns ``(score, consumed_x, consumed_y, dp_cells)`` arrays of length
    ``len(xs)``.
    """
    g = len(xs)
    if g != len(ys) or g != len(bands):
        raise ValueError(
            f"group size mismatch: {g} xs, {len(ys)} ys, {len(bands)} bands"
        )
    if g == 0:
        empty_f = np.empty(0)
        empty_i = np.empty(0, dtype=np.int64)
        return empty_f, empty_i, empty_i.copy(), empty_i.copy()
    bands = np.asarray(bands, dtype=np.int64)
    if bands.min() < 0:
        raise ValueError("band must be >= 0 for every group member")
    lxs = np.fromiter((len(x) for x in xs), dtype=np.int64, count=g)
    lys = np.fromiter((len(y) for y in ys), dtype=np.int64, count=g)
    if lxs.min() == 0 or lys.min() == 0:
        raise ValueError("empty extensions must be filtered before grouping")
    max_lx = int(lxs.max())
    # A band wider than both strings masks nothing; the clamp keeps the
    # full-DP ablation arm (band_rate = 1.0) from allocating 2·band + 1.
    eff = np.minimum(bands, np.maximum(lxs, lys))
    B = int(eff.max())
    w = 2 * B + 1
    yw = max(max_lx, int(lys.max())) + 2 * B

    ws = workspace if workspace is not None else BandedWorkspace()
    pb, mg, ix, new_m, t1, t2, new_iy, cand, fin, eq, xpad, ypad = ws.acquire(
        g, w, max_lx, yw
    )
    xpad.fill(-1)
    ypad.fill(-2)
    drains: dict[int, list[int]] = {}  # row -> members whose x ends there
    for k, (lx, ly) in enumerate(zip(lxs.tolist(), lys.tolist())):
        xpad[:lx, k] = xs[k]
        ypad[B : B + ly, k] = ys[k]
        drains.setdefault(lx, []).append(k)

    match, mis = params.match, params.mismatch
    go, ge = params.gap_open, params.gap_extend
    # The scalar kernel's ``js * ge`` and ``go + (js - 1) * ge`` terms over
    # absolute columns -B … max_lx + B; row i uses the slice starting at i.
    js = np.arange(-B, max_lx + B + 1, dtype=np.int64)[:, None]
    jge = js * ge
    jgo = go + (js - 1) * ge
    ds = np.arange(w, dtype=np.int64)[:, None]
    # The only mask left is static: member k's own band inside the group's.
    outb = np.abs(ds - B) > eff if eff.min() < B else None

    # Candidate ends in the last column: cell (i, ly_k) lies on diagonal
    # ly_k + B - i, for the rows i that have it in band.  One flat index
    # list sorted by row; ``cptr[i]:cptr[i + 1]`` are row i's entries.
    r0 = np.maximum(lys - eff, 0)
    cnt = np.maximum(np.minimum(lxs, lys + eff) - r0 + 1, 0)
    mem = np.repeat(np.arange(g), cnt)
    crow = np.arange(mem.size) - np.repeat(np.cumsum(cnt) - cnt, cnt) + r0[mem]
    order = np.argsort(crow, kind="stable")
    cflat = ((lys[mem] + B - crow) * g + mem)[order]
    cptr = np.searchsorted(crow[order], np.arange(max_lx + 2)).tolist()
    cvals = cand.reshape(-1)[: mem.size]

    # Row 0: only leading gaps in x (consuming y) are possible.  ``mg`` is
    # max(M, Iy), ``pb`` the best of all three states; diagonal 0 of Iy and
    # diagonal 2B of Ix have no in-band source and stay -inf throughout.
    mg.fill(NEG_INF)
    ix.fill(NEG_INF)
    new_iy.fill(NEG_INF)
    mg[B] = 0.0
    mg[B + 1 :] = jgo[B + 1 : w]
    if outb is not None:
        np.copyto(mg, NEG_INF, where=outb)
    pb[...] = mg
    pb_flat = pb.reshape(-1)

    for i in range(1, max_lx + 2):
        # ``pb`` holds row i - 1: gather its candidate ends, decided below.
        lo, hi = cptr[i - 1], cptr[i]
        if hi > lo:
            np.take(pb_flat, cflat[lo:hi], out=cvals[lo:hi])
        if done := drains.get(i - 1):
            fin[:, done] = pb[:, done]
        if i > max_lx:
            break
        np.equal(xpad[i - 1], ypad[i - 1 : i - 1 + w], out=eq)
        t1.fill(mis)
        np.copyto(t1, match, where=eq)
        np.add(pb, t1, out=new_m)
        np.add(mg[1:], go, out=t1[:-1])
        np.add(ix[1:], ge, out=t2[:-1])
        np.maximum(t1[:-1], t2[:-1], out=ix[:-1])
        # Band mask before the horizontal scan so out-of-band cells cannot
        # feed in-band gap runs.
        if outb is not None:
            np.copyto(new_m, NEG_INF, where=outb)
            np.copyto(ix, NEG_INF, where=outb)
        np.maximum(new_m, ix, out=t2)
        np.subtract(t2, jge[i : i + w], out=t1)
        np.maximum.accumulate(t1, axis=0, out=t1)
        np.add(jgo[i + 1 : i + w], t1[:-1], out=new_iy[1:])
        if outb is not None:
            np.copyto(new_iy, NEG_INF, where=outb)
        np.maximum(new_m, new_iy, out=mg)
        np.maximum(t2, new_iy, out=pb)

    # The scalar kernel's check order: the first maximum down the last
    # column (its strict > in row order), then the last row's lowest-j
    # argmax if strictly better.
    col = new_m  # free after the loop
    col.fill(NEG_INF)
    col.reshape(-1)[cflat] = cvals
    ib = np.argmax(col[::-1], axis=0)  # first maximum is in row ly - B + ib
    ar = np.arange(g)
    best = col[2 * B - ib, ar]
    np.copyto(fin, NEG_INF, where=ds > lys - lxs + B)  # columns j > ly
    jb = np.argmax(fin, axis=0)
    last = fin[jb, ar]
    upd = last > best
    best = np.where(upd, last, best)
    best_i = np.where(upd, lxs, lys - B + ib)
    best_j = np.where(upd, lxs - B + jb, lys)

    # A band narrower than |lx - ly| excludes every valid end; mirror the
    # scalar kernel's pessimistic pure-gap fallback.
    bad = best <= NEG_INF / 2
    if bad.any():
        use_x = bad & (lxs <= lys)
        best[use_x] = go + (lxs[use_x] - 1) * ge
        best_i[use_x] = lxs[use_x]
        best_j[use_x] = 0
        use_y = bad & (lxs > lys)
        best[use_y] = go + (lys[use_y] - 1) * ge
        best_i[use_y] = 0
        best_j[use_y] = lys[use_y]

    # In-band cell counts, closed form over the (member, row) grid.
    rows = np.arange(1, max_lx + 1, dtype=np.int64)
    lo = rows[None, :] - bands[:, None]
    np.maximum(lo, 0, out=lo)
    hi = np.minimum(lys[:, None], rows[None, :] + bands[:, None])
    width = hi - lo + 1
    np.maximum(width, 0, out=width)
    width[rows[None, :] > lxs[:, None]] = 0
    dp_cells = width.sum(axis=1) + np.minimum(lys, bands) + 1

    return best, best_i, best_j, dp_cells

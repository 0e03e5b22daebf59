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
stores the band only, indexed by diagonal.  It computes only cells that
can still produce an end: each extension is swept down to row
``min(lx, ly + band)`` — past it the band lies right of the last column —
and once a quarter of the group has stopped, the state of the rest is
copied into narrower planes (docs/ALGORITHMS.md §4.1).
"""

from __future__ import annotations

import math
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


#: DP rows whose substitution scores one vectorised compare fills.
SUB_ROWS = 16
#: Narrowing the swept planes costs a few dozen numpy calls; it is done only
#: when the cells it skips to the end of the sweep are at least this many
#: (measured: narrowing at every quarter made groups of 11–17 diagonals
#: 5–8 % slower, docs/ALGORITHMS.md §4.1).
COMPACT_CELLS = 4096


class BandedWorkspace:
    """Grow-only scratch buffers shared across :func:`extend_overlap_group`
    calls, in band shape.

    A batch aligner runs the group kernel thousands of times per clustering;
    each call needs eight ``(2B+1, g)`` float planes, ``SUB_ROWS`` planes of
    substitution scores and of character equality, the static band mask and
    the two padded character planes (~0.97 MB for 64 extensions of 550 bp at
    band 33).  The workspace allocates once at the high-water mark and hands
    out flat buffers that the kernel shapes to the group's width and then to
    each narrower live width, so steady-state groups touch no allocator at
    all.  ``reuses`` and ``grows`` feed the ``align.buffer_reuse`` telemetry
    counter.
    """

    def __init__(self) -> None:
        self._cap = (0, 0, 0)  # cells of one band plane, of xpad, of ypad
        self._state = np.empty((8, 0))  # float64 DP states and scratch
        self._sub = np.empty(0)  # substitution scores, SUB_ROWS planes
        self._eq = np.empty(0, dtype=bool)  # char equality, SUB_ROWS planes
        self._mask = np.empty(0, dtype=bool)  # static band mask
        self._xpad = np.empty(0, dtype=np.int8)
        self._ypad = np.empty(0, dtype=np.int8)
        #: Calls served without reallocating / calls that had to grow.
        self.reuses = 0
        self.grows = 0

    @property
    def nbytes(self) -> int:
        """Bytes the workspace holds."""
        arrays = (self._state, self._sub, self._eq, self._mask, self._xpad, self._ypad)
        return sum(a.nbytes for a in arrays)

    def acquire(self, g: int, w: int, rows: int, yw: int) -> tuple:
        """Flat buffers for ``g`` extensions swept over ``rows`` DP rows on
        ``w`` diagonals: the eight band planes (a list), the substitution
        and equality blocks, the band mask, ``xpad`` (``rows · g`` cells)
        and ``ypad`` (``yw · g``).  Counts a reuse when the buffers were
        large enough, a grow when they were not.
        """
        need = (g * w, g * rows, g * yw)
        if any(n > c for n, c in zip(need, self._cap)):
            self._cap = cap = tuple(max(n, c) for n, c in zip(need, self._cap))
            self._state = np.empty((8, cap[0]))
            self._sub = np.empty(SUB_ROWS * cap[0])
            self._eq = np.empty(SUB_ROWS * cap[0], dtype=bool)
            self._mask = np.empty(cap[0], dtype=bool)
            self._xpad = np.empty(cap[1], dtype=np.int8)
            self._ypad = np.empty(cap[2], dtype=np.int8)
            self.grows += 1
        else:
            self.reuses += 1
        planes = list(self._state)
        return planes, self._sub, self._eq, self._mask, self._xpad, self._ypad


def _plane(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The contiguous ``shape`` view at the start of a flat buffer."""
    return buf[: math.prod(shape)].reshape(shape)


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

    State arrays are ``(2B+1, k)``: each member still sweeping is a column,
    and entry ``d`` of DP row ``i`` is cell ``(i, j = i + d - B)``, ``B``
    being the group's largest effective band.  In that frame M reads the
    previous row's best-of-three on the same diagonal, Ix reads diagonal
    ``d + 1`` and Iy is the prefix-max scan along ``d`` — whole contiguous
    blocks, sized to the band, not to the strings.  ``x`` is padded with
    ``-1`` and ``y`` with ``-2`` (``B`` of them in front), sentinels that
    never match: cells with ``j < 0`` start at -inf and are only ever fed by
    each other, cells with ``j > ly`` or ``i > lx`` are fed by real cells
    but — information flows rightwards/downwards only — never feed one.
    Every reachable cell sees the scalar kernel's floating-point operations
    in the same order, so results are bit-identical (the batch aligner's
    oracle property).

    Member ``k`` is swept to row ``min(lx_k, ly_k + band_k)`` only: past it
    the whole band lies right of column ``ly_k``, so no cell can end the
    extension.  Members are swept longest first, so the ones still sweeping
    are a prefix of the columns; once that prefix has shrunk by a quarter
    the state is copied into planes of the narrower width.

    All ``xs[k]``/``ys[k]`` must be non-empty (callers shortcut empty
    extensions to ``ExtensionResult(0.0, 0, 0, 0)`` like the scalar path).

    Returns ``(score, consumed_x, consumed_y, dp_cells)`` arrays of length
    ``len(xs)``, in the order of ``xs``.
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
    # A band wider than both strings masks nothing; the clamp keeps the
    # full-DP ablation arm (band_rate = 1.0) from allocating 2·band + 1.
    eff = np.minimum(bands, np.maximum(lxs, lys))
    # Each member's last row that can hold an end.  Columns are ordered by
    # it, longest first, so the members still sweeping are a prefix; the
    # ``_s`` arrays are in that order, ``order`` maps back to the caller's.
    ends = np.minimum(lxs, lys + eff)
    order = np.argsort(-ends, kind="stable")
    lx_s, ly_s, eff_s, ends_s = lxs[order], lys[order], eff[order], ends[order]
    last_row = int(ends_s[0])
    B = int(eff.max())
    w = 2 * B + 1
    yw = last_row + 2 * B

    ws = workspace if workspace is not None else BandedWorkspace()
    planes, sub_buf, eq_buf, mask_buf, xbuf, ybuf = ws.acquire(g, w, last_row, yw)
    xpad = _plane(xbuf, last_row, g)
    ypad = _plane(ybuf, yw, g)
    xpad.fill(-1)
    ypad.fill(-2)
    drains: dict[int, list[int]] = {}  # row -> members whose x ends there
    for s, (k, lx, end) in enumerate(
        zip(order.tolist(), lx_s.tolist(), ends_s.tolist())
    ):
        xpad[:end, s] = xs[k][:end]
        y = ys[k][: last_row + B]  # the sweep reads no column past that
        ypad[B : B + len(y), s] = y
        if end == lx:
            drains.setdefault(lx, []).append(s)

    match, mis = params.match, params.mismatch
    go, ge = params.gap_open, params.gap_extend
    # The scalar kernel's ``js * ge`` and ``go + (js - 1) * ge`` terms over
    # absolute columns -B … last_row + B; row i uses the slice starting at i.
    js = np.arange(-B, last_row + B + 1, dtype=np.int64)[:, None]
    jge = js * ge
    jgo = go + (js - 1) * ge
    ds = np.arange(w, dtype=np.int64)[:, None]
    # The only mask left is static: member k's own band inside the group's.
    masked = bool(eff.min() < B)
    off_diag = np.abs(ds - B)

    # Candidate ends in the last column: cell (i, ly_k) lies on diagonal
    # ly_k + B - i, for the rows i that have it in band.  One flat index
    # list sorted by row; ``cptr[i]:cptr[i + 1]`` are row i's entries.
    r0 = np.maximum(ly_s - eff_s, 0)
    cnt = np.maximum(ends_s - r0 + 1, 0)
    mem = np.repeat(np.arange(g), cnt)
    crow = np.arange(mem.size) - np.repeat(np.cumsum(cnt) - cnt, cnt) + r0[mem]
    by_row = np.argsort(crow, kind="stable")
    cmem = mem[by_row]
    cdiag = ly_s[cmem] + B - crow[by_row]
    cflat_all = cdiag * g + cmem  # flat indices into a (w, g) plane
    cflat = cflat_all.copy()  # ... into the current width's plane
    cptr = np.searchsorted(crow[by_row], np.arange(last_row + 2)).tolist()
    cvals = planes[7][: mem.size]

    # Sweep widths, as (first row, columns): the live prefix is narrowed
    # once it has shrunk by a quarter and the skipped cells pay for the
    # copies.  ``ends_s[t] + 1`` is the first row member t no longer sweeps.
    epochs = [(1, g)]
    cols = g
    t = 3 * cols // 4
    while (nxt := int(ends_s[t]) + 1) <= last_row:
        live = int(np.count_nonzero(ends_s >= nxt))
        if (cols - live) * w * (last_row + 1 - nxt) >= COMPACT_CELLS:
            epochs.append((nxt, live))
            cols = live
            t = 3 * cols // 4
        else:
            t = live - 1
    epochs.append((last_row + 1, 0))

    # Row 0: only leading gaps in x (consuming y) are possible.  ``mg`` is
    # max(M, Iy), ``pb`` the best of all three states; diagonal 0 of Iy and
    # diagonal 2B of Ix have no in-band source and stay -inf throughout.
    carried = planes[0:3]  # pb, mg, ix
    scratch = planes[3:6]  # t1, t2, new_iy
    pb, mg, ix = (_plane(b, w, g) for b in carried)
    mg.fill(NEG_INF)
    ix.fill(NEG_INF)
    mg[B] = 0.0
    mg[B + 1 :] = jgo[B + 1 : w]
    if masked:
        outb = _plane(mask_buf, w, g)
        np.greater(off_diag, eff_s, out=outb)
        np.copyto(mg, NEG_INF, where=outb)
    pb[...] = mg
    pb.reshape(-1).take(cflat[: cptr[1]], out=cvals[: cptr[1]])
    # A member stopped by the row bound never reaches its last row, whose
    # cells all lie out of band: its row stays -inf.
    fin = _plane(planes[6], w, g)
    fin.fill(NEG_INF)

    k = g
    yplane, y0 = ypad, 0  # y0: the absolute row of yplane's first row
    for (first, live), (stop, _) in zip(epochs, epochs[1:]):
        if live < k:
            # Compact: the carried state moves into the scratch planes at
            # the new width, and its old planes become the scratch.
            for src, dst in zip((pb, mg, ix), scratch):
                np.copyto(_plane(dst, w, live), src[:, :live])
            carried, scratch = scratch, carried
            pb, mg, ix = (_plane(b, w, live) for b in carried)
            src = yplane[first - 1 - y0 :, :live]
            y0 = first - 1
            yplane = _plane(ybuf, yw - y0, live)
            np.copyto(yplane, src)  # overlapping: numpy copies via a temporary
            tail = cptr[first]
            np.multiply(cdiag[tail:], live, out=cflat[tail:])
            cflat[tail:] += cmem[tail:]
            k = live
            if masked:
                outb = _plane(mask_buf, w, k)
                np.greater(off_diag, eff_s[:k], out=outb)
        # Every view the row step uses is built once per width.
        t1, t2, new_iy = (_plane(b, w, k) for b in scratch)
        new_iy[0].fill(NEG_INF)
        pb_flat = pb.reshape(-1)
        mg_1, ix_1, ix_0 = mg[1:], ix[1:], ix[:-1]
        t1_0, t2_0, iy_1 = t1[:-1], t2[:-1], new_iy[1:]
        xk = xpad[:, None, :k]
        # Row i compares x_i with yplane[i - 1 - y0 : i - 1 - y0 + w]:
        # overlapping windows of one buffer.
        ywin = np.ndarray(
            (len(yplane) - w + 1, w, k), np.int8, yplane, 0, (k, k, 1)
        )
        subs = _plane(sub_buf, SUB_ROWS, w, k)
        eqs = _plane(eq_buf, SUB_ROWS, w, k)
        for b0 in range(first, stop, SUB_ROWS):
            # Substitution scores of rows b0 … b0 + n - 1 in one compare.
            n = min(SUB_ROWS, stop - b0)
            sub, eq = subs[:n], eqs[:n]
            yr = b0 - 1 - y0  # row b0 - 1 in yplane
            np.equal(xk[b0 - 1 : b0 - 1 + n], ywin[yr : yr + n], out=eq)
            sub.fill(mis)
            np.copyto(sub, match, where=eq)
            for i, sub_i in zip(range(b0, b0 + n), sub):
                np.add(pb, sub_i, out=pb)  # pb holds M of row i until the end
                np.add(mg_1, go, out=t1_0)
                np.add(ix_1, ge, out=t2_0)
                np.maximum(t1_0, t2_0, out=ix_0)
                # Band mask before the horizontal scan so out-of-band cells
                # cannot feed in-band gap runs.
                if masked:
                    np.copyto(pb, NEG_INF, where=outb)
                    np.copyto(ix, NEG_INF, where=outb)
                np.maximum(pb, ix, out=t2)
                np.subtract(t2, jge[i : i + w], out=t1)
                np.maximum.accumulate(t1, axis=0, out=t1)
                np.add(jgo[i + 1 : i + w], t1_0, out=iy_1)
                if masked:
                    np.copyto(new_iy, NEG_INF, where=outb)
                np.maximum(pb, new_iy, out=mg)
                np.maximum(t2, new_iy, out=pb)
                # Row i's candidate ends, decided after the loop.
                lo, hi = cptr[i], cptr[i + 1]
                if hi > lo:
                    pb_flat.take(cflat[lo:hi], out=cvals[lo:hi])
                if done := drains.get(i):
                    fin[:, done] = pb[:, done]

    # The scalar kernel's check order: the first maximum down the last
    # column (its strict > in row order), then the last row's lowest-j
    # argmax if strictly better.
    col = _plane(scratch[0], w, g)  # free after the loop
    col.fill(NEG_INF)
    col.reshape(-1)[cflat_all] = cvals
    ib = np.argmax(col[::-1], axis=0)  # first maximum is in row ly - B + ib
    ar = np.arange(g)
    best = col[2 * B - ib, ar]
    np.copyto(fin, NEG_INF, where=ds > ly_s - lx_s + B)  # columns j > ly
    jb = np.argmax(fin, axis=0)
    last = fin[jb, ar]
    upd = last > best
    best = np.where(upd, last, best)
    best_i = np.where(upd, lx_s, ly_s - B + ib)
    best_j = np.where(upd, lx_s - B + jb, ly_s)

    # A band narrower than |lx - ly| excludes every valid end; mirror the
    # scalar kernel's pessimistic pure-gap fallback.
    bad = best <= NEG_INF / 2
    if bad.any():
        use_x = bad & (lx_s <= ly_s)
        best[use_x] = go + (lx_s[use_x] - 1) * ge
        best_i[use_x] = lx_s[use_x]
        best_j[use_x] = 0
        use_y = bad & (lx_s > ly_s)
        best[use_y] = go + (ly_s[use_y] - 1) * ge
        best_i[use_y] = 0
        best_j[use_y] = ly_s[use_y]
    unsort = np.empty_like(order)
    unsort[order] = ar

    # In-band cell counts, closed form over the (member, row) grid.
    rows = np.arange(1, int(lxs.max()) + 1, dtype=np.int64)
    lo = rows[None, :] - bands[:, None]
    np.maximum(lo, 0, out=lo)
    hi = np.minimum(lys[:, None], rows[None, :] + bands[:, None])
    width = hi - lo + 1
    np.maximum(width, 0, out=width)
    width[rows[None, :] > lxs[:, None]] = 0
    dp_cells = width.sum(axis=1) + np.minimum(lys, bands) + 1

    return best[unsort], best_i[unsort], best_j[unsort], dp_cells

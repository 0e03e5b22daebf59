"""Vectorised promising-pair generation: Algorithm 1 over lsets that are
suffix-array intervals.

:class:`~repro.pairs.sa_generator.SaPairGenerator` walks the LCP-interval
forest one node at a time in pure Python — per node it interleaves child
slots, deduplicates strings through a mark array, and emits cartesian
products entry by entry.  That traversal, not alignment, is the hot path
on realistic inputs (tens of thousands of nodes per ten thousand pairs).
This module computes the identical stream without ever storing an lset
(docs/ALGORITHMS.md §3.1):

- the generator holds one flat forest over all the rank ranges of its
  owner — every bucket for the sequential engine, a slave's buckets in a
  parallel run — built in a single pass where it is used (§2.2), so node
  ids are global and every table below is one array, never a list of
  per-bucket pieces to be joined;
- the occurrence of a string that survives the mark array at node ``v``
  is its lowest-rank suffix inside ``v``'s interval, so ``lset(v)`` is
  ``{r in [lb_v, rb_v] : prev(r) < lb_v}`` (``prev(r)`` = the previous
  rank holding a suffix of the same string), each class in increasing
  rank — a node copies nothing from its children;
- at a node whose interval holds no string twice the lset *is* the
  interval: the per-class sizes of "this child slot" and "all earlier
  slots" are differences of one prefix-count table over the
  left-extension characters of the ranks some root covers (no other rank
  is ever read), read at slot boundaries shifted into covered positions,
  and the partners of an entry are a contiguous slice of one
  class-sorted rank array;
- a node whose interval does repeat a string (poly-A tails, tandem
  repeats, ψ far below read length — a property of the input, found with
  one sort of (string, rank) keys) gathers its own interval, drops the
  ranks with ``prev(r) >= lb_v`` and builds the same two structures over
  the survivors; both kinds feed one expansion;
- a node pairs only if its interval holds a λ or two different
  left-extension characters — its lset is a subset of the interval — and
  a node that cannot pair has no descendant that can; one prefix sum of
  class changes over the covered ranks finds the pairable nodes, only
  they get slots, count rows and expansion, and a root that cannot pair
  keeps its ranks out of the class index (the other nodes only count
  towards ``PairGenStats``);
- only (slot, class) groups that have partners are expanded, and the
  discard rules of Lemma 4 (same EST, complemented smaller id) are
  boolean masks over whole blocks;
- nodes are taken in chunks of the scalar engine's processing order,
  pairable or not, and pairs leave as
  :class:`~repro.pairs.pair.PairBlock` columns of at most ``block_size``
  rows (``blocks()``), so the count tables stay small and the stream is
  still a lazy generator with a suspended frame; ``pairs()`` is the same
  stream flattened into ``Pair`` records.

The engine is a pure performance layer: for any input it yields the exact
pair sequence of the scalar generator — same multiset, same order within
and across depths — with :class:`SaPairGenerator` kept as the correctness
oracle (tests/test_vector_pairs.py, benchmarks/perf_gate.py).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.pairs.lsets import N_CLASSES
from repro.pairs.pair import Pair, PairBlock, flatten
from repro.pairs.sa_generator import (
    REITERATION_ERROR,
    PairGenStats,
    SaPairGenerator,
)
from repro.sequence.alphabet import LAMBDA
from repro.suffix.gst import SuffixArrayGst
from repro.suffix.interval_tree import FlatForest
from repro.suffix.suffix_array import ragged_ranges
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # circular at runtime: core.config -> align -> pairs
    from repro.core.config import ClusteringConfig

__all__ = [
    "VectorPairGenerator",
    "make_pair_generator",
    "PAIR_BLOCK_SIZE",
    "PAIR_BLOCK_BUCKETS",
]

#: Pairs materialised per emitted chunk (one ``pairs.block_size`` sample).
PAIR_BLOCK_SIZE = 4096

#: Histogram bounds for emitted block sizes.
PAIR_BLOCK_BUCKETS: tuple[float, ...] = (16, 64, 256, 1024, 4096, 16384)

#: Forest nodes per sweep step: bounds the per-step count tables and the
#: work done before the first pair of a step reaches the consumer.
CHUNK_NODES = 2048

#: _ALLOWED[ci, cj] — the class-compatibility rule of ProcessInternalNode:
#: classes pair when their left-extension characters differ, or both are λ
#: (a symmetric relation).
_ALLOWED = (
    (np.arange(N_CLASSES)[:, None] != np.arange(N_CLASSES)[None, :])
    | (np.arange(N_CLASSES)[:, None] == LAMBDA)
).astype(np.int32)

_ZERO = np.zeros(1, dtype=np.int64)

#: A class-count table stores exact counts every ``2**_CKPT_BITS`` rows
#: and uint16 counts in between (:func:`_class_index`).
_CKPT_BITS = 16

#: Sort keys pack (major << 32 | minor) into one int64; both halves are
#: suffix-array ranks or node/string counts, far below 2**31 here.
_LOW32 = (1 << 32) - 1


def _class_index(cls: np.ndarray) -> tuple[np.ndarray, tuple, np.ndarray]:
    """Class-sorted view of a sequence of left-extension classes.

    Returns ``(order, counts, base)``: ``order`` lists the positions of
    ``cls`` by (class, position); ``counts`` answers "class-``c``
    positions below ``x``" through :func:`_count_rows`; ``base[c]`` is
    where class ``c`` starts in ``order``.  The class-``c`` positions
    inside ``[x, y)`` are ``order[base[c] + C[x, c] : base[c] + C[y, c]]``.

    ``counts`` is ``(checkpoints, within)``: exact int32 counts at every
    ``2**_CKPT_BITS``-th row and uint16 counts since the row's checkpoint,
    10 bytes per position where one int32 table is 20.
    """
    n = cls.size
    within = np.empty((n + 1, N_CLASSES), dtype=np.uint16)
    checkpoints = np.empty(((n >> _CKPT_BITS) + 1, N_CLASSES), dtype=np.int32)
    seen = np.zeros(N_CLASSES, dtype=np.int32)
    order = np.empty(n, dtype=np.int32)
    for b, lo in enumerate(range(0, n + 1, 1 << _CKPT_BITS)):
        hi = lo + (1 << _CKPT_BITS)  # rows [lo, hi) count cls[lo : row]
        checkpoints[b] = seen
        within[lo] = 0
        for c in range(N_CLASSES):
            np.cumsum(cls[lo : hi - 1] == c, dtype=np.uint16, out=within[lo + 1 : hi, c])
        seen += np.bincount(cls[lo:hi], minlength=N_CLASSES).astype(np.int32)
    base = np.concatenate((_ZERO, np.cumsum(seen[:-1], dtype=np.int64)))
    for c in range(N_CLASSES):
        order[base[c] : base[c] + seen[c]] = np.flatnonzero(cls == c)
    return order, (checkpoints, within), base


def _count_rows(counts: tuple, x: np.ndarray) -> np.ndarray:
    """Rows ``x`` of a :func:`_class_index` count table: per class, the
    positions below ``x`` (int32, shape ``(x.size, N_CLASSES)``)."""
    checkpoints, within = counts
    # ``take`` along axis 0 gathers whole rows several times faster than
    # fancy indexing does.
    return checkpoints.take(x >> _CKPT_BITS, axis=0) + within.take(x, axis=0)


def _shift(r_lb: np.ndarray, r_size: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """Per node start ``lb``, what maps a rank under it to its position
    when the roots ``[r_lb, r_lb + r_size)`` (sorted, disjoint) are laid
    out root after root: position = rank − shift."""
    r_first = np.cumsum(r_size, dtype=np.int32) - r_size
    return (r_lb - r_first)[np.searchsorted(r_lb, lb, "right") - 1]


def _pairable(cls: np.ndarray, first: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Per node, positions ``[first, stop)`` of ``cls`` (at least two): do
    they hold a λ, or two different left-extension classes?

    A λ inside the span is its first position or follows a class change,
    so one int32 prefix sum of class changes answers both.
    """
    change = np.zeros(cls.size, dtype=np.int32)
    np.cumsum(cls[1:] != cls[:-1], dtype=np.int32, out=change[1:])
    return (cls[first] == LAMBDA) | (change[stop - 1] > change[first])


def _repeated_strings(
    strings: np.ndarray,
    root_size: np.ndarray,
    first: np.ndarray,
    stop: np.ndarray,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Where a forest holds some string twice: ``(prev, repeats)``.

    Positions are those of the ranks under the forest's roots, in rank
    order, ``root_size`` consecutive positions per root; ``strings[q]`` is
    the string of position ``q``'s suffix.  ``prev[q]`` is the previous
    position holding a suffix of ``q``'s string when that position lies
    under the same root, else -1 (a position outside the root is below
    every node start the filter compares it with); ``None`` when no root
    repeats a string.  ``repeats[v]`` marks the nodes, positions
    ``[first[v], stop[v])``, with some ``prev[q] >= first[v]`` inside.
    """
    repeats = np.zeros(first.size, dtype=bool)
    # One sort of (string, position) keys: neighbours of equal string are
    # consecutive occurrences in rank order.
    key = strings.astype(np.int64)
    key <<= 32
    key |= np.arange(key.size, dtype=np.int32)
    key.sort()
    at = key.astype(np.int32)  # the low half: the position
    key >>= 32
    same = key[1:] == key[:-1]
    del key
    root_start = np.cumsum(root_size, dtype=np.int32) - root_size
    root_start = np.repeat(root_start, root_size)
    hit = np.flatnonzero(same & (at[:-1] >= root_start[at[1:]]))
    del root_start, same
    if hit.size == 0:
        return None, repeats
    dup = at[hit + 1]
    by_pos = np.argsort(dup)
    dup, dup_prev = dup[by_pos], at[hit][by_pos]
    prev = np.full(at.size, -1, dtype=np.int32)
    prev[dup] = dup_prev
    # A node repeats a string iff the largest prev among the duplicate
    # positions it contains reaches its own first position.
    i0 = np.searchsorted(dup, first)
    i1 = np.searchsorted(dup, stop)
    cand = np.flatnonzero(i1 > i0)
    spans = np.stack((i0[cand], i1[cand]), axis=1).ravel()
    top = np.maximum.reduceat(np.append(dup_prev, -1), spans)[::2]
    repeats[cand] = top >= first[cand]
    return prev, repeats


class VectorPairGenerator:
    """Drop-in vectorised replacement for :class:`SaPairGenerator`.

    Same constructor contract (``gst``, ``psi``, optional bucket
    ``ranges``), same single-use ``pairs()`` stream, same
    :class:`PairGenStats` counters — only the execution strategy differs.
    It owns one :class:`FlatForest` over all of its ``ranges``
    (:func:`~repro.suffix.interval_tree.build_flat_forest`), built here,
    where it is used: by the sequential engine over the whole array, by
    each slave over its own buckets.

    Parameters
    ----------
    block_size:
        Maximum pairs materialised per yielded chunk.
    telemetry:
        Optional session: ``pairs.nodes`` and ``pairs.raw`` counters are
        flushed when the stream finishes (matching the scalar engine) and
        every emitted chunk is observed into the ``pairs.block_size``
        histogram.
    """

    def __init__(
        self,
        gst: SuffixArrayGst,
        psi: int,
        ranges: list[tuple[int, int]] | None = None,
        *,
        block_size: int = PAIR_BLOCK_SIZE,
        telemetry: Telemetry | None = None,
    ) -> None:
        if psi < 1:
            raise ValueError(f"psi must be >= 1, got {psi}")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.gst = gst
        self.psi = psi
        self.ranges = ranges
        self.block_size = block_size
        self.stats = PairGenStats()
        self._telemetry = telemetry
        self._consumed = False
        self._forest: FlatForest = gst.flat_forest(min_depth=psi, ranges=ranges)

    # ------------------------------------------------------------------ #

    @property
    def total_nodes(self) -> int:
        """Forest nodes this generator owns: ``stats.nodes_processed``
        over this is its resumable position (live ``gen_position``)."""
        return self._forest.n_nodes

    def blocks(self) -> Iterator[PairBlock]:
        """Canonical pairs in decreasing maximal-substring length, as
        blocks of at most ``block_size`` pairs.

        Single-use, like the scalar engine: the stream accumulates
        into ``stats``, so a second call raises instead of silently
        corrupting the counters.
        """
        if self._consumed:
            raise RuntimeError(REITERATION_ERROR)
        self._consumed = True
        return self._generate()

    def pairs(self) -> Iterator[Pair]:
        """The :meth:`blocks` stream flattened into ``Pair`` records."""
        return flatten(self.blocks())

    def __iter__(self) -> Iterator[Pair]:
        return self.pairs()

    # ------------------------------------------------------------------ #

    def _generate(self) -> Iterator[PairBlock]:
        try:
            yield from self._sweep()
        finally:
            if self._telemetry is not None:
                self._telemetry.count("pairs.nodes", self.stats.nodes_processed)
                self._telemetry.count("pairs.raw", self.stats.raw_pairs)

    def _sweep(self) -> Iterator[PairBlock]:
        gst = self.gst
        stats = self.stats
        forest = self._forest
        n_nodes = forest.n_nodes
        if n_nodes == 0:
            return
        sa = gst.sa
        # ---- node tables ------------------------------------------------
        # Node ids are range-major (one owner, one forest).
        depth = forest.depth
        lb = forest.lb
        end = forest.rb + 1
        parent = forest.parent
        n_leaves = np.diff(forest.leaves_offsets)
        # Processing order: the forest's, which the scalar engine walks too.
        proc = forest.nodes_by_decreasing_depth()
        is_root = parent < 0
        # Covered positions: the ranks some root covers, the only ones a
        # node reads, root after root.  A root's ranks are consecutive
        # positions, so a rank under node ``v`` (its root's end included)
        # sits at ``rank - shift[v]``.
        roots = np.flatnonzero(is_root)
        roots = roots[np.argsort(lb[roots])]
        r_lb = lb[roots]
        r_size = end[roots] - r_lb
        shift = _shift(r_lb, r_size, lb)
        first, stop = lb - shift, end - shift
        at = sa[ragged_ranges(r_lb, r_size)]
        # Pairable nodes: a λ, or two different left characters, inside
        # the interval.  The rest emit nothing (their lset is a subset of
        # the interval and ``_ALLOWED`` is zero on one non-λ class), nor
        # does anything below them, so they get no slots and a root that
        # cannot pair keeps its ranks out of the class index.
        pairable = _pairable(gst.left_chars(at), first, stop)
        p_root = pairable[roots]
        root_lb, p_size = r_lb[p_root], r_size[p_root]
        strings = gst.pos_string[at]
        del at, roots, r_lb, p_root
        prev, repeats = _repeated_strings(strings, r_size, first, stop)
        del strings, first, stop, r_size
        # The lset structures of every clean node that can pair: ``cov``,
        # the pairable roots' ranks, by (class, rank), and per-class prefix
        # counts over its positions, which a node reaches by ``pshift``.
        cov = ragged_ranges(root_lb, p_size)
        order, counts, base = _class_index(gst.left_chars(sa[cov]))
        whole = cov[order], counts, base
        del order, cov
        # Pairable nodes in processing order, and per node the tables its
        # slots read; slots — the scalar engine's child/leaf interleave —
        # are one sorted (pairable position, first rank) key each, and a
        # slot ends where the next slot of its node starts.
        at_proc = np.flatnonzero(pairable[proc])
        pnodes = proc[at_proc]
        p_lb, p_end, p_depth = lb[pnodes], end[pnodes], depth[pnodes]
        pshift = _shift(root_lb, p_size, p_lb)
        del root_lb, p_size
        pos = np.zeros(n_nodes, dtype=np.int64)
        pos[pnodes] = np.arange(pnodes.size)
        pos <<= 32
        n_kids = np.diff(forest.children_offsets)
        kids = np.repeat(pos, np.where(pairable, n_kids, 0))
        kids |= lb[forest.children_flat[np.repeat(pairable, n_kids)]]
        leaves = np.repeat(pos, np.where(pairable, n_leaves, 0))
        leaves |= forest.leaves_flat[np.repeat(pairable, n_leaves)]
        slots = np.sort(np.concatenate((kids, leaves)))
        del kids, leaves, pos, n_kids
        # Entries the min-rank filter removed below each node (its
        # children's ``lost``), pushed up as repeating nodes are swept.
        lost_below = None if prev is None else np.zeros(n_nodes, dtype=np.int64)

        # One step per run of up to CHUNK_NODES nodes of one kind: the
        # interval formulation needs nothing from a node's children, so
        # any cut of the processing order is a valid batch.
        # (A mask, not ``np.union1d``: numpy's set functions import
        # ``numpy.ma`` on first use — 16 ms and 0.5 MB in the middle of a run.)
        kind = repeats[proc]
        cut = np.zeros(n_nodes + 1, dtype=bool)
        cut[::CHUNK_NODES] = True
        cut[1:n_nodes] |= np.diff(kind)
        cut[n_nodes] = True
        cuts = np.flatnonzero(cut)
        pcuts = np.searchsorted(at_proc, cuts)
        slot_cuts = np.searchsorted(slots, pcuts << 32)
        # -- lset space accounting (scalar-exact peak tracking) ----------
        # Every directly attached leaf is born (+1); an entry dies (-1) at
        # the node that first filters it; a root's whole lset dies after
        # the node, i.e. after its own sample of ``live``.  ``live`` is
        # that count after each node as if no entry were ever filtered, and
        # ``carry`` what the filter has changed of it in earlier steps.
        death = np.where(is_root, end - lb, 0)[proc]
        live = np.cumsum(n_leaves[proc] - death, dtype=np.int32)
        live += death
        top = np.maximum.reduceat(live, cuts[:-1])
        carry = 0
        for step in range(cuts.size - 1):
            p0, p1 = int(cuts[step]), int(cuts[step + 1])
            q0, q1 = int(pcuts[step]), int(pcuts[step + 1])  # its pairable nodes
            if kind[p0]:
                # -- the min-rank filter over each node's own interval ---
                nodes = proc[p0:p1]
                n_lb = lb[nodes]
                size = end[nodes] - n_lb
                ranks = ragged_ranges(n_lb, size)
                off = np.repeat(shift[nodes], size)  # ranks to positions
                keep = prev[ranks - off] < np.repeat(n_lb, size) - off
                first = np.cumsum(size) - size
                lost = size - np.add.reduceat(keep, first, dtype=np.int64)
                inner = ~is_root[nodes]
                np.add.at(lost_below, parent[nodes[inner]], lost[inner])
                killed = lost - lost_below[nodes]
                fall = np.where(is_root[nodes], lost, 0)  # not in the root's lset
                change = np.cumsum(fall - killed)
                step_top = int((live[p0:p1] + (carry + change - fall)).max())
                carry += int(change[-1])
            else:
                step_top = int(top[step]) + carry
            stats.peak_lset_entries = max(stats.peak_lset_entries, step_top)
            stats.nodes_processed += p1 - p0
            stats._live_entries = int(live[p1 - 1]) - int(death[p1 - 1]) + carry
            if q1 == q0:
                continue
            key = slots[slot_cuts[step] : slot_cuts[step + 1]]
            own = (key >> 32) - q0
            a = key & _LOW32
            b = np.append(a[1:], 0)
            b[np.cumsum(np.bincount(own, minlength=q1 - q0)) - 1] = p_end[q0:q1]
            if kind[p0]:
                # The class index over what the pairable nodes keep.
                keep &= np.repeat(pairable[nodes], size)
                kept = np.concatenate((_ZERO, np.cumsum(keep)))
                start = first[at_proc[q0:q1] - p0]
                rebase = (start - p_lb[q0:q1])[own]
                bounds = kept[start[own]], kept[rebase + a], kept[rebase + b]
                ranks = ranks[keep]
                order, counts, base = _class_index(gst.left_chars(sa[ranks]))
                index = ranks[order], counts, base
            else:
                off = pshift[q0:q1][own]
                bounds = p_lb[q0:q1][own] - off, a - off, b - off
                index = whole
            yield from self._expand(index, bounds, p_depth[q0:q1][own])

    def _expand(
        self,
        index: tuple[np.ndarray, np.ndarray, np.ndarray],
        bounds: tuple[np.ndarray, np.ndarray, np.ndarray],
        slot_depth: np.ndarray,
    ) -> Iterator[PairBlock]:
        """Cartesian products of one step's slots against earlier slots.

        ``index`` is a :func:`_class_index` whose ``order`` already holds
        suffix-array ranks; ``bounds`` are each slot's node start, slot
        start and slot end in that index's positions.  A class-``cj`` entry
        of a slot pairs with the class-compatible entries of strictly
        earlier slots of its node, class by class in rank order — the
        scalar engine's emission order.
        """
        gst = self.gst
        stats = self.stats
        tel = self._telemetry
        pool, counts, base = index
        lo = _count_rows(counts, bounds[0])
        mid = _count_rows(counts, bounds[1])
        old = mid - lo  # per class: entries of earlier slots of the node
        new = _count_rows(counts, bounds[2]) - mid  # per class: entries of this slot
        partners = old @ _ALLOWED  # at most the node's size: fits int32
        g_slot, g_cls = np.nonzero((new > 0) & (partners > 0))
        if g_slot.size == 0:
            return
        g_new = new[g_slot, g_cls].astype(np.int64)
        g_partners = partners[g_slot, g_cls].astype(np.int64)
        g_raw = g_new * g_partners
        stats.raw_pairs += int(g_raw.sum())
        start = base + lo[g_slot]
        groups = np.arange(g_slot.size)
        entry_group = np.repeat(groups, g_new)
        i_side = np.repeat(
            ragged_ranges(start[groups, g_cls] + old[g_slot, g_cls], g_new),
            g_partners[entry_group],
        )
        j_side = ragged_ranges(
            start[entry_group].ravel(),
            (old[g_slot] * _ALLOWED[g_cls])[entry_group].ravel().astype(np.int64),
        )

        # -- Lemma 4 discard rules as block masks ------------------------
        p_old = gst.sa[pool[j_side]]
        p_new = gst.sa[pool[i_side]]
        s_old = gst.pos_string[p_old]
        s_new = gst.pos_string[p_new]
        valid = (s_old >> 1) != (s_new >> 1)
        swap = (s_old >> 1) > (s_new >> 1)
        str_a = np.where(swap, s_new, s_old)
        valid &= (str_a & 1) == 0
        if not valid.any():
            return
        str_b = np.where(swap, s_old, s_new)
        o_old = gst.offsets(p_old, s_old)
        o_new = gst.offsets(p_new, s_new)
        off_a = np.where(swap, o_new, o_old)
        off_b = np.where(swap, o_old, o_new)
        depth = np.repeat(slot_depth[g_slot], g_raw)
        cols = np.stack([x[valid] for x in (depth, str_a, off_a, str_b, off_b)])
        n = cols.shape[1]
        stats.pairs_generated += n
        for c0 in range(0, n, self.block_size):
            block = PairBlock(cols[:, c0 : c0 + self.block_size])
            if tel is not None:
                tel.observe("pairs.block_size", len(block), PAIR_BLOCK_BUCKETS)
            yield block


def make_pair_generator(
    gst: SuffixArrayGst,
    config: "ClusteringConfig",
    *,
    ranges: list[tuple[int, int]] | None = None,
    telemetry: Telemetry | None = None,
) -> SaPairGenerator | VectorPairGenerator:
    """Engine selection for suffix-array pair generation.

    Mirrors :func:`repro.align.batch.make_aligner`: ``config.pair_engine``
    picks the scalar reference engine or the vectorised one; both yield
    identical pair streams.
    """
    if config.pair_engine == "vector":
        return VectorPairGenerator(
            gst, psi=config.psi, ranges=ranges, telemetry=telemetry
        )
    return SaPairGenerator(gst, psi=config.psi, ranges=ranges, telemetry=telemetry)

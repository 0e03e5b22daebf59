"""Vectorised promising-pair generation: Algorithm 1 as depth-batched
array sweeps over flat lset arenas.

:class:`~repro.pairs.sa_generator.SaPairGenerator` walks the LCP-interval
forest one node at a time in pure Python — per node it interleaves child
slots, deduplicates strings through a mark array, and emits cartesian
products entry by entry.  That traversal, not alignment, is the hot path
on realistic inputs (tens of thousands of nodes per ten thousand pairs).
This module re-expresses the identical computation as numpy sweeps, one
per *string depth*:

- all nodes of equal depth are independent (children are strictly deeper,
  so their lsets are already stored), hence one batch;
- lsets live in a single flat **arena**: one int32 array of suffix-array
  ranks, each stored node owning a contiguous class-sorted segment
  described by a start offset and five per-class counts (CSR over the
  lA..lλ classes of §3.2) — ``list[list[tuple]]`` becomes three small
  arrays;
- duplicate-string elimination is a boolean mark array computed per batch
  from the first occurrence of every (node, string) key — the vectorised
  form of the paper's global mark array;
- cartesian products between compatible classes of *different child
  slots* become ``repeat``/``tile``-style block constructions, and the
  discard rules of Lemma 4 (same EST, complemented smaller id) are
  boolean masks over whole blocks;
- surviving pairs are materialised chunk-by-chunk (``block_size`` at a
  time), so the stream is still a lazy generator with a suspended frame —
  :class:`~repro.pairs.ondemand.OnDemandPairGenerator` semantics are
  unchanged.

The engine is a pure performance layer: for any input it yields the exact
pair sequence of the scalar generator — same multiset, same order within
and across depths — with :class:`SaPairGenerator` kept as the correctness
oracle (tests/test_vector_pairs.py, benchmarks/perf_gate.py).
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.pairs.lsets import N_CLASSES
from repro.pairs.pair import Pair
from repro.pairs.sa_generator import (
    REITERATION_ERROR,
    PairGenStats,
    SaPairGenerator,
)
from repro.sequence.alphabet import LAMBDA
from repro.suffix.gst import SuffixArrayGst
from repro.suffix.interval_tree import FlatForest
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

#: _ALLOWED[ci, cj] — the class-compatibility rule of ProcessInternalNode:
#: classes pair when their left-extension characters differ, or both are λ.
_ALLOWED = (
    (np.arange(N_CLASSES)[:, None] != np.arange(N_CLASSES)[None, :])
    | (np.arange(N_CLASSES)[:, None] == LAMBDA)
).astype(np.int64)

_ZERO = np.zeros(1, dtype=np.int64)


def _ragged_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + l)`` per (start, length) pair.

    The standard cumsum construction; zero-length segments contribute
    nothing.  Both inputs must be int64 arrays of equal size.
    """
    total = int(lens.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    nz = lens > 0
    if not nz.all():
        starts, lens = starts[nz], lens[nz]
    ends = np.cumsum(lens)
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    if lens.size > 1:
        out[ends[:-1]] = starts[1:] - starts[:-1] - lens[:-1] + 1
    return np.cumsum(out)


class VectorPairGenerator:
    """Drop-in vectorised replacement for :class:`SaPairGenerator`.

    Same constructor contract (``gst``, ``psi``, optional bucket
    ``ranges``), same single-use ``pairs()`` stream, same
    :class:`PairGenStats` counters — only the execution strategy differs.

    Parameters
    ----------
    block_size:
        Maximum pairs materialised per yielded chunk; bounds the latency
        before the first pair of a depth batch reaches the consumer.
    telemetry:
        Optional session: ``pairs.nodes`` and ``pairs.raw`` counters are
        flushed when the stream finishes (matching the scalar engine) and
        every emitted chunk is observed into the ``pairs.block_size``
        histogram.
    forests:
        Pre-built :class:`FlatForest` list to use instead of rebuilding
        from ``gst.lcp`` — the shared-memory path, where slaves attach to
        forests the master packed once.  Must correspond to the non-empty
        entries of ``ranges`` in order; ``min_depth`` must equal ``psi``.
    """

    def __init__(
        self,
        gst: SuffixArrayGst,
        psi: int,
        ranges: list[tuple[int, int]] | None = None,
        *,
        block_size: int = PAIR_BLOCK_SIZE,
        telemetry: Telemetry | None = None,
        forests: list[FlatForest] | None = None,
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
        self._forests: list[FlatForest] = []
        if forests is not None:
            for f in forests:
                if f.min_depth != psi:
                    raise ValueError(
                        f"injected forest has min_depth={f.min_depth}, psi={psi}"
                    )
            self._forests = list(forests)
        elif ranges is None:
            self._forests.append(gst.flat_forest(min_depth=psi))
        else:
            for lo, hi in ranges:
                if hi > lo:
                    self._forests.append(gst.flat_forest(min_depth=psi, lo=lo, hi=hi))

    # ------------------------------------------------------------------ #

    @property
    def total_nodes(self) -> int:
        """Forest nodes this generator owns: ``stats.nodes_processed``
        over this is its resumable position (live ``gen_position``)."""
        return sum(f.n_nodes for f in self._forests)

    def pairs(self) -> Iterator[Pair]:
        """Canonical pairs in decreasing maximal-substring length.

        Single-use, like the scalar engine: the arena segments are
        consumed as parents absorb their children, so a second call
        raises instead of silently corrupting ``stats``.
        """
        if self._consumed:
            raise RuntimeError(REITERATION_ERROR)
        self._consumed = True
        return self._generate()

    def __iter__(self) -> Iterator[Pair]:
        return self.pairs()

    # ------------------------------------------------------------------ #

    def _generate(self) -> Iterator[Pair]:
        stats = self.stats
        tel = self._telemetry
        try:
            yield from self._sweep()
        finally:
            if tel is not None:
                tel.count("pairs.nodes", stats.nodes_processed)
                tel.count("pairs.raw", stats.raw_pairs)

    def _sweep(self) -> Iterator[Pair]:
        gst = self.gst
        stats = self.stats
        tel = self._telemetry
        forests = self._forests
        n_nodes = self.total_nodes
        if n_nodes == 0:
            return
        n_strings = gst.collection.n_strings
        cls_codes = np.arange(N_CLASSES, dtype=np.int64)

        # Per-rank suffix facts, gathered once (rank -> string/offset/char).
        sa = gst.sa_struct.sa
        rank_string = gst.pos_string[sa].astype(np.int64)
        rank_offset = gst.pos_offset[sa].astype(np.int64)
        rank_leftchar = gst.left_char[sa].astype(np.int64)

        # ---- global node + slot tables over all owned forests ----------
        # Node ids are forest-major concatenation order; slots are the
        # scalar engine's child/leaf interleave, one row per slot.
        depth = np.concatenate([f.depth for f in forests]).astype(np.int64)
        parent = np.empty(n_nodes, dtype=np.int64)
        owner_parts, lb_parts, leaf_parts, ref_parts = [], [], [], []
        off = 0
        for f in forests:
            n = f.n_nodes
            parent[off : off + n] = np.where(f.parent >= 0, f.parent + off, -1)
            cf, co = f.children_flat, f.children_offsets
            lf, lo_ = f.leaves_flat, f.leaves_offsets
            owner_parts.append(np.repeat(np.arange(n), np.diff(co)) + off)
            owner_parts.append(np.repeat(np.arange(n), np.diff(lo_)) + off)
            lb_parts.append(f.lb[cf])
            lb_parts.append(lf)
            leaf_parts.append(np.zeros(cf.size, dtype=bool))
            leaf_parts.append(np.ones(lf.size, dtype=bool))
            ref_parts.append(cf + off)
            ref_parts.append(lf)
            off += n
        slot_owner = np.concatenate(owner_parts)
        slot_lb = np.concatenate(lb_parts).astype(np.int64)
        slot_is_leaf = np.concatenate(leaf_parts)
        slot_ref = np.concatenate(ref_parts).astype(np.int64)

        # Processing order: decreasing depth, stable on (forest, node) —
        # bit-identical to the scalar engine's sorted (-depth, f, nid).
        proc = np.argsort(-depth, kind="stable")
        pos_of = np.empty(n_nodes, dtype=np.int64)
        pos_of[proc] = np.arange(n_nodes)

        slot_sort = np.lexsort((slot_lb, pos_of[slot_owner]))
        slot_owner_pos = pos_of[slot_owner][slot_sort]
        slot_is_leaf = slot_is_leaf[slot_sort]
        slot_ref = slot_ref[slot_sort]

        # One batch per distinct depth: nodes of equal depth are contiguous
        # in processing order and mutually independent.
        depth_in_order = depth[proc]
        cuts = np.flatnonzero(np.diff(depth_in_order)) + 1
        batch_starts = np.concatenate((_ZERO, cuts))
        batch_ends = np.concatenate((cuts, np.array([n_nodes])))
        slot_bounds = np.searchsorted(
            slot_owner_pos, np.concatenate((batch_starts, np.array([n_nodes])))
        )
        is_root_pos = parent[proc] < 0

        # ---- the flat lset arena ----------------------------------------
        # Stored node segments: arena[seg_start[v] : seg_start[v] +
        # seg_total[v]] holds node v's surviving entries sorted by class,
        # with per-class counts in seg_counts[v].
        arena = np.empty(4096, dtype=np.int32)
        arena_n = 0
        seg_start = np.zeros(n_nodes, dtype=np.int64)
        seg_counts = np.zeros((n_nodes, N_CLASSES), dtype=np.int64)
        seg_total = np.zeros(n_nodes, dtype=np.int64)
        live = 0

        for bi in range(batch_starts.size):
            p0, p1 = int(batch_starts[bi]), int(batch_ends[bi])
            s0, s1 = int(slot_bounds[bi]), int(slot_bounds[bi + 1])
            d = int(depth_in_order[p0])
            n_batch = p1 - p0
            b_nodes = proc[p0:p1]
            b_is_leaf = slot_is_leaf[s0:s1]
            b_ref = slot_ref[s0:s1]
            b_owner_local = slot_owner_pos[s0:s1] - p0
            n_slots = s1 - s0

            # -- gather every child/leaf entry of the batch, slot-major --
            slot_len = np.ones(n_slots, dtype=np.int64)
            child = ~b_is_leaf
            slot_len[child] = seg_total[b_ref[child]]
            n_entries = int(slot_len.sum())
            slot_off = np.concatenate((_ZERO, np.cumsum(slot_len)[:-1]))
            ranks = np.empty(n_entries, dtype=np.int64)
            cls = np.empty(n_entries, dtype=np.int64)
            leaf_rank = b_ref[b_is_leaf]
            leaf_pos = slot_off[b_is_leaf]
            ranks[leaf_pos] = leaf_rank
            cls[leaf_pos] = rank_leftchar[leaf_rank]
            if child.any():
                clen = slot_len[child]
                cref = b_ref[child]
                cpos = _ragged_ranges(slot_off[child], clen)
                ranks[cpos] = arena[_ragged_ranges(seg_start[cref], clen)]
                # Stored segments are class-sorted; expand their per-class
                # counts back into entry classes.
                cls[cpos] = np.repeat(
                    np.tile(cls_codes, cref.size), seg_counts[cref].ravel()
                )
            ent_slot = np.repeat(np.arange(n_slots), slot_len)
            ent_node = b_owner_local[ent_slot]
            ent_is_leaf = b_is_leaf[ent_slot]
            strs = rank_string[ranks]

            # -- duplicate-string elimination (the §3.2 mark array) ------
            # keep marks the first occurrence of every (node, string) key
            # in slot order; later occurrences are dropped exactly as the
            # scalar mark array drops them.
            _, first = np.unique(ent_node * n_strings + strs, return_index=True)
            keep = np.zeros(n_entries, dtype=bool)
            keep[first] = True

            kk_rank = ranks[keep]
            kk_cls = cls[keep]
            kk_node = ent_node[keep]
            kk_slot = ent_slot[keep]
            kk_str = strs[keep]
            m = kk_rank.size

            # -- lset space accounting (scalar-exact peak tracking) ------
            # A fresh leaf entry is born (+1); a duplicate arriving from a
            # child dies (-1); a root's whole lset dies after the node.
            fresh_leaf = np.bincount(ent_node[keep & ent_is_leaf], minlength=n_batch)
            dup_child = np.bincount(ent_node[~keep & ~ent_is_leaf], minlength=n_batch)
            kept_per_node = np.bincount(kk_node, minlength=n_batch)
            death = np.where(is_root_pos[p0:p1], kept_per_node, 0)
            live_seq = (
                live
                + np.cumsum(fresh_leaf - dup_child)
                - np.concatenate((_ZERO, np.cumsum(death)[:-1]))
            )
            peak = int(live_seq.max())
            if peak > stats.peak_lset_entries:
                stats.peak_lset_entries = peak
            live = int(live_seq[-1]) - int(death[-1])
            stats.nodes_processed += n_batch
            stats._live_entries = live

            # -- cartesian products against earlier slots ----------------
            # Per (node, class) CSR over surviving entries; an entry pairs
            # with the class-compatible entries of strictly earlier slots
            # of its node, i.e. a prefix of its (node, class) group.
            gkey = kk_node * N_CLASSES + kk_cls
            csr = np.argsort(gkey, kind="stable")
            gcounts = np.bincount(gkey, minlength=n_batch * N_CLASSES)
            goff = np.concatenate((_ZERO, np.cumsum(gcounts)))
            # npart[i, c]: class-c entries of entry i's node from strictly
            # earlier slots — an exclusive per-class prefix sum evaluated
            # at each entry's slot start, re-based at its node start
            # (entries are slot-major, so the difference counts exactly
            # the same-node earlier-slot entries).
            prefix = np.zeros((m + 1, N_CLASSES), dtype=np.int64)
            prefix[np.arange(1, m + 1), kk_cls] = 1
            np.cumsum(prefix, axis=0, out=prefix)
            idx = np.arange(m, dtype=np.int64)
            slot_first = np.where(np.diff(kk_slot, prepend=-1) != 0, idx, 0)
            np.maximum.accumulate(slot_first, out=slot_first)
            node_first = np.where(np.diff(kk_node, prepend=-1) != 0, idx, 0)
            np.maximum.accumulate(node_first, out=node_first)
            npart = prefix[slot_first] - prefix[node_first]
            qgid = kk_node[:, None] * N_CLASSES + cls_codes[None, :]
            lens = npart * _ALLOWED.T[kk_cls]
            raw = int(lens.sum())
            stats.raw_pairs += raw

            if raw:
                block_lens = lens.ravel()
                i_side = np.repeat(np.arange(m), lens.sum(axis=1))
                within = _ragged_ranges(
                    np.zeros(block_lens.size, dtype=np.int64), block_lens
                )
                j_side = csr[np.repeat(goff[qgid.ravel()], block_lens) + within]

                # -- Lemma 4 discard rules as block masks ----------------
                s_old = kk_str[j_side]
                s_new = kk_str[i_side]
                valid = (s_old >> 1) != (s_new >> 1)
                swap = (s_old >> 1) > (s_new >> 1)
                str_a = np.where(swap, s_new, s_old)
                valid &= (str_a & 1) == 0
                if valid.any():
                    str_b = np.where(swap, s_old, s_new)
                    o_old = rank_offset[kk_rank[j_side]]
                    o_new = rank_offset[kk_rank[i_side]]
                    off_a = np.where(swap, o_new, o_old)
                    off_b = np.where(swap, o_old, o_new)
                    va = str_a[valid].tolist()
                    vb = str_b[valid].tolist()
                    oa = off_a[valid].tolist()
                    ob = off_b[valid].tolist()
                    stats.pairs_generated += len(va)
                    bs = self.block_size
                    for c0 in range(0, len(va), bs):
                        block = list(
                            map(
                                Pair,
                                repeat(d),
                                va[c0 : c0 + bs],
                                oa[c0 : c0 + bs],
                                vb[c0 : c0 + bs],
                                ob[c0 : c0 + bs],
                            )
                        )
                        if tel is not None:
                            tel.observe(
                                "pairs.block_size", len(block), PAIR_BLOCK_BUCKETS
                            )
                        yield from block

            # -- store the surviving lsets for the parents ---------------
            seg = kk_rank[csr].astype(np.int32)
            need = arena_n + seg.size
            if need > arena.size:
                grown = np.empty(max(need, 2 * arena.size), dtype=np.int32)
                grown[:arena_n] = arena[:arena_n]
                arena = grown
            arena[arena_n:need] = seg
            seg_start[b_nodes] = arena_n + goff[np.arange(n_batch) * N_CLASSES]
            seg_counts[b_nodes] = gcounts.reshape(n_batch, N_CLASSES)
            seg_total[b_nodes] = kept_per_node
            arena_n = need


def make_pair_generator(
    gst: SuffixArrayGst,
    config: "ClusteringConfig",
    *,
    ranges: list[tuple[int, int]] | None = None,
    telemetry: Telemetry | None = None,
    forests: list[FlatForest] | None = None,
) -> SaPairGenerator | VectorPairGenerator:
    """Engine selection for suffix-array pair generation.

    Mirrors :func:`repro.align.batch.make_aligner`: ``config.pair_engine``
    picks the scalar reference engine or the vectorised one; both yield
    identical pair streams.  ``forests`` (vector engine only) injects
    pre-built flat forests — e.g. shared-memory views — in place of a
    local rebuild.
    """
    if config.pair_engine == "vector":
        return VectorPairGenerator(
            gst, psi=config.psi, ranges=ranges, telemetry=telemetry, forests=forests
        )
    return SaPairGenerator(gst, psi=config.psi, ranges=ranges, telemetry=telemetry)

"""Promising-pair generation over the suffix-array engine.

This is Algorithm 1 of the paper executed over LCP-interval forests instead
of explicit tree nodes.  The translation is exact:

- an LCP interval of depth d *is* the GST node with string-depth d;
- a suffix-array rank directly attached to a node (not covered by a child
  interval) *is* a leaf child of that node;
- the paper's multi-string leaves (identical suffixes of different strings)
  appear here as a node at depth = suffix length whose children are
  singleton ranks distinguished by their unique sentinels — the paper's
  separate ProcessLeaf rule (c_i < c_j or both λ) and the internal-node
  rule (different children, c_i ≠ c_j or both λ) coincide on this shape,
  so a single uniform rule suffices (``tests/test_pair_generation.py`` and
  ``tests/conftest.py::tree_engine_run`` machine-check the equivalence
  with the paper-faithful backend).

Nodes are processed in decreasing string-depth order; at each node the
children's lsets are traversed to drop duplicate string occurrences (the
global mark array of §3.2), cartesian products between *compatible classes
of different child slots* are emitted, and the surviving entries become the
node's lsets by concatenation.  Every suffix therefore owns exactly one
lset entry for its entire life, keeping lset space linear in the input —
the paper's central space claim.

The generator is lazy (a true Python generator), which is what
"on-demand" means operationally: batches are pulled by the driver or the
slave protocol, and generation state is simply the suspended frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.sequence.alphabet import LAMBDA
from repro.pairs.lsets import N_CLASSES
from repro.pairs.pair import Pair, PairBlock, canonical_pair, flatten
from repro.suffix.gst import LEFT_OF_CODE, SuffixArrayGst
from repro.suffix.interval_tree import FlatForest, build_lcp_forest
from repro.telemetry import Telemetry

__all__ = ["SaPairGenerator", "PairGenStats"]

REITERATION_ERROR = (
    "pairs() was already iterated: generation consumes the lset store and "
    "accumulates into stats, so a second pass would silently corrupt the "
    "counters — build a fresh generator instead"
)


@dataclass
class PairGenStats:
    """Counters reported by a generator (feeds Fig. 7's 'pairs generated')."""

    nodes_processed: int = 0
    raw_pairs: int = 0  # cross-product events before the discard rules
    pairs_generated: int = 0  # canonical pairs actually emitted
    peak_lset_entries: int = 0  # live lset entries high-water mark (O(N) claim)
    _live_entries: int = field(default=0, repr=False)


class SaPairGenerator:
    """Generate promising pairs for (a subset of) the suffix array.

    Parameters
    ----------
    gst:
        The built :class:`~repro.suffix.gst.SuffixArrayGst`.
    psi:
        Threshold ψ: only maximal common substrings of length ≥ ψ produce
        pairs.
    ranges:
        Optional list of suffix-array rank ranges ``(lo, hi)`` — the
        buckets owned by one processor.  ``None`` means the whole array
        (the sequential driver).  The owner's one forest over all of them
        (the reference stack builder's,
        :func:`~repro.suffix.interval_tree.build_lcp_forest`) is walked in
        a single decreasing-depth order, matching the paper's slave-local
        sort (§3.2 closing paragraph: the greedy order is maintained per
        processor, not globally).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` session: the node and
        raw-product counts are flushed into the ``pairs.nodes`` /
        ``pairs.raw`` counters when the stream finishes (or is closed).
    """

    def __init__(
        self,
        gst: SuffixArrayGst,
        psi: int,
        ranges: list[tuple[int, int]] | None = None,
        *,
        telemetry: Telemetry | None = None,
    ) -> None:
        if psi < 1:
            raise ValueError(f"psi must be >= 1, got {psi}")
        self.gst = gst
        self.psi = psi
        self.ranges = ranges
        self.stats = PairGenStats()
        self._telemetry = telemetry
        self._consumed = False
        self._forest: FlatForest = build_lcp_forest(gst.lcp, min_depth=psi, ranges=ranges)

    # ------------------------------------------------------------------ #

    @property
    def total_nodes(self) -> int:
        """Forest nodes this generator owns: ``stats.nodes_processed``
        over this is its resumable position (live ``gen_position``)."""
        return self._forest.n_nodes

    def pairs(self) -> Iterator[Pair]:
        """Canonical pairs in decreasing maximal-substring length.

        Single-use: the stream consumes the lset store, so re-iterating
        would silently double-count ``stats`` — a second call raises.
        """
        return flatten(self._start())

    def blocks(self) -> Iterator[PairBlock]:
        """The same stream as one block per node that emits pairs."""
        return map(PairBlock.from_pairs, self._start())

    def _start(self) -> Iterator[list[Pair]]:
        if self._consumed:
            raise RuntimeError(REITERATION_ERROR)
        self._consumed = True
        return self._generate()

    def _generate(self) -> Iterator[list[Pair]]:
        try:
            yield from self._sweep()
        finally:
            if self._telemetry is not None:
                self._telemetry.count("pairs.nodes", self.stats.nodes_processed)
                self._telemetry.count("pairs.raw", self.stats.raw_pairs)

    def _sweep(self) -> Iterator[list[Pair]]:
        """The pairs of each node that emits any, node by node.

        A suffix's offset is ``p - starts[s]``; its left-extension class is
        read off the symbol code before it (``text[-1]``, a terminator,
        for position 0)."""
        gst = self.gst
        forest = self._forest
        # Plain-list views: element access on Python lists is several times
        # faster than numpy scalar indexing, and this loop is pure Python.
        sa = gst.sa.tolist()
        pos_string = gst.pos_string.tolist()
        starts = gst.starts.tolist()
        text = gst.text.tolist()
        left_of_code = LEFT_OF_CODE.tolist()
        depths = forest.depth.tolist()
        lbs = forest.lb.tolist()
        parents = forest.parent.tolist()
        kid_ids = forest.children_flat.tolist()
        kid_at = forest.children_offsets.tolist()
        leaf_ranks = forest.leaves_flat.tolist()
        leaf_at = forest.leaves_offsets.tolist()
        stats = self.stats

        # marks[string] = uid of the node currently deduplicating it.
        marks = [-1] * gst.collection.n_strings
        # Stored lsets of processed nodes awaiting their parent: node ->
        # list of N_CLASSES entry lists (entries are suffix-array ranks).
        store: dict[int, list[list[int]]] = {}

        # Decreasing depth: children are strictly deeper than parents, so
        # lsets flow bottom-up.
        for uid, nid in enumerate(forest.nodes_by_decreasing_depth().tolist()):
            depth = depths[nid]
            stats.nodes_processed += 1
            emitted: list[Pair] = []

            # Child slots in left-to-right (lb) order: child nodes
            # interleaved with directly-attached leaf ranks.
            slots: list[list[list[int]] | int] = []
            kids = kid_ids[kid_at[nid] : kid_at[nid + 1]]
            leaves = leaf_ranks[leaf_at[nid] : leaf_at[nid + 1]]
            ki = li = 0
            while ki < len(kids) or li < len(leaves):
                if li >= len(leaves) or (ki < len(kids) and lbs[kids[ki]] < leaves[li]):
                    slots.append(store.pop(kids[ki]))
                    ki += 1
                else:
                    slots.append(leaves[li])
                    li += 1

            accum: list[list[int]] = [[] for _ in range(N_CLASSES)]
            for slot in slots:
                if isinstance(slot, int):
                    # A leaf child: one suffix, its own child slot.
                    p = sa[slot]
                    kept: list[list[int]] = [[] for _ in range(N_CLASSES)]
                    s = pos_string[p]
                    if marks[s] != uid:
                        marks[s] = uid
                        o = p - starts[s]
                        cj = left_of_code[text[p - 1]]
                        for ci in range(N_CLASSES):
                            if ci != cj or ci == LAMBDA:
                                for r1 in accum[ci]:
                                    stats.raw_pairs += 1
                                    p1 = sa[r1]
                                    s1 = pos_string[p1]
                                    pair = canonical_pair(depth, s1, p1 - starts[s1], s, o)
                                    if pair is not None:
                                        stats.pairs_generated += 1
                                        emitted.append(pair)
                        kept[cj].append(slot)
                        stats._live_entries += 1
                else:
                    kept = [[] for _ in range(N_CLASSES)]
                    for cj in range(N_CLASSES):
                        for r in slot[cj]:
                            p = sa[r]
                            s = pos_string[p]
                            if marks[s] == uid:
                                stats._live_entries -= 1
                                continue
                            marks[s] = uid
                            o = p - starts[s]
                            for ci in range(N_CLASSES):
                                if ci != cj or ci == LAMBDA:
                                    for r1 in accum[ci]:
                                        stats.raw_pairs += 1
                                        p1 = sa[r1]
                                        s1 = pos_string[p1]
                                        pair = canonical_pair(
                                            depth, s1, p1 - starts[s1], s, o
                                        )
                                        if pair is not None:
                                            stats.pairs_generated += 1
                                            emitted.append(pair)
                            kept[cj].append(r)
                # Entries of one slot never pair with each other (they share
                # a deeper common prefix and were handled in the subtree),
                # so the slot merges into the accumulator only afterwards.
                for c in range(N_CLASSES):
                    accum[c].extend(kept[c])

            if stats._live_entries > stats.peak_lset_entries:
                stats.peak_lset_entries = stats._live_entries

            if parents[nid] >= 0:
                store[nid] = accum
            else:
                # Forest root: the parent's depth is below ψ, lsets die here.
                stats._live_entries -= sum(len(c) for c in accum)
            if emitted:
                yield emitted

    def __iter__(self) -> Iterator[Pair]:
        return self.pairs()

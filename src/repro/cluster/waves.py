"""Conflict-free alignment waves: which pairs may be aligned together.

A batch aligned in one call cannot see its own merges, so choosing it by
the already-clustered test alone aligns pairs that an earlier pair of the
same batch was about to make redundant.  A *wave* is chosen speculatively
instead: walk the candidates in order over a scratch union–find of the
current cluster roots and take a pair only if its two roots are still
unconnected *assuming every earlier undecided pair is accepted*; a pair
that speculation connects is deferred and reconsidered, in order and ahead
of anything newer, once the wave's verdicts are in.  Undecided pairs are
those already taken into this wave plus, for the parallel master, the
batches in flight at its slaves.

A taken pair is therefore unconnected even in the most-merged state its
predecessors could leave, which is at least as merged as the state the
one-at-a-time loop tests it in: a wave never aligns a pair that loop would
skip (as long as no rejections are reported to the speculation; see
:class:`Speculation`).  Pairs are dropped only when really co-clustered,
so the partition stays the connected components of the accepted pairs.

The walk runs on blocks (:class:`~repro.pairs.pair.PairBlock`): the
already-clustered test is one root comparison over a chunk's EST columns,
and only the pairs it leaves live reach the Python loop that consults the
speculation, on the roots already found (docs/ALGORITHMS.md §5.1).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from repro.cluster.manager import ClusterManager
from repro.pairs.pair import Pair, PairBlock, as_block

__all__ = ["TAKE", "DEFER", "STALE", "Speculation", "next_wave", "by_verdict"]

TAKE, DEFER, STALE = 0, 1, 2


class Speculation:
    """The clusters as they would be if every undecided pair were accepted:
    a scratch union–find over the manager's cluster roots.

    Connecting more than the truth (an undecided pair that has since been
    rejected) only defers pairs; connecting less only lets a redundant
    pair through.  Neither can change the partition, because a pair is
    declared ``STALE`` by the manager alone.

    All-accept speculation serialises a run of rejections: of the pairs
    between two clusters that keep failing to merge only one is ever
    undecided, which costs a parallel master its parallelism.  A caller
    that reports rejections (:meth:`rejected`) gets the bet hedged by the
    evidence: two clusters that have been rejected ``r`` times may have
    ``r`` pairs undecided beyond what conflict-freedom allows, so a run of
    rejections is worked off in doubling rounds, and an acceptance wastes
    at most as many alignments as rejections came before it.
    """

    def __init__(self, manager: ClusterManager) -> None:
        self._manager = manager
        self._parent: dict[int, int] = {}
        self._rejections: dict[tuple[int, int], int] = {}
        self._hedged: dict[tuple[int, int], int] = {}

    def restart(self, undecided: PairBlock | Iterable[Pair] = ()) -> None:
        """Forget every link; take ``undecided`` (pairs being aligned
        elsewhere) as the only undecided ones.  Rejections are kept."""
        self._parent.clear()
        self._hedged.clear()
        undecided = as_block(undecided)
        self.classify(undecided, len(undecided))

    def _root(self, x: int) -> int:
        parent = self._parent
        root = x
        while root in parent:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    def link(self, root_a: int, root_b: int) -> None:
        """Two cluster roots were really merged: whatever either was
        speculatively connected to, their common root now is."""
        ra, rb = self._root(root_a), self._root(root_b)
        if ra != rb:
            self._parent[ra] = rb

    def rejected(self, pair: Pair) -> None:
        """An alignment of ``pair`` failed to merge its two clusters."""
        key = self._clusters_of(pair)
        self._rejections[key] = self._rejections.get(key, 0) + 1

    def _clusters_of(self, pair: Pair) -> tuple[int, int]:
        ra, rb = self._manager.find(pair.est_a), self._manager.find(pair.est_b)
        return (ra, rb) if ra < rb else (rb, ra)

    def classify(self, pairs: PairBlock | Iterable[Pair], room: int) -> list[int]:
        """Verdicts for ``pairs`` in order, taking at most ``room``; the
        taken pairs become undecided.  Stops at the first live pair after
        the last one there was room for, so there may be fewer verdicts
        than ``pairs``: the rest were not looked at.

        The skip test is one root comparison over the whole block; the
        speculation is consulted, in order, only for the pairs it leaves
        live, with the cluster roots it found."""
        block = as_block(pairs)
        n = len(block)
        roots = self._manager.roots(np.concatenate((block.est_a, block.est_b)))
        ra, rb = roots[:n], roots[n:]
        live = np.flatnonzero(ra != rb)
        keys = zip(
            np.minimum(ra[live], rb[live]).tolist(),
            np.maximum(ra[live], rb[live]).tolist(),
        )
        parent, hedged, rejections = self._parent, self._hedged, self._rejections
        marks: list[int] = []
        stop = n
        for i, key in zip(live.tolist(), keys):
            if room == 0:
                stop = i
                break
            ra_, rb_ = self._root(key[0]), self._root(key[1])
            if ra_ != rb_:
                parent[ra_] = rb_
            elif hedged.get(key, 0) < rejections.get(key, 0):
                hedged[key] = hedged.get(key, 0) + 1
            else:
                marks.append(DEFER)
                continue
            room -= 1
            marks.append(TAKE)
        verdicts = np.full(stop, STALE, dtype=np.int8)
        verdicts[live[: len(marks)]] = marks
        return verdicts.tolist()


def next_wave(
    speculation: Speculation,
    pull: Callable[[], PairBlock],
    room: int,
) -> Iterator[tuple[PairBlock, list[int]]]:
    """Choose the next wave of at most ``room`` pairs, chunk by chunk.

    ``pull()`` hands over the next chunk of candidates in stream order
    (deferred ones first) and an empty chunk when there are none; it is
    called until the wave is full.  Yields each chunk with the verdicts
    of the pairs looked at, a prefix of it: ``TAKE`` (in the wave),
    ``DEFER`` (speculation connects it) or ``STALE`` (its ESTs share a
    cluster: drop it).  Deferred pairs and those not looked at go back to
    the caller's queue, order kept, ahead of newer candidates
    (:func:`by_verdict`).  On a speculation with nothing undecided the
    first pair that is not stale is taken.
    """
    while room > 0:
        chunk = pull()
        if not len(chunk):
            return
        verdicts = speculation.classify(chunk, room)
        room -= verdicts.count(TAKE)
        yield chunk, verdicts


def by_verdict(
    verdicts: list[int], n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split the rows of a chunk of ``n`` pairs that :func:`next_wave`
    yielded with ``verdicts`` into ``(taken, kept, stale)`` row indices;
    ``kept`` is what goes back to the head of the queue: the deferred,
    then those not looked at."""
    marks = np.full(n, DEFER, dtype=np.int8)
    marks[: len(verdicts)] = verdicts
    taken, kept, stale = (np.flatnonzero(marks == v) for v in (TAKE, DEFER, STALE))
    return taken, kept, stale

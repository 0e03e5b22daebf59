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
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.cluster.manager import ClusterManager
from repro.pairs.pair import Pair

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

    def restart(self, undecided: Sequence[Pair] = ()) -> None:
        """Forget every link; take ``undecided`` (pairs being aligned
        elsewhere) as the only undecided ones.  Rejections are kept."""
        self._parent.clear()
        self._hedged.clear()
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

    def classify(self, pairs: Sequence[Pair], room: int) -> list[int]:
        """Verdicts for ``pairs`` in order, taking at most ``room``; the
        taken pairs become undecided.  Stops at the first live pair after
        the last one there was room for, so the list may be shorter than
        ``pairs``: the rest were not looked at."""
        verdicts = []
        for pair, stale in zip(pairs, self._manager.same_cluster_batch(pairs)):
            if stale:
                verdicts.append(STALE)
                continue
            if room == 0:
                break
            key = self._clusters_of(pair)
            ra, rb = self._root(key[0]), self._root(key[1])
            if ra != rb:
                self._parent[ra] = rb
            elif self._hedged.get(key, 0) < self._rejections.get(key, 0):
                self._hedged[key] = self._hedged.get(key, 0) + 1
            else:
                verdicts.append(DEFER)
                continue
            room -= 1
            verdicts.append(TAKE)
        return verdicts


def next_wave(
    speculation: Speculation,
    pull: Callable[[], Sequence[Pair]],
    room: int,
) -> Iterator[tuple[Sequence[Pair], list[int]]]:
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
        if not chunk:
            return
        verdicts = speculation.classify(chunk, room)
        room -= verdicts.count(TAKE)
        yield chunk, verdicts


def by_verdict(values: Sequence, verdicts: Sequence[int]) -> tuple[list, list, list]:
    """Split a chunk :func:`next_wave` yielded — the pairs, or a sequence
    kept in step with them — into ``(taken, kept, stale)``; ``kept`` is
    what goes back to the head of the queue: the deferred, then those not
    looked at."""
    out: tuple[list, list, list] = ([], [], [])
    for value, verdict in zip(values, verdicts):
        out[verdict].append(value)
    out[DEFER].extend(values[len(verdicts) :])
    return out

"""On-demand batched pair production (§2: "our algorithm remembers its
state and produces the next set of pairs on demand").

Both pair generators are lazy Python generators, so "remembered state" is
the suspended generator frame.  :class:`OnDemandPairGenerator` packages
that into the batch-oriented interface the clustering drivers and the
slave protocol consume: ``next_batch(k)`` returns up to ``k`` fresh pairs
as one :class:`~repro.pairs.pair.PairBlock` and ``exhausted`` reports
end-of-stream, mirroring a slave processor "running out of pairs" and
turning passive (§3.3).  The stream is the generators' block stream
(``blocks()``), buffered a block at a time; a stream of ``Pair`` records
is read pair by pair instead, exactly as far as each batch needs.

When handed a :class:`~repro.telemetry.Telemetry` session, every batch is
counted (``pairs.produced``) and its size observed into the
``pairs.batch_size`` histogram — the distribution behind the paper's
batchsize tuning (Fig. 8).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

from repro.pairs.pair import EMPTY_BLOCK, Pair, PairBlock
from repro.telemetry import Telemetry

__all__ = ["OnDemandPairGenerator", "BATCH_SIZE_BUCKETS", "DRAIN_FLUSH"]

#: Histogram bounds for batch sizes: the paper sweeps batchsize over
#: roughly 10–500 (Fig. 8), and partial end-of-stream batches go small.
BATCH_SIZE_BUCKETS: tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100, 200, 500)

#: Pairs per telemetry flush on the :meth:`OnDemandPairGenerator.__iter__`
#: drain path — one registry update per chunk instead of one per pair.
DRAIN_FLUSH = 256


class OnDemandPairGenerator:
    """Pull-based batching over a lazy stream of pair blocks (or pairs)."""

    def __init__(
        self,
        stream: Iterable[PairBlock] | Iterable[Pair],
        *,
        telemetry: Telemetry | None = None,
    ) -> None:
        self._it = iter(stream)
        #: A stream of ``Pair`` records, not blocks (known at the first pull).
        self._pairwise: bool | None = None
        #: Pulled off the stream, not handed out yet: the rest of the
        #: current block, or the one-pair lookahead of a pairwise stream.
        self._head = EMPTY_BLOCK
        self._exhausted = False
        self._produced = 0
        self._telemetry = telemetry

    @property
    def exhausted(self) -> bool:
        """True once the underlying stream has ended (a passive slave)."""
        return self._exhausted

    @property
    def produced(self) -> int:
        """Total pairs handed out so far."""
        return self._produced

    def _pull(self, n: int) -> PairBlock | None:
        """The stream's next non-empty block — at most ``n`` pairs of a
        pairwise stream — or ``None`` at its end."""
        if self._pairwise is None:
            first = next(self._it, None)
            if first is None:
                return None
            self._pairwise = not isinstance(first, PairBlock)
            if self._pairwise:
                return PairBlock.from_pairs([first, *islice(self._it, n - 1)])
            if len(first):
                return first
        if self._pairwise:
            pairs = list(islice(self._it, n))
            return PairBlock.from_pairs(pairs) if pairs else None
        return next((block for block in self._it if len(block)), None)

    def next_batch(self, k: int) -> PairBlock:
        """Up to ``k`` further pairs (fewer only at end of stream).

        ``exhausted`` flips on the *same* call that drains the stream —
        even when the final batch comes back full — by pulling one block
        (one pair of a pairwise stream) ahead.  A slave can therefore turn
        passive with the batch that consumed its last pair instead of
        needing one extra empty round trip (§3.3's "running out of pairs").
        """
        if k < 0:
            raise ValueError(f"batch size must be >= 0, got {k}")
        parts: list[PairBlock] = []
        need = k
        while need > 0 and not self._exhausted:
            if not len(self._head):
                block = self._pull(need)
                if block is None:
                    self._exhausted = True
                    break
                self._head = block
            parts.append(self._head[:need])
            self._head = self._head[need:]
            need -= len(parts[-1])
        if k > 0 and not self._exhausted and not len(self._head):
            # Full batch: look ahead so a simultaneously-drained stream is
            # reported on this batch, not the next empty one.
            block = self._pull(1)
            if block is None:
                self._exhausted = True
            else:
                self._head = block
        if len(parts) == 1:
            batch = parts[0]
        else:
            batch = PairBlock.concat(parts) if parts else EMPTY_BLOCK
        n = len(batch)
        self._produced += n
        # The exhausted flip above must precede this write: the telemetry
        # record for the draining batch then carries the final state.
        if self._telemetry is not None and n:
            self._telemetry.count("pairs.produced", n)
            self._telemetry.observe("pairs.batch_size", n, BATCH_SIZE_BUCKETS)
        return batch

    def drain(self) -> int:
        """Discard the rest of the stream; returns how many pairs that was."""
        n = 0
        while not self._exhausted:
            n += len(self.next_batch(DRAIN_FLUSH))
        return n

    def __iter__(self) -> Iterator[Pair]:
        """Drain the remainder of the stream as ``Pair`` records.

        Telemetry updates are batched: the ``pairs.produced`` counter and
        the ``pairs.batch_size`` histogram advance once per
        :data:`DRAIN_FLUSH` pairs (plus the partial tail), not once per
        pair — the drain path pays a registry hit per chunk, consistent
        with :meth:`next_batch` recording one observation per batch.
        """
        unflushed = 0
        try:
            while True:
                if not len(self._head):
                    block = None if self._exhausted else self._pull(DRAIN_FLUSH)
                    if block is None:
                        self._exhausted = True
                        return
                    self._head = block
                block, self._head = self._head, EMPTY_BLOCK
                for pair in block:
                    self._produced += 1
                    unflushed += 1
                    if unflushed >= DRAIN_FLUSH:
                        self._flush_drained(unflushed)
                        unflushed = 0
                    yield pair
        finally:
            if unflushed:
                self._flush_drained(unflushed)

    def _flush_drained(self, n: int) -> None:
        if self._telemetry is not None:
            self._telemetry.count("pairs.produced", n)
            self._telemetry.observe("pairs.batch_size", n, BATCH_SIZE_BUCKETS)

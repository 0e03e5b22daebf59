"""Shared GST arenas: publish a built index once, attach from every slave.

:class:`GstArenas` is the master-side publisher.  Given a fully built
:class:`~repro.suffix.gst.SuffixArrayGst`, it copies each constituent
array — the int8 sequence arena and offsets, the one-byte suffix-array
text and its string starts, the suffix array itself, the LCP array and
the position-to-string table — into named shared-memory segments (one
:class:`~repro.parallel.shm.ArenaRegistry` owns them all): seven
segments, whatever the slave count.  A suffix's offset, length and
left-extension character are derived from those where they are read.

What crosses the process boundary is a :class:`GstBundle`: descriptors
only, a few hundred bytes regardless of dataset size.  A slave calls
:func:`attach_gst` with its own registry and gets back a fully functional
``SuffixArrayGst`` whose arrays are read-only views of the master's
pages.  The index is all that is shared: every owner of bucket ranges —
a slave, or the master reabsorbing a lost slave's — builds the interval
forest of its own ranges from the shared LCP view, where it is used
(O(N/p) per slave, §3.1 of the paper; DESIGN.md §5c).

The suffix sort (:func:`~repro.suffix.suffix_array.refine`) emits ``sa``
and ``lcp`` and keeps no state of its own, so there is nothing else to
share; the master's bucket ranges come from the shared LCP too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.parallel.shm import ArenaDescriptor, ArenaRegistry
from repro.sequence.collection import EstCollection
from repro.suffix.gst import SuffixArrayGst

__all__ = ["GstBundle", "GstArenas", "attach_gst"]

#: The arrays of a ``SuffixArrayGst`` that slaves consume, keyed by the
#: label used in segment names.  ``seq_arena``/``seq_offsets`` reconstruct
#: the collection; the rest map one-to-one onto gst fields.
_GST_FIELDS = ("text", "starts", "sa", "lcp", "pos_string")


@dataclass(frozen=True)
class GstBundle:
    """The picklable spawn payload: descriptors, never data."""

    n_ests: int
    arrays: dict[str, ArenaDescriptor]

    @property
    def nbytes(self) -> int:
        """Total shared bytes the bundle points at (not its own size)."""
        return sum(d.nbytes for d in self.arrays.values())


@dataclass
class GstArenas:
    """Master-side ownership of a run's shared segments.

    Create with :meth:`create`; ``bundle`` is what spawn arguments carry;
    ``dispose`` unlinks everything (idempotent — safe from ``finally``
    blocks and fault paths alike).
    """

    registry: ArenaRegistry
    bundle: GstBundle

    @classmethod
    def create(
        cls,
        gst: SuffixArrayGst,
        # Accepted and ignored: benchmarks/e2e/child.py still passes the
        # slaves' ranges and these two keywords (ROADMAP item 1).
        ranges_of: object = None,
        *,
        pair_engine: object = None,
        psi: object = None,
    ) -> "GstArenas":
        """Publish ``gst``.

        If any segment creation fails partway, everything already created
        is unlinked before the error propagates — a failed publish leaves
        no trace in ``/dev/shm``.
        """
        registry = ArenaRegistry()
        try:
            seq_arena, seq_offsets = gst.collection.arena()
            arrays = {
                "seq_arena": registry.create(seq_arena, "seqarena"),
                "seq_offsets": registry.create(seq_offsets, "seqoff"),
            }
            for name in _GST_FIELDS:
                arrays[name] = registry.create(getattr(gst, name), name)
            bundle = GstBundle(n_ests=gst.collection.n_ests, arrays=arrays)
        except BaseException:
            registry.dispose()
            raise
        return cls(registry=registry, bundle=bundle)

    def dispose(self) -> None:
        """Unlink every segment (idempotent)."""
        self.registry.dispose()


def attach_gst(
    bundle: GstBundle,
    registry: ArenaRegistry,
    # Accepted and ignored: benchmarks/e2e/child.py still passes a slave
    # id from when forests were published per slave (ROADMAP item 1).
    slave_id: object = None,
) -> SuffixArrayGst:
    """Reconstruct a slave's view of the published GST.

    Every array in the returned ``SuffixArrayGst`` is a read-only view of
    shared memory; nothing is copied.  The caller's ``registry`` tracks
    the attachments and must be closed when the slave is done.
    """
    a = {name: registry.attach(desc) for name, desc in bundle.arrays.items()}
    collection = EstCollection.from_arena(a["seq_arena"], a["seq_offsets"])
    if collection.n_ests != bundle.n_ests:
        raise ValueError(
            f"attached arena has {collection.n_ests} ESTs, bundle says {bundle.n_ests}"
        )
    return SuffixArrayGst(
        collection=collection, **{name: a[name] for name in _GST_FIELDS}
    )

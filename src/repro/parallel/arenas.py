"""Shared GST arenas: publish a built index once, attach from every slave.

:class:`GstArenas` is the master-side publisher.  Given a fully built
:class:`~repro.suffix.gst.SuffixArrayGst`, it copies each constituent
array — the int8 sequence arena and offsets, the suffix-array text, the
suffix array itself, the LCP array and the per-position lookup tables —
into named shared-memory segments (one :class:`~repro.parallel.shm
.ArenaRegistry` owns them all), and for the vector pair engine also packs
each slave's per-bucket-range :class:`~repro.suffix.interval_tree
.FlatForest` set into a handful of concatenated arrays
(:func:`~repro.suffix.interval_tree.concat_flat_forests`).

What crosses the process boundary is a :class:`GstBundle`: descriptors
only, a few hundred bytes regardless of dataset size.  A slave calls
:func:`attach_gst` with its own registry and gets back a fully functional
``SuffixArrayGst`` whose arrays are read-only views of the master's pages
— plus its pre-built forests for the vector engine, so the slave skips
forest construction entirely.  The scalar engine rebuilds its list-based
``LcpForest`` locally from the shared LCP view (its per-node Python lists
cannot live in a segment), which still removes every O(N) pickle.

The suffix sort's own state (:class:`~repro.suffix.suffix_array.Refinement`)
is gone by the time an index exists, so there is nothing else to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.parallel.shm import ArenaDescriptor, ArenaRegistry
from repro.sequence.collection import EstCollection
from repro.suffix.gst import SuffixArrayGst
from repro.suffix.interval_tree import (
    FlatForest,
    concat_flat_forests,
    split_flat_forests,
)
from repro.suffix.suffix_array import SuffixArray

__all__ = ["GstBundle", "GstArenas", "SharedForestSet", "attach_gst"]

#: The arrays of a ``SuffixArrayGst`` that slaves consume, keyed by the
#: label used in segment names.  ``seq_arena``/``seq_offsets`` reconstruct
#: the collection; the rest map one-to-one onto gst fields.
_GST_FIELDS = (
    "text",
    "starts",
    "lcp",
    "pos_string",
    "pos_offset",
    "left_char",
    "suffix_len",
)


@dataclass(frozen=True)
class SharedForestSet:
    """Descriptors for one slave's packed flat-forest arrays.

    ``arrays`` keys match :func:`concat_flat_forests` output; ``min_depth``
    is the ψ the forests were built with (checked against the consumer's
    psi on attach).
    """

    arrays: dict[str, ArenaDescriptor]
    min_depth: int

    @property
    def nbytes(self) -> int:
        return sum(d.nbytes for d in self.arrays.values())


@dataclass(frozen=True)
class GstBundle:
    """The picklable spawn payload: descriptors, never data.

    ``forest_sets[k]`` is slave ``k``'s packed forests (vector engine) or
    ``None`` (scalar engine rebuilds forests from the shared LCP view).
    """

    n_ests: int
    arrays: dict[str, ArenaDescriptor]
    forest_sets: tuple[SharedForestSet | None, ...]
    psi: int

    @property
    def nbytes(self) -> int:
        """Total shared bytes the bundle points at (not its own size)."""
        total = sum(d.nbytes for d in self.arrays.values())
        total += sum(fs.nbytes for fs in self.forest_sets if fs is not None)
        return total


@dataclass
class GstArenas:
    """Master-side ownership of a run's shared segments.

    Create with :meth:`create`; ``bundle`` is what spawn arguments carry;
    ``forests_for`` hands the *master* zero-copy forests for the degraded
    reabsorb path; ``dispose`` unlinks everything (idempotent — safe from
    ``finally`` blocks and fault paths alike).
    """

    registry: ArenaRegistry
    bundle: GstBundle
    #: Master-local packed forest arrays per slave (vector engine only) —
    #: kept so reabsorption after a dead slave reuses the already-built
    #: forests instead of rebuilding from the LCP array.
    _packed: list[dict[str, np.ndarray] | None] = field(default_factory=list)

    @classmethod
    def create(
        cls,
        gst: SuffixArrayGst,
        ranges_of: list[list[tuple[int, int]]],
        *,
        pair_engine: str,
        psi: int,
    ) -> "GstArenas":
        """Publish ``gst`` (and per-slave forests for the vector engine).

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
            arrays["sa"] = registry.create(gst.sa_struct.sa, "sa")

            packed: list[dict[str, np.ndarray] | None] = []
            forest_sets: list[SharedForestSet | None] = []
            for k, ranges in enumerate(ranges_of):
                if pair_engine != "vector":
                    packed.append(None)
                    forest_sets.append(None)
                    continue
                forests = [
                    gst.flat_forest(min_depth=psi, lo=lo, hi=hi)
                    for lo, hi in ranges
                    if hi > lo
                ]
                pack = concat_flat_forests(forests)
                packed.append(pack)
                forest_sets.append(
                    SharedForestSet(
                        arrays={
                            fname: registry.create(arr, f"f{k}{fname[:6]}")
                            for fname, arr in pack.items()
                        },
                        min_depth=psi,
                    )
                )
            bundle = GstBundle(
                n_ests=gst.collection.n_ests,
                arrays=arrays,
                forest_sets=tuple(forest_sets),
                psi=psi,
            )
        except BaseException:
            registry.dispose()
            raise
        return cls(registry=registry, bundle=bundle, _packed=packed)

    def forests_for(self, slave_id: int) -> list[FlatForest] | None:
        """Zero-copy forests of slave ``slave_id`` for master-side reuse
        (the degraded reabsorb path); ``None`` for the scalar engine."""
        pack = self._packed[slave_id]
        if pack is None:
            return None
        return split_flat_forests(pack, self.bundle.psi)

    def dispose(self) -> None:
        """Unlink every segment (idempotent)."""
        self.registry.dispose()


def attach_gst(
    bundle: GstBundle, registry: ArenaRegistry, slave_id: int
) -> tuple[SuffixArrayGst, list[FlatForest] | None]:
    """Reconstruct a slave's view of the published GST.

    Every array in the returned ``SuffixArrayGst`` (and every field of the
    returned forests, when present) is a read-only view of shared memory;
    nothing is copied.  The caller's ``registry`` tracks the attachments
    and must be closed when the slave is done.
    """
    a = {name: registry.attach(desc) for name, desc in bundle.arrays.items()}
    collection = EstCollection.from_arena(a["seq_arena"], a["seq_offsets"])
    if collection.n_ests != bundle.n_ests:
        raise ValueError(
            f"attached arena has {collection.n_ests} ESTs, bundle says {bundle.n_ests}"
        )
    gst = SuffixArrayGst(
        collection=collection,
        text=a["text"],
        starts=a["starts"],
        sa_struct=SuffixArray(text=a["text"], sa=a["sa"]),
        lcp=a["lcp"],
        pos_string=a["pos_string"],
        pos_offset=a["pos_offset"],
        left_char=a["left_char"],
        suffix_len=a["suffix_len"],
    )
    fs = bundle.forest_sets[slave_id]
    if fs is None:
        return gst, None
    forest_arrays = {
        name: registry.attach(desc) for name, desc in fs.arrays.items()
    }
    return gst, split_flat_forests(forest_arrays, fs.min_depth)

"""The one-master bucket placement in the shape the e2e harness reads.

Kept only for ``benchmarks/e2e/child.py``'s mp trace mode, which calls
``plan_shards(ranges, n_slaves, cfg.master_shards)`` and reads
``.slave_ranges``; delete it when ROADMAP item 1 re-anchors that harness.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.parallel.partition import assign_buckets


def plan_shards(ranges, n_slaves: int, n_shards: int) -> SimpleNamespace:
    """:func:`assign_buckets` over ``n_slaves``, as ``.slave_ranges``."""
    if n_shards != 1:
        raise ValueError(f"there is one master, got n_shards={n_shards}")
    return SimpleNamespace(slave_ranges=assign_buckets(ranges, n_slaves).per_processor)

"""The master's CLUSTERS state: union–find over ESTs plus a merge log.

"In our approach, each EST is initially considered a cluster by itself.
Two clusters are merged when an EST from each cluster can be identified
that show strong overlap using the pairwise alignment algorithm" (§2).
The manager also answers the pair-selection question — is this pair
already co-clustered? — which is the mechanism that makes most generated
pairs never need alignment (Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.align.scoring import AlignmentResult
from repro.cluster.union_find import UnionFind
from repro.pairs.pair import Pair, PairBlock, as_block

__all__ = ["MergeRecord", "ClusterManager"]


@dataclass(frozen=True)
class MergeRecord:
    """One accepted merge: the witnessing pair and its alignment."""

    pair: Pair
    result: AlignmentResult


class ClusterManager:
    """Cluster bookkeeping for one clustering run."""

    def __init__(self, n_ests: int) -> None:
        self._uf = UnionFind(n_ests)
        self.merges: list[MergeRecord] = []

    @property
    def n_ests(self) -> int:
        return self._uf.n_elements

    @property
    def n_clusters(self) -> int:
        return self._uf.n_components

    def find(self, est: int) -> int:
        """The representative EST of ``est``'s current cluster."""
        return self._uf.find(est)

    def same_cluster(self, est_a: int, est_b: int) -> bool:
        """The master's pair-selection test: a pair whose ESTs already
        share a cluster is dropped without alignment."""
        return self._uf.same(est_a, est_b)

    def roots(self, ests: np.ndarray) -> np.ndarray:
        """The representative EST of each of ``ests`` (one ``find_many``)."""
        return self._uf.find_many(ests)

    def co_clustered(self, block: PairBlock) -> np.ndarray:
        """The pair-selection test over a block: a mask, True where the
        pair's ESTs already share a cluster — one root comparison."""
        n = len(block)
        roots = self._uf.find_many(np.concatenate((block.est_a, block.est_b)))
        return roots[:n] == roots[n:]

    def same_cluster_batch(self, pairs: PairBlock | Iterable[Pair]) -> list[bool]:
        """:meth:`co_clustered` for ``Pair`` records, one flag per pair."""
        return self.co_clustered(as_block(pairs)).tolist()

    def seed_union(self, est_a: int, est_b: int) -> bool:
        """Merge two clusters without a witnessing alignment — used to
        restore a previously-computed partition (incremental clustering)."""
        return self._uf.union(est_a, est_b)

    def merge(self, pair: Pair, result: AlignmentResult) -> bool:
        """Record an accepted alignment and merge the two clusters."""
        merged = self._uf.union(pair.est_a, pair.est_b)
        if merged:
            self.merges.append(MergeRecord(pair, result))
        return merged

    def clusters(self) -> list[list[int]]:
        return self._uf.components()

    def labels(self) -> list[int]:
        """Cluster label per EST (the representative id)."""
        return self._uf.labels().tolist()

    @property
    def find_count(self) -> int:
        return self._uf.finds

    @property
    def union_count(self) -> int:
        return self._uf.unions

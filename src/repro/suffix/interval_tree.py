"""LCP-interval forest: suffix-tree nodes recovered from the LCP array.

An *LCP interval* of depth ``d`` is a maximal range ``[lb, rb]`` of
suffix-array ranks whose suffixes all share a length-``d`` prefix, with at
least one adjacent pair achieving exactly ``d``.  These intervals are in
one-to-one correspondence with the internal nodes of the (generalized)
suffix tree, with interval nesting as the parent/child relation — the
classic *enhanced suffix array* equivalence (Abouelhoda, Kurtz & Ohlebusch).

The paper's pair-generation (Algorithm 1) runs over the forest of GST
subtrees whose roots have string-depth ≥ ψ, processing nodes in decreasing
string-depth order.  :func:`build_lcp_forest` materialises exactly that
forest: nodes with depth < ``min_depth`` are structurally traversed but
never emitted, so their children become forest roots and their lsets are
implicitly discarded — which is precisely the paper's behaviour at the
threshold boundary.

A bucket keyed on the first ``w`` characters is a contiguous suffix-array
range, and with ψ ≥ w every qualifying node lies entirely inside one
bucket, so an *owner* of buckets — a (simulated or real) slave processor;
the sequential engine owns them all — needs only the forest over its own
ranges.  Both builders take the owner's ranges (``ranges=``) and return
one :class:`FlatForest` of int32 arrays, node ids range-major, whatever
the number of buckets.  :func:`build_flat_forest` is the vectorised one,
the default (vector) pair engine's input; :func:`build_lcp_forest`, the
per-rank stack builder, is the reference the tests compare it against
array for array, and the scalar pair engine's input.  Neither calls the
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

__all__ = [
    "FlatForest",
    "build_lcp_forest",
    "build_flat_forest",
]

#: Positions per step of the in-place leaf-owner pass.
_BLOCK = 1 << 16


@dataclass
class FlatForest:
    """The qualifying suffix-tree nodes of one owner's rank ranges.

    All per-node arrays are parallel, indexed by node id in *emission*
    (bottom-up pop) order, range-major over the owner's ranges, which
    guarantees children precede parents.  Every array is int32.

    Attributes
    ----------
    depth, lb, rb:
        String-depth and inclusive suffix-array rank range per node.
    parent:
        Parent node id, or -1 when the parent's depth is below the
        threshold (the node is a root of the forest).
    children_flat, children_offsets:
        Child node ids, left to right (by ``lb``), in CSR form: node
        ``v`` owns ``children_flat[children_offsets[v]:children_offsets[v + 1]]``.
    leaves_flat, leaves_offsets:
        Suffix-array ranks directly attached to each node — ranks in
        ``[lb, rb]`` not covered by any child interval, each a leaf of the
        suffix tree hanging immediately below the node — ascending, in
        the same CSR form.
    min_depth:
        The ψ threshold the forest was built with.
    """

    depth: np.ndarray
    lb: np.ndarray
    rb: np.ndarray
    parent: np.ndarray
    children_flat: np.ndarray
    children_offsets: np.ndarray
    leaves_flat: np.ndarray
    leaves_offsets: np.ndarray
    min_depth: int

    @property
    def n_nodes(self) -> int:
        return len(self.depth)

    def roots(self) -> np.ndarray:
        """Ids of forest roots (nodes whose parent is below threshold)."""
        return np.flatnonzero(self.parent == -1)

    def nodes_by_decreasing_depth(self) -> np.ndarray:
        """Node ids sorted by decreasing string-depth (Algorithm 1 order).

        Emission order is kept inside equal depths, so both pair engines
        walk the nodes in one order: the key is the negated depth above
        the node id, sorted by value, and the ids are its low 32 bits.
        """
        key = np.negative(self.depth, dtype=np.int64)
        key <<= 32
        key |= np.arange(self.depth.size)
        key.sort()
        key &= (1 << 32) - 1
        return key.astype(np.int32)

    def validate(self) -> None:
        """Internal-consistency checks (used by tests and debug runs).

        Whole-array sweeps instead of a per-node Python loop, so debug
        runs on 30k-EST-scale forests cost a few milliseconds.
        """
        n = self.n_nodes
        if n == 0:
            return
        depth, lb, rb, cf = self.depth, self.lb, self.rb, self.children_flat
        owner = np.repeat(np.arange(n), np.diff(self.children_offsets))
        if cf.size:
            bad = ~((lb[owner] <= lb[cf]) & (rb[cf] <= rb[owner]))
            if bad.any():
                k = int(np.flatnonzero(bad)[0])
                raise AssertionError(
                    f"child {int(cf[k])} not nested in node {int(owner[k])}"
                )
            bad = depth[cf] <= depth[owner]
            if bad.any():
                k = int(np.flatnonzero(bad)[0])
                raise AssertionError(
                    f"child {int(cf[k])} not deeper than parent {int(owner[k])}"
                )
            bad = self.parent[cf] != owner
            if bad.any():
                k = int(np.flatnonzero(bad)[0])
                raise AssertionError(f"parent link mismatch for {int(cf[k])}")
        covered = np.bincount(
            owner, weights=(rb[cf] - lb[cf] + 1).astype(np.float64), minlength=n
        ).astype(np.int64)
        covered += np.diff(self.leaves_offsets)
        bad = covered != rb - lb + 1
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise AssertionError(f"node {k} does not partition its interval")


def build_flat_forest(
    lcp: np.ndarray,
    *,
    min_depth: int,
    ranges: list[tuple[int, int]] | None = None,
) -> FlatForest:
    """Vectorised equivalent of :func:`build_lcp_forest`, one forest per owner.

    Produces the identical forest — same node ids (emission order), same
    parent links, same child and leaf ordering — without the per-rank
    Python stack loop.  The construction rests on the classic enhanced
    suffix array facts (Abouelhoda, Kurtz & Ohlebusch):

    - every LCP interval is identified by the *previous/next smaller
      value* boundaries of any position achieving its depth: position
      ``p`` with ``v = lcp[p]`` represents the interval
      ``[PSV(p), NSV(p) - 1]`` of depth ``v``, and all positions of one
      interval share that (PSV, NSV) key — deduplicating the keys
      enumerates the nodes exactly once, and labels every qualifying
      position with its node (``node_at``);
    - the direct parent of an interval ``[lb, rb]`` is the interval
      represented by whichever boundary position (``lb`` or ``rb + 1``)
      carries the larger LCP value — one gather from ``node_at``;
    - a suffix-array rank hangs as a direct leaf off the interval
      represented by the deeper of its two adjacent LCP values — another
      gather.

    PSV/NSV are computed by pointer doubling — ``O(log n)`` whole-array
    jump rounds instead of a sequential stack — and the stack builder's
    emission (pop) order is recovered as a sort by ``(rb, -depth)``, one
    ``argsort`` of an int64 key: intervals are popped when the scan first
    passes their right bound, deepest first.

    ``ranges`` lists the suffix-array rank ranges ``[lo, hi)`` the caller
    owns (``None``: the whole array).  Their ranks are gathered in the
    order given and swept once with every range edge a break, so the
    result is the per-range forests concatenated — node ids range-major,
    parent and child ids global to the one forest — without a build per
    range (docs/ALGORITHMS.md §2.2).  Empty ranges are skipped; an owner
    with no non-empty range gets a forest of zero nodes.
    """
    if min_depth < 1:
        raise ValueError(f"min_depth must be >= 1, got {min_depth}")
    lcp = np.asarray(lcp)
    ranks = None  # position -> rank; None: the identity (whole array)
    if ranges is not None:
        spans = np.asarray(ranges, dtype=np.int64).reshape(len(ranges), 2)
        los, his = spans[:, 0], spans[:, 1]
        bad = np.flatnonzero((los < 0) | (los > his) | (his > len(lcp)))
        if bad.size:
            lo, hi = spans[bad[0]]
            raise ValueError(f"invalid range [{lo}, {hi}) for lcp of length {len(lcp)}")
        nonempty = his > los
        los, lens = los[nonempty], (his - los)[nonempty]
        starts = np.cumsum(lens) - lens  # position of each range's first rank
        ranks = np.repeat((los - starts).astype(np.int32), lens)
        ranks += np.arange(ranks.size, dtype=np.int32)
    n = len(lcp) if ranks is None else ranks.size

    # Boundary values: position p in (0, n) separates the suffixes at
    # positions p-1 and p.  Both ends of every range are depth "-1"
    # sentinels (strictly smaller than any real LCP): they are what makes
    # every jump chain terminate, and no interval can span one.  The
    # values are a private copy — ``lcp`` may be a read-only shared view.
    val = np.empty(n + 1, dtype=np.int32)
    if ranks is None:
        val[:n] = lcp
    else:
        val[:n] = lcp[ranks]
        val[starts] = -1
    val[0] = val[n] = -1

    # PSV/NSV by pointer doubling: each round follows the current pointer
    # of the pointed-to position, so unresolved chain lengths double.
    # The invariant (all skipped positions carry values >= the jumper's)
    # keeps every intermediate stop a sound candidate.  Only qualifying
    # positions are resolved: a chain never jumps past a shallower
    # position, so every stop short of the answer qualifies itself and
    # the first position below the threshold ends the chain.
    qual = np.flatnonzero(val >= min_depth).astype(np.int32)
    prev = np.arange(-1, n, dtype=np.int32)
    act = qual
    while act.size:
        act = act[val[prev[act]] >= val[act]]
        prev[act] = prev[prev[act]]
    nxt = np.arange(1, n + 2, dtype=np.int32)
    act = qual
    while act.size:
        act = act[val[nxt[act]] >= val[act]]
        nxt[act] = nxt[nxt[act]]

    # One node per unique (PSV, NSV) key among qualifying positions, and
    # every qualifying position labelled with its node (``node_at``; -1
    # below the threshold).  PSV * (n + 1) + NSV needs 64 bits from
    # n = 46 341 on; an int32 product would wrap without the upcast.
    key = prev[qual].astype(np.int64)
    key *= n + 1
    key += nxt[qual]
    del prev, nxt
    nodes, inverse = np.unique(key, return_inverse=True)
    del key
    m = nodes.size
    lb_u = (nodes // (n + 1)).astype(np.int32)
    nsv_u = (nodes % (n + 1)).astype(np.int32)
    del nodes
    depth_u = np.empty(m, dtype=np.int32)  # all positions of a node share it
    depth_u[inverse] = val[qual]
    # The stack builder's pop order, by (NSV, -depth): one key per node.
    pop = nsv_u.astype(np.int64)
    pop <<= 32
    pop -= depth_u
    order = np.argsort(pop)
    del pop
    rank_of = np.empty(m, dtype=np.int32)
    rank_of[order] = np.arange(m, dtype=np.int32)
    node_at = np.full(n + 1, -1, dtype=np.int32)
    node_at[qual] = rank_of[inverse]
    del qual, inverse, rank_of
    depth = depth_u[order]
    lb = lb_u[order]
    nsv = nsv_u[order]
    del depth_u, lb_u, nsv_u, order

    # Parent: the node of the deeper bounding position — a forest root
    # (-1) when that position is below the threshold.
    parent = node_at[np.where(val[lb] >= val[nsv], lb, nsv)]
    rb = nsv - 1
    del nsv

    zero = np.zeros(1, dtype=np.int32)
    nonroot = np.flatnonzero(parent >= 0)
    children_flat = nonroot[np.lexsort((lb[nonroot], parent[nonroot]))].astype(np.int32)
    children_offsets = np.concatenate(
        (zero, np.cumsum(np.bincount(parent[nonroot], minlength=m), dtype=np.int32))
    )
    del nonroot

    # Leaves: each rank attaches to the node of the deeper of its two
    # adjacent boundary positions (none when that one is below the
    # threshold); grouped by owner with the stable sort preserving
    # ascending rank within a node.  The owners overwrite ``node_at`` a
    # block at a time: block [lo, hi) reads ``node_at[hi]`` before the
    # next block writes it.
    owner = node_at[:n]
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        owner[lo:hi] = np.where(
            val[lo:hi] >= val[lo + 1 : hi + 1], owner[lo:hi], node_at[lo + 1 : hi + 1]
        )
    del val, node_at
    attached = np.flatnonzero(owner >= 0)
    owner = owner[attached]
    leaves_flat = attached[np.argsort(owner, kind="stable")].astype(np.int32)
    leaves_offsets = np.concatenate(
        (zero, np.cumsum(np.bincount(owner, minlength=m), dtype=np.int32))
    )

    if ranks is not None:  # positions back to suffix-array ranks
        lb, rb, leaves_flat = ranks[lb], ranks[rb], ranks[leaves_flat]
    return FlatForest(
        depth=depth,
        lb=lb,
        rb=rb,
        parent=parent,
        children_flat=children_flat,
        children_offsets=children_offsets,
        leaves_flat=leaves_flat,
        leaves_offsets=leaves_offsets,
        min_depth=min_depth,
    )


def build_lcp_forest(
    lcp: np.ndarray,
    *,
    min_depth: int,
    ranges: list[tuple[int, int]] | None = None,
) -> FlatForest:
    """Build the forest of LCP intervals with depth ≥ ``min_depth`` by
    one left-to-right stack scan per rank range — the reference
    :func:`build_flat_forest` is checked against.

    Parameters
    ----------
    lcp:
        LCP array over the full suffix array (``lcp[r]`` relates ranks
        ``r-1`` and ``r``).
    min_depth:
        The ψ threshold; must be ≥ 1 (depth-0 "nodes" pair everything with
        everything and are meaningless here, as in the paper where ψ ≥ w).
    ranges:
        The suffix-array rank ranges ``[lo, hi)`` the caller owns
        (``None``: the whole array), under :func:`build_flat_forest`'s
        contract: scanned in the order given, each edge a depth-0 break
        (exact when the range is a full bucket: adjacent buckets share
        < w < ψ characters), empty ranges skipped, node ids range-major.
    """
    if min_depth < 1:
        raise ValueError(f"min_depth must be >= 1, got {min_depth}")
    lcp = np.asarray(lcp)
    if ranges is None:
        ranges = [(0, len(lcp))]
    for lo, hi in ranges:
        if not 0 <= lo <= hi <= len(lcp):
            raise ValueError(f"invalid range [{lo}, {hi}) for lcp of length {len(lcp)}")

    depths: list[int] = []
    lbs: list[int] = []
    rbs: list[int] = []
    parents: list[int] = []
    children: list[list[int]] = []
    leaves: list[list[int]] = []

    def emit(depth: int, lb: int, rb: int, kids: list[int]) -> int:
        nid = len(depths)
        depths.append(depth)
        lbs.append(lb)
        rbs.append(rb)
        parents.append(-1)
        children.append(kids)
        # Direct leaves: ranks in [lb, rb] not covered by child intervals.
        direct: list[int] = []
        cur = lb
        for cid in kids:
            parents[cid] = nid
            direct.extend(range(cur, lbs[cid]))
            cur = rbs[cid] + 1
        direct.extend(range(cur, rb + 1))
        leaves.append(direct)
        return nid

    for lo, hi in ranges:
        # Stack of open intervals: [depth, lb, child_ids | None].
        # child_ids is None for intervals below threshold (children of
        # those become forest roots).  Depths on the stack are strictly
        # increasing.
        stack: list[list] = [[0, lo, None]]
        for r in range(lo + 1, hi + 1):
            v = int(lcp[r]) if r < hi else 0
            lb = r - 1
            held: int | None = None  # emitted node awaiting a parent push
            while stack[-1][0] > v:
                depth_i, lb_i, kids_i = stack.pop()
                lb = lb_i
                if kids_i is None:
                    continue
                nid = emit(depth_i, lb_i, r - 1, kids_i)
                # Attach to the node below if it remains an enclosing interval.
                if stack[-1][0] >= v and stack[-1][0] >= min_depth:
                    stack[-1][2].append(nid)  # parent is on the stack
                elif stack[-1][0] < v:
                    held = nid  # parent is the interval about to be pushed
                # else: parent below threshold -> forest root (parent -1).
            if stack[-1][0] < v:
                kids = [held] if held is not None else []
                stack.append([v, lb, kids if v >= min_depth else None])
            # stack[-1][0] == v: held (if any) was already attached above.

    def csr(lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
        counts = np.fromiter(map(len, lists), dtype=np.int32, count=len(lists))
        offsets = np.zeros(len(lists) + 1, dtype=np.int32)
        np.cumsum(counts, out=offsets[1:])
        flat = np.fromiter(chain.from_iterable(lists), dtype=np.int32, count=int(offsets[-1]))
        return flat, offsets

    children_flat, children_offsets = csr(children)
    leaves_flat, leaves_offsets = csr(leaves)
    return FlatForest(
        depth=np.array(depths, dtype=np.int32),
        lb=np.array(lbs, dtype=np.int32),
        rb=np.array(rbs, dtype=np.int32),
        parent=np.array(parents, dtype=np.int32),
        children_flat=children_flat,
        children_offsets=children_offsets,
        leaves_flat=leaves_flat,
        leaves_offsets=leaves_offsets,
        min_depth=min_depth,
    )

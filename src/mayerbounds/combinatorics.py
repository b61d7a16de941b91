"""Exact enumeration of connected graphs, component partitions and labeled
trees on [n].

Vertex labels are 1-based: [n] = {1, ..., n}.  Enumeration orders are
canonical so golden tests stay stable:

* graphs: edge-subset bitmasks in ascending order, edge bits assigned to the
  unordered pairs (1,2) < (1,3) < ... < (n-1,n) lexicographically;
* component partitions: numbered in order of first appearance over the
  graphs, by bit doubling over the edge bits with one join of two blocks per
  partition and edge, not per graph;
* trees: sorted edge tuples, Prufer sequences in lexicographic order.

Size guards fail fast instead of attempting enumerations beyond desk scale.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "SizeLimitError",
    "connected_edge_masks",
    "enumerate_labeled_trees",
    "graph_components",
    "pair_order",
]

MAX_GRAPH_N = 7
MAX_TREE_N = 8


class SizeLimitError(ValueError):
    """Requested enumeration exceeds the supported size guard."""


def _check_range(n: int, lo: int, hi: int, what: str) -> None:
    if not isinstance(n, int) or not lo <= n <= hi:
        raise SizeLimitError(f"{what} supports {lo} <= n <= {hi}, got n={n!r}")


def pair_order(n: int) -> list[tuple[int, int]]:
    """The unordered pairs of [n] in lexicographic order (the edge-bit order)."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def connected_edge_masks(n: int) -> np.ndarray:
    """Ascending bitmasks (over pair_order bits) of the connected graphs on [n]:
    those whose component partition is the single block [n]."""
    _check_range(n, 1, MAX_GRAPH_N, "connected_edge_masks")
    classes, blocks = graph_components(n)
    return np.flatnonzero((blocks[:, 0] == (1 << n) - 1)[classes])


def graph_components(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The component partition of each of the 2^(n(n-1)/2) graphs on [n].

    classes[g]  index of the partition of graph g (edge-subset bitmask over
                pair_order bits); partitions are numbered in order of first
                appearance, so class 0 is the empty graph's n singletons;
    blocks[c]   vertex bitmasks (bit v-1 = vertex v) of partition c's blocks,
                ordered by lowest vertex and padded with 0 to length n.

    Every partition of [n] is some graph's, so blocks has Bell(n) rows.

    Bit doubling over class indices: the graphs holding edge e = ij as their
    top bit are those below it plus e.  So one join row per edge maps each
    class seen so far to its partition with the blocks of i and j joined
    (to itself when they are one block), and the classes of the top graphs
    are that row read at the classes of those below.  A partition is keyed
    by the block of each vertex; one first met at edge e is joined from edge
    e + 1 on, which keeps the classes numbered in order of first appearance.
    """
    _check_range(n, 1, MAX_GRAPH_N, "graph_components")
    index = {tuple(1 << v for v in range(n)): 0}  # partitions, in order of first appearance
    pairs = pair_order(n)
    classes = np.zeros(1 << len(pairs), dtype=np.intp)
    for e, (i, j) in enumerate(pairs):
        join = []
        for part in list(index):
            merged = part[i - 1] | part[j - 1]
            key = tuple(merged if b & merged else b for b in part)
            join.append(index.setdefault(key, len(index)))
        classes[1 << e : 2 << e] = np.array(join)[classes[: 1 << e]]
    rows = np.array(list(index), dtype=np.int64)  # row c: the block of each vertex
    blocks = np.where(rows & -rows == 1 << np.arange(n), rows, 0)  # kept at lowest vertex
    return classes, np.take_along_axis(blocks, np.argsort(blocks == 0, axis=1, kind="stable"), 1)


def enumerate_labeled_trees(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All n^(n-2) trees on [n] as sorted edge tuples, in Prufer-sequence order."""
    _check_range(n, 2, MAX_TREE_N, "enumerate_labeled_trees")
    if n == 2:
        yield ((1, 2),)
        return
    for seq in itertools.product(range(1, n + 1), repeat=n - 2):
        yield _prufer_decode(n, seq)


def _prufer_decode(n: int, seq: Sequence[int]) -> tuple[tuple[int, int], ...]:
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges: list[tuple[int, int]] = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = sorted(leaves)
    edges.append((u, w))
    return tuple(sorted(edges))

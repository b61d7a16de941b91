"""Exact enumeration of connected graphs, component partitions and labeled
trees on [n].

Vertex labels are 1-based: [n] = {1, ..., n}.  Enumeration orders are
canonical so golden tests stay stable:

* graphs: edge-subset bitmasks in ascending order, edge bits assigned to the
  unordered pairs (1,2) < (1,3) < ... < (n-1,n) lexicographically;
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
    those in which the component of vertex 1 is all of [n]."""
    _check_range(n, 1, MAX_GRAPH_N, "connected_edge_masks")
    return np.flatnonzero(_component_masks(n)[0] == (1 << n) - 1)


def graph_components(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The component partition of each of the 2^(n(n-1)/2) graphs on [n].

    classes[g]  index of the partition of graph g (edge-subset bitmask over
                pair_order bits); partitions are numbered in order of first
                appearance, so class 0 is the empty graph's n singletons;
    blocks[c]   vertex bitmasks (bit v-1 = vertex v) of partition c's blocks,
                ordered by lowest vertex and padded with 0 to length n.

    Every partition of [n] is some graph's, so blocks has Bell(n) rows.
    """
    _check_range(n, 1, MAX_GRAPH_N, "graph_components")
    comp = _component_masks(n)
    key = np.zeros(comp.shape[1], dtype=np.int64)  # the n component masks, n bits each
    for v in range(n):
        key |= comp[v].astype(np.int64) << n * v
    _, first, classes = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    classes = np.argsort(order)[classes]
    rows = comp[:, first[order]].T.astype(np.int64)  # row c: the component mask of each vertex
    blocks = np.where(rows & -rows == 1 << np.arange(n), rows, 0)  # kept at lowest vertex
    return classes, np.take_along_axis(blocks, np.argsort(blocks == 0, axis=1, kind="stable"), 1)


def _component_masks(n: int) -> np.ndarray:
    """comp[v-1, g]: vertex bitmask (bit u-1 = vertex u) of the component of v
    in graph g, for all 2^(n(n-1)/2) graphs on [n] at once.

    Bit doubling: the graphs holding edge e = ij as their top bit are those
    below it plus e, which merges the components of i and j.
    """
    pairs = pair_order(n)
    comp = np.empty((n, 1 << len(pairs)), dtype=np.uint8)
    comp[:, 0] = 1 << np.arange(n)
    for e, (i, j) in enumerate(pairs):
        below, top = comp[:, : 1 << e], comp[:, 1 << e : 2 << e]
        merged = below[i - 1] | below[j - 1]
        for v in range(n):
            top[v] = np.where(merged >> v & 1, merged, below[v])
    return comp


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

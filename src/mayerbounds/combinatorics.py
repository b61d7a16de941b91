"""Exact enumeration of connected graphs and labeled trees on [n].

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
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "SizeLimitError",
    "connected_edge_masks",
    "enumerate_labeled_trees",
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


@lru_cache(maxsize=None)
def connected_edge_masks(n: int) -> np.ndarray:
    """Ascending bitmasks (over pair_order bits) of the connected graphs on [n].

    Connectivity for all 2^(n(n-1)/2) candidates at once: per-graph adjacency
    bitmasks, then n-1 parallel reachability sweeps from vertex 1.
    """
    _check_range(n, 1, MAX_GRAPH_N, "connected_edge_masks")
    if n == 1:
        return np.array([0], dtype=np.int64)
    pairs = pair_order(n)
    n_masks = 1 << len(pairs)
    masks = np.arange(n_masks, dtype=np.int64)
    adj = np.zeros((n, n_masks), dtype=np.uint8)
    for e, (i, j) in enumerate(pairs):
        has = ((masks >> e) & 1).astype(np.uint8)
        adj[i - 1] |= has << (j - 1)
        adj[j - 1] |= has << (i - 1)
    reach = np.ones(n_masks, dtype=np.uint8)  # bit v-1 set iff vertex v reached
    for _ in range(n - 1):
        for v in range(n):
            np.bitwise_or(reach, ((reach >> v) & 1) * adj[v], out=reach)
    full = np.uint8((1 << n) - 1)
    return masks[reach == full]


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

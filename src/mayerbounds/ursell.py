"""Ursell coefficients of a finite pair-interaction matrix, four ways.

For a symmetric matrix V_ij over [n] and inverse temperature beta, the
connected function phi_beta([n]) is evaluated by independent routes:

1. `ursell_graph_sum`      — sum over connected graphs of prod (e^{-beta V_ij} - 1),
                             rooted at vertex 1: each graph h on {2..n} is
                             summed explicitly, and vertex 1's edges into
                             each component B of h in closed form, as
                             expm1(-beta sum_{v in B} V_1v);
2. `ursell_partition_sum`  — Mobius sum over set partitions, by the recursion
                             phi(S) = Z(S) - sum_T phi(T) Z(S minus T) on the
                             subset lattice, Z = e^{-beta U};
3. `ursell_tree_integral`  — signed integral over the inverse-temperature
                             simplex of sums over edge-labeled trees;
4. `merge_sequence_expansion` — the same integral organized by sequences of
                             block merges (the bijective regrouping of route 3).

Routes 1 and 2 are exact up to floating-point.  Routes 3 and 4 are
closed-form: each simplex integral is a divided difference of exp
(`simplex.simplex_integral_from_diffs`), evaluated for all trees or all merge
histories in one batched call.  Routes 3 and 4 build their own combinatorial
tables (tree path masks, cross-block pair indicators) and share only that
numerical kernel with each other; route 2 walks the subset lattice and
shares nothing with them.  Agreement of all four is the identity
check the CLI exposes.

Hard cores: +inf entries must be replaced by a finite cutoff (`with_cutoff`,
default height 30, where e^-30 is below double round-off of unit-scale sums)
before any numeric evaluation.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from .combinatorics import (
    MAX_GRAPH_N,
    SizeLimitError,
    connected_edge_masks,  # noqa: F401  (unused; perfbench/shims.py patches it by this name)
    enumerate_labeled_trees,
    graph_components,
    pair_order,
)
from .simplex import MAX_LEVELS, simplex_integral_from_diffs

__all__ = [
    "DEFAULT_HARD_CORE_CUTOFF",
    "HardCoreCutoffError",
    "InteractionMatrix",
    "MAX_INTEGRAL_ROUTE_N",
    "merge_sequence_expansion",
    "merge_step_energies",
    "random_interaction_matrix",
    "rel_diff",
    "subset_energies",
    "tree_level_coefficients",
    "ursell_graph_sum",
    "ursell_partition_sum",
    "ursell_tree_integral",
]

DEFAULT_HARD_CORE_CUTOFF = 30.0
MAX_PARTITION_SUM_N = 14
# Routes 3 and 4 need n - 1 simplex levels.
MAX_INTEGRAL_ROUTE_N = MAX_LEVELS + 1


class HardCoreCutoffError(ValueError):
    """A hard-core entry was used numerically without a configured cutoff."""


@dataclass(frozen=True, eq=False)
class InteractionMatrix:
    """Symmetric pair interaction on [n]; +inf entries mark hard cores.

    `cutoff` is the finite height substituted for +inf entries in numeric
    evaluation; it stays None until `with_cutoff` is called so that silent
    evaluation of an unconfigured hard-core matrix is impossible.
    """

    n: int
    values: np.ndarray
    cutoff: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"an interaction matrix needs n >= 1 points, got n={self.n}")
        v = np.array(self.values, dtype=float)
        if v.shape != (self.n, self.n):
            raise ValueError(f"values must be ({self.n},{self.n}), got {v.shape}")
        if not np.array_equal(v, v.T):
            raise ValueError("interaction matrix must be symmetric")
        if np.any(np.diag(v) != 0.0):
            raise ValueError("diagonal entries must be zero")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def from_entries(
        cls,
        n: int,
        entries: Mapping[tuple[int, int], float],
        hard_core_pairs: Iterable[tuple[int, int]] = (),
        cutoff: float | None = None,
    ) -> "InteractionMatrix":
        """Build from 1-based pair entries; missing pairs default to 0."""
        v = np.zeros((n, n))
        for (i, j), val in entries.items():
            if not (1 <= i <= n and 1 <= j <= n and i != j):
                raise ValueError(f"pair ({i},{j}) outside [n]={n}")
            v[i - 1, j - 1] = v[j - 1, i - 1] = val
        for i, j in hard_core_pairs:
            v[i - 1, j - 1] = v[j - 1, i - 1] = np.inf
        return cls(n, v, cutoff)

    @classmethod
    def from_json(cls, doc: str | Mapping) -> "InteractionMatrix":
        data = json.loads(doc) if isinstance(doc, str) else doc
        entries = {(int(i), int(j)): float(v) for i, j, v in data.get("entries", [])}
        hard = [(int(i), int(j)) for i, j in data.get("hard_core_pairs", [])]
        return cls.from_entries(int(data["n"]), entries, hard)

    def to_json(self) -> dict:
        entries = []
        hard = []
        for i, j in pair_order(self.n):
            val = self.values[i - 1, j - 1]
            if np.isinf(val):
                hard.append([i, j])
            elif val != 0.0:
                entries.append([i, j, float(val)])
        return {"n": self.n, "entries": entries, "hard_core_pairs": hard}

    def with_cutoff(self, height: float = DEFAULT_HARD_CORE_CUTOFF) -> "InteractionMatrix":
        if not height > 0:
            raise ValueError("cutoff height must be positive")
        return replace(self, cutoff=float(height))

    def effective_values(self) -> np.ndarray:
        v = self.values
        if np.isinf(v).any():
            if self.cutoff is None:
                raise HardCoreCutoffError(
                    "matrix has hard-core entries and no cutoff is configured"
                )
            v = np.where(np.isinf(v), self.cutoff, v)
        return v


def random_interaction_matrix(
    n: int, seed: int, low: float = -1.0, high: float = 2.0
) -> InteractionMatrix:
    """Seeded random matrix with entries uniform in [low, high].

    Seed schedule used throughout the test suite: numpy default_rng(seed),
    upper triangle drawn in pair_order.
    """
    rng = np.random.default_rng(seed)
    v = np.zeros((n, n))
    for i, j in pair_order(n):
        v[i - 1, j - 1] = v[j - 1, i - 1] = rng.uniform(low, high)
    return InteractionMatrix(n, v)


def rel_diff(x: float, y: float) -> float:
    """|x - y| relative to the larger magnitude; 0 when both are below 1e-12."""
    scale = max(abs(x), abs(y))
    if scale < 1e-12:
        return 0.0
    return abs(x - y) / scale


def subset_energies(m: InteractionMatrix) -> np.ndarray:
    """U(X) = sum of V_ij over the pairs inside X, for all 2^n subsets X of [n]
    at once, indexed by bitmask (bit v-1 = vertex v), in extended precision.

    Bit doubling: the subsets holding bit b as their top bit are those below
    it plus bit b, and adding b adds its cross energy with the rest.
    """
    vals = m.effective_values().astype(np.longdouble)
    u = np.zeros(1 << m.n, dtype=np.longdouble)
    for b in range(1, m.n):
        cross = np.zeros(1 << b, dtype=np.longdouble)
        for v in range(b):
            cross[1 << v : 2 << v] = cross[: 1 << v] + vals[b, v]
        u[1 << b : 2 << b] = u[: 1 << b] + cross
    return u


# ---------------------------------------------------------------------------
# route 1: connected-graph sum
# ---------------------------------------------------------------------------

def ursell_graph_sum(m: InteractionMatrix, beta: float) -> float:
    """Exact sum over connected graphs on [n] of prod_edges (e^{-beta V} - 1).

    Rooted at vertex 1: a connected graph on [n] is a graph h on W = {2..n}
    plus a non-empty set of edges from vertex 1 into each component B of h,
    and those edge sets sum to prod_B (prod_{v in B} e^{-beta V_1v} - 1).  So

        sum_h P[h] * prod_{B in comp(h)} w[B],   w[S] = expm1(-beta V_1(S)),

    over the 2^((n-1)(n-2)/2) graphs h on W, with V_1(S) the star energy of
    vertex 1 with S and P[h] the product of h's edge factors.  The product
    over components comes from h's component partition (_graph_tables), and
    P splits over the low and high halves of W's edge bits:

        sum_hi P_high[hi] * sum_lo g[hi, lo] * P_low[lo].

    Every h is still summed explicitly; only vertex 1's edges are summed in
    closed form.  It shares nothing with the partition route.

    Accumulation runs in extended precision: the sum is cancellation-heavy
    (the result can sit many orders below the largest term), and the
    spare mantissa bits keep the two exact routes agreeing to 1e-10.
    """
    n = m.n
    if n > MAX_GRAPH_N:
        raise SizeLimitError(f"graph sum supports n <= {MAX_GRAPH_N}, got {n}")
    if n == 1:
        return 1.0
    pairs, bits, members, classes, blocks = _graph_tables(n)
    vals = m.effective_values()
    w = np.expm1(-beta * (members @ vals[0, 1:]))
    w[0] = 1  # pads the block rows
    weights = np.expm1(-beta * vals.take(pairs), dtype=np.longdouble)
    products = np.where(bits, weights, 1).prod(axis=1)  # [r, s]: row r's weights over s
    g = w[blocks].prod(axis=1)[classes].reshape(products.shape[1], -1)  # [high, low]
    return float(products[1] @ (g @ products[0, : g.shape[1]]))


@lru_cache(maxsize=None)
def _graph_tables(n: int) -> tuple[np.ndarray, ...]:
    """Route-1 tables for the graphs on W = {2..n}, E = (n-1)(n-2)/2 edge bits
    in the pair_order of W.

    pairs[r, e, 0]  flat index into the n x n matrix of the pair of low bit e
                    (r = 0) or high bit e (r = 1); when E is odd, row 0 ends
                    with the diagonal, whose factor only enters low products
                    past 2^L, which are never read;
    bits[e, s]      bit e of s, for the 2^H subsets s of H = E - floor(E/2) bits;
    members[S, v]   1.0 iff vertex v + 2 is in the subset S of W, long double;
    classes[h]      component-partition index of graph h, from graph_components;
    blocks[c]       W-bitmasks of partition c's components, padded with 0.
    """
    order = [i * n + j for i, j in pair_order(n - 1)]  # vertex v of [n-1] is v + 1 of [n]
    low = len(order) // 2
    high = len(order) - low
    pairs = np.array(order[:low] + [0] * (high - low) + order[low:], dtype=np.intp)
    bits = (np.arange(1 << high) >> np.arange(high)[:, None] & 1).astype(bool)
    members = (np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1) & 1).astype(np.longdouble)
    return pairs.reshape(2, high, 1), bits, members, *graph_components(n - 1)


# ---------------------------------------------------------------------------
# route 2: Mobius inversion on the subset lattice
# ---------------------------------------------------------------------------

def ursell_partition_sum(m: InteractionMatrix, beta: float) -> float:
    """Mobius sum over the set partitions of [n], by recursion on subsets.

    With Z(S) = e^{-beta U(S)}, splitting off the block that holds min S gives
    Z(S) = sum over T with min S in T, T subset of S, of phi(T) Z(S minus T), so

        phi(S) = Z(S) - sum_{min S in T, T proper subset of S} phi(T) Z(S minus T).

    phi([n]) needs phi only on the subsets holding vertex 1; computed size by
    size, that is 3^(n-1) products over 2^n stored values, against Bell(n)
    partitions for the explicit sum.  Extended precision for the same reason
    as ursell_graph_sum: the terms can exceed the result by many orders.
    """
    n = m.n
    if n > MAX_PARTITION_SUM_N:
        raise SizeLimitError(f"partition sum supports n <= {MAX_PARTITION_SUM_N}, got {n}")
    if n == 1:
        return 1.0
    z = np.exp(-np.longdouble(beta) * subset_energies(m))
    phi = np.zeros_like(z)
    phi[1] = 1.0
    for s, t, rest in _lattice_levels(n):
        phi[s] = z[s] - (phi[t] * z[rest]).sum(axis=1)
    return float(phi[-1])


@lru_cache(maxsize=None)
def _lattice_levels(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Bitmask tables of the subset recursion, one (S, T, S minus T) triple per
    size k = 2..n: S lists the k-subsets holding vertex 1, and row i of T the
    2^(k-1) - 1 proper subsets of S[i] holding vertex 1."""
    # intp masks: int32 would halve the tables but costs ~10 % a call in index casts
    masks = np.arange(1, 1 << n, 2)
    sizes = np.bitwise_count(masks)
    levels = []
    for k in range(2, n + 1):
        s = masks[sizes == k]
        others = np.nonzero(s[:, None] >> np.arange(1, n) & 1)[1].reshape(len(s), k - 1)
        t = np.ones((len(s), 1 << (k - 1)), dtype=masks.dtype)
        for i, bit in enumerate((2 << others).T):
            t[:, 1 << i : 2 << i] = t[:, : 1 << i] | bit[:, None]
        t = t[:, :-1]  # the last column is S itself
        levels.append((s, t, s[:, None] ^ t))
    return tuple(levels)


# ---------------------------------------------------------------------------
# route 3: edge-labeled tree integral
# ---------------------------------------------------------------------------

def _check_integral_n(n: int, what: str) -> None:
    if not 2 <= n <= MAX_INTEGRAL_ROUTE_N:
        raise SizeLimitError(f"{what} supports 2 <= n <= {MAX_INTEGRAL_ROUTE_N}, got {n}")


def _pair_values(m: InteractionMatrix) -> np.ndarray:
    """Effective V_ij over the unordered pairs, in pair_order."""
    return m.effective_values()[np.triu_indices(m.n, 1)]


def _tree_path_masks(n: int, edges) -> list[int]:
    """For each pair (in pair_order), the bitmask of edge positions on the tree
    path joining it."""
    adjacent: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, n + 1)}
    for e, (i, j) in enumerate(edges):
        adjacent[i].append((j, e))
        adjacent[j].append((i, e))
    masks = []
    for i in range(1, n + 1):
        path = {i: 0}
        stack = [i]
        while stack:
            u = stack.pop()
            for w, e in adjacent[u]:
                if w not in path:
                    path[w] = path[u] | 1 << e
                    stack.append(w)
        masks.extend(path[j] for j in range(i + 1, n + 1))
    return masks


@lru_cache(maxsize=None)
def _tree_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Route-3 tables for the trees on [n], in Prufer order.

    edges[t]       pair indices of tree t's edges (sorted edge order);
    inside[t, S]   0/1 over pairs: both ends in one component of the forest
                   of tree t's edges whose positions are in the bitmask S;
    prefixes[l, k] bitmask of the first k+1 edges under labeling l, the
                   labelings in itertools.permutations order.

    A pair lies inside a forest component exactly when the tree path joining
    it uses only forest edges, so each inside row follows from path masks.
    """
    _check_integral_n(n, "tree integral")
    index = {pair: e for e, pair in enumerate(pair_order(n))}
    edges, paths = [], []
    for tree in enumerate_labeled_trees(n):
        edges.append([index[pair] for pair in tree])
        paths.append(_tree_path_masks(n, tree))
    subsets = np.arange(1 << (n - 1))
    inside = (np.array(paths)[:, None, :] & ~subsets[None, :, None]) == 0
    prefixes = [
        [sum(1 << e for e in labeling[: k + 1]) for k in range(n - 1)]
        for labeling in itertools.permutations(range(n - 1))
    ]
    return np.array(edges), inside.astype(float), np.array(prefixes)


def tree_level_coefficients(m: InteractionMatrix) -> np.ndarray:
    """Level coefficients c_1..c_{n-1} of every edge-labeled tree on [n].

    Shape (trees, labelings, n-1): trees in Prufer order (that of
    enumerate_labeled_trees), and labelings in itertools.permutations order of
    the sorted edge tuple, edge k of a permutation carrying label k.  c_k is
    the total energy of the components of the forest of the edges labeled <= k.
    """
    _, inside, prefixes = _tree_tables(m.n)
    return (inside @ _pair_values(m))[:, prefixes]


def ursell_tree_integral(m: InteractionMatrix, beta: float) -> float:
    """Tree route: (-1)^(n-1) sum over trees and edge labelings of
    (prod_edges V_ij) times the simplex exponential integral of the prefix
    component energies, all labelings in one batched simplex call."""
    n = m.n
    edges, _, _ = _tree_tables(n)
    if beta == 0.0:
        return 0.0
    products = _pair_values(m)[edges].prod(axis=1)
    keep = products != 0.0
    levels = tree_level_coefficients(m)[keep]
    diffs = np.diff(levels, axis=-1, prepend=0.0)
    integrals = simplex_integral_from_diffs(diffs, beta).sum(axis=1)
    return (-1.0) ** (n - 1) * float(products[keep] @ integrals)


# ---------------------------------------------------------------------------
# route 4: block-merge expansion
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _merge_table(n: int) -> np.ndarray:
    """0/1 array (histories, n-1, pairs): the pairs joining the two blocks
    merged at each step, histories in merge-history order.

    Merge-history order: depth first from the n singletons; at each step the
    current blocks are sorted by their lowest vertex, and the merged pair of
    block positions (a, b), a < b, runs in lexicographic order.  Blocks are
    kept as vertex bitmasks.
    """
    _check_integral_n(n, "merge expansion")
    pair_bits = [(1 << (i - 1), 1 << (j - 1)) for i, j in pair_order(n)]
    histories: list[list[list[bool]]] = []

    def rec(blocks: tuple[int, ...], steps: list[list[bool]]) -> None:
        if len(blocks) == 1:
            histories.append(steps)
            return
        for a in range(len(blocks)):
            for b in range(a + 1, len(blocks)):
                left, right = blocks[a], blocks[b]
                cross = [
                    bool(left & pi and right & pj or left & pj and right & pi)
                    for pi, pj in pair_bits
                ]
                rest = [blk for k, blk in enumerate(blocks) if k not in (a, b)]
                merged = tuple(sorted(rest + [left | right], key=lambda blk: blk & -blk))
                rec(merged, steps + [cross])

    rec(tuple(1 << v for v in range(n)), [])
    return np.array(histories, dtype=float)


def merge_step_energies(m: InteractionMatrix) -> np.ndarray:
    """W_1..W_{n-1} of every complete merge history of [n], shape
    (histories, n-1), rows in the merge-history order of _merge_table."""
    return _merge_table(m.n) @ _pair_values(m)


def merge_sequence_expansion(m: InteractionMatrix, beta: float) -> float:
    """Merge route: (-1)^(n-1) sum over merge histories of W_1...W_{n-1} times
    the simplex integral of exp(-sum_i b_i W_i).

    The diagonal exponent sum_i b_i W_i equals the level form with partial-sum
    coefficients, so the per-step interaction energies are the level
    differences; all histories go through one batched simplex call.
    """
    energies = merge_step_energies(m)
    if beta == 0.0:
        return 0.0
    products = energies.prod(axis=1)
    keep = products != 0.0
    integrals = simplex_integral_from_diffs(energies[keep], beta)
    return (-1.0) ** (m.n - 1) * float(products[keep] @ integrals)

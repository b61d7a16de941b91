"""Enumeration counts and integer identities, cross-checked by brute force."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mayerbounds.combinatorics import (
    SizeLimitError,
    connected_edge_masks,
    enumerate_labeled_trees,
    graph_components,
    pair_order,
)
from oracles import mobius_alternating_sum, set_partitions, stirling2_row


def bell_numbers(limit):
    """Oracle: Bell recurrence B_{n+1} = sum_k C(n,k) B_k."""
    bell = [1]
    for n in range(limit):
        bell.append(sum(math.comb(n, k) * bell[k] for k in range(n + 1)))
    return bell[1:]


def is_connected_bfs(n, edges):
    """Independent connectivity oracle (adjacency-set BFS)."""
    adj = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {1}
    frontier = [1]
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == n


def union_find_components(n, edges):
    """Independent component oracle (union-find), as a set of vertex sets."""
    parent = list(range(n + 1))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j in edges:
        parent[find(i)] = find(j)
    groups = {}
    for v in range(1, n + 1):
        groups.setdefault(find(v), set()).add(v)
    return {frozenset(g) for g in groups.values()}


class TestSetPartitionOracle:
    """The explicit enumeration behind the 40-digit Mobius sum and the
    Stirling row behind criterion 2."""

    def test_counts_match_bell_oracle(self):
        oracle = bell_numbers(7)
        counts = [sum(1 for _ in set_partitions(n)) for n in range(1, 8)]
        assert counts == oracle

    def test_n1_single_partition(self):
        assert list(set_partitions(1)) == [(frozenset({1}),)]

    def test_restricted_growth_order_snapshot(self):
        got = [tuple(sorted(sorted(b) for b in p)) for p in set_partitions(3)]
        assert got == [
            ([1, 2, 3],),
            ([1, 2], [3]),
            ([1, 3], [2]),
            ([1], [2, 3]),
            ([1], [2], [3]),
        ]

    @given(st.integers(min_value=1, max_value=7))
    @settings(max_examples=7, deadline=None)
    def test_blocks_disjoint_and_cover(self, n):
        seen = set()
        for p in set_partitions(n):
            union = set()
            for block in p:
                assert block
                assert not (union & block)
                union |= block
            assert union == set(range(1, n + 1))
            seen.add(frozenset(p))
        assert len(seen) == bell_numbers(n)[-1]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_stirling_row_matches_enumeration(self, n):
        by_blocks = [0] * n
        for p in set_partitions(n):
            by_blocks[len(p) - 1] += 1
        assert stirling2_row(n) == by_blocks


class TestMobius:
    def test_zero_for_all_supported_n(self):
        assert mobius_alternating_sum(1) == 1
        for n in range(2, 13):
            value = mobius_alternating_sum(n)
            assert isinstance(value, int)
            assert value == 0

    def test_n3_decomposition(self):
        counts = [0] * 4
        for p in set_partitions(3):
            counts[len(p)] += 1
        assert counts[1:] == [1, 3, 1] == stirling2_row(3)
        assert 1 * 1 - 1 * 3 + 2 * 1 == 0  # (k-1)! weights: 1, 1, 2


def mask_edges(n, mask):
    return [p for e, p in enumerate(pair_order(n)) if mask >> e & 1]


class TestConnectedGraphs:
    def test_small_counts(self):
        assert len(connected_edge_masks(2)) == 1
        assert len(connected_edge_masks(3)) == 4
        assert len(connected_edge_masks(4)) == 38

    def test_n4_against_brute_force_filter(self):
        pairs = pair_order(4)
        oracle = set()
        for k in range(len(pairs) + 1):
            for subset in itertools.combinations(pairs, k):
                if is_connected_bfs(4, subset):
                    oracle.add(frozenset(subset))
        got = {frozenset(mask_edges(4, int(mask))) for mask in connected_edge_masks(4)}
        assert got == oracle

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_mask_connected(self, n):
        for mask in connected_edge_masks(n):
            assert is_connected_bfs(n, mask_edges(n, int(mask)))

    @pytest.mark.parametrize("n", [6, 7])
    def test_masks_unique_sorted_and_sampled_connectivity(self, n):
        masks = connected_edge_masks(n)
        assert np.all(np.diff(masks) > 0)  # strictly increasing: no duplicates
        rng = np.random.default_rng(0)
        sample = rng.choice(masks, size=2000, replace=False)
        for mask in sample:
            assert is_connected_bfs(n, mask_edges(n, int(mask)))
        # disconnected spot checks: empty graph and a single edge
        assert 0 not in masks
        assert 1 not in masks

    @pytest.mark.parametrize("n", range(1, 8))
    def test_masks_are_int64(self, n):
        assert connected_edge_masks(n).dtype == np.int64

    def test_n7_total_count(self):
        # labeled connected graphs on 7 vertices
        assert len(connected_edge_masks(7)) == 1_866_256

    def test_size_guard(self):
        # n = 8 would allocate 2^28 masks and an (8, 2^28) adjacency table
        for n in (0, 8):
            with pytest.raises(SizeLimitError):
                connected_edge_masks(n)


class TestGraphComponents:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_graph_against_union_find(self, n):
        classes, blocks = graph_components(n)
        assert len(classes) == 1 << len(pair_order(n))
        partitions = {}
        for g, c in enumerate(classes.tolist()):
            got = {frozenset(v + 1 for v in range(n) if b >> v & 1) for b in blocks[c] if b}
            assert got == union_find_components(n, mask_edges(n, g))
            partitions.setdefault(frozenset(got), set()).add(c)
        # one class per partition, and every partition of [n] occurs
        assert all(len(c) == 1 for c in partitions.values())
        assert len(blocks) == len(partitions) == bell_numbers(n)[-1]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_class_and_block_order(self, n):
        classes, blocks = graph_components(n)
        first = [classes.tolist().index(c) for c in range(len(blocks))]
        assert first == sorted(first)  # numbered by first appearance
        assert blocks[0].tolist() == [1 << v for v in range(n)]  # the empty graph
        for row in blocks.tolist():
            size = sum(1 for b in row if b)
            assert not any(row[size:])  # zeros only pad the end
            lowest = [b & -b for b in row[:size]]
            assert lowest == sorted(lowest)

    def test_size_guard(self):
        for n in (0, 8):
            with pytest.raises(SizeLimitError):
                graph_components(n)


class TestTrees:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_cayley_count(self, n):
        assert sum(1 for _ in enumerate_labeled_trees(n)) == n ** (n - 2)

    def test_n2_single_tree(self):
        assert list(enumerate_labeled_trees(2)) == [((1, 2),)]

    def test_prufer_order_snapshot(self):
        # Prufer sequences (1), (2), (3): the leaf 2, 1, 1 joins the listed vertex
        assert list(enumerate_labeled_trees(3)) == [
            ((1, 2), (1, 3)),
            ((1, 2), (2, 3)),
            ((1, 3), (2, 3)),
        ]

    def test_prefix_is_forest_with_n_minus_k_components(self):
        # every edge order of a tree, as the tree route labels it, adds one
        # edge between two components per step
        for tree in enumerate_labeled_trees(5):
            for labeling in itertools.permutations(tree):
                parent = list(range(6))

                def root(v):
                    while parent[v] != v:
                        v = parent[v]
                    return v

                for k, (i, j) in enumerate(labeling, start=1):
                    ri, rj = root(i), root(j)
                    assert ri != rj, labeling
                    parent[ri] = rj
                    assert len({root(v) for v in range(1, 6)}) == 5 - k

    def test_all_distinct_and_are_trees(self):
        seen = set()
        for edges in enumerate_labeled_trees(5):
            assert len(edges) == 4
            assert list(edges) == sorted(edges)
            assert is_connected_bfs(5, edges)
            seen.add(frozenset(edges))
        assert len(seen) == 125

    def test_size_guard(self):
        for n in (1, 9):
            with pytest.raises(SizeLimitError):
                list(enumerate_labeled_trees(n))

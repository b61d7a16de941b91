"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Criterion 1 measures its own runtime against the two-minute
budget.
"""

import itertools
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from mayerbounds.bounds import (
    bound_pieces,
    compare_report,
    h_factor,
    offset_stable_ratio,
)
from mayerbounds.cli import main
from mayerbounds.combinatorics import connected_edge_masks, enumerate_labeled_trees, pair_order
from mayerbounds.potentials import LennardJones
from mayerbounds.quadrature import DEFAULT_SPEC, sphere_volume, stable_ratio
from mayerbounds.reference import reproduction_rows
from mayerbounds.stability import find_max_a, lj_stability_registry
from mayerbounds.ursell import (
    MAX_INTEGRAL_ROUTE_N,
    merge_sequence_expansion,
    random_interaction_matrix,
    ursell_graph_sum,
    ursell_partition_sum,
    ursell_tree_integral,
)
from oracles import mobius_alternating_sum

LJ = LennardJones()


@contextmanager
def criterion(index, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {index} ({name}): FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {index} ({name}): PASS", flush=True)


def rel_diff(x, y):
    scale = max(abs(x), abs(y))
    return 0.0 if scale < 1e-300 else abs(x - y) / scale


def test_criterion_1_identity_suite():
    with criterion(1, "identity suite: 100 seeded matrices, four routes"):
        start = time.monotonic()
        betas = (0.3, 1.0, 2.7)
        for seed in range(100):
            n = 2 + seed % 6  # n runs over 2..7
            matrix = random_interaction_matrix(n, seed)
            for beta in betas:
                graph = ursell_graph_sum(matrix, beta)
                partition = ursell_partition_sum(matrix, beta)
                assert rel_diff(graph, partition) < 1e-10, (seed, n, beta)
                if n <= MAX_INTEGRAL_ROUTE_N:
                    tree = ursell_tree_integral(matrix, beta)
                    merge = merge_sequence_expansion(matrix, beta)
                    for value in (tree, merge):
                        assert rel_diff(value, graph) < 1e-10, (seed, n, beta)
                        assert rel_diff(value, partition) < 1e-10, (seed, n, beta)
        elapsed = time.monotonic() - start
        print(f"  [identity suite ran in {elapsed:.1f}s]", flush=True)
        assert elapsed < 120.0


def test_criterion_2_integer_identities():
    with criterion(2, "integer identities: Mobius zero, Cayley counts, 38 graphs"):
        for n in range(2, 13):
            assert mobius_alternating_sum(n) == 0
        for n in range(2, 9):
            assert sum(1 for _ in enumerate_labeled_trees(n)) == n ** (n - 2)
        # independent brute-force oracle for the n = 4 connected-graph count
        pairs = pair_order(4)
        oracle = 0
        for k in range(len(pairs) + 1):
            for subset in itertools.combinations(pairs, k):
                adj = {v: set() for v in range(1, 5)}
                for i, j in subset:
                    adj[i].add(j)
                    adj[j].add(i)
                seen, stack = {1}, [1]
                while stack:
                    v = stack.pop()
                    for w in adj[v] - seen:
                        seen.add(w)
                        stack.append(w)
                oracle += len(seen) == 4
        assert oracle == 38
        assert len(connected_edge_masks(4)) == 38


def test_criterion_3_section_5_2_reproduction():
    with criterion(3, "cut a=0.3637 reproduction at beta=1"):
        beta, a = 1.0, 0.3637
        va_mass = beta * LennardJones()(a) * sphere_volume(a, 3)
        assert rel_diff(va_mass, 37444.0) < 5e-3
        pieces = bound_pieces(LJ, a, beta, 0.0)
        assert pieces.pieces["mps_va_mass"] == va_mass
        outer = pieces.pieces["outer_abs"]
        assert rel_diff(outer, 12381.0) < 5e-3
        inner = pieces.pieces["c_hat_inner"]
        assert rel_diff(inner, 0.823) < 5e-2
        assert rel_diff(pieces.c_hat, 12382.0) < 5e-3


def test_criterion_4_section_5_3_reproduction():
    with criterion(4, "optimized cut a=0.6397 reproduction"):
        best = find_max_a(LJ, "yuhjtman", (0.6, 0.7), tol=1e-6)
        assert abs(best - 0.6397) <= 2e-4
        beta, a = 1.0, 0.6397
        pieces = bound_pieces(LJ, a, beta, 0.0)
        inner = pieces.pieces["c_hat_inner"]
        outer = pieces.pieces["outer_abs"]
        total = pieces.c_hat
        assert rel_diff(inner, 2.5) < 5e-2
        assert rel_diff(outer, 61.63) < 5e-3
        assert rel_diff(total, 64.13) < 5e-3
        # composed radius constant: published total over computed h vs the
        # fully component-derived value
        h_low = h_factor(lj_stability_registry().b_lower)
        composed = 64.13 / h_low
        derived = total / h_low
        assert rel_diff(composed, derived) < 2e-2
        # the printed 7.4 itself is pre-registered as FLAG, never asserted
        rows = {(r["section"], r["name"]): r for r in reproduction_rows("5.3")}
        assert rows["5.3", "radius_denominator"]["status"] == "FLAG"


def test_criterion_5_inequality_suite():
    with criterion(5, "inequality suite: damped <= plain <= split bound"):
        registry = lj_stability_registry()
        beta_grid = (0.5, 1.0, 2.0)
        a_grid = (0.36, 0.5, 0.64)
        bbar_grid = (0.0, 1.0, 8.61, 20.0)
        for a, beta in itertools.product(a_grid, beta_grid):
            for bbar in bbar_grid:
                pieces = bound_pieces(LJ, a, beta, bbar)
                assert pieces.c_star <= pieces.c_tilde * (1 + 1e-12)
                assert pieces.c_hat <= pieces.c_star * (1 + 1e-9)
        # pointwise damping-factor monotonicity at 1e4 sampled points
        rng = np.random.default_rng(12345)
        a_args = rng.uniform(0.0, 50.0, 10_000)
        y1 = rng.uniform(0.0, 20.0, 10_000)
        y2 = y1 + rng.uniform(0.0, 20.0, 10_000)
        f1 = offset_stable_ratio(a_args, y1)
        f2 = offset_stable_ratio(a_args, y2)
        assert np.all(f2 <= f1 + 1e-12)
        assert np.all(offset_stable_ratio(a_args, y1) <= stable_ratio(a_args) + 1e-12)
        # radius comparison with the split-bound stability constant reused
        report = compare_report(LJ, 1.0, 0.3637, registry)
        assert report.r_star > report.r_mps


def test_criterion_6_discrepancy_ledger():
    with criterion(6, "pre-registered FLAGs and nothing else"):
        rows = reproduction_rows("all")
        flagged = {(r["section"], r["name"]) for r in rows if r["status"] == "FLAG"}
        assert flagged == {
            ("5.2", "h_at_8_61"),
            ("5.2", "radius_denominator"),
            ("5.3", "radius_denominator"),
            ("5.3", "improvement_factor"),
        }
        info = {(r["section"], r["name"]) for r in rows if r["status"] == "INFO"}
        assert info == {("5.3", "absolute_improvement_factor")}
        for row in rows:
            if (row["section"], row["name"]) not in flagged | info:
                assert row["status"] == "PASS", row
        # the headline absolute factor is reported, not asserted: the
        # recomposed chain lands an order of magnitude below the print
        absolute = next(r for r in rows if r["name"] == "absolute_improvement_factor")
        assert 1e15 < absolute["computed"] < 1e16
        # CLI wiring: flags must not fail the run
        assert main(["reproduce", "--format", "json", "--out", "/dev/null"]) == 0


def test_criterion_7_numerical_robustness():
    with criterion(7, "quadrature stability and r->0 finiteness"):
        registry = lj_stability_registry()
        halved = replace(
            DEFAULT_SPEC, rel_tol=DEFAULT_SPEC.rel_tol / 2, abs_tol=DEFAULT_SPEC.abs_tol / 2
        )
        for a in (0.3637, 0.6397):
            loose = compare_report(LJ, 1.0, a, registry, DEFAULT_SPEC)
            tight = compare_report(LJ, 1.0, a, registry, halved)
            for key in loose.pieces:
                estimate = max(
                    loose.error_estimates.get(key, 0.0),
                    DEFAULT_SPEC.rel_tol * abs(loose.pieces[key]),
                )
                assert abs(loose.pieces[key] - tight.pieces[key]) <= estimate, key
            assert abs(loose.c_pr - tight.c_pr) <= max(
                loose.error_estimates["c_pr"], DEFAULT_SPEC.rel_tol * loose.c_pr
            )
        # inner integrands stay finite down to r = 1e-3
        for a in (0.3637, 0.6397):
            r = np.geomspace(1e-3, a, 400)
            v = LJ(r)
            arg = 1.0 * (v - LennardJones()(a))
            star_integrand = np.abs(v) * stable_ratio(arg)
            hat_integrand = np.abs(v) * offset_stable_ratio(arg, 1.0 * 14.33)
            assert np.all(np.isfinite(star_integrand))
            assert np.all(np.isfinite(hat_integrand))
            assert np.all(star_integrand >= 0.0)

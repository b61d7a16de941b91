"""Route agreement, merge-machinery identities, and the simplex integral oracle.

Expected values for the simplex integral come from independent oracles: the
simplex volume and one-level closed forms analytically, the two-level case
against a seeded Monte-Carlo estimate, random cases against nested scipy
quadrature, and the divided-difference form against mpmath's matrix
exponential at 50 digits.
"""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from mayerbounds.combinatorics import SizeLimitError, enumerate_labeled_trees, pair_order
from mayerbounds.quadrature import stable_ratio
from mayerbounds.simplex import MAX_LEVELS, simplex_integral_from_diffs
from mayerbounds.ursell import (
    HardCoreCutoffError,
    InteractionMatrix,
    MAX_INTEGRAL_ROUTE_N,
    MAX_PARTITION_SUM_N,
    identity_check,
    merge_sequence_expansion,
    merge_step_energies,
    random_interaction_matrix,
    subset_energies,
    tree_level_coefficients,
    ursell_graph_sum,
    ursell_partition_sum,
    ursell_tree_integral,
)
from oracles import (
    block_energy,
    connected_graph_sum_mp,
    cross_energy,
    merge_histories,
    replay,
    set_partitions,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def rel_diff(x, y):
    scale = max(abs(x), abs(y))
    return 0.0 if scale < 1e-300 else abs(x - y) / scale


class TestInteractionMatrix:
    def test_missing_pairs_default_zero(self):
        m = InteractionMatrix.from_entries(3, {(1, 2): 1.0})
        assert m.effective_values()[0, 2] == 0.0
        assert m.effective_values()[1, 2] == 0.0

    def test_asymmetric_rejected(self):
        v = np.zeros((2, 2))
        v[0, 1] = 1.0
        with pytest.raises(ValueError):
            InteractionMatrix(2, v)

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_points_rejected(self, n):
        # a 0-point matrix once passed and made ursell_partition_sum raise IndexError
        with pytest.raises(ValueError, match="n >= 1"):
            InteractionMatrix(n, np.zeros((0, 0)))

    def test_hard_core_requires_cutoff(self):
        m = InteractionMatrix.from_entries(2, {}, hard_core_pairs=[(1, 2)])
        with pytest.raises(HardCoreCutoffError):
            m.effective_values()
        with pytest.raises(HardCoreCutoffError):
            ursell_graph_sum(m, 1.0)
        assert m.with_cutoff(30.0).effective_values()[0, 1] == 30.0
        assert m.with_cutoff().cutoff == 30.0

    def test_seeded_matrix_reproducible_and_in_range(self):
        a = random_interaction_matrix(5, 11)
        b = random_interaction_matrix(5, 11)
        assert np.array_equal(a.values, b.values)
        off_diag = a.values[~np.eye(5, dtype=bool)]
        assert np.all(off_diag >= -1.0) and np.all(off_diag <= 2.0)

    def test_seeded_matrix_draws_pairs_in_pair_order(self):
        # the schedule the docstring states, one scalar draw per pair, is the
        # reference for the vectorised draw, bit for bit
        for n, seed in itertools.product(range(1, 15), range(0, 50, 7)):
            rng = np.random.default_rng(seed)
            v = np.zeros((n, n))
            for i, j in pair_order(n):
                v[i - 1, j - 1] = v[j - 1, i - 1] = rng.uniform(-1.0, 2.0)
            assert random_interaction_matrix(n, seed).values.tobytes() == v.tobytes(), (n, seed)


class TestEnergies:
    def test_subset_energies_examples(self):
        m = random_interaction_matrix(4, 0)
        u = subset_energies(m)
        assert u[0] == 0.0
        assert u[0b0100] == 0.0
        assert u[0b0011] == m.values[0, 1]
        direct = sum(m.values[i, j] for i in range(4) for j in range(i + 1, 4))
        assert math.isclose(u[0b1111], direct, rel_tol=1e-15)

    def test_subset_energies_single_point(self):
        u = subset_energies(InteractionMatrix(1, np.zeros((1, 1))))
        assert u.tolist() == [0.0, 0.0]

    def test_subset_energies_hard_core_requires_cutoff(self):
        m = InteractionMatrix.from_entries(3, {}, hard_core_pairs=[(1, 2)])
        with pytest.raises(HardCoreCutoffError):
            subset_energies(m)
        # only the subsets holding both 1 and 2 see the cutoff
        assert subset_energies(m.with_cutoff(30.0)).tolist() == [0, 0, 0, 30, 0, 0, 0, 30]

    @given(st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_block_pair_merge_identity(self, seed):
        # U(A) + U(B) + W(A, B) = U(A union B), W summed pair by pair
        rng = np.random.default_rng(seed + 1000)
        m = random_interaction_matrix(6, seed)
        u = subset_energies(m)
        members = list(rng.permutation(range(1, 7)))
        cut = int(rng.integers(1, 5))
        a, b = set(members[:cut]), set(members[cut : cut + int(rng.integers(1, 2))])

        def mask(block):
            return sum(1 << (v - 1) for v in block)

        assert math.isclose(
            u[mask(a)] + u[mask(b)] + cross_energy(m, a, b),
            u[mask(a | b)],
            rel_tol=1e-12,
            abs_tol=1e-12,
        )


class TestGraphAndPartitionSums:
    def test_single_point_is_one(self):
        m = InteractionMatrix(1, np.zeros((1, 1)))
        assert ursell_graph_sum(m, 1.0) == 1.0
        assert ursell_partition_sum(m, 1.0) == 1.0

    def test_two_point_closed_form(self):
        m = InteractionMatrix.from_entries(2, {(1, 2): 0.8})
        for beta in (0.3, 1.0, 2.7):
            expected = math.expm1(-beta * 0.8)
            assert math.isclose(ursell_graph_sum(m, beta), expected, rel_tol=1e-14)
            assert math.isclose(ursell_partition_sum(m, beta), expected, rel_tol=1e-13)

    def test_zero_matrix_vanishes(self):
        m = InteractionMatrix(4, np.zeros((4, 4)))
        assert ursell_graph_sum(m, 1.0) == 0.0
        assert abs(ursell_partition_sum(m, 1.0)) < 1e-12
        # every tree and merge-history product is 0, so no simplex rows remain
        assert ursell_tree_integral(m, 1.0) == 0.0
        assert merge_sequence_expansion(m, 1.0) == 0.0

    def test_beta_zero(self):
        for n in (2, 3, 5, 7):
            m = random_interaction_matrix(n, n)
            assert ursell_graph_sum(m, 0.0) == 0.0
            assert abs(ursell_partition_sum(m, 0.0)) < 1e-10

    @pytest.mark.parametrize("n", range(2, 8))
    def test_graph_matches_partition(self, n):
        for seed in range(3):
            m = random_interaction_matrix(n, 97 * n + seed)
            for beta in (0.3, 1.0, 2.7):
                g = ursell_graph_sum(m, beta)
                p = ursell_partition_sum(m, beta)
                assert rel_diff(g, p) < 1e-10

    def test_size_guards(self):
        with pytest.raises(SizeLimitError):
            ursell_graph_sum(random_interaction_matrix(8, 0), 1.0)
        with pytest.raises(SizeLimitError):
            ursell_partition_sum(InteractionMatrix(15, np.zeros((15, 15))), 1.0)

    def test_deterministic_across_calls(self):
        m = random_interaction_matrix(6, 5)
        assert ursell_graph_sum(m, 1.7) == ursell_graph_sum(m, 1.7)


def partition_mobius_mp(m, beta):
    """Explicit Mobius sum over every set partition of [n], at 40 digits."""
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for partition in set_partitions(m.n):
            k = len(partition)
            energy = mpmath.fsum(mpmath.mpf(block_energy(m, b)) for b in partition)
            total += (-1) ** (k - 1) * math.factorial(k - 1) * mpmath.exp(-beta * energy)
        return total


def subset_recursion_mp(m, beta):
    """phi(S) = Z(S) - sum phi(T) Z(S minus T) over T holding vertex 1, at 40
    digits, with U summed exactly from the float entries."""
    n, vals = m.n, m.effective_values()
    with mpmath.workdps(40):
        u = [mpmath.mpf(0)] * (1 << n)
        for mask in range(1, 1 << n):
            low = (mask & -mask).bit_length() - 1
            rest = mask ^ (1 << low)
            u[mask] = u[rest] + mpmath.fsum(
                mpmath.mpf(vals[low, v]) for v in range(n) if rest >> v & 1
            )
        z = [mpmath.exp(-mpmath.mpf(beta) * x) for x in u]
        phi = [mpmath.mpf(0)] * (1 << n)
        phi[1] = mpmath.mpf(1)
        for s in range(3, 1 << n, 2):  # proper subsets come first
            rest = s ^ 1
            acc, sub = mpmath.mpf(0), (rest - 1) & rest
            while True:
                acc += phi[sub | 1] * z[rest ^ sub]
                if sub == 0:
                    break
                sub = (sub - 1) & rest
            phi[s] = z[s] - acc
        return phi[-1]


def uniform_ursell_mp(n, x):
    """phi([n]) when every Z(S) = x^C(|S|,2): n! [t^n] log sum_k x^C(k,2) t^k/k!
    (exponential formula), at 40 digits."""
    with mpmath.workdps(40):
        a = [mpmath.mpf(x) ** (k * (k - 1) // 2) / mpmath.factorial(k) for k in range(n + 1)]
        g = [mpmath.mpf(0)] * (n + 1)
        for j in range(1, n + 1):
            g[j] = a[j] - mpmath.fsum(k * g[k] * a[j - k] for k in range(1, j)) / j
        return g[n] * mpmath.factorial(n)


class TestPartitionRoute:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_explicit_mobius_sum(self, n):
        for seed in range(2):
            m = random_interaction_matrix(n, 31 * n + seed)
            for beta in (0.3, 1.0, 2.7):
                expected = partition_mobius_mp(m, beta)
                got = ursell_partition_sum(m, beta)
                assert float(abs(got - expected) / abs(expected)) <= 1e-12

    @pytest.mark.parametrize("beta", [0.3, 2.7])
    def test_rounding_at_n12(self, beta):
        m = random_interaction_matrix(12, 1205)
        expected = subset_recursion_mp(m, beta)
        got = ursell_partition_sum(m, beta)
        assert float(abs(got - expected) / abs(expected)) <= 1e-12

    @pytest.mark.parametrize("n", [13, 14])
    def test_uniform_matrix_up_to_the_guard(self, n):
        # every k-subset has the same Z, so the exponential formula gives
        # phi([n]) in closed form; -0.2 at beta 0.3 is the most cancelling case
        for c, beta in ((0.5, 1.0), (-0.2, 0.3), (1.5, 2.7)):
            v = np.full((n, n), c)
            np.fill_diagonal(v, 0.0)
            expected = uniform_ursell_mp(n, mpmath.exp(-mpmath.mpf(beta) * c))
            got = ursell_partition_sum(InteractionMatrix(n, v), beta)
            assert float(abs(got - expected) / abs(expected)) <= 1e-12

    def test_subset_energies_match_block_energy(self):
        n = 6
        m = random_interaction_matrix(n, 6)
        # entries on a 2^-10 grid make every partial sum exact in both orders
        dyadic = InteractionMatrix(n, np.round(m.values * 1024) / 1024)
        for matrix, tol in ((m, 1e-14), (dyadic, 0.0)):
            u = subset_energies(matrix)
            assert len(u) == 1 << n
            for mask in range(1 << n):
                members = [v + 1 for v in range(n) if mask >> v & 1]
                assert abs(float(u[mask]) - block_energy(matrix, members)) <= tol

    def test_zero_potential_vanishes_up_to_the_guard(self):
        # Z = 1 on every subset leaves sum_k (-1)^(k-1) (k-1)! S(n, k), which
        # is 0 for n >= 2; the recursion reaches it exactly
        for n in range(1, MAX_PARTITION_SUM_N + 1):
            got = ursell_partition_sum(InteractionMatrix(n, np.zeros((n, n))), 1.3)
            assert got == (1.0 if n == 1 else 0.0)

    def test_hard_core_requires_cutoff(self):
        v = random_interaction_matrix(4, 3).values.copy()
        v[1, 2] = v[2, 1] = np.inf
        m = InteractionMatrix(4, v)
        with pytest.raises(HardCoreCutoffError):
            ursell_partition_sum(m, 1.0)
        cut = m.with_cutoff(30.0)
        assert rel_diff(ursell_partition_sum(cut, 1.0), ursell_graph_sum(cut, 1.0)) < 1e-10


class TestGraphRoute:
    @pytest.mark.parametrize("n", [6, 7])
    def test_matches_explicit_mobius_sum(self, n):
        # the largest n, where the high/low grouping sums the most terms
        for seed in range(2):
            m = random_interaction_matrix(n, 53 * n + seed)
            for beta in (0.3, 2.7, 8.0):
                expected = partition_mobius_mp(m, beta)
                got = ursell_graph_sum(m, beta)
                assert float(abs(got - expected) / abs(expected)) <= 1e-11

    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_connected_graph_definition(self, n):
        # the closed-form star factor of vertex 1 against the plain graph sum
        matrices = [random_interaction_matrix(n, 31 * n + seed) for seed in range(3)]
        zeros = random_interaction_matrix(n, n).values.copy()
        zeros[0, -1] = zeros[-1, 0] = zeros[-2, -1] = zeros[-1, -2] = 0.0
        matrices.append(InteractionMatrix(n, zeros))
        hard = random_interaction_matrix(n, n + 1).values.copy()
        hard[0, 1] = hard[1, 0] = hard[-2, -1] = hard[-1, -2] = np.inf
        matrices.append(InteractionMatrix(n, hard).with_cutoff(30.0))
        for m in matrices:
            for beta in (0.0, 0.3, 1.0, 2.7, 8.0):
                expected = connected_graph_sum_mp(m, beta)
                got = ursell_graph_sum(m, beta)
                assert float(abs(got - expected)) <= 1e-13 * float(abs(expected))

    def test_cold_n7_memory(self):
        # a fresh process, so the cached tables are built under the trace; the
        # tables over the 2^15 graphs on {2..7} peak near 1 MB
        code = (
            "import tracemalloc\n"
            "from mayerbounds.ursell import random_interaction_matrix, ursell_graph_sum\n"
            "m = random_interaction_matrix(7, 0)\n"
            "tracemalloc.start()\n"
            "ursell_graph_sum(m, 1.0)\n"
            "print(tracemalloc.get_traced_memory()[1])\n"
        )
        path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), check=True,
            timeout=120,
        )
        assert int(proc.stdout) < 8 * 2**20

    def test_warm_n7_memory(self):
        # 2^15 graphs on {2..7}: the component products g take 512 KB of long doubles
        m = random_interaction_matrix(7, 0)
        ursell_graph_sum(m, 1.0)  # builds the cached tables
        tracemalloc.start()
        try:
            ursell_graph_sum(m, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def mpmath_rel_err(value, diffs, beta):
    """Relative error of a simplex integral against entry (0, m) of exp(J) at
    50 digits, J bidiagonal with the nodes -beta * c_k on its diagonal and
    ones above it."""
    with mpmath.workdps(50):
        nodes = [mpmath.mpf(0)]
        running = mpmath.mpf(0)
        for d in diffs:
            running += mpmath.mpf(float(d))
            nodes.append(-mpmath.mpf(beta) * running)
        jordan = mpmath.diag(nodes)
        for k in range(len(diffs)):
            jordan[k, k + 1] = 1
        expected = mpmath.expm(jordan)[0, len(diffs)] * mpmath.mpf(beta) ** len(diffs)
        return float(abs((mpmath.mpf(value) - expected) / expected))


class TestSimplexIntegral:
    def test_zero_coefficients_give_simplex_volume(self):
        for m_levels in (1, 2, 3, 4):
            value = simplex_integral_from_diffs((0.0,) * m_levels, 1.7)
            assert math.isclose(value, 1.7**m_levels / math.factorial(m_levels), rel_tol=1e-10)

    def test_one_level_closed_form(self):
        c, beta = 2.3, 1.1
        value = simplex_integral_from_diffs((c,), beta)
        assert math.isclose(value, (1 - math.exp(-c * beta)) / c, rel_tol=1e-12)

    def test_two_levels_against_monte_carlo(self):
        c1, c2, beta = 1.7, -0.9, 1.3
        value = simplex_integral_from_diffs((c1, c2 - c1), beta)
        rng = np.random.default_rng(2024)
        draws = rng.uniform(0.0, beta, size=(200_000, 2))
        b1 = draws.max(axis=1)
        b2 = draws.min(axis=1)
        samples = np.exp(-((b1 - b2) * c1 + b2 * c2))
        volume = beta**2 / 2.0
        estimate = volume * samples.mean()
        se = volume * samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(value - estimate) <= 3 * se

    @pytest.mark.parametrize("m_levels", [2, 3, 4])
    def test_against_nested_scipy(self, m_levels):
        rng = np.random.default_rng(m_levels)
        coeffs = tuple(np.cumsum(rng.uniform(-8, 8, m_levels)))
        beta = 1.9
        diffs = (coeffs[0],) + tuple(np.diff(coeffs))
        value = simplex_integral_from_diffs(diffs, beta)

        def nested(level, upper):
            d = diffs[level]
            if level == len(diffs) - 1:
                return upper * stable_ratio(d * upper)
            return integrate.quad(
                lambda x: math.exp(-d * x) * nested(level + 1, x),
                0.0,
                upper,
                epsabs=1e-300,
                epsrel=1e-11,
                limit=300,
            )[0]

        expected = nested(0, beta)
        assert rel_diff(value, expected) < 1e-10

    @pytest.mark.parametrize("m_levels", range(1, MAX_LEVELS + 1))
    def test_against_mpmath_expm(self, m_levels):
        rng = np.random.default_rng(100 + m_levels)
        cases = []
        for spread in (1.0, 30.0, 1000.0):
            for _ in range(4):
                levels = rng.uniform(-0.05 * spread, spread, m_levels)
                cases.append((levels, float(rng.uniform(0.2, 1.0))))
        cases.append((np.full(m_levels, 2.5), 1.3))  # coincident nodes
        cases.append((np.zeros(m_levels), 0.7))  # all nodes at the origin
        cases.append((2.5 + 1e-9 * np.arange(m_levels), 1.3))  # nodes 1e-9 apart
        cases.append((-3.0 + 1e-9 * np.arange(m_levels), 2.0))
        for levels, beta in cases:
            diffs = np.diff(levels, prepend=0.0)
            err = mpmath_rel_err(simplex_integral_from_diffs(diffs, beta), diffs, beta)
            assert err <= 1e-13, (levels, beta, err)

    @pytest.mark.parametrize("m_levels", range(1, MAX_LEVELS + 1))
    def test_against_mpmath_at_the_scaling_boundary(self, m_levels):
        # lowest node -(2^k - 1) below the top node 0: the kernel squares k
        # times, and the scaled matrix has 1-norm exactly 1; the levels are
        # quarter-integers, so their differences and sums are exact
        rng = np.random.default_rng(200 + m_levels)
        for k in range(11):
            low = 2.0**k - 1.0
            levels = rng.integers(0, 4 * low + 1, m_levels) / 4.0
            levels[rng.integers(m_levels)] = low
            diffs = np.diff(levels, prepend=0.0)
            err = mpmath_rel_err(simplex_integral_from_diffs(diffs, 1.0), diffs, 1.0)
            assert err <= 1e-13, (levels, err)

    @pytest.mark.parametrize("case", ["mixed", "equal_squarings", "zero_and_large"])
    def test_batched_equals_row_by_row(self, case):
        # 7500 rows cross the kernel's chunk boundaries
        rng = np.random.default_rng(5)
        if case == "mixed":
            diffs = rng.uniform(-20.0, 20.0, size=(3, 2500, 4))
            diffs[0, :10] = 0.0
        elif case == "equal_squarings":
            # levels in [2, 4] at beta = 1.7: every row squares 3 times
            diffs = np.diff(rng.uniform(2.0, 4.0, size=(3, 2500, 4)), axis=-1, prepend=0.0)
        else:
            # rows of zeros square 0 times, the others up to 11 times
            diffs = rng.uniform(-5.0, 300.0, size=(3, 2500, 4))
            diffs[rng.uniform(size=(3, 2500)) < 0.5] = 0.0
        batched = simplex_integral_from_diffs(diffs, 1.7)
        assert batched.shape == (3, 2500)
        rows = [simplex_integral_from_diffs(row, 1.7) for row in diffs.reshape(-1, 4)]
        assert all(isinstance(v, float) for v in rows)
        assert np.array_equal(batched.reshape(-1), np.array(rows))

    def test_beta_zero(self):
        assert simplex_integral_from_diffs((1.0, 1.0), 0.0) == 0.0

    def test_empty_batch(self):
        assert simplex_integral_from_diffs(np.zeros((0, 3)), 1.0).shape == (0,)
        assert simplex_integral_from_diffs(np.zeros((2, 0, 3)), 1.0).shape == (2, 0)

    def test_overflow_raises(self):
        # largest node beta * 400 = 800 > log(max double)
        with pytest.raises(FloatingPointError):
            simplex_integral_from_diffs((-400.0, 1.0), 2.0)
        # finite coefficients whose level sum leaves the double range
        with pytest.raises(FloatingPointError):
            simplex_integral_from_diffs((1e308, 1e308), 1.0)

    def test_level_guard(self):
        assert simplex_integral_from_diffs((1.0,) * MAX_LEVELS, 1.0) > 0.0
        with pytest.raises(SizeLimitError):
            simplex_integral_from_diffs((1.0,) * (MAX_LEVELS + 1), 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            simplex_integral_from_diffs((), 1.0)
        with pytest.raises(ValueError):
            simplex_integral_from_diffs((math.inf,), 1.0)
        with pytest.raises(ValueError):
            simplex_integral_from_diffs((1.0, math.nan), 1.0)
        with pytest.raises(ValueError):
            simplex_integral_from_diffs((1.0,), -0.5)
        with pytest.raises(ValueError):
            simplex_integral_from_diffs((1.0,), math.nan)


def forest_components(n, edges):
    """Connected components of the forest on [n] with the given edges, by an
    independent scan."""
    comps = []
    left = set(range(1, n + 1))
    while left:
        v = min(left)
        stack, seen = [v], {v}
        while stack:
            u = stack.pop()
            for i, j in edges:
                w = j if i == u else (i if j == u else None)
                if w is not None and w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(seen)
        left -= seen
    return comps


class TestTreeRoute:
    def test_level_coefficients_two_and_three_points(self):
        two = InteractionMatrix.from_entries(2, {(1, 2): 1.4})
        assert tree_level_coefficients(two).tolist() == [[[1.4]]]
        m = random_interaction_matrix(3, 8)
        chain = list(enumerate_labeled_trees(3)).index(((1, 2), (2, 3)))
        c1, c2 = tree_level_coefficients(m)[chain, 0]  # labels in sorted edge order
        assert math.isclose(c1, m.values[0, 1], rel_tol=1e-15)
        assert math.isclose(c2, block_energy(m, [1, 2, 3]), rel_tol=1e-15)

    def test_level_table_matches_prefix_partitions(self):
        # rows: trees in Prufer order, labelings in permutations order
        m = random_interaction_matrix(4, 31)
        table = tree_level_coefficients(m)
        assert table.shape == (16, 6, 3)
        trees = list(enumerate_labeled_trees(4))
        assert len(trees) == len(table)
        for tree, rows in zip(trees, table):
            for labeling, row in zip(itertools.permutations(tree), rows):
                expected = [
                    sum(block_energy(m, comp) for comp in forest_components(4, labeling[:k]))
                    for k in range(1, 4)
                ]
                assert np.allclose(row, expected, rtol=1e-14, atol=1e-14), labeling

    def test_exponent_coefficients_independent_component_scan(self):
        # as test_level_table_matches_prefix_partitions, at n = 5
        m = random_interaction_matrix(5, 21)
        table = tree_level_coefficients(m)
        for tree, rows in zip(enumerate_labeled_trees(5), table):
            for labeling, row in zip(itertools.permutations(tree), rows):
                expected = [
                    sum(block_energy(m, comp) for comp in forest_components(5, labeling[:k]))
                    for k in range(1, 5)
                ]
                assert np.allclose(row, expected, rtol=1e-12, atol=1e-12), labeling

    def test_labelings_count(self):
        for n in range(2, MAX_INTEGRAL_ROUTE_N + 1):
            table = tree_level_coefficients(random_interaction_matrix(n, n))
            assert table.shape == (n ** (n - 2), math.factorial(n - 1), n - 1)

    def test_two_point_closed_form(self):
        m = InteractionMatrix.from_entries(2, {(1, 2): 0.8})
        expected = math.expm1(-1.3 * 0.8)
        assert math.isclose(ursell_tree_integral(m, 1.3), expected, rel_tol=1e-9)

    def test_beta_zero(self):
        assert ursell_tree_integral(random_interaction_matrix(3, 0), 0.0) == 0.0

    def test_matches_partition_sum_n4(self):
        m = random_interaction_matrix(4, 123)
        tree = ursell_tree_integral(m, 1.0)
        part = ursell_partition_sum(m, 1.0)
        assert rel_diff(tree, part) < 1e-10

    def test_size_guard(self):
        assert MAX_INTEGRAL_ROUTE_N == 6
        with pytest.raises(SizeLimitError):
            ursell_tree_integral(random_interaction_matrix(7, 0), 1.0)
        with pytest.raises(SizeLimitError):
            merge_sequence_expansion(random_interaction_matrix(7, 0), 1.0)


class TestMergeRoute:
    def test_history_counts(self):
        assert sum(1 for _ in merge_histories(2)) == 1
        assert sum(1 for _ in merge_histories(3)) == 3
        assert sum(1 for _ in merge_histories(4)) == 6 * 3
        assert sum(1 for _ in merge_histories(5)) == 10 * 6 * 3

    @pytest.mark.parametrize("n", range(2, MAX_INTEGRAL_ROUTE_N + 1))
    def test_step_table_has_one_row_per_history(self, n):
        # a history picks one of C(k, 2) block pairs at each of k = n..2 blocks
        expected = math.prod(math.comb(k, 2) for k in range(2, n + 1))
        assert merge_step_energies(random_interaction_matrix(n, n)).shape == (expected, n - 1)

    def test_state_invariants(self):
        for history in merge_histories(4):
            partitions = replay(4, history)
            for k, blocks in enumerate(partitions, start=1):
                assert len(blocks) == 4 - k
                assert set().union(*blocks) == {1, 2, 3, 4}
            assert partitions[-1] == {frozenset({1, 2, 3, 4})}

    def test_bijection_with_labeled_trees(self):
        # each complete history sigma corresponds to prod_i #edges(sigma_i)
        # labeled trees; totals must match n^(n-2) (n-1)!
        for n in (3, 4):
            total = 0
            for history in merge_histories(n):
                count = 1
                for a, b in history:
                    count *= len(a) * len(b)
                total += count
            assert total == n ** (n - 2) * math.factorial(n - 1)

    def test_step_energies_match_block_pair_energies(self):
        m = random_interaction_matrix(4, 32)
        table = merge_step_energies(m)
        histories = list(merge_histories(4))
        assert table.shape == (len(histories), 3)
        for history, row in zip(histories, table):
            expected = [cross_energy(m, a, b) for a, b in history]
            assert np.allclose(row, expected, rtol=1e-14, atol=1e-14), history

    def test_two_point_value(self):
        m = InteractionMatrix.from_entries(2, {(1, 2): 0.8})
        expected = math.expm1(-1.3 * 0.8)
        assert math.isclose(merge_sequence_expansion(m, 1.3), expected, rel_tol=1e-9)

    def test_matches_tree_integral(self):
        m = random_interaction_matrix(4, 77)
        a = merge_sequence_expansion(m, 1.0)
        b = ursell_tree_integral(m, 1.0)
        assert rel_diff(a, b) < 1e-10

    @given(st.integers(0, 40))
    @settings(max_examples=20, deadline=None)
    def test_partial_sum_identity(self, seed):
        # sum of the first k merge energies equals the total energy of the
        # partition after k merges
        m = random_interaction_matrix(5, seed)
        histories = list(merge_histories(5))
        history = histories[np.random.default_rng(seed).integers(len(histories))]
        running = 0.0
        for (a, b), blocks in zip(history, replay(5, history)):
            running += cross_energy(m, a, b)
            total = sum(block_energy(m, block) for block in blocks)
            assert math.isclose(running, total, rel_tol=1e-12, abs_tol=1e-12)

    @given(st.integers(0, 40))
    @settings(max_examples=20, deadline=None)
    def test_telescoping_identity(self, seed):
        # sum_i b_i W_i == sum_k (b_k - b_{k+1}) * total energy after k merges
        m = random_interaction_matrix(5, seed)
        rng = np.random.default_rng(seed + 7)
        histories = list(merge_histories(5))
        history = histories[rng.integers(len(histories))]
        energies = [cross_energy(m, a, b) for a, b in history]
        partials = [
            sum(block_energy(m, block) for block in blocks) for blocks in replay(5, history)
        ]
        betas = np.sort(rng.uniform(0.0, 2.0, size=4))[::-1]
        lhs = float(np.dot(betas, energies))
        rhs = sum(
            (betas[k] - (betas[k + 1] if k + 1 < 4 else 0.0)) * partials[k]
            for k in range(4)
        )
        assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-10)


class TestHardCoreLimit:
    def test_cutoff_sequence_converges_to_exact_limit(self):
        base = random_interaction_matrix(4, 9)
        values = base.values.copy()
        values[0, 1] = values[1, 0] = np.inf
        values[2, 3] = values[3, 2] = np.inf
        m = InteractionMatrix(4, values)
        beta = 1.0
        # e^{-beta H} underflows to exactly 0 at H = 1e6: the exact hard-core
        # limit where every hard-core Mayer factor is -1
        limit = ursell_graph_sum(m.with_cutoff(1e6), beta)
        seq = [ursell_graph_sum(m.with_cutoff(h), beta) for h in (10.0, 20.0, 40.0)]
        gaps = [abs(s - limit) for s in seq]
        assert gaps[0] > gaps[1] > gaps[2]
        assert abs(seq[2] - seq[1]) < 1e-6
        assert gaps[2] < 1e-6

    def test_beta_zero_with_cutoff(self):
        m = InteractionMatrix.from_entries(3, {}, hard_core_pairs=[(1, 2)])
        assert ursell_graph_sum(m.with_cutoff(), 0.0) == 0.0


class TestFourRouteAgreement:
    @pytest.mark.parametrize("seed,n", [(0, 2), (1, 3), (2, 4)])
    def test_all_routes_agree(self, seed, n):
        m = random_interaction_matrix(n, seed)
        for beta in (0.3, 1.0, 2.7):
            g = ursell_graph_sum(m, beta)
            p = ursell_partition_sum(m, beta)
            t = ursell_tree_integral(m, beta)
            mg = merge_sequence_expansion(m, beta)
            assert rel_diff(g, p) < 1e-10
            assert rel_diff(t, g) < 1e-10
            assert rel_diff(mg, g) < 1e-10

    def test_n5_integral_routes(self):
        m = random_interaction_matrix(5, 4)
        g = ursell_graph_sum(m, 1.0)
        assert rel_diff(ursell_tree_integral(m, 1.0), g) < 1e-10
        assert rel_diff(merge_sequence_expansion(m, 1.0), g) < 1e-10

    def test_n6_integral_routes(self):
        m = random_interaction_matrix(6, 5)
        for beta in (0.3, 2.7):
            g = ursell_graph_sum(m, beta)
            assert rel_diff(ursell_tree_integral(m, beta), g) < 1e-10
            assert rel_diff(merge_sequence_expansion(m, beta), g) < 1e-10

    @pytest.mark.parametrize("n", range(2, MAX_INTEGRAL_ROUTE_N + 2))
    def test_identity_check(self, n):
        m = random_interaction_matrix(n, 3)
        expected = {"graph_sum": ursell_graph_sum, "partition_sum": ursell_partition_sum}
        if n <= MAX_INTEGRAL_ROUTE_N:
            expected["tree_integral"] = ursell_tree_integral
            expected["merge_expansion"] = merge_sequence_expansion
        routes, pairwise = identity_check(m, 1.3)
        assert routes == {name: route(m, 1.3) for name, route in expected.items()}
        pairs = list(itertools.combinations(sorted(expected), 2))
        assert list(pairwise) == [f"{x}_vs_{y}" for x, y in pairs]
        for x, y in pairs:
            scale = max(abs(routes[x]), abs(routes[y]))
            assert scale > 1e-12
            assert pairwise[f"{x}_vs_{y}"] == abs(routes[x] - routes[y]) / scale

    @pytest.mark.parametrize("n, match", [
        (4, "overflow"),  # a simplex integral of the tree route leaves the double range
        (7, "^graph_sum, partition_sum not finite at beta=400$"),
    ])
    def test_identity_check_overflow_raises(self, n, match):
        with pytest.raises(ArithmeticError, match=match):
            identity_check(random_interaction_matrix(n, 0), 400.0)

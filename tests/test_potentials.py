"""Pair potentials, the checked cut value V(a), and the Lennard-Jones majorant
behind the cube bound."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from mayerbounds.potentials import (
    HardCoreWrap,
    InversePower,
    LennardJones,
    NotBasuevAtCutError,
    PairPotential,
    PotentialDomainError,
    TabulatedPotential,
    potential_from_config,
    split,
)
from mayerbounds.stability import CUBE_R1

LJ = LennardJones()
LJ_ZERO = 2.0 ** (-1.0 / 6.0)

# dips that a sampled check of (0, a] misses: one narrower than a 1e4-point
# geometric grid, one below the grid's inner end 1e-6 a
DIP_KNOTS = {
    "narrow": ((0.3, 10.0), (0.30001, 1.0), (0.30002, 10.0), (0.6, 5.0)),
    "innermost": ((1e-8, 0.5), (2e-8, 10.0), (0.6, 5.0)),
}

NON_FINITE = [math.nan, math.inf, -math.inf]


class TestLennardJones:
    def test_minimum_at_one(self):
        assert LJ(1.0) == -1.0

    def test_zero_crossing(self):
        assert abs(LJ(LJ_ZERO)) < 1e-14

    def test_value_at_0_3637(self):
        with mpmath.workdps(30):
            expected = float(mpmath.mpf("0.3637") ** -12 - 2 / mpmath.mpf("0.3637") ** 6)
        assert math.isclose(LJ(0.3637), expected, rel_tol=1e-14)
        assert math.isclose(LJ(0.3637), 1.858e5, rel_tol=1e-3)

    def test_domain_error(self):
        with pytest.raises(PotentialDomainError):
            LJ(0.0)
        with pytest.raises(PotentialDomainError):
            LJ(-1.0)
        with pytest.raises(PotentialDomainError):
            LennardJones()(np.array([0.5, -0.5]))

    def test_vectorized(self):
        r = np.array([0.5, 1.0, 2.0])
        out = LennardJones()(r)
        assert out.shape == (3,)
        assert out[1] == -1.0

    @given(st.floats(min_value=1e-3, max_value=0.999))
    @settings(max_examples=100, deadline=None)
    def test_monotone_decreasing_inside_minimum(self, r):
        assert LJ(r) > LJ(r + 1e-3)


class TestSplit:
    @pytest.mark.parametrize("a", [0.3, 0.3637, 0.5, 0.6397, 0.7, 0.88])
    def test_returns_value_at_cut(self, a):
        # every cut below the LJ zero crossing is valid: V(r) >= V(a) > 0 on (0, a]
        lj = LennardJones()
        value = split(lj, a)
        assert value == LJ(a) > 0.0
        assert np.all(lj(np.geomspace(a * 1e-6, a, 2000)) >= value)

    def test_returns_plain_float(self):
        assert type(split(LennardJones(), 0.6397)) is float
        assert type(split(InversePower(1.0, 6.0), 0.5)) is float

    def test_rejects_cut_beyond_positivity(self):
        with pytest.raises(NotBasuevAtCutError):
            split(LennardJones(), 0.95)  # V(0.95) < 0
        with pytest.raises(NotBasuevAtCutError):
            split(LennardJones(), 1.5)

    def test_rejects_non_monotone_region(self):
        dips = TabulatedPotential(knots=((0.5, 5.0), (0.7, 1.0), (0.9, 3.0)))
        with pytest.raises(NotBasuevAtCutError):
            split(dips, 0.9)

    def test_rejects_nonpositive_cut(self):
        with pytest.raises(PotentialDomainError):
            split(LennardJones(), -0.1)

    @pytest.mark.parametrize("name", sorted(DIP_KNOTS))
    def test_rejects_dip_between_samples(self, name):
        dip = TabulatedPotential(knots=DIP_KNOTS[name])
        with pytest.raises(NotBasuevAtCutError, match="inf V on"):
            split(dip, 0.6)

    def test_rejects_nan_floor(self):
        # every built-in kind rejects NaN parameters, so a NaN floor needs a
        # kind of its own: positive at the cut, no infimum below it
        class NanFloor(PairPotential):
            def _evaluate(self, r):
                return 1.0 / r

            def floor(self, lo, hi):
                return math.nan

        with pytest.raises(NotBasuevAtCutError, match="inf V on"):
            split(NanFloor(), 0.6)


def _random_tabulated(rng):
    radii = np.sort(rng.uniform(0.2, 3.0, 8))
    return TabulatedPotential(knots=tuple(zip(radii, rng.normal(0.0, 2.0, 8))))


FLOOR_CASES = {
    "lennard-jones": lambda rng: LennardJones(),
    "inverse-power": lambda rng: InversePower(float(rng.uniform(0.0, 3.0)), 12.0),
    "tabulated": _random_tabulated,
    "hard-core/lj": lambda rng: HardCoreWrap(LennardJones(), float(rng.uniform(0.5, 1.5)), 0.5),
    "hard-core/tabulated": lambda rng: HardCoreWrap(_random_tabulated(rng), 0.9, 1.0),
}


def _random_range(rng):
    lo = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.05, 3.5))
    return lo, lo + float(rng.uniform(1e-3, 3.0))


class TestFloor:
    """floor(lo, hi) against independent minimisers on random (lo, hi)."""

    @pytest.mark.parametrize("kind", sorted(FLOOR_CASES))
    def test_matches_dense_grid(self, kind):
        rng = np.random.default_rng(sorted(FLOOR_CASES).index(kind))
        for _ in range(40):
            potential = FLOOR_CASES[kind](rng)
            lo, hi = _random_range(rng)
            grid = np.linspace(lo, hi, 20_001)[1:]
            if lo > 0:
                grid = np.concatenate(([np.nextafter(lo, hi)], grid))
            values = potential(grid)
            floor = potential.floor(lo, hi)
            # never above a sampled value, and below the samples by at most
            # one grid step of V
            assert floor <= values.min() + 1e-12 * abs(values.min())
            assert values.min() - floor <= np.abs(np.diff(values)).max() + 1e-12

    @pytest.mark.parametrize("kind", ["lennard-jones", "hard-core/lj"])
    def test_matches_scipy_minimiser(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(40):
            potential = FLOOR_CASES[kind](rng)
            lo, hi = _random_range(rng)
            # a hard core is constant on its core: minimise each piece apart,
            # over its inside and its ends ((p, q] is open at p)
            core = getattr(potential, "core_radius", 0.0)
            found = math.inf
            for p, q in [(lo, min(hi, core)), (max(lo, core), hi)]:
                if p < q:
                    inner = minimize_scalar(
                        potential, bounds=(p, q), method="bounded", options={"xatol": 1e-12}
                    )
                    ends = [q, np.nextafter(p, q)] if p > 0 else [q]
                    found = min(found, inner.fun, *potential(np.array(ends)))
            floor = potential.floor(lo, hi)
            assert floor <= found + 1e-12 * abs(found)
            assert math.isclose(floor, found, rel_tol=1e-9, abs_tol=1e-12)

    def test_examples(self):
        assert LennardJones().floor(0.0, 0.6397) == LJ(0.6397)
        assert LennardJones().floor(0.5, 3.0) == -1.0
        assert LennardJones().floor(1.5, 3.0) == LJ(1.5)
        assert InversePower(2.0, 6.0).floor(0.0, 2.0) == 2.0 * 2.0**-6.0
        tab = TabulatedPotential(knots=((1.0, 2.0), (2.0, -1.0), (3.0, 4.0)))
        assert tab.floor(0.0, 1.5) == 0.5
        assert tab.floor(0.0, 2.5) == -1.0
        assert tab.floor(2.5, 4.0) == 0.0  # zero past the last knot
        assert tab.floor(0.0, 0.5) == 2.0  # constant inside the first knot
        hc = HardCoreWrap(LennardJones(), 0.8, 100.0)
        assert hc.floor(0.0, 0.5) == 100.0
        assert hc.floor(0.0, 0.85) == LJ(0.85)
        assert hc.floor(0.9, 2.0) == -1.0

    def test_equal_radii_step_counts_both_sides(self):
        step = TabulatedPotential(knots=((0.5, 3.0), (1.0, 1.0), (1.0, 4.0), (2.0, 4.0)))
        assert step.floor(0.0, 2.0) == 1.0


class TestCubeMajorant:
    """The three inequalities behind the cube bound's closed-form constant."""

    @staticmethod
    def majorant(r):
        # the monotone majorant of V^- that mu_upper_cube integrates exactly
        return np.where(r <= 1.0, 2.0, 2.0 * r**-6.0)

    def test_documented_proof_holds(self):
        # core: V - 0.5 r^-6 = r^-6 (r^-6 - 2.5) >= 0 up to r = 2.5^(-1/6), past CUBE_R1
        crossing = 2.5 ** (-1.0 / 6.0)
        assert CUBE_R1 < crossing
        assert math.isclose(LJ(crossing), 0.5 * crossing**-6.0, rel_tol=1e-12)
        assert LJ.floor(0.0, CUBE_R1) == LJ(CUBE_R1) > 0.0
        # well: V + 1 = (r^-6 - 1)^2 >= 0, so the floor past the core is V(1) = -1
        assert LJ.floor(CUBE_R1, 1.0) == LJ(1.0) == -1.0
        assert self.majorant(1.0) >= 1.0
        # tail: V + 2 r^-6 = r^-12 > 0, the majorant beyond r = 1 (sampled
        # with the rest in test_majorizes_negative_part)

    def test_majorizes_negative_part(self):
        r = np.geomspace(0.2, 20.0, 500)
        eta = self.majorant(r)
        assert np.all(eta >= np.maximum(-LJ(r), 0.0))
        assert np.all(np.diff(eta) <= 0.0)


class TestHardCoreWrap:
    def test_values(self):
        hc = HardCoreWrap(LennardJones(), 0.5, 100.0)
        assert hc(0.2) == 100.0
        assert hc(0.5) == 100.0
        assert hc(0.8) == LJ(0.8)

    def test_gibbs_factor_monotone_in_height(self):
        values = [math.exp(-h) for h in (10.0, 20.0, 40.0)]
        assert values[0] > values[1] > values[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            HardCoreWrap(LennardJones(), 0.0, 1.0)
        with pytest.raises(ValueError):
            HardCoreWrap(LennardJones(), 1.0, -5.0)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            HardCoreWrap(LennardJones(), 0.3, bad)
        with pytest.raises(ValueError, match="finite"):
            HardCoreWrap(LennardJones(), bad, 10.0)


class TestInversePower:
    def test_validation(self):
        assert InversePower(0.0, 6.0)(2.0) == 0.0
        with pytest.raises(ValueError):
            InversePower(-1.0, 6.0)
        with pytest.raises(ValueError):
            InversePower(1.0, 0.0)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            InversePower(bad, 12.0)
        with pytest.raises(ValueError, match="finite"):
            InversePower(1.0, bad)


class TestTabulated:
    def test_interpolation_and_extrapolation(self):
        tab = TabulatedPotential(knots=((1.0, 2.0), (2.0, 0.0)))
        assert tab(0.5) == 2.0  # constant inside first knot
        assert tab(1.5) == 1.0  # linear between
        assert tab(3.0) == 0.0  # zero beyond last
        assert tab.tail_terms() == ()

    def test_knots_stored_as_float_pairs(self):
        # any sequence of pairs gives the same hashable potential
        from_lists = TabulatedPotential(knots=[[1, 2.0], np.array([2.0, 0.0])])
        assert from_lists.knots == ((1.0, 2.0), (2.0, 0.0))
        assert from_lists == TabulatedPotential(knots=((1.0, 2.0), (2.0, 0.0)))
        assert hash(from_lists) == hash(TabulatedPotential(knots=((1.0, 2.0), (2.0, 0.0))))

    def test_unsorted_knots_rejected(self):
        with pytest.raises(ValueError):
            TabulatedPotential(knots=((2.0, 1.0), (1.0, 2.0)))

    @pytest.mark.parametrize("knots", [
        ((0.3, math.inf), (0.6, 5.0)),
        ((0.3, math.nan), (0.6, 5.0)),
        ((0.6, 5.0), (math.inf, 1.0)),
        ((0.6, 5.0), (math.nan, 1.0)),
    ], ids=["inf-value", "nan-value", "inf-radius", "nan-radius"])
    def test_non_finite_knots_rejected(self, knots):
        # np.interp turns an infinite knot value into NaN on the pieces next
        # to it, where V has no infimum to check the cut against
        with pytest.raises(ValueError, match="finite"):
            TabulatedPotential(knots=knots)


class TestDimension:
    @pytest.mark.parametrize("d", [0, -2, 2.5, True, "3", math.inf, math.nan])
    def test_non_positive_integer_rejected(self, d):
        with pytest.raises(ValueError, match="dimension d"):
            InversePower(1.0, 12.0, d=d)
        with pytest.raises(ValueError, match="dimension d"):
            TabulatedPotential(knots=((1.0, 2.0),), d=d)

    def test_integral_float_counts_as_int(self):
        v = InversePower(1.0, 12.0, d=2.0)
        assert v.d == 2 and type(v.d) is int
        assert potential_from_config({"kind": "inverse-power", "C": 1, "p": 12, "d": 2.0}).d == 2

    @pytest.mark.parametrize("config", [
        {"kind": "lj", "d": 2},
        {"kind": "hard-core", "a": 0.5, "H": 3, "d": 2, "tail": {"kind": "lj"}},
    ], ids=["two-dimensional-lj", "hard-core-d-differs-from-tail"])
    def test_kind_that_cannot_have_d_rejected(self, config):
        with pytest.raises(ValueError):
            potential_from_config(config)


class TestConfig:
    def test_lennard_jones(self):
        v = potential_from_config({"kind": "lennard-jones"})
        assert v.kind == "lennard-jones"
        assert potential_from_config({"kind": "lj"}).kind == "lennard-jones"

    def test_inverse_power_and_default_dimension(self):
        v = potential_from_config({"kind": "inverse-power", "C": 2.0, "p": 6.0})
        assert v.d == 3
        assert v(2.0) == 2.0 * 2.0**-6.0

    def test_hard_core_nested(self):
        cfg = {
            "kind": "hard-core",
            "a": 0.5,
            "H": 30.0,
            "tail": {"kind": "lennard-jones"},
        }
        v = potential_from_config(cfg)
        assert v(0.4) == 30.0
        assert v(1.0) == -1.0
        assert v.config() == cfg | {"tail": {"kind": "lennard-jones", "d": 3}}

    def test_tabulated(self):
        v = potential_from_config({"kind": "tabulated", "knots": [[1.0, 1.0], [2.0, 0.0]]})
        assert v(1.0) == 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            potential_from_config({"kind": "morse"})

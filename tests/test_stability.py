"""mu(a) upper bounds, the criterion check, and the optimal-cut search."""

import math

import numpy as np
import pytest

from mayerbounds.potentials import HardCoreWrap, InversePower, LennardJones, TabulatedPotential
from mayerbounds import quadrature
from mayerbounds.quadrature import QuadratureSpec, radial_integral
from mayerbounds.stability import (
    CUBE_NUMERATOR,
    MethodDomainError,
    MethodMismatchError,
    MuBound,
    NoValidCutError,
    StabilityData,
    criterion_holds,
    find_max_a,
    mu_bound_function,
    lj_stability_registry,
    mu_upper_cube,
    mu_upper_yuhjtman,
)

LJ = LennardJones()


class TestYuhjtmanBound:
    def test_values(self):
        assert math.isclose(mu_upper_yuhjtman(0.6397).value, 24.05 / 0.6397**3, rel_tol=1e-15)
        assert math.isclose(mu_upper_yuhjtman(0.6).value, 24.05 / 0.216, rel_tol=1e-12)

    def test_domain(self):
        with pytest.raises(MethodDomainError):
            mu_upper_yuhjtman(0.5)
        with pytest.raises(MethodDomainError):
            mu_upper_yuhjtman(0.71)

    def test_method_mismatch(self):
        with pytest.raises(MethodMismatchError):
            mu_bound_function("yuhjtman", InversePower(1.0, 12.0))
        assert mu_bound_function("yuhjtman", LJ)(0.65).method == "yuhjtman"

    def test_strictly_decreasing(self):
        grid = np.linspace(0.6, 0.7, 50)
        values = [mu_upper_yuhjtman(a).value for a in grid]
        assert all(x > y for x, y in zip(values, values[1:]))


class TestCubeBound:
    def test_prefactor_dimension_three(self):
        assert math.isclose((4 * 3) ** 1.5, 41.569, rel_tol=1e-4)

    def test_closed_form_oracle(self):
        # int eta-bar = 2 * (4 pi/3) + 4 pi * 2/3 = 16 pi/3
        expected = (4 * 3) ** 1.5 * (16.0 * math.pi / 3.0) / 0.36**3
        got = mu_upper_cube(0.36)
        assert math.isclose(got.value, expected, rel_tol=1e-15)
        assert got.method == "cube-packing"

    def test_numerator_matches_quadrature(self):
        # the exact int eta-bar in CUBE_NUMERATOR against eta-bar itself
        # integrated adaptively to a tolerance far below the asserted one
        numeric, _ = radial_integral(
            lambda r: np.where(r <= 1.0, 2.0, 2.0 * r**-6.0), 3, 0.0, math.inf,
            QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300),
            tail=((2.0, 6.0),), breakpoints=(1.0,),
        )
        assert math.isclose(CUBE_NUMERATOR / 12**1.5, numeric, rel_tol=1e-13, abs_tol=0.0)

    def test_domain(self):
        with pytest.raises(MethodDomainError):
            mu_upper_cube(0.8)  # not strictly inside r1
        with pytest.raises(MethodDomainError):
            mu_upper_cube(0.0)

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf, -0.0, -0.3, 0.8, 0.9, 1.0])
    def test_domain_rejects(self, a):
        with pytest.raises(MethodDomainError, match="0 < a < r1 = 0.8"):
            mu_upper_cube(a)

    def test_numerator_is_the_documented_constant(self):
        assert CUBE_NUMERATOR == 696.4989558659396
        assert math.isclose(CUBE_NUMERATOR, 12**1.5 * 16.0 * math.pi / 3.0, rel_tol=1e-15)

    # the values the envelope-based bound gave at these cuts, bit for bit
    @pytest.mark.parametrize("a, value", [
        (0.05, 5571991.646927515),
        (0.1, 696498.9558659394),
        (0.3637, 14477.399757712967),
        (0.44658107757568355, 7820.22984777042),
        (0.5, 5571.991646927517),
        (0.6397, 2660.6724795396067),
        (0.79, 1412.66503433996),
        (0.7999999999999999, 1360.3495231756635),
    ])
    def test_pinned_values(self, a, value):
        assert mu_upper_cube(a) == MuBound(a=a, value=value, method="cube-packing")

    def test_strictly_decreasing(self):
        grid = np.linspace(0.05, 0.79, 50)
        values = [mu_upper_cube(a).value for a in grid]
        assert all(x > y for x, y in zip(values, values[1:]))


class TestCriterion:
    def test_lj_certified_at_published_cut(self):
        assert criterion_holds(LJ, mu_upper_yuhjtman(0.6397))

    def test_lj_fails_at_0_66(self):
        assert LJ(0.66) < 2 * 24.05 / 0.66**3
        assert not criterion_holds(LJ, mu_upper_yuhjtman(0.66))

    def test_repulsive_with_zero_bound(self):
        v = InversePower(1.0, 12.0)
        for a in (0.3, 1.0, 5.0):
            assert criterion_holds(v, MuBound(a=a, value=0.0, method="user-supplied"))

    def test_lj_certified_at_0_3637_with_cube_bound(self):
        # the cube-packing bound does certify the small published cut
        bound = mu_upper_cube(0.3637)
        assert criterion_holds(LJ, bound)


class TestFindMaxA:
    def test_lj_yuhjtman_reaches_published_cut(self):
        best = find_max_a(LJ, "yuhjtman", (0.6, 0.7), tol=1e-4)
        assert abs(best - 0.6397) <= 2e-4

    def test_result_certified_and_boundary_sharp(self):
        tol = 1e-5
        best = find_max_a(LJ, "yuhjtman", (0.6, 0.7), tol=tol)
        assert criterion_holds(LJ, mu_upper_yuhjtman(best))
        probe = best + 2 * tol
        assert not criterion_holds(LJ, mu_upper_yuhjtman(probe))

    def test_repulsive_returns_upper_end(self):
        best = find_max_a(
            InversePower(1.0, 12.0), "user", (0.2, 0.9), mu_value=0.0
        )
        assert best == 0.9

    def test_cube_method_gives_smaller_optimum(self):
        best = find_max_a(LJ, "cube", (0.1, 0.79), tol=1e-5)
        assert best < 0.6397
        assert 0.4 < best < 0.5

    def test_cube_search_makes_no_quadrature_call(self, monkeypatch):
        # int eta-bar is exact, so a cube search integrates nothing; the
        # cuts equal bit for bit those found when eta-bar was integrated
        # adaptively
        calls = []
        original = quadrature.integrate_adaptive

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return original(*args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate_adaptive", counting)
        assert find_max_a(LJ, "cube", (0.15, 0.75)) == 0.44658107757568355
        assert find_max_a(LJ, "cube", (0.1, 0.79), tol=1e-9) == 0.44658124527893966
        assert find_max_a(LJ, "cube", (0.1, 0.79), tol=1e-5) == 0.4465792846679688
        assert calls == []

    def test_failure_at_interval_start(self):
        with pytest.raises(NoValidCutError):
            find_max_a(LJ, "yuhjtman", (0.65, 0.7))

    def test_cube_for_non_lj_names_lennard_jones(self):
        with pytest.raises(MethodMismatchError, match="specific to the classical Lennard-Jones"):
            find_max_a(InversePower(1.0, 12.0), "cube", (0.1, 0.5))

    @pytest.mark.parametrize("method", ["cube", "yuhjtman"])
    @pytest.mark.parametrize("potential", [
        InversePower(1.0, 12.0),
        HardCoreWrap(LennardJones(), 0.5, 1e6),
        TabulatedPotential(knots=((0.5, 50.0), (1.0, -1.0), (2.0, 0.0))),
    ], ids=["inverse-power", "hard-core", "tabulated"])
    def test_lj_only_methods_name_lennard_jones(self, method, potential):
        match = f"classical Lennard-Jones potential, not '{potential.kind}'"
        with pytest.raises(MethodMismatchError, match=match):
            mu_bound_function(method, potential)

    def test_cube_resolves_to_mu_upper_cube(self):
        assert mu_bound_function("cube", LJ) is mu_upper_cube

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            find_max_a(LJ, "magic", (0.6, 0.7))

    @pytest.mark.parametrize("mu_value", [None, -1.0, math.nan])
    def test_user_method_needs_non_negative_mu(self, mu_value):
        with pytest.raises(ValueError, match="non-negative mu_value"):
            mu_bound_function("user", LJ, mu_value=mu_value)


class TestRegistry:
    def test_values_and_sources(self):
        data = lj_stability_registry()
        assert data.b_lower == 8.61
        assert data.b_upper == 14.316
        assert data.bbar_factor == 1.001
        assert math.isclose(data.bbar_upper, 1.001 * 14.316, rel_tol=1e-15)
        for key in ("b_lower", "b_upper", "bbar_factor"):
            assert data.sources[key]

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            StabilityData(b_lower=2.0, b_upper=1.0, bbar_factor=1.0, sources={})
        with pytest.raises(ValueError):
            StabilityData(b_lower=0.0, b_upper=1.0, bbar_factor=0.9, sources={})
        for b_upper, factor in [(math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)]:
            with pytest.raises(ValueError):
                StabilityData(b_lower=0.0, b_upper=b_upper, bbar_factor=factor, sources={})

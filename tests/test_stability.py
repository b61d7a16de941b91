"""mu(a) upper bounds, the criterion check, and the optimal-cut search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mayerbounds.potentials import InversePower, LennardJones, LJTypeEnvelope
from mayerbounds import quadrature
from mayerbounds.quadrature import QuadratureSpec, radial_integral, sphere_surface
from mayerbounds.stability import (
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
        # eta-bar = max(w, eta(r2)) inside r2, C'/r^(d+eps) beyond:
        # int = S_2 (wbar r2^3/3 + C' r2^-eps / eps)
        env = LennardJones.default_envelope()
        wbar = max(env.well_depth, env.c_attraction / env.r2**6)
        closed = sphere_surface(3) * (
            wbar * env.r2**3 / 3.0 + env.c_attraction * env.r2**-3.0 / 3.0
        )
        expected = (4 * 3) ** 1.5 * closed / 0.36**3
        got = mu_upper_cube(env, 0.36)
        assert math.isclose(got.value, expected, rel_tol=1e-8)
        assert got.method == "cube-packing"

    # coefficients 0 or of normal size: at subnormal ones the quadrature,
    # not the closed form, loses its relative precision
    @given(
        d=st.sampled_from([1, 2, 3]),
        r2=st.floats(min_value=0.05, max_value=10.0),
        r1_fraction=st.floats(min_value=0.05, max_value=1.0),
        c_attraction=st.just(0.0) | st.floats(min_value=1e-3, max_value=10.0),
        well_depth=st.just(0.0) | st.floats(min_value=1e-3, max_value=10.0),
        decay_surplus=st.floats(min_value=0.05, max_value=12.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_closed_form_matches_quadrature(
        self, d, r2, r1_fraction, c_attraction, well_depth, decay_surplus
    ):
        # the exact int eta-bar inside mu_upper_cube against eta-bar itself
        # integrated adaptively to a tolerance far below the asserted one
        env = LJTypeEnvelope(
            c_repulsion=1.0, c_attraction=c_attraction, r1=r1_fraction * r2, r2=r2,
            well_depth=well_depth, decay_surplus=decay_surplus, d=d,
        )
        a = 0.5 * env.r1
        closed = mu_upper_cube(env, a).value * a**d / (4.0 * d) ** (d / 2.0)
        numeric, _ = radial_integral(
            env.eta_bar, d, 0.0, math.inf, QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300),
            tail=((c_attraction, d + decay_surplus),), breakpoints=(r2,),
        )
        assert math.isclose(closed, numeric, rel_tol=1e-13, abs_tol=0.0)

    def test_repulsive_envelope_gives_zero(self):
        env = LJTypeEnvelope(
            c_repulsion=1.0, c_attraction=0.0, r1=0.8, r2=1.0,
            well_depth=0.0, decay_surplus=3.0,
        )
        assert mu_upper_cube(env, 0.3).value == 0.0

    def test_domain(self):
        env = LennardJones.default_envelope()
        with pytest.raises(MethodDomainError):
            mu_upper_cube(env, 0.8)  # not strictly inside r1
        with pytest.raises(MethodDomainError):
            mu_upper_cube(env, 0.0)


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
        # the generic cube-packing bound with the documented envelope does
        # certify the small published cut
        bound = mu_upper_cube(LennardJones.default_envelope(), 0.3637)
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

    def test_cube_for_non_lj_requires_envelope(self):
        with pytest.raises(MethodMismatchError, match=r"mu_upper_cube\(envelope, a\)"):
            find_max_a(InversePower(1.0, 12.0), "cube", (0.1, 0.5))

    def test_cube_reads_the_default_envelope(self):
        bound_at = mu_bound_function("cube", LJ)
        for a in (0.3637, 0.5):
            assert bound_at(a) == mu_upper_cube(LennardJones.default_envelope(), a)

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

"""Bound integrals, radius formulas, and the damping-factor inequalities.

Frozen reference values (scipy.integrate.quad oracles, rel err < 1e-9):
  4*pi int_0.3637^inf |r^-10 - 2 r^-4| dr             = 12381.0865
  inner C^(1,0) piece at a = 0.3637                   = 0.822852
  inner C^(1,0) piece at a = 0.6397                   = 2.492759
  outer piece at a = 0.6397                           = 61.6299
"""

import ast
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from mayerbounds import bounds
from mayerbounds.bounds import (
    BoundReport,
    bound_pieces,
    compare_report,
    h_factor,
    hard_core_bounds,
    offset_stable_ratio,
    penrose_ruelle,
)
from mayerbounds.potentials import (
    HardCoreWrap,
    InversePower,
    NotBasuevAtCutError,
    LennardJones,
    TabulatedPotential,
)
from mayerbounds.quadrature import QuadratureSpec, sphere_volume, stable_ratio
from mayerbounds.stability import StabilityData, lj_stability_registry

LJ = LennardJones()
ZERO_POTENTIAL = TabulatedPotential(knots=((1.0, 0.0),))
REGISTRY = lj_stability_registry()
# B = B-bar = 0: every radius is e^-1 over its integral
NO_STABILITY = StabilityData(0.0, 0.0, 1.0, {})


class TestOffsetStableRatio:
    def test_reduces_to_stable_ratio_at_zero_offset(self):
        x = np.geomspace(1e-8, 1e8, 50)
        np.testing.assert_allclose(offset_stable_ratio(x, 0.0), stable_ratio(x), rtol=1e-12)

    def test_value_at_coincidence(self):
        for x in (0.5, 1.0, 7.0):
            assert math.isclose(
                offset_stable_ratio(x, x), x / math.expm1(x), rel_tol=1e-12
            )

    def test_value_at_origin(self):
        assert offset_stable_ratio(0.0, 0.0) == 1.0

    @pytest.mark.parametrize("a_arg", [0.0, 0.5, 1.0, 10.0])
    def test_monotone_decreasing_in_offset(self, a_arg):
        ys = np.linspace(0.0, 25.0, 400)
        values = offset_stable_ratio(a_arg, ys)
        assert np.all(np.diff(values) <= 1e-15)

    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=1e-6, max_value=20.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_damped_factor_never_exceeds_plain(self, a_arg, y, dy):
        assert offset_stable_ratio(a_arg, y + dy) <= offset_stable_ratio(a_arg, y) + 1e-14

    def test_matches_high_precision(self):
        with mpmath.workdps(40):
            for a_arg, y in [
                (3.0, 2.0), (1e-3, 5.0), (50.0, 0.1), (2.0, 2.0),
                # y >= 709, where e^y overflows a double
                (0.5, 709.0), (0.5, 1000.0), (10.0, 750.0), (700.0, 720.0), (710.0, 709.5),
            ]:
                expected = float(
                    (mpmath.expm1(y - a_arg) / (y - a_arg) if y != a_arg else 1)
                    / (mpmath.expm1(y) / y)
                )
                assert math.isclose(offset_stable_ratio(a_arg, y), expected, rel_tol=1e-12)


class TestHFactor:
    def test_limit_at_zero(self):
        assert math.isclose(h_factor(1e-12), 1.0, rel_tol=1e-9)

    def test_increasing_on_certified_window(self):
        us = np.linspace(8.61, 14.316, 200)
        values = h_factor(us)
        assert np.all(np.diff(values) > 0)

    def test_value_against_high_precision(self):
        with mpmath.workdps(50):
            u = mpmath.mpf("8.61")
            expected = float(1.001 * u / (mpmath.e ** (u / 1000) - mpmath.e**-u))
        assert math.isclose(h_factor(8.61), expected, rel_tol=1e-10)
        # the printed chain claims >= 8.69; the formula gives ~8.546
        assert math.isclose(h_factor(8.61), 8.546267, rel_tol=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            h_factor(0.0)
        with pytest.raises(ValueError):
            h_factor(-1.0)


class TestPenroseRuelle:
    def test_pure_hard_core_gives_ball_volume(self):
        # e^{-beta H} underflows to exactly 0 for H = 1e6
        hc = HardCoreWrap(InversePower(0.0, 6.0), 0.9, 1e6)
        c_value, _ = penrose_ruelle(hc, 1.0, 0.0)
        assert math.isclose(c_value, sphere_volume(0.9, 3), rel_tol=1e-10)

    def test_radius_formula_normalization(self):
        # a core radius chosen so C = W_a = 1 turns the radius into 1/e at B=0
        a = (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
        hc = HardCoreWrap(InversePower(0.0, 6.0), a, 1e6)
        c_value, radius = penrose_ruelle(hc, 1.0, 0.0)
        assert math.isclose(c_value, 1.0, rel_tol=1e-10)
        assert math.isclose(radius, 1.0 / math.e, rel_tol=1e-9)

    def test_lj_finite_and_stable_under_tolerance_halving(self):
        spec = QuadratureSpec()
        c1, r1 = penrose_ruelle(LJ, 1.0, REGISTRY.b_upper, spec)
        c2, _ = penrose_ruelle(LJ, 1.0, REGISTRY.b_upper, replace(spec, rel_tol=spec.rel_tol / 2, abs_tol=spec.abs_tol / 2))
        assert 0 < c1 < math.inf and 0 < r1 < math.inf
        assert math.isclose(c1, c2, rel_tol=1e-7)

    def test_zero_potential_sentinel(self):
        c_value, radius = penrose_ruelle(ZERO_POTENTIAL, 1.0, 0.0)
        assert c_value == 0.0
        assert radius == math.inf


class TestMpsBound:
    def test_published_pieces_at_0_3637(self):
        c_value = bound_pieces(LJ, 0.3637, 1.0, 0.0).c_tilde
        va_mass = LJ(0.3637) * sphere_volume(0.3637, 3)
        assert math.isclose(va_mass, 37444.0, rel_tol=5e-3)
        assert c_value > va_mass + 12381.0
        assert math.isclose(c_value, 49825.0, rel_tol=5e-3)

    def test_zero_potential_sentinel(self):
        report = compare_report(ZERO_POTENTIAL, 1.0, 0.5, NO_STABILITY)
        assert report.c_tilde == 0.0
        assert report.r_mps == math.inf


class TestBasuevBounds:
    def test_c_star_less_than_mps(self):
        report = compare_report(LJ, 1.0, 0.3637, REGISTRY)
        assert report.c_star < report.c_tilde
        assert report.r_star > report.r_mps

    def test_chat_at_zero_bbar_equals_c_star(self):
        pieces = bound_pieces(LJ, 0.3637, 1.0, 0.0)
        assert math.isclose(pieces.c_star, pieces.c_hat, rel_tol=1e-12)

    def test_published_chat_values(self):
        c_hat_small = bound_pieces(LJ, 0.3637, 1.0, 0.0).c_hat
        assert math.isclose(c_hat_small, 12382.0, rel_tol=5e-3)
        c_hat_opt = bound_pieces(LJ, 0.6397, 1.0, 0.0).c_hat
        assert math.isclose(c_hat_opt, 64.13, rel_tol=5e-3)

    def test_chat_below_c_star_for_positive_bbar(self):
        c_star = bound_pieces(LJ, 0.5, 1.0, 0.0).c_star
        for bbar in (1.0, 8.61, 20.0):
            assert bound_pieces(LJ, 0.5, 1.0, bbar).c_hat <= c_star

    def test_radius_picks_second_piece_for_lj(self):
        report = compare_report(LJ, 1.0, 0.6397, StabilityData(8.61, 8.61, 1.001, {}))
        assert report.r_hat > report.r_star

    def test_zero_potential_sentinel(self):
        report = compare_report(ZERO_POTENTIAL, 1.0, 0.5, StabilityData(1.0, 1.0, 1.0, {}))
        assert report.r_star == report.r_hat == math.inf

    def test_vanishing_constants_limit(self):
        # at B = B-bar = 0 both radii reduce to e^-1 / C*
        report = compare_report(LJ, 1.0, 0.5, NO_STABILITY)
        assert math.isclose(report.r_star, report.r_hat, rel_tol=1e-12)

    def test_radii_at_zero_stability_constants(self):
        # B = B-bar = 0: every radius is exactly e^-1 over its integral
        report = compare_report(LJ, 1.0, 0.6397, NO_STABILITY)
        assert report.r_mps == math.exp(-1.0) / report.c_tilde
        assert report.r_star == math.exp(-1.0) / report.c_star
        assert report.r_hat == math.exp(-1.0) / report.c_hat

    def test_negative_bbar_rejected(self):
        with pytest.raises(ValueError):
            bound_pieces(LJ, 0.5, 1.0, -1.0)


class TestHardCoreBounds:
    def test_zero_tail_core_term(self):
        hc = HardCoreWrap(InversePower(0.0, 6.0), 1.0, 1e6)
        c_star_hc, c_hat_hc = hard_core_bounds(hc, 1.0, 1.0, 0.0)
        assert math.isclose(c_star_hc, 4 * math.pi / 3, rel_tol=1e-12)
        assert c_hat_hc == c_star_hc  # damping factor is 1 at bbar = 0

    def test_unit_damping(self):
        hc = HardCoreWrap(InversePower(0.0, 6.0), 1.0, 1e6)
        _, c_hat_hc = hard_core_bounds(hc, 1.0, 1.0, 1.0)
        assert math.isclose(c_hat_hc, (4 * math.pi / 3) / (math.e - 1.0), rel_tol=1e-12)

    def test_lj_tail_added(self):
        hc = HardCoreWrap(LennardJones(), 1.0, 1e6)
        c_star_hc, c_hat_hc = hard_core_bounds(hc, 1.0, 1.0, 5.0)
        tail = 4 * math.pi * (2.0 / 3.0 - 1.0 / 9.0)  # 4pi int_1^inf |r^-10-2r^-4|
        assert math.isclose(c_star_hc, 4 * math.pi / 3 + tail, rel_tol=1e-8)
        assert c_hat_hc < c_star_hc

    def test_validation(self):
        hc = HardCoreWrap(InversePower(0.0, 6.0), 1.0, 1e6)
        with pytest.raises(ValueError):
            hard_core_bounds(hc, 0.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            hard_core_bounds(LJ, 0.5, 1.0, 0.0)


class TestCompareReport:
    def test_lj_report_structure_and_ordering(self):
        report = compare_report(LJ, 1.0, 0.3637, REGISTRY)
        assert report.r_star > report.r_mps
        assert report.c_hat <= report.c_star <= report.c_tilde
        assert report.ratios["star_over_mps"] > 1.0
        assert set(report.pieces) == {
            "outer_abs", "c_star_inner", "c_hat_inner", "mps_inner_exp", "mps_va_mass",
        }
        assert report.b_used == REGISTRY.b_upper
        assert math.isclose(report.bbar_used, 1.001 * REGISTRY.b_upper, rel_tol=1e-15)

    def test_zero_potential_sentinel_report(self):
        report = compare_report(ZERO_POTENTIAL, 1.0, 0.5, REGISTRY)
        assert report.r_pr == math.inf
        assert report.r_hat == math.inf
        assert report.c_pr == 0.0
        assert report.notes

    def test_json_round_trip_and_determinism(self):
        r1 = compare_report(LJ, 1.0, 0.6397, REGISTRY)
        r2 = compare_report(LJ, 1.0, 0.6397, REGISTRY)
        assert r1.to_json() == r2.to_json()
        payload = json.loads(r1.to_json())
        assert payload["radii"]["basuev_hat"] == r1.r_hat

    def test_csv_and_table_render(self):
        report = compare_report(LJ, 1.0, 0.6397, REGISTRY)
        csv_text = report.csv_text()
        assert csv_text.splitlines()[0] == "bound,integral,radius,beta,a,B,Bbar"
        assert len(csv_text.splitlines()) == 5
        assert "basuev C^" in report.table_text()

    def test_invariant_violation_rejected(self):
        with pytest.raises(ValueError):
            BoundReport(
                beta=1.0, a=0.5, b_used=1.0, bbar_used=1.0,
                c_pr=1.0, c_tilde=1.0, c_star=1.0, c_hat=2.0,
                r_pr=1.0, r_mps=1.0, r_star=1.0, r_hat=1.0,
            )


class TestBoundPieces:
    """One pipeline computes the pieces that every bound and report reads."""

    def test_bounds_read_the_report_pieces(self):
        report = compare_report(LJ, 1.0, 0.6397, REGISTRY)
        pieces = bound_pieces(LJ, 0.6397, 1.0, REGISTRY.bbar_upper)
        assert pieces.pieces == report.pieces
        assert dict(pieces.error_estimates, c_pr=report.error_estimates["c_pr"]) == (
            report.error_estimates
        )
        assert penrose_ruelle(LJ, 1.0, REGISTRY.b_upper) == (report.c_pr, report.r_pr)

    def test_penrose_ruelle_overflow_raises(self):
        # e^{720} overflows in the well of V; compare_report raises the same way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="Penrose-Ruelle integral overflows"):
                penrose_ruelle(LJ, 720.0, 14.316)

    def test_compare_report_overflow_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="Penrose-Ruelle integral overflows"):
                compare_report(LJ, 720.0, 0.6397, REGISTRY)

    def test_zero_potential_pieces(self):
        pieces = bound_pieces(ZERO_POTENTIAL, 0.5, 1.0, 1.0)
        assert pieces.is_zero
        assert set(pieces.pieces.values()) == {0.0}
        assert pieces.c_tilde == pieces.c_star == pieces.c_hat == 0.0

    @pytest.mark.parametrize("call", [
        lambda: compare_report(LJ, 1.0, 0.6397, REGISTRY),
        lambda: bound_pieces(LJ, 0.6397, 1.0, REGISTRY.bbar_upper),
    ])
    def test_one_split_and_one_zero_probe(self, call, monkeypatch):
        calls = {"split": 0, "_is_zero_potential": 0}

        def counted(name):
            original = getattr(bounds, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(bounds, name, counted(name))
        call()
        assert calls == {"split": 1, "_is_zero_potential": 1}

    def test_all_lists_only_own_definitions(self):
        # quadrature's names have their public home in quadrature and the package root
        assert all(getattr(bounds, name).__module__ == bounds.__name__ for name in bounds.__all__)

    def test_no_private_imports_across_modules(self):
        root = Path(__file__).resolve().parents[1]
        offenders = []
        for path in sorted(root.glob("src/**/*.py")) + sorted(root.glob("scripts/*.py")) + sorted(
            root.glob("tests/*.py")
        ):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if not isinstance(node, ast.ImportFrom):
                    continue
                module = node.module or ""
                if node.level:  # relative imports occur only inside the package
                    module = f"mayerbounds.{module}".rstrip(".")
                if module.split(".")[0] != "mayerbounds" or module == f"mayerbounds.{path.stem}":
                    continue
                offenders += [
                    f"{path.relative_to(root)}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
        assert not offenders


class TestKnotsBeyondTailCut:
    """Tabulated knots past spec.tail_cut = 50: the mass out to the last knot
    must be integrated, not dropped.  Oracle: scipy quad, knot segment by
    knot segment (the integrands are smooth on each)."""

    KNOTS = ((0.5, 50.0), (1.0, -1.0), (20.0, -0.5), (81.0, -0.1))
    CUT = 0.6
    BETA = 1.0

    @staticmethod
    def radial_quad(g, lo, knots):
        edges = [lo] + [r for r, _ in knots if r > lo]
        total = 0.0
        for left, right in zip(edges[:-1], edges[1:]):
            value, _ = integrate.quad(
                lambda r: 4.0 * math.pi * r * r * g(r), left, right, epsabs=0.0, epsrel=1e-13
            )
            total += value
        return total

    def test_outer_and_penrose_ruelle_reach_the_last_knot(self):
        tab = TabulatedPotential(knots=self.KNOTS)
        beta = self.BETA
        outer = self.radial_quad(lambda r: beta * abs(tab(r)), self.CUT, self.KNOTS)
        c_pr = self.radial_quad(lambda r: abs(math.expm1(-beta * tab(r))), 0.0, self.KNOTS)
        report = compare_report(tab, beta, self.CUT, REGISTRY)
        # to the requested rel_tol = 1e-8 (the kink of |e^{-V} - 1| at the
        # zero of V is not a breakpoint; the error there is ~3e-9)
        assert math.isclose(report.pieces["outer_abs"], outer, rel_tol=1e-8)
        assert math.isclose(report.c_pr, c_pr, rel_tol=1e-8)
        assert math.isclose(penrose_ruelle(tab, beta, 0.0)[0], c_pr, rel_tol=1e-8)
        c_star = bound_pieces(tab, self.CUT, beta, 0.0).c_star
        assert math.isclose(c_star, report.c_star, rel_tol=1e-12)
        assert c_star > outer

    def test_potential_zero_inside_the_cut_is_not_reported_as_zero(self):
        # V vanishes on (0, 55) and is positive past 50 only; the old probe
        # stopped at tail_cut and returned the "identically zero" report
        tab = TabulatedPotential(knots=((55.0, 0.0), (58.0, 1.0), (60.0, 0.0)))
        with pytest.raises(NotBasuevAtCutError):
            compare_report(tab, 1.0, 0.6, REGISTRY)
        c_value, _ = penrose_ruelle(tab, 1.0, 0.0)
        expected = self.radial_quad(lambda r: abs(math.expm1(-tab(r))), 0.0, tab.knots)
        assert math.isclose(c_value, expected, rel_tol=1e-8)

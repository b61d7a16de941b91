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

from mayerbounds import bounds, quadrature
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
from mayerbounds.quadrature import (
    QuadratureConvergenceError,
    QuadratureSpec,
    edge_ladder,
    radial_integral,
    sphere_volume,
    stable_ratio,
)
from mayerbounds.stability import StabilityData, lj_stability_registry

LJ = LennardJones()
ZERO_POTENTIAL = TabulatedPotential(knots=((1.0, 0.0),))
REGISTRY = lj_stability_registry()
# B = B-bar = 0: every radius is e^-1 over its integral
NO_STABILITY = StabilityData(0.0, 0.0, 1.0, {})


def record_integrals(monkeypatch) -> list[tuple[float, float, int, int]]:
    """Wrap quadrature.integrate_adaptive; the list returned gets one
    (lo, hi, integrand calls, integrand points) entry per integral."""
    integrals = []
    original = quadrature.integrate_adaptive

    def counting(f, lo, hi, *args, **kwargs):
        work = [0, 0]

        def counted(x):
            work[0] += 1
            work[1] += x.size
            return f(x)

        try:
            return original(counted, lo, hi, *args, **kwargs)
        finally:
            integrals.append((lo, hi, *work))

    monkeypatch.setattr(quadrature, "integrate_adaptive", counting)
    return integrals


@pytest.fixture
def cold_penrose_ruelle_cache():
    bounds._penrose_ruelle_integral.cache_clear()


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

    @pytest.mark.parametrize("potential", [LJ, InversePower(1.0, 12.0)], ids=["lj", "repulsive"])
    @pytest.mark.parametrize("beta", [1.0, 5.0])
    def test_closed_form_tail_never_lowers_c(self, potential, beta):
        # |e^{-beta V} - 1| exceeds beta |V| where V < 0, so a closed-form tail
        # from a small cut must not fall below the integral run out to 50
        near = penrose_ruelle(potential, beta, 0.0, QuadratureSpec(tail_cut=1.2))[0]
        assert near >= penrose_ruelle(potential, beta, 0.0)[0]


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


@pytest.mark.usefixtures("cold_penrose_ruelle_cache")
class TestPenroseRuelleCache:
    """C(beta) does not depend on the cut: it is integrated once per
    (potential, beta, spec), over (0, tail_cut), and read back bit for bit."""

    @staticmethod
    def penrose_ruelle_integrals(integrals):
        return [entry for entry in integrals if entry[:2] == (0.0, QuadratureSpec().tail_cut)]

    def test_second_cut_makes_no_penrose_ruelle_integral(self, monkeypatch):
        integrals = record_integrals(monkeypatch)
        first = compare_report(LJ, 1.0, 0.6397, REGISTRY)
        assert len(self.penrose_ruelle_integrals(integrals)) == 1
        integrals.clear()
        second = compare_report(LennardJones(), 1.0, 0.5, REGISTRY, QuadratureSpec())
        assert [entry[:2] for entry in integrals] == [(0.0, 0.5), (0.5, 50.0)]
        assert second.c_pr == first.c_pr
        assert second.error_estimates["c_pr"] == first.error_estimates["c_pr"]
        assert penrose_ruelle(LJ, 1.0, REGISTRY.b_upper) == (second.c_pr, second.r_pr)
        assert len(integrals) == 2

    def test_cached_report_equals_a_fresh_one(self):
        compare_report(LJ, 1.0, 0.6397, REGISTRY)
        warm = compare_report(LJ, 1.0, 0.5, REGISTRY)
        bounds._penrose_ruelle_integral.cache_clear()
        assert warm.to_json() == compare_report(LJ, 1.0, 0.5, REGISTRY).to_json()

    def test_beta_or_spec_change_recomputes(self, monkeypatch):
        integrals = record_integrals(monkeypatch)
        compare_report(LJ, 1.0, 0.6397, REGISTRY)
        finer = QuadratureSpec(rel_tol=1e-9)
        c_values = [penrose_ruelle(LJ, 2.0, 0.0)[0], penrose_ruelle(LJ, 1.0, 0.0, finer)[0]]
        assert len(self.penrose_ruelle_integrals(integrals)) == 3
        assert c_values == [penrose_ruelle(LJ, 2.0, 0.0)[0], penrose_ruelle(LJ, 1.0, 0.0, finer)[0]]
        assert len(self.penrose_ruelle_integrals(integrals)) == 3

    def test_overflow_is_not_cached(self, monkeypatch):
        integrals = record_integrals(monkeypatch)
        for attempt in (1, 2):
            with pytest.raises(ArithmeticError, match="Penrose-Ruelle integral overflows"):
                compare_report(LJ, 720.0, 0.6397, REGISTRY)
            assert len(self.penrose_ruelle_integrals(integrals)) == attempt


class TestInnerIntegralSeeds:
    """Knots and kinks inside the cut are panel breaks of the inner
    integrals: the three inner pieces converge on their seed panels in one
    integrand call, and each agrees with scipy quad run segment by segment
    between them (the integrands are smooth on each)."""

    CASES = {
        "tabulated": (
            TabulatedPotential(knots=((0.5, 50.0), (0.6, 30.0), (0.7, 12.0), (0.8, 4.0),
                                      (1.0, -1.0), (2.0, -0.2), (3.0, 0.0))),
            0.75,
        ),
        "hard-core": (HardCoreWrap(LJ, 0.4, 1000.0), 0.6),
    }

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_inner_pieces_converge_on_their_seeds(self, case, beta, monkeypatch):
        potential, a = self.CASES[case]
        integrals = record_integrals(monkeypatch)
        pieces = bound_pieces(potential, a, beta, REGISTRY.bbar_upper).pieces
        assert [entry[2] for entry in integrals if entry[:2] == (0.0, a)] == [1]

        excess = lambda r: beta * (potential(r) - potential(a))
        y = beta * REGISTRY.bbar_upper
        integrands = {
            "c_star_inner": lambda r: beta * abs(potential(r)) * stable_ratio(excess(r)),
            "c_hat_inner": lambda r: beta * abs(potential(r)) * offset_stable_ratio(excess(r), y),
            "mps_inner_exp": lambda r: -math.expm1(-excess(r)),
        }
        edges = [0.0] + [r for r in potential.feature_radii() if r < a] + [a]
        for name, g in integrands.items():
            expected = sum(
                integrate.quad(lambda r: 4.0 * math.pi * r * r * g(r), left, right,
                               epsabs=0.0, epsrel=1e-13)[0]
                for left, right in zip(edges[:-1], edges[1:])
            )
            assert math.isclose(pieces[name], expected, rel_tol=1e-8), name


INNER_PIECES = ("c_star_inner", "c_hat_inner", "mps_inner_exp")


def lone_inner_integral(potential, a, beta, bbar, name, spec=None):
    """One inner piece as a lone radial integral of its own factor, on the
    seed panels of the one-pass integral: the reference it must equal."""
    v_a = potential(a)
    y = beta * bbar
    g = {
        "c_star_inner": lambda v: beta * np.abs(v) * stable_ratio(beta * (v - v_a)),
        "c_hat_inner": lambda v: beta * np.abs(v) * offset_stable_ratio(beta * (v - v_a), y),
        "mps_inner_exp": lambda v: -np.expm1(-beta * (v - v_a)),
    }[name]
    breakpoints = edge_ladder(0.0, a) + [r for r in potential.feature_radii() if 0.0 < r < a]
    return radial_integral(
        lambda r: g(potential(r)), potential.d, 0.0, a, spec, breakpoints=breakpoints
    )


def record_nodes(monkeypatch) -> list[tuple[float, float, bytes]]:
    """Wrap quadrature.integrate_adaptive; the list returned gets one
    (lo, hi, nodes) entry per integrand call, in call order."""
    calls = []
    original = quadrature.integrate_adaptive

    def recording(f, lo, hi, *args, **kwargs):
        def recorded(x):
            calls.append((lo, hi, x.tobytes()))
            return f(x)

        return original(recorded, lo, hi, *args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_adaptive", recording)
    return calls


class TestOnePassInnerPieces:
    """The three inner pieces are the rows of one quadrature pass; each
    equals a lone radial integral of its factor bit for bit, value, error
    estimate and panel sequence."""

    TABLE_RADII = np.linspace(0.5, 3.0, 41)
    CASES = {
        "lennard-jones": (LJ, (0.3637, 0.5, 0.6397)),
        "inverse-power": (InversePower(1.0, 12.0), (0.5, 0.9)),
        "tabulated": (TestInnerIntegralSeeds.CASES["tabulated"][0], (0.55, 0.75)),
        "lj-table": (TabulatedPotential(knots=tuple(zip(TABLE_RADII, LJ(TABLE_RADII)))), (0.8,)),
        "hard-core": (HardCoreWrap(LJ, 0.4, 1000.0), (0.4, 0.6)),
    }
    # (potential, a, beta, spec) where the C^ row splits past its seed panels
    REFINED = {
        "lennard-jones": (LJ, 0.3637, 0.5, QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300)),
        "inverse-power": (
            InversePower(1.0, 12.0), 0.3637, 10.0, QuadratureSpec(rel_tol=1e-11, abs_tol=1e-300)
        ),
    }

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_pieces_equal_lone_integrals(self, case, beta):
        potential, cuts = self.CASES[case]
        for a in cuts:
            pieces = bound_pieces(potential, a, beta, REGISTRY.bbar_upper)
            for name in INNER_PIECES:
                assert lone_inner_integral(potential, a, beta, REGISTRY.bbar_upper, name) == (
                    pieces.pieces[name], pieces.error_estimates[name]
                ), (a, name)

    @pytest.mark.parametrize("case", sorted(REFINED))
    def test_refined_rows_follow_their_lone_runs(self, case, monkeypatch):
        potential, a, beta, spec = self.REFINED[case]
        calls = record_nodes(monkeypatch)
        pieces = bound_pieces(potential, a, beta, REGISTRY.bbar_upper, spec)
        one_pass = [nodes for lo, hi, nodes in calls if (lo, hi) == (0.0, a)]
        lone_calls = []
        for name in INNER_PIECES:
            calls.clear()
            assert lone_inner_integral(potential, a, beta, REGISTRY.bbar_upper, name, spec) == (
                pieces.pieces[name], pieces.error_estimates[name]
            ), name
            lone_calls.append([nodes for _, _, nodes in calls])
        # the seed call, then each row's splits in row order, on its own panels
        assert one_pass == [lone_calls[0][0]] + [nodes for seen in lone_calls for nodes in seen[1:]]
        assert [len(seen) > 1 for seen in lone_calls] == [False, True, False]

    def test_budget_error_matches_the_lone_run(self):
        # at rel_tol 1e-12 the C* row converges after 12 splits and the C^
        # row cannot: the one pass raises the C^ row's error
        potential, a, beta = InversePower(1.0, 12.0), 0.3637, 10.0
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300)
        with pytest.raises(QuadratureConvergenceError) as together:
            bound_pieces(potential, a, beta, REGISTRY.bbar_upper, spec)
        lone_inner_integral(potential, a, beta, REGISTRY.bbar_upper, "c_star_inner", spec)
        with pytest.raises(QuadratureConvergenceError) as lone:
            lone_inner_integral(potential, a, beta, REGISTRY.bbar_upper, "c_hat_inner", spec)
        assert str(together.value) == str(lone.value)
        assert together.value.value == lone.value.value
        assert together.value.achieved_error == lone.value.achieved_error


class TestOuterAbsClosedForm:
    """The LJ outer piece 4 pi beta int_a^inf |r^-10 - 2 r^-4| dr in closed
    form: the integrand changes sign at r0 = 2^(-1/6), and F(r) = -r^-9/9 +
    2 r^-3/3 is an antiderivative of r^-10 - 2 r^-4."""

    @staticmethod
    def closed_form(a, beta):
        with mpmath.workdps(40):
            a = mpmath.mpf(a)
            F = lambda r: -r**-9 / 9 + 2 * r**-3 / 3
            r0 = mpmath.mpf(2) ** (-mpmath.mpf(1) / 6)
            integral = 2 * F(r0) - F(a) if a < r0 else F(a)
            return float(4 * mpmath.pi * beta * integral)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("a", [0.3637, 0.5, 0.6397])
    def test_outer_piece_equals_closed_form(self, a, beta):
        outer = bound_pieces(LJ, a, beta, REGISTRY.bbar_upper).pieces["outer_abs"]
        assert math.isclose(outer, self.closed_form(a, beta), rel_tol=1e-12)

    def test_closed_form_at_published_cuts(self):
        # the closed form in double; 40 digits move the last digit at 0.3637
        assert math.isclose(self.closed_form(0.3637, 1.0), 12381.086522409942, rel_tol=1e-15)
        assert math.isclose(self.closed_form(0.6397, 1.0), 61.62994523687224, rel_tol=1e-15)


@pytest.mark.usefixtures("cold_penrose_ruelle_cache")
class TestReportWork:
    """The integrand calls and points of fixed reports, pinned so that a
    change that adds refinement steps shows here, beside any timing."""

    @staticmethod
    def work(integrals):
        return sum(entry[2] for entry in integrals), sum(entry[3] for entry in integrals)

    def test_lennard_jones_report(self, monkeypatch):
        integrals = record_integrals(monkeypatch)
        compare_report(LJ, 1.0, 0.6397, REGISTRY)
        # the 3 inner pieces in one call on 2,352 points, the outer piece in
        # 5 calls, then C(beta) in 9 calls
        assert self.work(integrals) == (15, 3696)
        integrals.clear()
        compare_report(LJ, 1.0, 0.5, REGISTRY)
        assert self.work(integrals) == (6, 2832)

    def test_tabulated_report(self, monkeypatch):
        radii = np.linspace(0.5, 3.0, 41)
        tab = TabulatedPotential(knots=tuple(zip(radii, LJ(radii))))
        integrals = record_integrals(monkeypatch)
        compare_report(tab, 1.0, 0.8, REGISTRY)
        # one call for the inner pieces, whose kinks at the knots are seeded
        assert [entry[2] for entry in integrals if entry[:2] == (0.0, 0.8)] == [1]
        assert self.work(integrals) == (16, 7584)

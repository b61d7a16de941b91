"""Quadrature engine, stable ratios, and radial integrals vs independent oracles."""

import heapq
import math
import signal

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from mayerbounds import quadrature
from mayerbounds.bounds import offset_stable_ratio
from mayerbounds.potentials import LennardJones
from mayerbounds.quadrature import (
    DEFAULT_SPEC,
    QuadratureConvergenceError,
    QuadratureSpec,
    TemperednessError,
    edge_ladder,
    integrate_adaptive,
    power_tail_integral,
    radial_integral,
    sphere_surface,
    sphere_volume,
    stable_ratio,
)
from mayerbounds.stability import lj_stability_registry

finite_floats = st.floats(
    min_value=-700.0, max_value=700.0, allow_nan=False, allow_infinity=False
)


class TestStableRatio:
    def test_examples(self):
        assert stable_ratio(0.0) == 1.0
        assert math.isclose(stable_ratio(1.0), 1.0 - math.exp(-1.0), rel_tol=1e-15)
        assert stable_ratio(1e3) < stable_ratio(1e2) < stable_ratio(1.0)
        assert stable_ratio(1e300) == pytest.approx(0.0, abs=1e-290)

    @given(finite_floats)
    @settings(max_examples=300, deadline=None)
    def test_matches_high_precision(self, x):
        with mpmath.workdps(40):
            expected = float(-mpmath.expm1(-x) / x) if x != 0 else 1.0
        got = stable_ratio(x)
        assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-300)

    def test_vectorized(self):
        xs = np.array([-2.0, -1e-9, 0.0, 1e-9, 5.0])
        out = stable_ratio(xs)
        assert out.shape == xs.shape
        assert out[2] == 1.0

    @given(st.floats(min_value=1e-8, max_value=500.0))
    @settings(max_examples=100, deadline=None)
    def test_positive_and_below_one_for_positive_arg(self, x):
        assert 0.0 < stable_ratio(x) < 1.0


class TestExpm1OverX:
    """(e^x - 1)/x, the hard-core damping divisor, is stable_ratio(-x)."""

    @given(finite_floats)
    @settings(max_examples=200, deadline=None)
    def test_matches_high_precision(self, x):
        with mpmath.workdps(40):
            expected = float(mpmath.expm1(x) / x) if x != 0 else 1.0
        assert math.isclose(stable_ratio(-x), expected, rel_tol=1e-12, abs_tol=1e-300)


class TestIntegrateAdaptive:
    def test_polynomial_exact(self):
        value, err = integrate_adaptive(lambda x: x**7 - 3 * x**2, 0.0, 2.0)
        assert math.isclose(value, 2.0**8 / 8 - 8.0, rel_tol=1e-14)
        assert err < 1e-10

    def test_kink_resolved(self):
        value, err = integrate_adaptive(np.abs, -1.0, 2.0)
        assert abs(value - 2.5) <= max(err, 2.5e-8)
        tight, _ = integrate_adaptive(np.abs, -1.0, 2.0, QuadratureSpec(rel_tol=1e-12))
        assert math.isclose(tight, 2.5, rel_tol=1e-11)

    def test_narrow_spike_with_breakpoints(self):
        center, width = 0.5, 1e-6
        f = lambda x: np.exp(-((x - center) / width) ** 2)
        value, _ = integrate_adaptive(
            f, 0.0, 1.0, breakpoints=(center - 5 * width, center, center + 5 * width)
        )
        assert math.isclose(value, width * math.sqrt(math.pi), rel_tol=1e-7)

    def test_budget_exhaustion_raises_with_estimate(self):
        # highly oscillatory with a tiny budget
        f = lambda x: np.sin(1000.0 * x)
        with pytest.raises(QuadratureConvergenceError) as info:
            integrate_adaptive(
                f, 0.0, 50.0, QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=3)
            )
        assert info.value.achieved_error > 0

    def test_empty_range(self):
        assert integrate_adaptive(lambda x: x, 1.0, 1.0) == (0.0, 0.0)

    def test_unmet_tolerance_at_float_resolution_raises(self):
        # [1, 1 + 4 ulp] splits into 4 one-ulp panels and no further; the
        # engine used to pop them forever, so a regression must time out
        def timed_out(signum, frame):
            raise TimeoutError("integrate_adaptive did not return within 10 s")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(10)
        try:
            with pytest.raises(QuadratureConvergenceError, match="no panel left") as info:
                integrate_adaptive(
                    lambda x: np.sin(1e20 * x), 1.0, 1.0 + 4 * np.spacing(1.0),
                    QuadratureSpec(rel_tol=1e-300, abs_tol=1e-300, max_subdivisions=10),
                )
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert info.value.achieved_error > 0

    def test_matches_scipy_on_smooth_mixture(self):
        f = lambda x: np.exp(-x) * np.cos(3 * x) + x**2
        value, _ = integrate_adaptive(f, 0.0, 4.0)
        expected, _ = integrate.quad(lambda x: math.exp(-x) * math.cos(3 * x) + x**2, 0, 4)
        assert math.isclose(value, expected, rel_tol=1e-10)


class TestRadialIntegral:
    def test_ball_volume(self):
        value, _ = radial_integral(lambda r: np.ones_like(r), 3, 0.0, 0.7)
        assert math.isclose(value, sphere_volume(0.7, 3), rel_tol=1e-12)

    def test_power_tail_closed_form(self):
        # 4*pi * int_1^inf 2 r^-6 r^2 dr = 8*pi/3
        value, _ = radial_integral(
            lambda r: 2.0 * r**-6.0, 3, 1.0, math.inf, tail=((2.0, 6.0),)
        )
        assert math.isclose(value, 8 * math.pi / 3, rel_tol=1e-10)

    def test_lj_outer_absolute_integral(self):
        # 4*pi int_0.3637^inf |r^-10 - 2 r^-4| dr; scipy-frozen oracle 12381.0865
        def g(r):
            return np.abs(r**-12.0 - 2.0 * r**-6.0)

        value, _ = radial_integral(
            g, 3, 0.3637, math.inf,
            tail=((2.0, 6.0), (-1.0, 12.0)),
            breakpoints=(2 ** (-1 / 6),),
        )
        assert math.isclose(value, 12381.0865, rel_tol=1e-6)

    def test_two_dimensional_measure(self):
        # circumference factor 2*pi in d = 2
        value, _ = radial_integral(lambda r: np.ones_like(r), 2, 0.0, 1.0)
        assert math.isclose(value, math.pi, rel_tol=1e-12)

    @pytest.mark.parametrize("hi", [0.9, 2.5, math.inf])
    def test_one_adaptive_integral_to_the_cut(self, hi):
        # finite hi: exactly the adaptive integral; infinite hi: the adaptive
        # integral to the tail cut plus the closed-form tail
        def g(r):
            return np.abs(r**-12.0 - 2.0 * r**-6.0)

        tail = ((2.0, 6.0), (-1.0, 12.0))
        spec = QuadratureSpec(tail_cut=2.0)
        top = spec.tail_cut if math.isinf(hi) else hi
        value, err = integrate_adaptive(lambda r: sphere_surface(3) * r**2 * g(r), 0.5, top, spec)
        if math.isinf(hi):
            value += power_tail_integral(tail, 3, spec.tail_cut)
        assert radial_integral(g, 3, 0.5, hi, spec, tail=tail) == (value, err)

    def test_non_integrable_tail_rejected(self):
        with pytest.raises(TemperednessError):
            radial_integral(lambda r: r**-3.0, 3, 1.0, math.inf, tail=((1.0, 3.0),))

    def test_missing_tail_declaration_rejected(self):
        with pytest.raises(TemperednessError):
            radial_integral(lambda r: r**-6.0, 3, 1.0, math.inf)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        for field in ("rel_tol", "abs_tol", "tail_cut", "max_subdivisions"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError):
                    QuadratureSpec(**{field: value})


def reference_integrate(f, lo, hi, spec=DEFAULT_SPEC, *, breakpoints=(), sub_resolution=None):
    """Per-panel oracle for integrate_adaptive: two integrand calls per panel
    (GL16 nodes, then GL32 nodes) from numpy's own Gauss-Legendre rules, and
    the same largest-error-first refinement.  Appends each panel that is
    too narrow to split to `sub_resolution`."""
    x16, w16 = np.polynomial.legendre.leggauss(16)
    x32, w32 = np.polynomial.legendre.leggauss(32)

    def panel(a, b):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        coarse = half * float(np.dot(w16, f(mid + half * x16)))
        fine = half * float(np.dot(w32, f(mid + half * x32)))
        return fine, abs(fine - coarse)

    edges = [lo] + [p for p in sorted(set(map(float, breakpoints))) if lo < p < hi] + [hi]
    heap = []
    total = total_err = 0.0
    n_panels = 0
    for a, b in zip(edges[:-1], edges[1:]):
        value, err = panel(a, b)
        heapq.heappush(heap, (-err, a, b, value, err))
        total += value
        total_err += err
        n_panels += 1
    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        if n_panels >= spec.max_subdivisions:
            raise QuadratureConvergenceError("budget", value=total, achieved_error=total_err)
        _, a, b, value, err = heapq.heappop(heap)
        total -= value
        total_err -= err
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            if sub_resolution is not None:
                sub_resolution.append((a, b))
            total += value
            total_err += err
            heapq.heappush(heap, (0.0, a, b, value, 0.0))
            continue
        for aa, bb in ((a, mid), (mid, b)):
            v, e = panel(aa, bb)
            heapq.heappush(heap, (-e, aa, bb, v, e))
            total += v
            total_err += e
        n_panels += 1
    return total, total_err


def outcome(integrate, *args, **kwargs):
    """(value, err), or the (value, achieved_error) a budget failure carries."""
    try:
        return integrate(*args, **kwargs)
    except QuadratureConvergenceError as exc:
        return ("budget", exc.value, exc.achieved_error)


# the cases of TestIntegrateAdaptive: (f, lo, hi, arguments after hi)
ADAPTIVE_CASES = {
    "polynomial": (lambda x: x**7 - 3 * x**2, 0.0, 2.0, {}),
    "kink": (np.abs, -1.0, 2.0, {}),
    "kink_tight": (np.abs, -1.0, 2.0, {"spec": QuadratureSpec(rel_tol=1e-12)}),
    "spike": (
        lambda x: np.exp(-((x - 0.5) / 1e-6) ** 2),
        0.0,
        1.0,
        {"breakpoints": (0.5 - 5e-6, 0.5, 0.5 + 5e-6)},
    ),
    "budget": (
        lambda x: np.sin(1000.0 * x),
        0.0,
        50.0,
        {"spec": QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=3)},
    ),
    "mixture": (lambda x: np.exp(-x) * np.cos(3 * x) + x**2, 0.0, 4.0, {}),
}


def lj_inner_integrand(piece, a, beta):
    """Radial integrand (4 pi r^2 times g) of the C*, C^ or MPS inner piece."""
    lj = LennardJones()
    v_a = lj(a)
    y = beta * lj_stability_registry().bbar_upper
    g = {
        "c_star": lambda v: beta * np.abs(v) * stable_ratio(beta * (v - v_a)),
        "c_hat": lambda v: beta * np.abs(v) * offset_stable_ratio(beta * (v - v_a), y),
        "mps": lambda v: -np.expm1(-beta * (v - v_a)),
    }[piece]
    surface = sphere_surface(3)
    return lambda r: surface * r**2 * g(lj(r))


class TestBatchedEngine:
    """One integrand call per step; every result equal bit for bit to the
    per-panel engine it replaced."""

    @pytest.mark.parametrize("n, nodes, weights", [
        (16, quadrature._X16, quadrature._W16),
        (32, quadrature._X32, quadrature._W32),
    ])
    def test_rules_equal_leggauss(self, n, nodes, weights):
        x, w = np.polynomial.legendre.leggauss(n)
        assert nodes.tobytes() == x.tobytes()
        assert weights.tobytes() == w.tobytes()

    def test_one_call_for_the_seeds_then_one_per_split(self):
        sizes = []

        def f(x):
            assert x.ndim == 1
            sizes.append(x.size)
            return np.sqrt(x)

        value, err = integrate_adaptive(f, 0.0, 1.0, breakpoints=(0.25, 0.5))
        reference_sizes = []

        def g(x):
            reference_sizes.append(x.size)
            return np.sqrt(x)

        assert (value, err) == reference_integrate(g, 0.0, 1.0, breakpoints=(0.25, 0.5))
        splits = len(sizes) - 1
        assert splits > 3
        assert sizes == [48 * 3] + [48 * 2] * splits
        assert len(reference_sizes) == 2 * (3 + 2 * splits)
        assert sum(reference_sizes) == sum(sizes)

    @pytest.mark.parametrize("case", sorted(ADAPTIVE_CASES))
    def test_adaptive_cases_match_per_panel_reference(self, case):
        f, lo, hi, kwargs = ADAPTIVE_CASES[case]
        got = outcome(integrate_adaptive, f, lo, hi, **kwargs)
        assert got == outcome(reference_integrate, f, lo, hi, **kwargs)
        assert (got[0] == "budget") == (case == "budget")

    @pytest.mark.parametrize("piece", ["c_star", "c_hat", "mps"])
    @pytest.mark.parametrize("a", [0.35, 0.6397, 0.69])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_lj_inner_integrands_match_per_panel_reference(self, piece, a, beta):
        f = lj_inner_integrand(piece, a, beta)
        kwargs = dict(spec=DEFAULT_SPEC, breakpoints=edge_ladder(0.0, a))
        assert integrate_adaptive(f, 0.0, a, **kwargs) == reference_integrate(f, 0.0, a, **kwargs)

    def test_sub_resolution_panels_then_budget_match_reference(self):
        # noise confined to 17 floats around c: the panels there shrink to
        # one ulp, cannot be split and keep their error, so the budget ends
        # the run; the panels of f = 0 elsewhere have zero error
        c = 0.75
        ulp = float(np.spacing(c))
        f = lambda x: np.where(np.abs(x - c) <= 8 * ulp, np.sin(1e20 * x), 0.0)
        kwargs = dict(
            spec=QuadratureSpec(rel_tol=1e-300, abs_tol=1e-300, max_subdivisions=30),
            breakpoints=(c - 8 * ulp, c + 8 * ulp),
        )
        narrow = []
        expected = outcome(reference_integrate, f, 0.0, 1.0, sub_resolution=narrow, **kwargs)
        assert narrow and expected[0] == "budget" and expected[2] > 0.0
        assert outcome(integrate_adaptive, f, 0.0, 1.0, **kwargs) == expected

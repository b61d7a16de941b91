"""Convergence-radius lower bounds for the Mayer activity series.

For a pair potential V with stability constants B, B-bar and a valid cut
radius a, four certified disk radii are assembled:

* Penrose-Ruelle:  R = e^{-(2 beta B + 1)} / C(beta),
  C = int |e^{-beta V} - 1| over R^d;
* Morais-Procacci-Scoppola (with the capped-part stability constant equal to
  B):  R = e^{-(beta B + 1)} / C~,
  C~ = int_{|x|<=a} [1 - e^{-beta(V - V(a))} + beta V(a)] + int_{|x|>=a} beta|V|;
* first Basuev bound:  R* = e^{-(beta B + 1)} / C*,
  C* = int_{|x|<=a} beta|V| (1 - e^{-beta(V-V(a))}) / (beta(V-V(a)))
       + int_{|x|>=a} beta|V|;
* second Basuev bound:  R^ = beta B-bar / (e (e^{beta B-bar} - 1) C^),
  where C^ replaces the C* inner factor by its B-bar-damped variant and
  reduces to C* at B-bar = 0.

All integrals are adaptive radial quadratures with closed-form power-law
tails beyond spec.tail_cut.  The inner integrands have a boundary layer of
width ~1/(beta |V'(a)|) just inside the cut radius; a geometric panel ladder
seeds the quadrature there.  Near r -> 0 the inner integrands tend to the
finite limit |V|/(V - V(a)) -> 1, and the stable ratio helpers guarantee the
underflow of e^{-beta V} produces that limit rather than NaN.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .potentials import PairPotential, split
from .quadrature import (
    DEFAULT_SPEC,
    QuadratureConvergenceError,
    QuadratureSpec,
    TemperednessError,
    edge_ladder,
    expm1_over_x,
    radial_integral,
    radial_integral_err,
    sphere_volume,
    stable_ratio,
)
from .stability import StabilityData

__all__ = [
    "QuadratureSpec",
    "QuadratureConvergenceError",
    "TemperednessError",
    "BoundReport",
    "stable_ratio",
    "offset_stable_ratio",
    "radial_integral",
    "penrose_ruelle",
    "mps_bound",
    "basuev_c_star",
    "basuev_c_hat",
    "basuev_radius",
    "h_factor",
    "hard_core_bounds",
    "compare_report",
]


def offset_stable_ratio(x, y):
    """The damped inner factor y (1 - e^{-(x-y)}) / ((x-y)(e^y - 1)).

    Equals stable_ratio(x) at y = 0 and x/(e^x - 1) at y = x; via the
    identity f = [(e^{y-x}-1)/(y-x)] / [(e^y-1)/y] every removable
    singularity is handled by the stable expm1 ratios.  Monotone decreasing
    in y for x >= 0, which makes the second Basuev bound at most the first.
    """
    return expm1_over_x(np.asarray(y, dtype=float) - x) / expm1_over_x(y)


def h_factor(u):
    """h(u) = 1.001 u / (e^{u/1000} - e^{-u}) for u > 0; tends to 1 as u -> 0.

    With B-bar <= 1.001 B, the second Basuev radius equals
    h(B) e^{-(B+1)} / C^ at beta = 1, and h is increasing over the certified
    window [8.61, 14.316] of the Lennard-Jones stability constant.
    """
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("h factor requires u > 0")
    out = 1.001 * arr / (np.expm1(arr / 1000.0) - np.expm1(-arr))
    return float(out) if np.isscalar(u) or arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# shared integral pieces
# ---------------------------------------------------------------------------

def _abs_tail_terms(potential: PairPotential, beta: float, spec: QuadratureSpec):
    """beta |V| beyond the tail cut as signed power-law terms.

    Assumes V does not change sign beyond the cut, which holds once the cut
    lies past every feature radius (see _spec_past_features).
    """
    terms = potential.tail_terms()
    if terms is None:
        return None
    if not terms:
        return ()
    sign = 1.0 if potential(spec.tail_cut) >= 0.0 else -1.0
    return tuple((beta * sign * c, p) for c, p in terms)


def _outer_breaks(potential: PairPotential, lo: float, spec: QuadratureSpec):
    return tuple(r for r in potential.feature_radii() if lo < r < spec.tail_cut)


def _spec_past_features(potential: PairPotential, spec: QuadratureSpec) -> QuadratureSpec:
    """spec with tail_cut moved out to the last feature radius if that lies
    past it: tail_terms() hold only beyond every feature radius, so the mass
    up to there must be integrated numerically, not dropped."""
    last = max(potential.feature_radii(), default=0.0)
    return replace(spec, tail_cut=last) if last > spec.tail_cut else spec


def _outer_abs(potential, a, beta, spec) -> tuple[float, float]:
    """(value, err) of int_{|x|>=a} beta |V|."""
    spec = _spec_past_features(potential, spec)
    return radial_integral_err(
        lambda r: beta * np.abs(potential(r)),
        potential.d,
        a,
        math.inf,
        spec,
        tail=_abs_tail_terms(potential, beta, spec),
        breakpoints=_outer_breaks(potential, a, spec),
    )


def _c_star_inner(potential, a, beta, spec) -> tuple[float, float]:
    value_at_cut = potential(a)

    def g(r):
        v = potential(r)
        return beta * np.abs(v) * stable_ratio(beta * (v - value_at_cut))

    return radial_integral_err(
        g, potential.d, 0.0, a, spec, breakpoints=edge_ladder(0.0, a)
    )


def _c_hat_inner(potential, a, beta, bbar, spec) -> tuple[float, float]:
    value_at_cut = potential(a)
    y = beta * bbar

    def g(r):
        v = potential(r)
        return beta * np.abs(v) * offset_stable_ratio(beta * (v - value_at_cut), y)

    return radial_integral_err(
        g, potential.d, 0.0, a, spec, breakpoints=edge_ladder(0.0, a)
    )


def _mps_inner_exp(potential, a, beta, spec) -> tuple[float, float]:
    """(value, err) of int_{|x|<=a} (1 - e^{-beta (V - V(a))})."""
    value_at_cut = potential(a)

    def g(r):
        return -np.expm1(-beta * (potential(r) - value_at_cut))

    return radial_integral_err(
        g, potential.d, 0.0, a, spec, breakpoints=edge_ladder(0.0, a)
    )


def _pr_integral(potential, beta, spec) -> tuple[float, float]:
    """(value, err) of int |e^{-beta V} - 1| over R^d."""
    spec = _spec_past_features(potential, spec)
    return radial_integral_err(
        lambda r: np.abs(np.expm1(-beta * potential(r))),
        potential.d,
        0.0,
        math.inf,
        spec,
        tail=_abs_tail_terms(potential, beta, spec),
        breakpoints=_outer_breaks(potential, 0.0, spec),
    )


def _is_zero_potential(potential: PairPotential, spec: QuadratureSpec) -> bool:
    probe = np.concatenate([np.geomspace(1e-3, spec.tail_cut, 256), potential.feature_radii()])
    if np.any(potential(probe) != 0.0):
        return False
    terms = potential.tail_terms()
    return terms is not None and all(c == 0.0 for c, _ in terms)


def _radius_pr(c_value: float, beta: float, b: float) -> float:
    return math.inf if c_value == 0.0 else math.exp(-(2.0 * beta * b + 1.0)) / c_value


def _radius_star(c_value: float, beta: float, b: float) -> float:
    return math.inf if c_value == 0.0 else math.exp(-(beta * b + 1.0)) / c_value


def _radius_hat(c_value: float, beta: float, bbar: float) -> float:
    if c_value == 0.0:
        return math.inf
    return math.exp(-1.0) / (expm1_over_x(beta * bbar) * c_value)


# ---------------------------------------------------------------------------
# the four bounds
# ---------------------------------------------------------------------------

def penrose_ruelle(
    potential: PairPotential,
    beta: float,
    b: float,
    spec: QuadratureSpec | None = None,
) -> tuple[float, float]:
    """(C(beta), radius) of the Penrose-Ruelle bound for a stable tempered V.

    The tail of |e^{-beta V} - 1| is integrated as beta |V| in closed form;
    the neglected higher orders are below (beta |V(cut)|)^2/2, which the
    default cut keeps far under the quadrature tolerance.
    """
    value, _ = _pr_integral(potential, beta, spec or DEFAULT_SPEC)
    return value, _radius_pr(value, beta, b)


def mps_bound(
    potential: PairPotential,
    a: float,
    beta: float,
    b: float,
    spec: QuadratureSpec | None = None,
) -> tuple[float, float]:
    """(C~(beta), radius): the short-range/integrable-split bound at cut a."""
    spec = spec or DEFAULT_SPEC
    if _is_zero_potential(potential, spec):
        return 0.0, math.inf
    parts = split(potential, a)
    inner_exp, _ = _mps_inner_exp(potential, a, beta, spec)
    va_mass = beta * parts.value_at_cut * sphere_volume(a, potential.d)
    outer, _ = _outer_abs(potential, a, beta, spec)
    value = inner_exp + va_mass + outer
    return value, _radius_star(value, beta, b)


def basuev_c_star(
    potential: PairPotential,
    a: float,
    beta: float,
    b: float,
    spec: QuadratureSpec | None = None,
) -> tuple[float, float]:
    """(C*(beta), radius): the first tree-graph bound at cut a."""
    spec = spec or DEFAULT_SPEC
    if _is_zero_potential(potential, spec):
        return 0.0, math.inf
    split(potential, a)
    inner, _ = _c_star_inner(potential, a, beta, spec)
    outer, _ = _outer_abs(potential, a, beta, spec)
    value = inner + outer
    return value, _radius_star(value, beta, b)


def basuev_c_hat(
    potential: PairPotential,
    a: float,
    beta: float,
    bbar: float,
    spec: QuadratureSpec | None = None,
) -> tuple[float, float]:
    """(C^(beta, B-bar), radius): the damped tree-graph bound at cut a.

    At bbar = 0 the integrand and the radius reduce continuously to the
    basuev_c_star forms.
    """
    spec = spec or DEFAULT_SPEC
    if bbar < 0:
        raise ValueError("bbar must be non-negative")
    if _is_zero_potential(potential, spec):
        return 0.0, math.inf
    split(potential, a)
    inner, _ = _c_hat_inner(potential, a, beta, bbar, spec)
    outer, _ = _outer_abs(potential, a, beta, spec)
    value = inner + outer
    return value, _radius_hat(value, beta, bbar)


def basuev_radius(
    potential: PairPotential,
    a: float,
    beta: float,
    b: float,
    bbar: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """max of the two Basuev radius pieces (the certified disk radius)."""
    _, r_star = basuev_c_star(potential, a, beta, b, spec)
    _, r_hat = basuev_c_hat(potential, a, beta, bbar, spec)
    return max(r_star, r_hat)


def hard_core_bounds(
    potential: PairPotential,
    a: float,
    beta: float,
    bbar: float,
    spec: QuadratureSpec | None = None,
) -> tuple[float, float]:
    """(C*_hc, C^_hc) for a hard-core potential of core radius a.

    The core contributes the sphere volume W_a(d) exactly (damped by
    beta B-bar / (e^{beta B-bar} - 1) in the second bound); the tempered tail
    contributes beta int_{|x|>=a} |V|.
    """
    spec = spec or DEFAULT_SPEC
    if potential.kind != "hard-core":
        raise ValueError(f"expected a hard-core potential, got {potential.kind!r}")
    core_radius = potential.core_radius
    if not math.isclose(core_radius, a, rel_tol=1e-12):
        raise ValueError(f"potential core radius {core_radius} does not match a = {a}")
    core = sphere_volume(a, potential.d)
    tail_int, _ = _outer_abs(potential, a, beta, spec)
    c_star_hc = core + tail_int
    c_hat_hc = core / expm1_over_x(beta * bbar) + tail_int
    return c_star_hc, c_hat_hc


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Every integral and radius for one (potential, beta, a, B, B-bar) tuple."""

    beta: float
    a: float
    b_used: float
    bbar_used: float
    c_pr: float
    c_tilde: float
    c_star: float
    c_hat: float
    r_pr: float
    r_mps: float
    r_star: float
    r_hat: float
    pieces: dict[str, float] = field(default_factory=dict)
    error_estimates: dict[str, float] = field(default_factory=dict)
    ratios: dict[str, float] = field(default_factory=dict)
    potential: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("c_pr", "c_tilde", "c_star", "c_hat"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        slack = 1e-6 * self.c_star + 1e-12
        if self.c_hat > self.c_star + slack:
            raise ValueError(
                f"c_hat = {self.c_hat} exceeds c_star = {self.c_star}; "
                "the damped bound can never be larger"
            )

    def to_dict(self) -> dict:
        def clean(x):
            if isinstance(x, float) and math.isinf(x):
                return "inf"
            return x

        return {
            "beta": self.beta,
            "a": self.a,
            "b_used": self.b_used,
            "bbar_used": self.bbar_used,
            "integrals": {
                "penrose_ruelle": clean(self.c_pr),
                "mps": clean(self.c_tilde),
                "basuev_star": clean(self.c_star),
                "basuev_hat": clean(self.c_hat),
            },
            "radii": {
                "penrose_ruelle": clean(self.r_pr),
                "mps": clean(self.r_mps),
                "basuev_star": clean(self.r_star),
                "basuev_hat": clean(self.r_hat),
            },
            "pieces": {k: clean(v) for k, v in sorted(self.pieces.items())},
            "error_estimates": {k: clean(v) for k, v in sorted(self.error_estimates.items())},
            "ratios": {k: clean(v) for k, v in sorted(self.ratios.items())},
            "potential": self.potential,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def csv_text(self) -> str:
        """Flat table: one row per radius bound."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["bound", "integral", "radius", "beta", "a", "B", "Bbar"])
        rows = [
            ("penrose_ruelle", self.c_pr, self.r_pr),
            ("mps", self.c_tilde, self.r_mps),
            ("basuev_star", self.c_star, self.r_star),
            ("basuev_hat", self.c_hat, self.r_hat),
        ]
        for name, c_value, radius in rows:
            writer.writerow(
                [name, repr(c_value), repr(radius), repr(self.beta), repr(self.a),
                 repr(self.b_used), repr(self.bbar_used)]
            )
        return out.getvalue()

    def table_text(self) -> str:
        lines = [
            f"beta = {self.beta:.6g}   a = {self.a:.6g}   "
            f"B = {self.b_used:.6g}   Bbar = {self.bbar_used:.6g}",
            f"{'bound':<16} {'integral':>14} {'radius':>14}",
        ]
        for name, c_value, radius in [
            ("penrose-ruelle", self.c_pr, self.r_pr),
            ("mps", self.c_tilde, self.r_mps),
            ("basuev C*", self.c_star, self.r_star),
            ("basuev C^", self.c_hat, self.r_hat),
        ]:
            lines.append(f"{name:<16} {c_value:>14.6g} {radius:>14.6g}")
        for key, value in sorted(self.ratios.items()):
            lines.append(f"ratio {key} = {value:.6g}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def compare_report(
    potential: PairPotential,
    beta: float,
    a: float,
    stability: StabilityData,
    spec: QuadratureSpec | None = None,
    reference_radii: Mapping[str, float] | None = None,
) -> BoundReport:
    """Assemble all four bounds with per-piece breakdown and radius ratios.

    Radii are certified with the upper stability bound (they shrink as B
    grows); B-bar enters as bbar_factor * b_upper.
    """
    spec = spec or DEFAULT_SPEC
    b = stability.b_upper
    bbar = stability.bbar_upper

    if _is_zero_potential(potential, spec):
        return BoundReport(
            beta=beta, a=a, b_used=b, bbar_used=bbar,
            c_pr=0.0, c_tilde=0.0, c_star=0.0, c_hat=0.0,
            r_pr=math.inf, r_mps=math.inf, r_star=math.inf, r_hat=math.inf,
            potential=potential.config(),
            notes=("potential is identically zero; all radii are infinite",),
        )

    parts = split(potential, a)
    outer, outer_err = _outer_abs(potential, a, beta, spec)
    star_inner, star_err = _c_star_inner(potential, a, beta, spec)
    hat_inner, hat_err = _c_hat_inner(potential, a, beta, bbar, spec)
    mps_exp, mps_err = _mps_inner_exp(potential, a, beta, spec)
    va_mass = beta * parts.value_at_cut * sphere_volume(a, potential.d)
    c_pr, pr_err = _pr_integral(potential, beta, spec)

    c_tilde = mps_exp + va_mass + outer
    c_star = star_inner + outer
    c_hat = hat_inner + outer

    r_pr = _radius_pr(c_pr, beta, b)
    r_mps = _radius_star(c_tilde, beta, b)
    r_star = _radius_star(c_star, beta, b)
    r_hat = _radius_hat(c_hat, beta, bbar)

    ratios = {
        "star_over_mps": r_star / r_mps,
        "hat_over_mps": r_hat / r_mps,
        "hat_over_pr": r_hat / r_pr,
        "best_over_pr": max(r_star, r_hat) / r_pr,
    }
    if reference_radii:
        for name, radius in reference_radii.items():
            ratios[f"hat_over_{name}"] = r_hat / radius

    return BoundReport(
        beta=beta,
        a=a,
        b_used=b,
        bbar_used=bbar,
        c_pr=c_pr,
        c_tilde=c_tilde,
        c_star=c_star,
        c_hat=c_hat,
        r_pr=r_pr,
        r_mps=r_mps,
        r_star=r_star,
        r_hat=r_hat,
        pieces={
            "outer_abs": outer,
            "c_star_inner": star_inner,
            "c_hat_inner": hat_inner,
            "mps_inner_exp": mps_exp,
            "mps_va_mass": va_mass,
        },
        error_estimates={
            "outer_abs": outer_err,
            "c_star_inner": star_err,
            "c_hat_inner": hat_err,
            "mps_inner_exp": mps_err,
            "c_pr": pr_err,
        },
        ratios=ratios,
        potential=potential.config(),
    )

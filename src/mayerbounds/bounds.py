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

C~, C* and C^ differ only in the inner factor on |x| <= a.  One pipeline,
`bound_pieces`, checks the cut and computes every piece once;
`compare_report` and `reproduce` read it.  The three inner pieces are the
rows of one quadrature pass: V, the radial weight and the excess
beta (V - V(a)) are evaluated once per node, and each piece is still refined
on its own, to the bits of a lone integral.

All integrals are adaptive radial quadratures with closed-form power-law
tails beyond spec.tail_cut.  The inner integrands have a boundary layer of
width ~1/(beta |V'(a)|) just inside the cut radius; a geometric panel ladder
seeds the quadrature there.  Near r -> 0 the inner integrands tend to the
finite limit |V|/(V - V(a)) -> 1, and the stable ratio helpers guarantee the
underflow of e^{-beta V} produces that limit rather than NaN, as long as V
itself is finite at the nodes.  For cuts so small that V overflows there (a
below ~3e-23 for Lennard-Jones), `bound_pieces` raises ArithmeticError.  The
C^ factors never form e^{beta B-bar}, and radius ratios come from log radii,
so large beta gives radii that underflow to 0 and ratios that overflow to
inf.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .potentials import PairPotential, split
from .quadrature import (
    DEFAULT_SPEC,
    QuadratureSpec,
    edge_ladder,
    radial_integral,
    sphere_volume,
    stable_ratio,
)
from .stability import StabilityData

__all__ = [
    "BoundPieces",
    "BoundReport",
    "bound_pieces",
    "offset_stable_ratio",
    "penrose_ruelle",
    "h_factor",
    "hard_core_bounds",
    "compare_report",
]


def offset_stable_ratio(x, y):
    """The damped inner factor y (1 - e^{-(x-y)}) / ((x-y)(e^y - 1)).

    Equals stable_ratio(x) at y = 0 and x/(e^x - 1) at y = x.  Computed as
    e^{-min(x,y)} stable_ratio(|x-y|) / stable_ratio(y), so every removable
    singularity is handled by stable_ratio and no factor overflows for
    x, y >= 0, however large.  Monotone decreasing in y for x >= 0, which
    makes the second Basuev bound at most the first.
    """
    with np.errstate(over="ignore"):
        damping = np.exp(-np.minimum(x, y))
    return damping * stable_ratio(np.abs(np.subtract(x, y))) / stable_ratio(y)


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

def _outer_integral(potential, lo, beta, spec, g, *, exp_tail=False) -> tuple[float, float]:
    """(value, err) of int_{|x|>=lo} g(V(|x|)), with g(v) = beta |v| + O(v^2):
    beta |V| from lo = a is the outer piece, |e^{-beta V} - 1| from lo = 0 the
    Penrose-Ruelle integral.  Past the tail cut g is taken as beta |V| in closed
    form; the cut moves out to the last feature radius when that lies past it,
    since tail_terms() hold (and V keeps one sign) only beyond every one.

    `exp_tail` marks g = |e^{-beta V} - 1|, which exceeds beta |V| where V < 0.
    An attractive tail is then scaled by e^{beta M}, M = sum |c_i| cut^-p_i:
    for r >= cut, |V| <= M and e^{beta |V|} - 1 <= beta |V| e^{beta |V|}, so
    the closed form bounds the tail from above.
    """
    radii = potential.feature_radii()
    if max(radii, default=0.0) > spec.tail_cut:
        spec = replace(spec, tail_cut=max(radii))
    tail = potential.tail_terms()
    if tail is not None:
        scale = beta * (1.0 if potential(spec.tail_cut) >= 0.0 else -1.0)
        if exp_tail and scale < 0.0:
            bound = sum(abs(c) * spec.tail_cut ** -p for c, p in tail)
            with np.errstate(over="ignore"):
                scale *= float(np.exp(beta * bound))
        tail = tuple((scale * c, p) for c, p in tail)
    return radial_integral(
        lambda r: g(potential(r)),
        potential.d,
        lo,
        math.inf,
        spec,
        tail=tail,
        breakpoints=tuple(r for r in radii if lo < r < spec.tail_cut),
    )


# (potential, beta, spec) keys: an a-scan at fixed beta pays for C(beta) once
_PENROSE_RUELLE_CACHE = 64


@functools.lru_cache(maxsize=_PENROSE_RUELLE_CACHE)
def _penrose_ruelle_integral(potential, beta, spec) -> tuple[float, float]:
    """(value, err) of C(beta) = int |e^{-beta V} - 1| over R^d, cached per
    (potential, beta, spec); potentials and specs are immutable, so a cached
    value has the bits of a fresh one.  Raises ArithmeticError when it
    overflows (beta past ~709 for LJ); a raise is not cached."""
    with np.errstate(over="ignore"):
        value, err = _outer_integral(
            potential, 0.0, beta, spec, lambda v: np.abs(np.expm1(-beta * v)), exp_tail=True
        )
    if not math.isfinite(value + err):
        raise ArithmeticError(f"the Penrose-Ruelle integral overflows at beta = {beta:g}")
    return value, err


def _inner_integrals(
    potential, a, beta, value_at_cut, spec, factors
) -> dict[str, tuple[float, float]]:
    """{name: (value, err)} of int_{|x|<=a} g(V, beta (V - V(a))) for each
    factor g in `factors`, from one quadrature pass: V, the radial weight and
    the excess are evaluated once per node and each factor is one row.  Panel
    breaks sit on the edge ladder at a and at every feature radius inside
    (0, a)."""
    breakpoints = edge_ladder(0.0, a) + [r for r in potential.feature_radii() if 0.0 < r < a]

    def rows(r):
        v = potential(r)
        excess = beta * (v - value_at_cut)
        return np.stack([g(v, excess) for g in factors.values()])

    results = radial_integral(rows, potential.d, 0.0, a, spec, breakpoints=breakpoints)
    return dict(zip(factors, results))


def _is_zero_potential(potential: PairPotential) -> bool:
    """Exact by the PairPotential contract: V is 0 at the feature radii, the tail terms 0."""
    if np.any(potential(potential.feature_radii()) != 0.0):
        return False
    terms = potential.tail_terms()
    return terms is not None and all(c == 0.0 for c, _ in terms)


# A radius is e^{log_prefactor} / divisor.  Its ratios to other radii are
# formed from these pairs, so they stay finite where a radius underflows.

def _star_terms(c_value: float, beta: float, b: float) -> tuple[float, float]:
    """e^{-(beta b + 1)} / c: the MPS and C* radius; with b doubled, Penrose-Ruelle."""
    return -(beta * b + 1.0), c_value


def _hat_terms(c_value: float, beta: float, bbar: float) -> tuple[float, float]:
    # beta B-bar / (e (e^{beta B-bar} - 1)) = e^{-1 - beta B-bar} / stable_ratio(beta B-bar)
    y = beta * bbar
    return -1.0 - y, stable_ratio(y) * c_value


def _radius(terms: tuple[float, float]) -> float:
    log_prefactor, divisor = terms
    return math.inf if divisor == 0.0 else math.exp(log_prefactor) / divisor


def _ratio(num: tuple[float, float], den: tuple[float, float]) -> float:
    """radius num / radius den; inf where it passes the double range."""
    try:
        scale = math.exp(num[0] - den[0])
    except OverflowError:
        return math.inf
    return scale * den[1] / num[1]


# ---------------------------------------------------------------------------
# the bound pieces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundPieces:
    """The integrals behind C~, C* and C^ at one cut radius a, keyed as in
    BoundReport: outer_abs, c_star_inner, c_hat_inner, mps_inner_exp and the
    exact mps_va_mass = beta V(a) W_a, which has no error estimate.  `is_zero`
    marks an identically zero potential, whose pieces are all 0.
    """

    pieces: dict[str, float]
    error_estimates: dict[str, float]
    is_zero: bool = False

    @property
    def c_tilde(self) -> float:
        p = self.pieces
        return p["mps_inner_exp"] + p["mps_va_mass"] + p["outer_abs"]

    @property
    def c_star(self) -> float:
        return self.pieces["c_star_inner"] + self.pieces["outer_abs"]

    @property
    def c_hat(self) -> float:
        return self.pieces["c_hat_inner"] + self.pieces["outer_abs"]


def bound_pieces(
    potential: PairPotential,
    a: float,
    beta: float,
    bbar: float,
    spec: QuadratureSpec | None = None,
) -> BoundPieces:
    """Every integral of C~, C* and C^(beta, bbar) at cut a, each once.

    Checks the cut precondition V(r) >= V(a) > 0 (split raises
    NotBasuevAtCutError); at bbar = 0 the C^ inner piece equals the C* one.
    Raises ArithmeticError naming every integral that is not finite.
    """
    spec = spec or DEFAULT_SPEC
    if bbar < 0:
        raise ValueError("bbar must be non-negative")
    if _is_zero_potential(potential):
        zeros = dict.fromkeys(("outer_abs", "c_star_inner", "c_hat_inner", "mps_inner_exp"), 0.0)
        return BoundPieces(dict(zeros, mps_va_mass=0.0), zeros, is_zero=True)
    value_at_cut = split(potential, a)
    y = beta * bbar
    # the inner factors of V and the excess beta (V - V(a))
    factors = {
        "c_star_inner": lambda v, x: beta * np.abs(v) * stable_ratio(x),
        "c_hat_inner": lambda v, x: beta * np.abs(v) * offset_stable_ratio(x, y),
        "mps_inner_exp": lambda v, x: -np.expm1(-x),
    }
    # V = inf near 0 makes inf * 0 in the factors, a large beta overflows them: checked below
    with np.errstate(over="ignore", invalid="ignore"):
        integrals = _inner_integrals(potential, a, beta, value_at_cut, spec, factors)
        integrals["outer_abs"] = _outer_integral(
            potential, a, beta, spec, lambda v: beta * np.abs(v)
        )
    not_finite = sorted(name for name, (value, err) in integrals.items()
                        if not math.isfinite(value + err))
    if not_finite:
        raise ArithmeticError(f"{', '.join(not_finite)} not finite at a = {a:g}")
    pieces = {name: value for name, (value, _) in integrals.items()}
    pieces["mps_va_mass"] = beta * value_at_cut * sphere_volume(a, potential.d)
    return BoundPieces(pieces, {name: err for name, (_, err) in integrals.items()})


# ---------------------------------------------------------------------------
# Penrose-Ruelle and the hard-core bounds
# ---------------------------------------------------------------------------

def penrose_ruelle(
    potential: PairPotential,
    beta: float,
    b: float,
    spec: QuadratureSpec | None = None,
) -> tuple[float, float]:
    """(C(beta), radius) of the Penrose-Ruelle bound for a stable tempered V.

    Past the tail cut, |e^{-beta V} - 1| is integrated in closed form from
    an upper bound.  A repulsive tail is taken as beta V, which exceeds
    1 - e^{-beta V} by at most (beta V)^2/2.  An attractive tail is taken as
    beta |V| e^{beta M}, with M = sum |c_i| cut^-p_i >= |V| past the cut,
    since e^x - 1 <= x e^x; at the default cut of 50, e^{beta M} - 1 is
    1.3e-10 beta for Lennard-Jones.  C is computed once per (potential,
    beta, spec) and shared with compare_report.  Raises ArithmeticError when
    C overflows.
    """
    value, _ = _penrose_ruelle_integral(potential, beta, spec or DEFAULT_SPEC)
    return value, _radius(_star_terms(value, beta, 2.0 * b))


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
    tail_int, _ = _outer_integral(potential, a, beta, spec, lambda v: beta * np.abs(v))
    c_star_hc = core + tail_int
    c_hat_hc = core / stable_ratio(-beta * bbar) + tail_int
    return c_star_hc, c_hat_hc


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

# (output key, table label, integral field, radius field) of each bound, in
# output order
_BOUNDS = (
    ("penrose_ruelle", "penrose-ruelle", "c_pr", "r_pr"),
    ("mps", "mps", "c_tilde", "r_mps"),
    ("basuev_star", "basuev C*", "c_star", "r_star"),
    ("basuev_hat", "basuev C^", "c_hat", "r_hat"),
)


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
        for _, _, name, _ in _BOUNDS:
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
            "integrals": {key: clean(getattr(self, c)) for key, _, c, _ in _BOUNDS},
            "radii": {key: clean(getattr(self, r)) for key, _, _, r in _BOUNDS},
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
        for key, _, c, r in _BOUNDS:
            writer.writerow(
                [key, repr(getattr(self, c)), repr(getattr(self, r)), repr(self.beta),
                 repr(self.a), repr(self.b_used), repr(self.bbar_used)]
            )
        return out.getvalue()

    def table_text(self) -> str:
        lines = [
            f"beta = {self.beta:.6g}   a = {self.a:.6g}   "
            f"B = {self.b_used:.6g}   Bbar = {self.bbar_used:.6g}",
            f"{'bound':<16} {'integral':>14} {'radius':>14}",
        ]
        for _, label, c, r in _BOUNDS:
            lines.append(f"{label:<16} {getattr(self, c):>14.6g} {getattr(self, r):>14.6g}")
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
) -> BoundReport:
    """Assemble all four bounds with per-piece breakdown and radius ratios.

    Radii are certified with the upper stability bound (they shrink as B
    grows); B-bar enters as bbar_factor * b_upper.  Raises ArithmeticError
    when the Penrose-Ruelle integral overflows (beta past ~709 for LJ).
    """
    spec = spec or DEFAULT_SPEC
    b = stability.b_upper
    bbar = stability.bbar_upper

    pieces = bound_pieces(potential, a, beta, bbar, spec)
    if pieces.is_zero:
        return BoundReport(
            beta=beta, a=a, b_used=b, bbar_used=bbar,
            c_pr=0.0, c_tilde=0.0, c_star=0.0, c_hat=0.0,
            r_pr=math.inf, r_mps=math.inf, r_star=math.inf, r_hat=math.inf,
            potential=potential.config(),
            notes=("potential is identically zero; all radii are infinite",),
        )
    c_pr, pr_err = _penrose_ruelle_integral(potential, beta, spec)
    terms = {
        "pr": _star_terms(c_pr, beta, 2.0 * b),
        "mps": _star_terms(pieces.c_tilde, beta, b),
        "star": _star_terms(pieces.c_star, beta, b),
        "hat": _hat_terms(pieces.c_hat, beta, bbar),
    }
    best = max(terms["star"], terms["hat"], key=lambda t: t[0] - math.log(t[1]))
    ratios = {
        "star_over_mps": _ratio(terms["star"], terms["mps"]),
        "hat_over_mps": _ratio(terms["hat"], terms["mps"]),
        "hat_over_pr": _ratio(terms["hat"], terms["pr"]),
        "best_over_pr": _ratio(best, terms["pr"]),
    }

    return BoundReport(
        beta=beta,
        a=a,
        b_used=b,
        bbar_used=bbar,
        c_pr=c_pr,
        c_tilde=pieces.c_tilde,
        c_star=pieces.c_star,
        c_hat=pieces.c_hat,
        r_pr=_radius(terms["pr"]),
        r_mps=_radius(terms["mps"]),
        r_star=_radius(terms["star"]),
        r_hat=_radius(terms["hat"]),
        pieces=pieces.pieces,
        error_estimates=dict(pieces.error_estimates, c_pr=pr_err),
        ratios=ratios,
        potential=potential.config(),
    )

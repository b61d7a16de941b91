"""Adaptive one-dimensional quadrature with explicit error accounting.

Panel rule: Gauss-Legendre 16 vs 32 nodes; the difference is the panel error
estimate.  Refinement always splits the panel with the largest estimate, so
narrow features (the Lennard-Jones integrands have a boundary layer of
relative width ~1e-7 at the cut radius) are localized automatically; callers
seed `breakpoints` when the feature location is known.

Integrand contract: f receives one flat float array x holding the nodes of
many panels and must be elementwise.  It returns either an array of the same
shape as x, or k rows, shape (k, x.size), one per integral that shares the
nodes (a 1-D f is the case k = 1); entry [j, i] depends on entry i of the
input only.  The engine makes one call for the seed panels of all rows.
Each row then refines on its own: a split calls f on the two children and
reads that row, so each row's value, error estimate and panel sequence are
those of a lone integral of that row, bit for bit.  The two rule sums of
every panel in a call come from one row-wise reduction, each row summed on
its own, so the result does not depend on how many panels or rows share a
call.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "QuadratureConvergenceError",
    "TemperednessError",
    "QuadratureSpec",
    "integrate_adaptive",
    "radial_integral",
    "stable_ratio",
]


class QuadratureConvergenceError(ArithmeticError):
    """Tolerance not reached within the subdivision budget.

    Carries the best value and the achieved error estimate so callers can
    decide whether the partial result is still usable.
    """

    def __init__(self, message: str, value: float, achieved_error: float):
        super().__init__(message)
        self.value = value
        self.achieved_error = achieved_error


class TemperednessError(ValueError):
    """An improper integral has a non-integrable declared tail."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget of every adaptive integral.

    `tail_cut` is the radius beyond which declared power-law tails are
    integrated in closed form instead of numerically; it must lie beyond
    every feature radius of the potential in use (the bound integrals move
    it out to the last feature radius when that lies further out).
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    tail_cut: float = 50.0
    max_subdivisions: int = 4000

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")
        if not (0 < self.tail_cut < math.inf and 1 <= self.max_subdivisions < math.inf):
            raise ValueError("invalid tail cut or subdivision budget")


DEFAULT_SPEC = QuadratureSpec()


# Gauss-Legendre rules on [-1, 1], stored as the positive half (QUADPACK
# stores its rules the same way) and mirrored; equal bit for bit to
# numpy.polynomial.legendre.leggauss(16) and (32).
_GL16_NODES = (
    0.09501250983763744,
    0.2816035507792589,
    0.45801677765722737,
    0.6178762444026438,
    0.755404408355003,
    0.8656312023878318,
    0.9445750230732326,
    0.9894009349916499,
)
_GL16_WEIGHTS = (
    0.18945061045506864,
    0.18260341504492364,
    0.16915651939500265,
    0.1495959888165767,
    0.12462897125553407,
    0.0951585116824926,
    0.062253523938647456,
    0.027152459411754176,
)
_GL32_NODES = (
    0.048307665687738324,
    0.1444719615827965,
    0.23928736225213706,
    0.33186860228212767,
    0.42135127613063533,
    0.5068999089322294,
    0.5877157572407623,
    0.6630442669302152,
    0.7321821187402897,
    0.7944837959679424,
    0.84936761373257,
    0.8963211557660521,
    0.9349060759377397,
    0.9647622555875064,
    0.9856115115452684,
    0.9972638618494816,
)
_GL32_WEIGHTS = (
    0.09654008851472766,
    0.09563872007927471,
    0.09384439908080451,
    0.09117387869576378,
    0.08765209300440378,
    0.08331192422694671,
    0.07819389578707023,
    0.07234579410884834,
    0.06582222277636168,
    0.058684093478535565,
    0.05099805926237609,
    0.042835898022226836,
    0.034273862913021765,
    0.025392065309262024,
    0.016274394730905743,
    0.007018610009470506,
)


def _mirrored(nodes: Sequence[float], weights: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    x = np.array(nodes)
    w = np.array(weights)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


_X16, _W16 = _mirrored(_GL16_NODES, _GL16_WEIGHTS)
_X32, _W32 = _mirrored(_GL32_NODES, _GL32_WEIGHTS)
# the 48 nodes of one panel and their weights: the 16-point rule, then the 32-point rule
_NODES = np.concatenate([_X16, _X32])
_WEIGHTS = np.concatenate([_W16, _W32])


def _panels(
    f: Callable[[np.ndarray], np.ndarray], lefts: Sequence[float], rights: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """(GL32 values, |GL32 - GL16| errors) of the panels [lefts[i], rights[i]],
    shape (panels,) for a 1-D f and (k, panels) for k rows, from one call of f
    and one row-wise sum per rule over all panels of all rows."""
    lo = np.asarray(lefts, dtype=float)
    hi = np.asarray(rights, dtype=float)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    values = np.asarray(f((mid[:, None] + half[:, None] * _NODES).ravel()))
    products = values.reshape(-1, _NODES.size) * _WEIGHTS
    shape = values.shape[:-1] + lo.shape
    coarse = half * products[:, :16].sum(axis=1).reshape(shape)
    fine = half * products[:, 16:].sum(axis=1).reshape(shape)
    return fine, np.abs(fine - coarse)


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    spec: QuadratureSpec | None = None,
    *,
    breakpoints: Iterable[float] = (),
) -> tuple[float, float] | list[tuple[float, float]]:
    """Integrate f on [lo, hi]; return (value, error estimate), or a list of
    k such pairs when f returns k rows.

    Tolerances and the panel budget come from `spec` (DEFAULT_SPEC when
    None) and hold for each row on its own.  Raises
    QuadratureConvergenceError, for the first row in order that fails, when
    its estimate cannot be pushed below max(spec.abs_tol, spec.rel_tol *
    |value|) within spec.max_subdivisions panels, or when every panel left
    is narrower than floating-point resolution.
    """
    spec = spec or DEFAULT_SPEC
    if hi < lo:
        raise ValueError(f"inverted integration range [{lo}, {hi}]")

    edges = [lo]
    for p in sorted(set(float(b) for b in breakpoints)):
        if lo < p < hi:
            edges.append(p)
    if hi > lo:
        edges.append(hi)

    # an empty range has no panel: f sees no node, and every row is (0.0, 0.0)
    values, errors = _panels(f, edges[:-1], edges[1:])
    results = [
        _refine(f, row, edges, row_values, row_errors, spec)
        for row, (row_values, row_errors) in enumerate(
            zip(np.atleast_2d(values).tolist(), np.atleast_2d(errors).tolist())
        )
    ]
    return results[0] if values.ndim == 1 else results


def _refine(
    f: Callable[[np.ndarray], np.ndarray],
    row: int,
    edges: list[float],
    values: list[float],
    errors: list[float],
    spec: QuadratureSpec,
) -> tuple[float, float]:
    """(value, error estimate) of row `row` of f, from the seed panels between
    `edges` and their values and errors, by largest-error-first splitting."""
    # panels are disjoint, so no two heap entries tie and heapify pops them in
    # the order that pushing them one by one would
    heap = [(-e, a, b, v, e) for a, b, v, e in zip(edges[:-1], edges[1:], values, errors)]
    heapq.heapify(heap)
    total = 0.0
    total_err = 0.0
    for value, err in zip(values, errors):
        total += value
        total_err += err
    n_panels = len(heap)

    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        if n_panels >= spec.max_subdivisions or not heap:
            where = f"after {n_panels} panels" if heap else "with no panel left to split"
            raise QuadratureConvergenceError(
                f"quadrature did not reach tolerance {where} "
                f"(achieved {total_err:.3e}, value {total:.6e})",
                value=total,
                achieved_error=total_err,
            )
        _, a, b, value, err = heapq.heappop(heap)
        total -= value
        total_err -= err
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # panel narrower than floating-point resolution: it leaves the
            # heap, and its value and error stay in the totals
            total += value
            total_err += err
            continue
        values, errors = _panels(f, (a, mid), (mid, b))
        for aa, bb, v, e in zip(
            (a, mid), (mid, b),
            np.atleast_2d(values)[row].tolist(), np.atleast_2d(errors)[row].tolist(),
        ):
            heapq.heappush(heap, (-e, aa, bb, v, e))
            total += v
            total_err += e
        n_panels += 1

    return total, total_err


def radial_integral(
    g: Callable[[np.ndarray], np.ndarray],
    d: int,
    lo: float,
    hi: float,
    spec: QuadratureSpec | None = None,
    *,
    tail: Sequence[tuple[float, float]] | None = None,
    breakpoints: Iterable[float] = (),
) -> tuple[float, float] | list[tuple[float, float]]:
    """(value, error estimate) of the integral of g(|x|) over the radial
    shell lo <= |x| <= hi in R^d; a list of k such pairs when g returns k
    rows, as integrate_adaptive.

    Evaluates S_{d-1} * int r^{d-1} g(r) dr adaptively; the error estimate is
    integrate_adaptive's.  The weight S_{d-1} r^{d-1} is applied only where g
    is not 0: for large d it overflows at radii where g vanishes, and inf * 0
    would be NaN.  An infinite upper limit requires `tail`, the exact
    power-law form g(r) = sum c_i r^{-p_i} valid for r >= spec.tail_cut
    (empty tuple = zero tail), of every row of g; the tail part is then
    integrated in closed form, with no error estimate of its own, so no mass
    is silently truncated.
    """
    spec = spec or DEFAULT_SPEC
    surface = sphere_surface(d)

    def integrand(r: np.ndarray) -> np.ndarray:
        values = np.asarray(g(r))
        return surface * np.where(values != 0.0, r, 0.0) ** (d - 1) * values

    top, tail_value = hi, 0.0
    if math.isinf(hi):
        if tail is None:
            raise TemperednessError(
                "infinite upper limit requires declared power-law tail terms"
            )
        top = max(lo, spec.tail_cut)
        tail_value = power_tail_integral(tail, d, top)
    result = integrate_adaptive(integrand, lo, top, spec, breakpoints=breakpoints)
    # integrate_adaptive never returns -0.0, so a finite hi keeps its bits
    if isinstance(result, tuple):
        return result[0] + tail_value, result[1]
    return [(value + tail_value, err) for value, err in result]


_LADDER_DEPTH = 48


def edge_ladder(lo: float, hi: float) -> list[float]:
    """Breakpoints accumulating geometrically at `hi`.

    Seeds panels that resolve a boundary layer just inside `hi` down to
    relative width 2^-48.
    """
    width = hi - lo
    pts = [hi - width * 0.5**j for j in range(1, _LADDER_DEPTH + 1)]
    return [p for p in pts if lo < p < hi]


def power_tail_integral(tail: Sequence[tuple[float, float]], d: int, start: float) -> float:
    """Closed form of S_{d-1} * int_start^inf r^{d-1} (sum_i c_i r^{-p_i}) dr.

    Each (c_i, p_i) term must have p_i > d; otherwise the tail is not
    integrable and a TemperednessError is raised.
    """
    total = 0.0
    for coef, p in tail:
        if p <= d:
            raise TemperednessError(
                f"tail term r^-{p} is not integrable against r^{d - 1} in d={d}"
            )
        total += coef * start ** (d - p) / (p - d)
    return sphere_surface(d) * total


# log of the smallest normal double
_LOG_TINY = math.log(sys.float_info.min)


def _below_range(quantity: str, d: int) -> ArithmeticError:
    return ArithmeticError(f"the {quantity} in d = {d:.16g} is below the normal double range")


def sphere_surface(d: int) -> float:
    """Surface area of the unit sphere in R^d (4*pi for d=3).

    Decided in logs, from lgamma: raises ArithmeticError naming d where the
    surface is below the normal double range (d >= 439), since a surface
    that underflows to 0 would make every integral 0 and every radius
    infinite.  Where Gamma(d/2) is a double (d <= 343) the value is
    2 pi^(d/2) / Gamma(d/2) directly.
    """
    log_surface = math.log(2.0) + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d)
    if log_surface < _LOG_TINY:
        raise _below_range("unit-sphere surface", d)
    try:
        return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    except OverflowError:
        return math.exp(log_surface)


def sphere_volume(radius: float, d: int) -> float:
    """Volume of the ball of the given radius in R^d.

    Raises ArithmeticError naming d where the unit-ball volume is below the
    normal double range (d >= 436).
    """
    ball = sphere_surface(d) / d
    if ball < sys.float_info.min:
        raise _below_range("unit-ball volume", d)
    return ball * radius**d


def stable_ratio(x):
    """(1 - e^-x)/x without cancellation; 1 at the removable singularity x=0.

    Total function: decays to 0 as x -> +inf, grows like e^|x|/|x| for
    x -> -inf.  A short series takes over for |x| < 1e-5.  Accepts scalars or
    arrays; scalar in, scalar out.
    """
    arr = np.asarray(x, dtype=float)
    small = np.abs(arr) < 1e-5
    safe = np.where(small, 1.0, arr)
    tiny = np.where(small, arr, 0.0)
    with np.errstate(over="ignore"):
        out = np.where(
            small,
            1.0 - tiny / 2.0 + tiny * tiny / 6.0 - tiny * tiny * tiny / 24.0,
            -np.expm1(-safe) / safe,
        )
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


"""Adaptive one-dimensional quadrature with explicit error accounting.

Panel rule: Gauss-Legendre 16 vs 32 nodes; the difference is the panel error
estimate.  Refinement always splits the panel with the largest estimate, so
narrow features (the Lennard-Jones integrands have a boundary layer of
relative width ~1e-7 at the cut radius) are localized automatically; callers
seed `breakpoints` when the feature location is known.

Integrand contract: f receives one flat float array holding the nodes of many
panels and must be elementwise, returning an array of the same shape whose
entry i depends on entry i of the input only.  The engine makes one call for
all seed panels and one call per split (both children), so the numpy
dispatch cost of an integrand is paid once per step.  Each panel's sums stay
separate `np.dot` reductions over its own nodes, so the result does not
depend on how many panels share a call.
"""

from __future__ import annotations

import heapq
import math
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
# the 48 nodes of one panel: the 16-point rule, then the 32-point rule
_NODES = np.concatenate([_X16, _X32])


def _panels(
    f: Callable[[np.ndarray], np.ndarray], spans: Sequence[tuple[float, float]]
) -> list[tuple[float, float]]:
    """(GL32 value, |GL32 - GL16|) on each [a, b] in spans, from one call of f."""
    halves = [0.5 * (b - a) for a, b in spans]
    mids = np.array([0.5 * (a + b) for a, b in spans])
    x = mids[:, None] + np.array(halves)[:, None] * _NODES
    values = np.asarray(f(x.ravel())).reshape(x.shape)
    out = []
    for half, row in zip(halves, values):
        coarse = half * float(np.dot(_W16, row[:16]))
        fine = half * float(np.dot(_W32, row[16:]))
        out.append((fine, abs(fine - coarse)))
    return out


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    spec: QuadratureSpec | None = None,
    *,
    breakpoints: Iterable[float] = (),
) -> tuple[float, float]:
    """Integrate f on [lo, hi]; return (value, error estimate).

    Tolerances and the panel budget come from `spec` (DEFAULT_SPEC when
    None).  Raises QuadratureConvergenceError when the estimate cannot be
    pushed below max(spec.abs_tol, spec.rel_tol * |value|) within
    spec.max_subdivisions panels, or when every panel left is narrower than
    floating-point resolution.
    """
    spec = spec or DEFAULT_SPEC
    if hi < lo:
        raise ValueError(f"inverted integration range [{lo}, {hi}]")
    if hi == lo:
        return 0.0, 0.0

    edges = [lo]
    for p in sorted(set(float(b) for b in breakpoints)):
        if lo < p < hi:
            edges.append(p)
    edges.append(hi)

    spans = list(zip(edges[:-1], edges[1:]))
    heap: list[tuple[float, float, float, float, float]] = []
    total = 0.0
    total_err = 0.0
    for (a, b), (value, err) in zip(spans, _panels(f, spans)):
        heapq.heappush(heap, (-err, a, b, value, err))
        total += value
        total_err += err
    n_panels = len(spans)

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
        children = ((a, mid), (mid, b))
        for (aa, bb), (v, e) in zip(children, _panels(f, children)):
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
) -> tuple[float, float]:
    """(value, error estimate) of the integral of g(|x|) over the radial
    shell lo <= |x| <= hi in R^d.

    Evaluates S_{d-1} * int r^{d-1} g(r) dr adaptively; the error estimate is
    integrate_adaptive's.  An infinite upper limit requires `tail`, the exact
    power-law form g(r) = sum c_i r^{-p_i} valid for r >= spec.tail_cut
    (empty tuple = zero tail); the tail part is then integrated in closed
    form, with no error estimate of its own, so no mass is silently
    truncated.
    """
    spec = spec or DEFAULT_SPEC
    surface = sphere_surface(d)

    def integrand(r: np.ndarray) -> np.ndarray:
        return surface * r ** (d - 1) * g(r)

    top, tail_value = hi, 0.0
    if math.isinf(hi):
        if tail is None:
            raise TemperednessError(
                "infinite upper limit requires declared power-law tail terms"
            )
        top = spec.tail_cut
        tail_value = power_tail_integral(tail, d, max(lo, top))
        if lo >= top:
            return tail_value, 0.0
    value, err = integrate_adaptive(integrand, lo, top, spec, breakpoints=breakpoints)
    # integrate_adaptive never returns -0.0, so a finite hi keeps its bits
    return value + tail_value, err


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


def sphere_surface(d: int) -> float:
    """Surface area of the unit sphere in R^d (4*pi for d=3)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def sphere_volume(radius: float, d: int) -> float:
    """Volume of the ball of the given radius in R^d."""
    return sphere_surface(d) / d * radius**d


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


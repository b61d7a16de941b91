"""Stability criterion checks and certified upper bounds on mu(a).

mu(a) is the supremum, over clouds of particles pairwise separated by more
than a, of the total attraction exerted on a single particle.  It is never
computed exactly; only certified upper bounds are produced, so a positive
criterion verdict V(a) > 2*mu_bound(a) is a certificate while a negative one
is inconclusive.

Two bound methods are built in:

* cube packing: mu(a) <= C_d / a^d with C_d = (4d)^(d/2) * integral of the
  monotone majorant eta-bar of V^- over R^d (valid for cuts inside the
  repulsive region, a < r1).  eta-bar is flat inside r2 and a power law
  beyond, so its integral is exact: a ball volume plus a closed-form tail;
* the Lennard-Jones-specific bound mu(a) <= 24.05 / a^3, valid for
  0.6 <= a <= 0.7 (Yuhjtman 2015).

For any stable tempered three-dimensional potential that is eventually
negative, the two stability constants satisfy B <= B-bar <= (13/12) B.

`find_max_a` pushes the cut radius as far out as the chosen bound certifies,
which is what minimizes the resulting convergence-radius factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .potentials import LennardJones, LJTypeEnvelope, PairPotential
from .quadrature import power_tail_integral, sphere_volume

__all__ = [
    "MethodDomainError",
    "MethodMismatchError",
    "NoValidCutError",
    "MuBound",
    "StabilityData",
    "mu_upper_cube",
    "mu_upper_yuhjtman",
    "criterion_holds",
    "find_max_a",
    "lj_stability_registry",
]

YUHJTMAN_LO = 0.6
YUHJTMAN_HI = 0.7
YUHJTMAN_NUMERATOR = 24.05

BISECTION_MAX_ITER = 60

# the mu-bound methods that hold only for the classical Lennard-Jones potential
_LJ_ONLY_METHODS = {
    "cube": "the cube method uses the Lennard-Jones envelope; for potential kind {kind!r} "
            "call mu_upper_cube(envelope, a) with its own envelope",
    "yuhjtman": "the 24.05/a^3 bound is specific to the classical Lennard-Jones "
                "potential, not {kind!r}",
}


class MethodDomainError(ValueError):
    """Cut radius outside the validity domain of the chosen mu-bound method."""


class MethodMismatchError(ValueError):
    """The chosen mu-bound method does not apply to this potential."""


class NoValidCutError(ValueError):
    """The stability criterion already fails at the lower end of the interval."""


@dataclass(frozen=True)
class MuBound:
    """A certified upper bound on mu at one cut radius."""

    a: float
    value: float
    method: str

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("mu bound must be non-negative")
        if self.a <= 0:
            raise ValueError("cut radius must be positive")


@dataclass(frozen=True)
class StabilityData:
    """Certified stability constants with their literature sources."""

    b_lower: float
    b_upper: float
    bbar_factor: float
    sources: dict[str, str]

    def __post_init__(self):
        if not 0 <= self.b_lower <= self.b_upper < math.inf:
            raise ValueError("need 0 <= b_lower <= b_upper < inf")
        if not 1 <= self.bbar_factor < math.inf:
            raise ValueError("bbar_factor must be finite and >= 1")

    @property
    def bbar_upper(self) -> float:
        return self.bbar_factor * self.b_upper


def lj_stability_registry() -> StabilityData:
    """Certified constants for the classical Lennard-Jones potential."""
    return StabilityData(
        b_lower=8.61,
        b_upper=14.316,
        bbar_factor=1.001,
        sources={
            "b_lower": "lattice-sum lower bound (Jones & Ingham 1925)",
            "b_upper": "cluster-minimum upper bound (Yuhjtman 2015)",
            "bbar_factor": (
                "Cambridge cluster database: n/(n-1)*B_n below the n=1001 value "
                "for all n <= 1000"
            ),
            "b_upper_previous": "earlier upper bound 41.66 (Schachinger et al. 2006)",
        },
    )


# value of the superseded upper bound, used only when composing the absolute
# improvement factor of the optimized chain
PREVIOUS_LJ_B_UPPER = 41.66


def mu_upper_cube(envelope: LJTypeEnvelope, a: float) -> MuBound:
    """Cube-packing bound mu(a) <= (4d)^(d/2)/a^d * int eta-bar.

    Packs disjoint cubes of diagonal a/2 around the cloud particles; requires
    the cut inside the repulsive region (0 < a < r1) so V^- vanishes there.
    int eta-bar is exact: w-bar times the volume of the r2-ball plus the
    closed-form integral of the power-law envelope beyond r2.
    """
    if not 0 < a < envelope.r1:
        raise MethodDomainError(
            f"cube-packing bound needs 0 < a < r1 = {envelope.r1}, got a = {a}"
        )
    d = envelope.d
    tail = ((envelope.c_attraction, d + envelope.decay_surplus),)
    well = envelope.majorant_well() * sphere_volume(envelope.r2, d)
    integral = well + power_tail_integral(tail, d, envelope.r2)
    value = (4.0 * d) ** (d / 2.0) * integral / a**d
    return MuBound(a=a, value=value, method="cube-packing")


def mu_upper_yuhjtman(a: float) -> MuBound:
    """Lennard-Jones bound mu(a) <= 24.05/a^3, valid on 0.6 <= a <= 0.7."""
    if not YUHJTMAN_LO <= a <= YUHJTMAN_HI:
        raise MethodDomainError(
            f"the 24.05/a^3 bound is valid only for "
            f"{YUHJTMAN_LO} <= a <= {YUHJTMAN_HI}, got a = {a}"
        )
    return MuBound(a=a, value=YUHJTMAN_NUMERATOR / a**3, method="yuhjtman")


def criterion_holds(potential: PairPotential, mu: MuBound) -> bool:
    """Certified check of V(a) > 2*mu(a) at the bound's cut a = mu.a.

    True is a certificate; False is inconclusive (the bound may be loose).
    Raises ArithmeticError when V(a) is not finite.
    """
    value = potential(mu.a)
    if not math.isfinite(value):
        raise ArithmeticError(f"V(a) = {value} is not finite at a = {mu.a:g}")
    return value > 2.0 * mu.value


def mu_bound_function(
    method: str,
    potential: PairPotential,
    *,
    mu_value: float | None = None,
) -> Callable[[float], MuBound]:
    """Resolve a mu-bound method name to a callable a -> MuBound."""
    if method in _LJ_ONLY_METHODS and potential.kind != "lennard-jones":
        raise MethodMismatchError(_LJ_ONLY_METHODS[method].format(kind=potential.kind))
    if method == "cube":
        envelope = LennardJones.default_envelope()
        return lambda a: mu_upper_cube(envelope, a)
    if method == "yuhjtman":
        return mu_upper_yuhjtman
    if method == "user":
        if mu_value is None or not mu_value >= 0:  # NaN fails too
            raise ValueError(f"user method requires a non-negative mu_value, got {mu_value!r}")
        return lambda a: MuBound(a=a, value=mu_value, method="user-supplied")
    raise ValueError(f"unknown mu-bound method {method!r}")


def find_max_a(
    potential: PairPotential,
    mu_method: str,
    interval: tuple[float, float],
    tol: float = 1e-6,
    *,
    mu_value: float | None = None,
) -> float:
    """Largest cut radius in the interval at which the criterion certifies.

    Bisects V(a) - 2*mu_bound(a), assuming a single crossing on the interval;
    the returned radius is on the certified side of the final bracket.
    """
    a_lo, a_hi = interval
    if not 0 < a_lo < a_hi:
        raise ValueError(f"invalid interval [{a_lo}, {a_hi}]")
    bound_at = mu_bound_function(mu_method, potential, mu_value=mu_value)
    if not criterion_holds(potential, bound_at(a_lo)):
        raise NoValidCutError(
            f"criterion V(a) > 2*mu(a) already fails at the interval start a = {a_lo}"
        )
    if criterion_holds(potential, bound_at(a_hi)):
        return a_hi
    lo, hi = a_lo, a_hi
    for _ in range(BISECTION_MAX_ITER):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if criterion_holds(potential, bound_at(mid)):
            lo = mid
        else:
            hi = mid
    return lo

"""Radially symmetric pair potentials and the cut-radius check.

Supported kinds: the classical (rescaled) Lennard-Jones potential
V(r) = 1/r^12 - 2/r^6, pure inverse powers C/r^p, hard-core wrappers, and
tabulated potentials (piecewise linear between knots, constant inside the
first knot, zero beyond the last).

`split(V, a)` checks that a is a valid cut radius, V(r) >= V(a) > 0 on
(0, a], and returns V(a), the level at which the bounds cap V inside a.  The
check is exact: it compares V(a) with `PairPotential.floor(0, a)`, the
infimum of V over (0, a] worked out from each kind's monotone pieces.

All evaluators accept numpy arrays and are safe to share across threads
(immutable after construction).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = [
    "PotentialDomainError",
    "NotBasuevAtCutError",
    "PairPotential",
    "LennardJones",
    "InversePower",
    "HardCoreWrap",
    "TabulatedPotential",
    "LJTypeEnvelope",
    "split",
    "potential_from_config",
]

class PotentialDomainError(ValueError):
    """Potential evaluated at a non-positive radius."""


class NotBasuevAtCutError(ValueError):
    """V(r) >= V(a) > 0 fails on (0, a] at the requested cut radius."""


def _dimension(d) -> int:
    """d as a positive int: an integral float such as 3.0 counts, a bool does not."""
    if isinstance(d, bool) or not (isinstance(d, numbers.Real) and 1 <= d < np.inf and d % 1 == 0):
        raise ValueError(f"dimension d must be a positive integer, got {d!r}")
    return int(d)


class PairPotential:
    """Base class: evaluate V(r) for r > 0, with metadata for the integrators.

    Subclasses implement `_evaluate` on positive float arrays.  `tail_terms`
    gives the exact power-law representation V(r) = sum c_i r^{-p_i} valid
    beyond every feature radius (empty tuple = identically zero tail, None =
    no closed-form tail known).  `feature_radii` lists radii where the
    potential or its derivative may jump or cross zero; integrators seed
    panel breaks there.  They must include every knot and kink, so that V at
    them and the tail terms decide V everywhere.  `floor(lo, hi)`, which every
    kind implements, is the exact infimum of V over (lo, hi], for 0 <= lo < hi.
    """

    kind: str = "abstract"
    d: int = 3

    def __call__(self, r):
        arr = np.asarray(r, dtype=float)
        if np.any(arr <= 0.0) or np.any(~np.isfinite(arr)):
            raise PotentialDomainError("radius must be positive and finite")
        # r^-p overflows near 0, and LJ's difference of two infinities is NaN:
        # callers that need V finite check it
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out = self._evaluate(arr)
        return float(out) if np.isscalar(r) or arr.ndim == 0 else out

    def _evaluate(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def floor(self, lo: float, hi: float) -> float:
        raise NotImplementedError

    def tail_terms(self) -> tuple[tuple[float, float], ...] | None:
        return None

    def feature_radii(self) -> tuple[float, ...]:
        return ()

    def config(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class LennardJones(PairPotential):
    """Classical rescaled Lennard-Jones in three dimensions: 1/r^12 - 2/r^6.

    Minimum -1 at r = 1; zero crossing at 2^(-1/6).
    """

    kind: str = field(default="lennard-jones", init=False)
    d: int = field(default=3, init=False)

    def _evaluate(self, r):
        inv6 = r**-6.0
        return inv6 * inv6 - 2.0 * inv6

    def floor(self, lo, hi):
        # falls on (0, 1], rises after
        return self(min(max(lo, 1.0), hi))

    def tail_terms(self):
        return ((1.0, 12.0), (-2.0, 6.0))

    def feature_radii(self):
        return (2.0 ** (-1.0 / 6.0),)

    def config(self):
        return {"kind": "lennard-jones", "d": 3}

    @staticmethod
    def default_envelope() -> "LJTypeEnvelope":
        """An envelope that holds for the classical potential, in closed form.

        Both envelope powers are r^-6 (d + decay_surplus = 6):
            core:  V - 0.5 r^-6 = r^-6 (r^-6 - 2.5) >= 0 for r <= 2.5^(-1/6)
                   ~ 0.858, which is past r1 = 0.8;
            well:  V + 1 = (r^-6 - 1)^2 >= 0, so V >= -1 everywhere, and
                   floor(r1, r2) = V(1) = -1 = -well_depth;
            tail:  V + 2 r^-6 = r^-12 > 0 for every r.
        """
        return LJTypeEnvelope(
            c_repulsion=0.5,
            c_attraction=2.0,
            r1=0.8,
            r2=1.0,
            well_depth=1.0,
            decay_surplus=3.0,
            d=3,
        )


@dataclass(frozen=True)
class InversePower(PairPotential):
    """V(r) = coefficient / r^exponent (repulsive for coefficient > 0)."""

    coefficient: float
    exponent: float
    d: int = 3
    kind: str = field(default="inverse-power", init=False)

    def __post_init__(self):
        if not (0 <= self.coefficient < np.inf and 0 < self.exponent < np.inf):
            raise ValueError("inverse power needs a finite coefficient >= 0 and exponent > 0")
        object.__setattr__(self, "d", _dimension(self.d))

    def _evaluate(self, r):
        return self.coefficient * r ** (-self.exponent)

    def floor(self, lo, hi):
        return self(hi)  # coefficient >= 0: V never rises

    def tail_terms(self):
        return ((self.coefficient, self.exponent),)

    def config(self):
        return {
            "kind": "inverse-power",
            "C": self.coefficient,
            "p": self.exponent,
            "d": self.d,
        }


@dataclass(frozen=True)
class HardCoreWrap(PairPotential):
    """Equal to the cutoff height on (0, core_radius], the tail potential beyond."""

    tail: PairPotential
    core_radius: float
    height: float
    kind: str = field(default="hard-core", init=False)

    def __post_init__(self):
        if not (0 < self.core_radius < np.inf and 0 < self.height < np.inf):
            raise ValueError("hard core needs a finite positive radius and height")
        object.__setattr__(self, "d", self.tail.d)

    def _evaluate(self, r):
        return np.where(r <= self.core_radius, self.height, self.tail._evaluate(r))

    def floor(self, lo, hi):
        core = (self.height,) if lo < self.core_radius else ()
        tail = (self.tail.floor(max(lo, self.core_radius), hi),) if hi > self.core_radius else ()
        return min(core + tail)

    def tail_terms(self):
        return self.tail.tail_terms()

    def feature_radii(self):
        return (self.core_radius,) + self.tail.feature_radii()

    def config(self):
        return {
            "kind": "hard-core",
            "a": self.core_radius,
            "H": self.height,
            "tail": self.tail.config(),
        }


@dataclass(frozen=True)
class TabulatedPotential(PairPotential):
    """Piecewise-linear interpolation of sorted (r, V) knots.

    Constant extrapolation inside the first knot, zero beyond the last.
    """

    knots: tuple[tuple[float, float], ...]
    d: int = 3
    kind: str = field(default="tabulated", init=False)
    # knot arrays for np.interp, built once; not part of eq, hash or repr
    _radii: np.ndarray = field(init=False, compare=False, repr=False)
    _values: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        radii = [r for r, _ in self.knots]
        if not radii or not np.all(np.isfinite(self.knots)) or any(r <= 0 for r in radii) \
                or sorted(radii) != radii:
            raise ValueError("knots must be finite and sorted, with positive radii")
        object.__setattr__(self, "d", _dimension(self.d))
        object.__setattr__(self, "_radii", np.array(radii))
        object.__setattr__(self, "_values", np.array([v for _, v in self.knots]))

    def _evaluate(self, r):
        return np.interp(r, self._radii, self._values, left=self._values[0], right=0.0)

    def floor(self, lo, hi):
        # linear between knots: the infimum is V at an end (constant inside the first
        # knot, 0 past the last) or a knot value (both sides of a step at equal radii)
        inside = self._values[(lo <= self._radii) & (self._radii <= hi)]
        return float(np.min(np.concatenate((self._evaluate(np.array([lo, hi])), inside))))

    def tail_terms(self):
        return ()

    def feature_radii(self):
        return tuple(r for r, _ in self.knots)

    def config(self):
        return {"kind": "tabulated", "knots": [list(k) for k in self.knots], "d": self.d}


def split(potential: PairPotential, a: float) -> float:
    """V(a), after checking that V(r) >= V(a) > 0 on (0, a].

    Raises ArithmeticError when V(a) is not finite (a cut so small that V
    overflows), NotBasuevAtCutError when the check fails.
    """
    if a <= 0:
        raise PotentialDomainError("cut radius must be positive")
    value_at_cut = potential(a)
    if not np.isfinite(value_at_cut):
        raise ArithmeticError(f"V(a) = {value_at_cut} is not finite at a = {a:g}")
    if not value_at_cut > 0:
        raise NotBasuevAtCutError(f"V(a) = {value_at_cut:.6g} is not positive at a = {a}")
    floor = potential.floor(0.0, a)
    if not floor >= value_at_cut:  # a NaN floor fails too
        raise NotBasuevAtCutError(
            f"inf V on (0, a] = {floor:.6g} < V(a) = {value_at_cut:.6g}; "
            f"the cut precondition fails at a = {a}"
        )
    return value_at_cut


@dataclass(frozen=True)
class LJTypeEnvelope:
    """Lennard-Jones-type envelope: repulsive floor inside r1, bounded well on
    [r1, r2], integrable attractive envelope beyond r2.

    The three inequalities are
        V(r) >= c_repulsion / r^(d + decay_surplus)   for r <= r1,
        V(r) >= -well_depth                           for r1 <= r <= r2,
        V(r) >= -c_attraction / r^(d + decay_surplus) for r >= r2.
    """

    c_repulsion: float
    c_attraction: float
    r1: float
    r2: float
    well_depth: float
    decay_surplus: float
    d: int = 3

    def __post_init__(self):
        # comparisons written so that NaN fails them
        if not all(0 < x < np.inf for x in (self.c_repulsion, self.r1, self.r2)):
            raise ValueError("repulsion coefficient and radii must be finite and positive")
        # c_attraction = well_depth = 0 describes a purely repulsive potential
        if not (0 <= self.c_attraction < np.inf and 0 <= self.well_depth < np.inf
                and 0 < self.decay_surplus < np.inf):
            raise ValueError(
                "need finite c_attraction >= 0, well_depth >= 0 and decay_surplus > 0"
            )
        if self.r1 > self.r2:
            raise ValueError("need r1 <= r2")
        object.__setattr__(self, "d", _dimension(self.d))

    def repulsive_floor(self, r):
        return self.c_repulsion * np.asarray(r, dtype=float) ** -(self.d + self.decay_surplus)

    def attractive_envelope(self, r):
        """eta(r): the monotone decreasing bound on the attractive tail."""
        return self.c_attraction * np.asarray(r, dtype=float) ** -(self.d + self.decay_surplus)

    def majorant_well(self) -> float:
        """w-bar = max(well_depth, eta(r2)), the flat inner level of eta-bar."""
        return max(self.well_depth, float(self.attractive_envelope(self.r2)))

    def eta_bar(self, r):
        """Monotone integrable majorant of V^-: w-bar inside r2, eta beyond."""
        arr = np.asarray(r, dtype=float)
        return np.where(arr <= self.r2, self.majorant_well(), self.attractive_envelope(arr))


def potential_from_config(config: Mapping) -> PairPotential:
    """Build a potential from its JSON configuration document."""
    if not isinstance(config, Mapping):
        raise ValueError(f"a potential config must be a JSON object, got {type(config).__name__}")
    kind = config.get("kind")
    d = config.get("d", 3)
    if kind in ("lennard-jones", "lj"):
        if _dimension(d) != 3:
            raise ValueError(f"the Lennard-Jones potential is three-dimensional, got d = {d!r}")
        return LennardJones()
    if kind == "inverse-power":
        return InversePower(coefficient=float(config["C"]), exponent=float(config["p"]), d=d)
    if kind == "hard-core":
        tail = potential_from_config(config["tail"])
        if "d" in config and _dimension(d) != tail.d:
            raise ValueError(f"hard-core d = {d!r} differs from its tail's d = {tail.d}")
        return HardCoreWrap(tail=tail, core_radius=float(config["a"]), height=float(config["H"]))
    if kind == "tabulated":
        knots = tuple((float(r), float(v)) for r, v in config["knots"])
        return TabulatedPotential(knots=knots, d=d)
    raise ValueError(f"unknown potential kind: {kind!r}")

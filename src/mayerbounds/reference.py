"""Published reference constants for the Lennard-Jones bound chains.

One table drives the `reproduce` command: every constant printed in the
published optimization of the Lennard-Jones convergence radius at beta = 1
(block 5.2: cut radius a = 0.3637; block 5.3: optimized cut a = 0.6397) is
recomputed here and compared against its printed value.

Three printed items are pre-registered discrepancies and are FLAGged rather
than asserted; the computed value is always reported next to the printed one
and never replaced by it:

* the displayed h(8.61) >= 8.69, while the displayed formula
  h(u) = 1.001 u / (e^{u/1000} - e^{-u}) evaluates to ~8.546;
* the improvement factor over the previous best bound, printed as 6.7e4,
  while composing the printed components 49825 * h / 64.13 gives ~6.7e3;
* the radius denominators 1425 (with an adjacent display reading 885) and
  7.4, both of which inherit the h(8.61) discrepancy.

The headline absolute factor 5e16 is reported as INFO only (the recomposed
chain gives ~5e15).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import bound_pieces, h_factor
from .potentials import LennardJones
from .stability import PREVIOUS_LJ_B_UPPER, find_max_a, lj_stability_registry

__all__ = ["ReferenceRow", "REFERENCE_ROWS", "reproduction_rows", "SECTIONS"]

SECTIONS = ("5.2", "5.3")

PUBLISHED_CUT_52 = 0.3637
PUBLISHED_CUT_53 = 0.6397


@dataclass(frozen=True)
class ReferenceRow:
    section: str
    name: str
    published: float
    rel_tol: float
    policy: str  # "assert" | "flag" | "info"
    description: str
    note: str = ""


_H_NOTE = (
    "pre-registered discrepancy: the displayed formula for h gives "
    "h(8.61) ~ 8.546, not the printed 8.69"
)

REFERENCE_ROWS: tuple[ReferenceRow, ...] = (
    ReferenceRow(
        "5.2", "va_inner_mass", 37444.0, 5e-3, "assert",
        "beta V(a) W_a(3): mass of the capped part inside the cut",
    ),
    ReferenceRow(
        "5.2", "outer_abs_integral", 12381.0, 5e-3, "assert",
        "4*pi int_a^inf |r^-10 - 2 r^-4| dr: absolute tail integral",
    ),
    ReferenceRow(
        "5.2", "mps_lower_bound", 49825.0, 5e-3, "assert",
        "sum of the two components bounding the split-potential integral below",
    ),
    ReferenceRow(
        "5.2", "chat_inner_piece", 0.823, 5e-2, "assert",
        "inner piece of C^(1, 0) at a = 0.3637",
    ),
    ReferenceRow(
        "5.2", "chat_outer_piece", 12381.1, 5e-3, "assert",
        "outer piece of C^(1, 0) at a = 0.3637",
    ),
    ReferenceRow(
        "5.2", "chat_total", 12382.0, 5e-3, "assert",
        "C^(1, 0) at a = 0.3637",
    ),
    ReferenceRow(
        "5.2", "h_at_8_61", 8.69, 5e-3, "flag",
        "h evaluated at the certified lower stability bound 8.61",
        note=_H_NOTE,
    ),
    ReferenceRow(
        "5.2", "radius_denominator", 1425.0, 5e-3, "flag",
        "C^(1,0)/h(8.61): denominator of the radius bound e^-(B+1)/x",
        note=(
            "pre-registered discrepancy: inherits the h(8.61) value; the "
            "published chain also shows an inconsistent adjacent display of 885 "
            "where the surrounding arithmetic uses 1425"
        ),
    ),
    ReferenceRow(
        "5.3", "optimal_cut_radius", PUBLISHED_CUT_53, 3.2e-4, "assert",
        "largest certified cut radius with the 24.05/a^3 bound on [0.6, 0.7]",
    ),
    ReferenceRow(
        "5.3", "chat_inner_piece", 2.5, 5e-2, "assert",
        "inner piece of C^(1, 0) at a = 0.6397",
    ),
    ReferenceRow(
        "5.3", "chat_outer_piece", 61.63, 5e-3, "assert",
        "outer piece of C^(1, 0) at a = 0.6397",
    ),
    ReferenceRow(
        "5.3", "chat_total", 64.13, 5e-3, "assert",
        "C^(1, 0) at a = 0.6397",
    ),
    ReferenceRow(
        "5.3", "radius_denominator", 7.4, 5e-3, "flag",
        "C^(1,0)/h(8.61) at the optimized cut",
        note=_H_NOTE,
    ),
    ReferenceRow(
        "5.3", "improvement_factor", 6.7e4, 5e-2, "flag",
        "ratio of the optimized radius bound to the previous best bound",
        note=(
            "pre-registered discrepancy: composing the published components "
            "49825 * h / 64.13 gives ~6.7e3, an order of magnitude below the "
            "printed 6.7e4; the component-derived value is reported"
        ),
    ),
    ReferenceRow(
        "5.3", "absolute_improvement_factor", 5e16, 5e-2, "info",
        "improvement factor times e^(41.66 - 14.316), the gain from the "
        "tightened stability constant",
        note=(
            "not asserted: the recomposed chain gives ~5e15; reported for "
            "comparison only"
        ),
    ),
)


def reproduction_values() -> dict[tuple[str, str], float]:
    """Recompute every reference constant from the package's own machinery."""
    lj = LennardJones()
    beta = 1.0
    registry = lj_stability_registry()
    h_low = h_factor(registry.b_lower)
    # C^(1, 0) is C*(1): at B-bar = 0 the damped inner piece is the plain one
    cut_52 = bound_pieces(lj, PUBLISHED_CUT_52, beta, 0.0)
    cut_53 = bound_pieces(lj, PUBLISHED_CUT_53, beta, 0.0)
    outer_52 = cut_52.pieces["outer_abs"]
    va_mass_52 = cut_52.pieces["mps_va_mass"]

    values: dict[tuple[str, str], float] = {}
    values["5.2", "va_inner_mass"] = va_mass_52
    values["5.2", "outer_abs_integral"] = outer_52
    values["5.2", "mps_lower_bound"] = va_mass_52 + outer_52
    values["5.2", "chat_inner_piece"] = cut_52.pieces["c_star_inner"]
    values["5.2", "chat_outer_piece"] = outer_52
    values["5.2", "chat_total"] = cut_52.c_star
    values["5.2", "h_at_8_61"] = h_low
    values["5.2", "radius_denominator"] = cut_52.c_star / h_low

    values["5.3", "optimal_cut_radius"] = find_max_a(
        lj, "yuhjtman", (0.6, 0.7), tol=1e-6
    )
    values["5.3", "chat_inner_piece"] = cut_53.pieces["c_star_inner"]
    values["5.3", "chat_outer_piece"] = cut_53.pieces["outer_abs"]
    values["5.3", "chat_total"] = cut_53.c_star
    values["5.3", "radius_denominator"] = cut_53.c_star / h_low
    improvement = (va_mass_52 + outer_52) * h_low / cut_53.c_star
    values["5.3", "improvement_factor"] = improvement
    values["5.3", "absolute_improvement_factor"] = improvement * math.exp(
        PREVIOUS_LJ_B_UPPER - registry.b_upper
    )
    return values


def reproduction_rows(section: str = "all") -> list[dict]:
    """Rows for the reproduce command: computed vs published with a status.

    Status is PASS/FAIL for asserted rows (relative difference against the
    row tolerance), FLAG for pre-registered discrepancies, INFO for values
    reported without assertion.
    """
    if section != "all" and section not in SECTIONS:
        raise ValueError(f"unknown section {section!r}; choose from {SECTIONS} or 'all'")
    values = reproduction_values()
    rows = []
    for row in REFERENCE_ROWS:
        if section != "all" and row.section != section:
            continue
        computed = values[row.section, row.name]
        rel_diff = abs(computed - row.published) / abs(row.published)
        if row.policy == "assert":
            status = "PASS" if rel_diff <= row.rel_tol else "FAIL"
        elif row.policy == "flag":
            status = "FLAG"
        else:
            status = "INFO"
        rows.append(
            {
                "section": row.section,
                "name": row.name,
                "computed": computed,
                "published": row.published,
                "rel_diff": rel_diff,
                "status": status,
                "description": row.description,
                "note": row.note,
            }
        )
    return rows

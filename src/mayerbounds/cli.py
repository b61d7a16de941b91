"""Command-line front end.

Subcommands:

* identity   — evaluate the Ursell coefficient of a seeded random matrix by
               every applicable route and check pairwise agreement;
* criterion  — find the largest certified cut radius for a potential and a
               mu-bound method;
* bounds     — compute the full convergence-radius bound report at one
               (potential, beta, a);
* reproduce  — recompute the published Lennard-Jones reference constants and
               emit a computed-vs-published table.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 numeric failure.
Output in json/csv mode is byte-identical across runs for fixed arguments.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

from .combinatorics import MAX_GRAPH_N
from .bounds import compare_report
from .potentials import NotBasuevAtCutError, PotentialDomainError, potential_from_config
from .quadrature import (
    QuadratureConvergenceError,
    QuadratureSpec,
    TemperednessError,
)
from .reference import SECTIONS, reproduction_rows
from .stability import (
    MethodDomainError,
    MethodMismatchError,
    NoValidCutError,
    StabilityData,
    find_max_a,
    lj_stability_registry,
    mu_bound_function,
)
from .ursell import identity_check, random_interaction_matrix

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

TABLE_FLOAT = "{:.6g}"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _json_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class _UsageError(Exception):
    """A rule that spans more than one argument; main reports it as parser.error."""


def _load_potential(name_or_path: str):
    path = Path(name_or_path)
    try:
        if name_or_path in ("lennard-jones", "lj"):
            return potential_from_config({"kind": name_or_path})
        if name_or_path.endswith(".json") or path.exists():
            return potential_from_config(json.loads(path.read_text()))
    except (KeyError, OSError, TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"cannot load potential {name_or_path!r}: {exc!r}")
    raise argparse.ArgumentTypeError(
        f"unknown potential {name_or_path!r}: use 'lennard-jones' or a config file path"
    )


def _parse_interval(text: str) -> tuple[float, float]:
    try:
        lo_text, hi_text = text.split(":")
        lo, hi = float(lo_text), float(hi_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"interval must be 'lo:hi', got {text!r}")
    if not 0 < lo < hi < math.inf:
        raise argparse.ArgumentTypeError(f"interval needs finite 0 < lo < hi, got {text!r}")
    return lo, hi


def _number(kind=float, lo=0, *, strict=False, hi=math.inf):
    """argparse type: a finite `kind` value in [lo, hi], or in (lo, hi] if strict."""
    domain = f"{'(' if strict else '['}{lo}, {hi}{']' if hi < math.inf else ')'}"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}")
        # NaN fails both comparisons
        if not (lo < value <= hi if strict else lo <= value <= hi) or math.isinf(value):
            raise argparse.ArgumentTypeError(f"must be in {domain}, got {value!r}")
        return value

    return parse


# ---------------------------------------------------------------------------
# identity
# ---------------------------------------------------------------------------

def cmd_identity(args) -> int:
    routes, diffs = identity_check(random_interaction_matrix(args.n, args.seed), args.beta)
    worst_key = max(diffs, key=diffs.get)  # the first maximum, in pair order
    worst_pair, worst = worst_key.split("_vs_"), diffs[worst_key]
    agree = worst <= args.tol

    payload = {
        "n": args.n,
        "beta": args.beta,
        "seed": args.seed,
        "tol": args.tol,
        "routes": routes,
        "pairwise_rel_diff": diffs,
        "worst_pair": worst_pair,
        "worst_rel_diff": worst,
        "agree": agree,
    }
    if args.format == "json":
        _emit(_json_dumps(payload), args.out)
    else:
        lines = [f"Ursell identity check: n={args.n} beta={args.beta:g} seed={args.seed}"]
        for name in sorted(routes):
            lines.append(f"  {name:<16} = {routes[name]!r}")
        for pair, d in sorted(diffs.items()):
            lines.append(f"  {pair:<34} rel diff {TABLE_FLOAT.format(d)}")
        verdict = "AGREE" if agree else "DISAGREE"
        lines.append(
            f"{verdict} (worst pair {worst_pair[0]} vs {worst_pair[1]}: "
            f"{TABLE_FLOAT.format(worst)}, tol {args.tol:g})"
        )
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if agree else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# criterion
# ---------------------------------------------------------------------------

def cmd_criterion(args) -> int:
    if args.method == "user" and args.mu_value is None:
        raise _UsageError("--method user needs --mu-value")
    potential = args.potential
    lo, hi = args.interval
    bound_at = mu_bound_function(args.method, potential, mu_value=args.mu_value)
    try:
        best = find_max_a(
            potential, args.method, (lo, hi), tol=args.tol, mu_value=args.mu_value
        )
    except NoValidCutError as exc:
        mu_lo = bound_at(lo)
        message = (
            f"no certified cut radius: {exc}\n"
            f"  at a = {lo:g}: V(a) = {potential(lo):.6g}, "
            f"2*mu_bound = {2 * mu_lo.value:.6g} ({mu_lo.method})\n"
        )
        _emit(message, args.out)
        return EXIT_CHECK_FAILED
    mu = bound_at(best)
    payload = {
        "potential": potential.config(),
        "method": args.method,
        "interval": [lo, hi],
        "tol": args.tol,
        "max_certified_a": best,
        "mu_bound": mu.value,
        "mu_method": mu.method,
        "v_at_a": potential(best),
        "certified": True,
    }
    if args.format == "json":
        _emit(_json_dumps(payload), args.out)
    else:
        _emit(
            (
                f"largest certified cut radius a = {best:.6f} "
                f"(interval [{lo:g}, {hi:g}], tol {args.tol:g})\n"
                f"  mu bound ({mu.method}) = {mu.value:.6g}\n"
                f"  V(a) = {potential(best):.6g} > 2*mu = {2 * mu.value:.6g}: certified\n"
            ),
            args.out,
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _stability_from_args(args) -> StabilityData:
    registry = lj_stability_registry()
    is_lj = args.potential.kind == "lennard-jones"
    if args.b_upper is None and not is_lj:
        raise _UsageError("--b-upper is required for potentials other than lennard-jones")
    b_upper = registry.b_upper if args.b_upper is None else args.b_upper
    factor = args.bbar_factor
    if factor is None:
        factor = registry.bbar_factor if is_lj else 1.0
    # the report reads only b_upper and the B-bar factor; 0 is a valid lower bound
    return StabilityData(b_lower=0.0, b_upper=b_upper, bbar_factor=factor, sources={})


def cmd_bounds(args) -> int:
    stability = _stability_from_args(args)
    spec = QuadratureSpec(rel_tol=args.rel_tol) if args.rel_tol is not None else None
    try:
        report = compare_report(args.potential, args.beta, args.a, stability, spec)
    except NotBasuevAtCutError as exc:
        _emit(
            f"bound computation rejected: the cut precondition "
            f"V(r) >= V(a) > 0 on (0, a] failed: {exc}\n",
            args.out,
        )
        return EXIT_CHECK_FAILED
    if args.format == "json":
        _emit(report.to_json() + "\n", args.out)
    elif args.format == "csv":
        _emit(report.csv_text(), args.out)
    else:
        _emit(report.table_text(), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def cmd_reproduce(args) -> int:
    rows = reproduction_rows(args.section)
    if args.format == "json":
        _emit(_json_dumps(rows), args.out)
    elif args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["section", "name", "computed", "published", "rel_diff", "status"])
        for row in rows:
            writer.writerow(
                [row["section"], row["name"], repr(row["computed"]),
                 repr(row["published"]), repr(row["rel_diff"]), row["status"]]
            )
        _emit(out.getvalue(), args.out)
    else:
        lines = [
            f"{'section':<8} {'name':<28} {'computed':>14} {'published':>12} "
            f"{'rel_diff':>10} {'status':<6}"
        ]
        for row in rows:
            lines.append(
                f"{row['section']:<8} {row['name']:<28} "
                f"{TABLE_FLOAT.format(row['computed']):>14} "
                f"{TABLE_FLOAT.format(row['published']):>12} "
                f"{TABLE_FLOAT.format(row['rel_diff']):>10} {row['status']:<6}"
            )
        for row in rows:
            if row["note"]:
                lines.append(f"[{row['section']} {row['name']}] {row['note']}")
        _emit("\n".join(lines) + "\n", args.out)
    failed = [row for row in rows if row["status"] == "FAIL"]
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mayerbounds",
        description="Tree-graph identity checks and Mayer-series convergence-radius bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run, formats=("table", "json", "csv")):
        p.set_defaults(run=run)
        p.add_argument("--format", choices=formats, default="table")
        p.add_argument("--out", default=None, help="write output to this path")

    p_id = sub.add_parser("identity", help="multi-route Ursell coefficient check")
    p_id.add_argument("--n", type=_number(int, 2, hi=MAX_GRAPH_N), required=True)
    p_id.add_argument("--beta", type=_number(), default=1.0)
    p_id.add_argument("--seed", type=_number(int), default=0)
    p_id.add_argument("--tol", type=_number(), default=1e-5)
    add_common(p_id, cmd_identity, formats=("table", "json"))

    p_cr = sub.add_parser("criterion", help="largest certified cut radius")
    p_cr.add_argument("--potential", type=_load_potential, default="lennard-jones")
    p_cr.add_argument("--method", choices=("cube", "yuhjtman", "user"), default="yuhjtman")
    p_cr.add_argument("--interval", type=_parse_interval, default=(0.6, 0.7))
    p_cr.add_argument("--tol", type=_number(), default=1e-6)
    p_cr.add_argument("--mu-value", type=_number(), default=None,
                      help="constant certified mu bound (method=user)")
    add_common(p_cr, cmd_criterion, formats=("table", "json"))

    p_bd = sub.add_parser("bounds", help="convergence-radius bound report")
    p_bd.add_argument("--potential", type=_load_potential, default="lennard-jones")
    p_bd.add_argument("--beta", type=_number(strict=True), default=1.0)
    p_bd.add_argument("--a", type=float, required=True)
    p_bd.add_argument("--b-upper", type=_number(), default=None)
    p_bd.add_argument("--bbar-factor", type=_number(lo=1), default=None)
    p_bd.add_argument("--rel-tol", type=_number(strict=True), default=None)
    add_common(p_bd, cmd_bounds)

    p_rp = sub.add_parser("reproduce", help="recompute the published reference constants")
    p_rp.add_argument("--section", choices=(*SECTIONS, "all"), default="all")
    add_common(p_rp, cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except _UsageError as exc:
        parser.error(str(exc))
    except (MethodDomainError, MethodMismatchError, PotentialDomainError) as exc:
        parser.exit(EXIT_USAGE, f"usage error: {exc}\n")
    except (QuadratureConvergenceError, TemperednessError, ArithmeticError) as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())

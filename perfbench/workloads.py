"""Benchmark workloads: seeded inputs, one operation per call, and its check.

Every workload turns the benchmark seed into a schedule: a list of rounds,
each a list of operations.  The worker runs the rounds in order, cycling
when it reaches the end, and stops only between rounds, so every measured
run holds whole rounds and the same mix of operations.
The package receives only the generated inputs (matrices, potentials, radii),
never the seed.  Each operation calls the package through module attributes
looked up at call time, so timing shims installed on those attributes see
every call.

Each workload marks the ops it is named for as its key ops (`KEY_OPS`); the
benchmark reports their mean latency on its own, beside the percentiles
over all ops.

Each operation returns an `Outcome`: a digest of its result (used to check
that traced and untraced runs compute identical values), a failure reason or
None, and for the Ursell routes the worst relative difference it checked.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable

import numpy as np

import mayerbounds.bounds
import mayerbounds.potentials
import mayerbounds.quadrature
import mayerbounds.reference
import mayerbounds.stability
import mayerbounds.ursell

ursell = mayerbounds.ursell
bounds = mayerbounds.bounds
potentials = mayerbounds.potentials
quadrature = mayerbounds.quadrature
reference = mayerbounds.reference
stability = mayerbounds.stability

WORKLOADS = ("identity", "exact-large", "bounds-scan")
KEY_OPS = {
    "identity": "n = 5 checks",
    "exact-large": "n = 11 partition sums",
    "bounds-scan": "Lennard-Jones reports",
}

# identity: the four-route check the `identity` subcommand runs.  The mix
# follows the repository's own identity sweep (scripts/identity_sweep.py and
# acceptance criterion 1): every n and every beta equally often.  A round is
# one check at each n in {3, 4, 5} at one beta, each on its own seeded
# matrix; the rounds cycle through the betas.  So a run holds every n
# equally often and every beta within one round of equally often.  The
# n = 5 checks (2-7 s each, where users wait) take almost all of the time
# and are the key ops.
#
# A check costs more the larger the sum of its matrix entries (correlation
# 0.8 for the n = 5 tree route at beta 2.7), and a run holds only about 13
# n = 5 checks.  So the matrices of each (n, beta) are a stratified sample:
# the k-th is a random matrix whose entry sum falls in the 1/8 of its
# distribution at quantile (van der Corput(k) + offset) mod 1, with a seeded
# offset.  Any first few matrices of a slot then spread evenly over the
# distribution, and a run's mean does not swing with how many costly
# matrices its seed happens to draw.
IDENTITY_NS = (3, 4, 5)
IDENTITY_BETAS = (0.3, 1.0, 2.7)
IDENTITY_TOL = 1e-5  # the CLI default
IDENTITY_ROUNDS = 24
IDENTITY_STRATA = 8
IDENTITY_KEY_N = 5

# exact-large: exact routes only.  Every partition-only input is followed by
# its relabeled copy.  Per round: 5 ops at n = 6, 2 at n = 7, 4 at n = 8,
# 4 at n = 9, 10 at n = 10 and 2 at n = 11.  The n = 11 partition sums, the
# largest exact evaluation, are the key ops.
EXACT_ROUND = ((6, "graph"),) * 5 + ((7, "graph"), (7, "graph"),
               (8, "pair"), (8, "pair"), (9, "pair"), (9, "pair"),
               (10, "pair"), (10, "pair"), (10, "pair"), (10, "pair"), (10, "pair"),
               (11, "pair"))
EXACT_TOL = 1e-10
EXACT_ROUNDS = 8
EXACT_KEY_N = 11

# bounds-scan: Lennard-Jones reports are the main body and the key ops.  Per
# round, in seeded order: 27 LJ reports on a jittered grid of 9 cut radii x
# 3 betas, 3 inverse-power reports, one report for a tabulated LJ potential
# of 150-250 jittered knots, 4 yuhjtman cut searches, one cube-packing
# search and one `reproduce`.  Every round has fresh inputs; a fast run
# gets through all of them and starts over.
LJ_A_RANGE = (0.30, 0.70)
LJ_A_POINTS = 9
LJ_BETAS = (0.5, 1.0, 2.0)
POWER_REPORTS = 3
TABULATED_REPORTS = 1
TAB_KNOTS = (150, 250)
TAB_R_RANGE = (0.5, 3.0)
YUHJTMAN_SEARCHES = 4
BOUNDS_ROUNDS = 64
SPEC = quadrature.QuadratureSpec()
STATUS_FOR_POLICY = {"assert": "PASS", "flag": "FLAG", "info": "INFO"}


@dataclass(frozen=True)
class Outcome:
    digest: str
    failure: str | None = None
    rel_diff: float | None = None


def digest(payload) -> str:
    text = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def rel_diff(x: float, y: float) -> float:
    """Relative difference with the identity subcommand's 1e-12 scale floor."""
    scale = max(abs(x), abs(y))
    if scale < 1e-12:
        return 0.0
    return abs(x - y) / scale


Op = Callable[[], Outcome]


def key(op: Op) -> Op:
    """Mark `op` as one of its workload's key ops (the worker reads `op.key`)."""
    op.key = True
    return op


def build(workload: str, seed: int) -> list[list[Op]]:
    """The workload's schedule for this seed; the same seed gives the same ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    schedule = {
        "identity": _identity_schedule,
        "exact-large": _exact_schedule,
        "bounds-scan": _bounds_schedule,
    }[workload]
    return schedule(rng)


def _matrix_seed(rng) -> int:
    return int(rng.integers(2**31))


# ---------------------------------------------------------------------------
# identity
# ---------------------------------------------------------------------------

def _identity_schedule(rng) -> list[list[Op]]:
    rounds = []
    offsets = {(n, beta): float(rng.uniform()) for beta in IDENTITY_BETAS for n in IDENTITY_NS}
    for round_number in range(IDENTITY_ROUNDS):
        k, slot = divmod(round_number, len(IDENTITY_BETAS))
        beta = IDENTITY_BETAS[slot]
        ops = []
        for n in IDENTITY_NS:
            target = (van_der_corput(k) + offsets[n, beta]) % 1.0
            op = partial(identity_op, n, _stratified_matrix_seed(rng, n, target), beta)
            ops.append(key(op) if n == IDENTITY_KEY_N else op)
        rounds.append(ops)
    return rounds


def van_der_corput(k: int) -> float:
    """k-th point of the base-2 van der Corput sequence: 0, 1/2, 1/4, 3/4, ..."""
    q, denom = 0.0, 1.0
    while k:
        denom *= 2.0
        k, bit = divmod(k, 2)
        q += bit / denom
    return q


def entry_sum_quantile(matrix) -> float:
    """Quantile of the matrix's entry sum among random_interaction_matrix
    draws (entries uniform in [-1, 2]), by the normal approximation."""
    pairs = matrix.n * (matrix.n - 1) // 2
    total = float(matrix.values[np.triu_indices(matrix.n, 1)].sum())
    z = (total - 0.5 * pairs) / math.sqrt(0.75 * pairs)
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _stratified_matrix_seed(rng, n: int, target: float) -> int:
    """A seeded random matrix seed whose entry sum lies in the stratum of `target`."""
    lo = math.floor(target * IDENTITY_STRATA) / IDENTITY_STRATA
    while True:
        matrix_seed = _matrix_seed(rng)
        q = entry_sum_quantile(ursell.random_interaction_matrix(n, matrix_seed))
        if lo <= q < lo + 1.0 / IDENTITY_STRATA:
            return matrix_seed


def identity_op(n: int, matrix_seed: int, beta: float) -> Outcome:
    """One identity check as the CLI runs it: build the seeded matrix, evaluate
    all four routes, take their worst pairwise relative difference."""
    matrix = ursell.random_interaction_matrix(n, matrix_seed)
    routes = (
        ursell.ursell_graph_sum(matrix, beta),
        ursell.ursell_partition_sum(matrix, beta),
        ursell.ursell_tree_integral(matrix, beta),
        ursell.merge_sequence_expansion(matrix, beta),
    )
    worst = max(rel_diff(x, y) for x, y in combinations(routes, 2))
    failure = None
    if not worst <= IDENTITY_TOL:
        failure = f"routes disagree at n={matrix.n} beta={beta}: {worst:.3e} > {IDENTITY_TOL}"
    return Outcome(digest([repr(v) for v in routes]), failure, worst)


# ---------------------------------------------------------------------------
# exact-large
# ---------------------------------------------------------------------------

def _exact_schedule(rng) -> list[list[Op]]:
    rounds = []
    for _ in range(EXACT_ROUNDS):
        ops = []
        rounds.append(ops)
        for n, kind in EXACT_ROUND:
            matrix = ursell.random_interaction_matrix(n, _matrix_seed(rng))
            if kind == "graph":
                ops.append(partial(exact_pair_routes_op, matrix))
                continue
            perm = rng.permutation(n)
            relabeled = ursell.InteractionMatrix(n, matrix.values[np.ix_(perm, perm)])
            seen: dict[str, float] = {}
            pair = [partial(partition_op, matrix, "original", seen),
                    partial(partition_op, relabeled, "relabeled", seen)]
            ops.extend(map(key, pair) if n == EXACT_KEY_N else pair)
    return rounds


def exact_pair_routes_op(matrix) -> Outcome:
    """Graph sum against partition sum (n <= 7) at beta = 1."""
    graph = ursell.ursell_graph_sum(matrix, 1.0)
    part = ursell.ursell_partition_sum(matrix, 1.0)
    diff = rel_diff(graph, part)
    failure = None
    if not diff <= EXACT_TOL:
        failure = f"graph vs partition at n={matrix.n}: {diff:.3e} > {EXACT_TOL}"
    return Outcome(digest([repr(graph), repr(part)]), failure, diff)


def partition_op(matrix, label: str, seen: dict[str, float]) -> Outcome:
    """Partition sum alone; a relabeled copy of the input must give the same value.

    `seen` is shared by an input and its relabeled copy; the check runs on
    whichever of the two is evaluated second.
    """
    value = ursell.ursell_partition_sum(matrix, 1.0)
    seen[label] = value
    failure = None
    diff = None
    if len(seen) == 2:
        diff = rel_diff(seen["original"], seen["relabeled"])
        if not diff <= EXACT_TOL:
            failure = f"partition sum changed under relabeling at n={matrix.n}: {diff:.3e}"
    return Outcome(digest(repr(value)), failure, diff)


# ---------------------------------------------------------------------------
# bounds-scan
# ---------------------------------------------------------------------------

def lennard_jones_values(r: np.ndarray) -> np.ndarray:
    return r**-12 - 2.0 * r**-6


def tabulated_lj_knots(rng) -> tuple[tuple[float, float], ...]:
    count = int(rng.integers(TAB_KNOTS[0], TAB_KNOTS[1] + 1))
    lo, hi = TAB_R_RANGE
    step = (hi - lo) / (count - 1)
    radii = np.linspace(lo, hi, count)
    radii[1:-1] += rng.uniform(-0.3 * step, 0.3 * step, count - 2)
    return tuple(zip(radii.tolist(), lennard_jones_values(radii).tolist()))


def _bounds_schedule(rng) -> list[list[Op]]:
    lj = potentials.LennardJones()
    lj_stability = stability.lj_stability_registry()
    repulsive = stability.StabilityData(b_lower=0.0, b_upper=0.0, bbar_factor=1.0, sources={})
    a_lo, a_hi = LJ_A_RANGE
    rounds = []
    for _ in range(BOUNDS_ROUNDS):
        # one radius per stratum of [a_lo, a_hi]: a jittered grid
        grid = a_lo + (np.arange(LJ_A_POINTS) + rng.uniform(0.1, 0.9, LJ_A_POINTS)) * (
            (a_hi - a_lo) / LJ_A_POINTS
        )
        ops = [key(partial(report_op, lj, beta, float(a), lj_stability))
               for a in grid for beta in LJ_BETAS]
        for _ in range(POWER_REPORTS):
            power = potentials.InversePower(float(rng.uniform(0.5, 2.0)), 12.0)
            ops.append(partial(report_op, power, 1.0, float(rng.uniform(a_lo, a_hi)), repulsive))
        for _ in range(TABULATED_REPORTS):
            tabulated = potentials.TabulatedPotential(tabulated_lj_knots(rng))
            a = float(rng.uniform(0.6, 0.85))
            ops.append(partial(report_op, tabulated, 1.0, a, lj_stability))
        for _ in range(YUHJTMAN_SEARCHES):
            interval = (float(rng.uniform(0.60, 0.62)), float(rng.uniform(0.68, 0.70)))
            ops.append(partial(max_cut_op, lj, "yuhjtman", interval))
        interval = (float(rng.uniform(0.10, 0.20)), float(rng.uniform(0.70, 0.79)))
        ops.append(partial(max_cut_op, lj, "cube", interval))
        ops.append(reproduce_op)
        rounds.append([ops[i] for i in rng.permutation(len(ops))])
    return rounds


def report_op(potential, beta: float, a: float, stability_data) -> Outcome:
    """compare_report; every error estimate must meet the requested tolerance."""
    report = bounds.compare_report(potential, beta, a, stability_data, SPEC)
    values = dict(report.pieces, c_pr=report.c_pr)
    checked = 0
    failure = None
    for name, err in report.error_estimates.items():
        if name not in values:
            continue
        checked += 1
        allowed = max(SPEC.abs_tol, SPEC.rel_tol * abs(values[name]))
        if not err <= allowed:
            failure = f"{potential.kind} a={a:.4f} beta={beta}: {name} error {err:.3e} > {allowed:.3e}"
            break
    if failure is None and checked == 0:
        failure = "report has no error estimate that matches a reported value"
    return Outcome(digest(report.to_json()), failure)


def _optimal_cut_row():
    for row in reference.REFERENCE_ROWS:
        if row.name == "optimal_cut_radius":
            return row
    raise LookupError("reference registry has no optimal_cut_radius row")


def max_cut_op(potential, method: str, interval: tuple[float, float]) -> Outcome:
    """find_max_a; the 24.05/a^3 optimum must match the published cut."""
    best = stability.find_max_a(potential, method, interval, tol=1e-6)
    failure = None
    if not interval[0] <= best <= interval[1]:
        failure = f"{method} cut {best} outside {interval}"
    elif method == "yuhjtman":
        row = _optimal_cut_row()
        diff = abs(best - row.published) / row.published
        if not diff <= row.rel_tol:
            failure = f"yuhjtman cut {best} differs from {row.published} by {diff:.3e}"
    return Outcome(digest(repr(best)), failure)


def reproduce_op() -> Outcome:
    """reproduction_rows('all'); every status must equal its registry policy."""
    rows = reference.reproduction_rows("all")
    expected = {
        (row.section, row.name): STATUS_FOR_POLICY[row.policy] for row in reference.REFERENCE_ROWS
    }
    got = {(row["section"], row["name"]): row["status"] for row in rows}
    failure = None
    if got != expected:
        wrong = sorted(k for k in expected.keys() | got.keys() if got.get(k) != expected.get(k))
        failure = f"reproduce statuses differ from registry policy at {wrong}"
    cleaned = [{k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()} for row in rows]
    return Outcome(digest(cleaned), failure)


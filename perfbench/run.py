"""Benchmark for mayerbounds: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload identity --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 42 --trace 0

Workloads: identity, exact-large, bounds-scan (see perfbench/README.md).
`--trace 0` measures the end-to-end metrics of BENCHMARK.json with nothing
installed in the package.  `--trace 1` runs the workload twice for half the
time each, untraced and then with timing shims, and prints the per-layer
metrics, the tracing overhead and whether both runs computed identical
results.  Every measurement runs in a fresh worker process with BLAS/OpenMP
pinned to one thread.  Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.
Exit code 0 when a result was printed, 1 when a worker failed, 2 when the
package or BENCHMARK.json is missing or BENCHMARK.json has an invalid name.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"
WORKLOADS = ("identity", "exact-large", "bounds-scan")
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
PROBE_EVERY_S = 9.0  # a set-up-only process between rounds this often
TAIL_BEYOND = 10
RUN_LIMIT_S = 170.0
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class BenchError(RuntimeError):
    """A worker failed or produced output the benchmark cannot use."""


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_rank(n: int) -> int:
    """1-based rank of the tail sample among n sorted latencies.

    The tail is the highest percentile with at least TAIL_BEYOND samples
    beyond it: the sample with exactly TAIL_BEYOND above it, the
    100 * (n - TAIL_BEYOND) / n-th percentile by nearest rank.  Below
    2 * TAIL_BEYOND samples that would fall under the median, and the
    median rank is used, so the tail never rests on fewer samples than the
    median does.
    """
    return max(n - TAIL_BEYOND, math.ceil(n / 2))


def failed_frac(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 1.0


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------

def spawn(workload: str, seed: int, seconds: float, deadline: float, *flags: str):
    """Run one worker process to completion; return (spawn time, its result)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds), *flags,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_VARS)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run time limit reached before the next worker could start")
    t_spawn = time.monotonic()
    # its own process group, so that a timeout also ends the set-up-only
    # processes the worker starts
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker exceeded the run time limit: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {stderr.strip()[-3000:]}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return t_spawn, json.loads(lines[-1])


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    """Untraced run.  Every time is in reference seconds (hostspeed.py).
    Set-up is timed for the measured worker and for fresh set-up-only
    processes it starts between rounds, spread over the run."""
    t_spawn, run = spawn(workload, seed, seconds, deadline, "--probe-every", repr(PROBE_EVERY_S))
    own_setup = run["t_first_op"] - t_spawn
    # the worker's own set-up is scaled by the factor of its first op
    setups = [own_setup * run["speed_factors"][0]] + [ref for _, ref in run["probes"]]
    wall_setups = [own_setup] + [wall for wall, _ in run["probes"]]

    latencies = sorted(run["ref_latencies_s"])
    n = len(latencies)
    key_latencies = run["key_ref_latencies_s"]
    if not key_latencies:
        raise BenchError(f"no key op ({run['key_ops']}) completed in the run")
    tail = tail_rank(n)
    busy_s = math.fsum(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / busy_s,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": latencies[tail - 1] * 1e3,
        "key_op_ms": statistics.fmean(key_latencies) * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    wall = sorted(run["latencies_s"])
    speed = statistics.median(run["speed_factors"])
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; wall {statistics.median(wall_setups):.4g} s",
        "ops_per_s": f"{n} ops in {len(run['round_s'])} rounds, {busy_s:.2f} ref s busy; "
        f"wall {n / run['elapsed_s']:.4g} 1/s over {run['elapsed_s']:.2f} s",
        "op_p50_ms": f"{n} samples; wall {statistics.median(wall) * 1e3:.4g} ms",
        "op_tail_ms": f"p{100 * tail / n:.4g}: rank {tail} of {n} samples, {n - tail} beyond; "
        f"wall {wall[tail - 1] * 1e3:.4g} ms",
        "key_op_ms": f"mean of {len(key_latencies)} {run['key_ops']}; "
        f"wall {statistics.fmean(run['key_latencies_s']) * 1e3:.4g} ms",
        "peak_rss_mb": f"worker process; host speed factor: median {speed:.4g} over ops, "
        f"{len(run['kernel_s'])} kernel runs",
    }
    return run, metrics, notes, True


def traced(workload: str, seed: int, seconds: float, deadline: float):
    """Untraced then traced worker, half the time each: per-layer metrics,
    tracing overhead, and a check that both computed identical results."""
    half = seconds / 2.0
    _, base = spawn(workload, seed, half, deadline)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    _, run = spawn(workload, seed, half, deadline, "--trace", "--spans", str(spans))

    common = min(len(base["digests"]), len(run["digests"]))
    identical = base["digests"][:common] == run["digests"][:common]
    metrics = dict(run["layers"])
    metrics["setup.import_s"] = run["import_s"]
    metrics["setup.inputs_s"] = run["inputs_s"]
    metrics["ursell.route_rel_diff_max"] = run["route_rel_diff_max"]
    added = run["shim_overhead_s"]
    metrics["trace.overhead_frac"] = added / (run["elapsed_s"] - added)
    rates = [r["attempted"] / r["elapsed_s"] for r in (base, run)]
    notes = {
        "trace.overhead_frac": f"{added:.4g} s of shim work estimated in {run['elapsed_s']:.2f} s; "
        f"ops/s {rates[0]:.4g} untraced vs {rates[1]:.4g} traced, mostly host drift",
    }
    tree_s = metrics["ursell.tree_integral.time_s"]
    if tree_s > 0:
        share = 1.0 - metrics["ursell.tree_integral.self_s"] / tree_s
        notes["ursell.tree_integral.self_s"] = f"simplex calls are {share:.1%} of the route"
    report_calls = metrics["bounds.compare_report.calls"]
    if report_calls:
        notes["bounds.compare_report.evals_per_call"] = f"over {report_calls} reports"
    run["attempted"] += base["attempted"]
    run["failed"] += base["failed"]
    run["failures"] = base["failures"] + run["failures"]
    run["identical_ops"] = common
    run["spans_file"] = str(spans.relative_to(ROOT))
    return run, metrics, notes, identical


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    measure = traced if trace else end_to_end
    run, values, notes, identical = measure(workload, seed, seconds, deadline)
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(values))}, "
            f"undeclared {sorted(set(values) - set(units))}"
        )
    provenance = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": run["python"],
        "numpy": run["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREAD_VARS,
        "commit": git_commit(),
    }
    if trace:
        provenance["shims"] = run["shims"]
        provenance["identical_ops"] = run["identical_ops"]
        provenance["spans_file"] = run["spans_file"]
    result = {
        "correct": run["failed"] == 0 and identical,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]} for name in units
        },
    }
    lines = [f"{workload}  seed={seed}  seconds={seconds:g}  trace={int(trace)}"]
    for name in units:
        lines.append(f"  {name:<48} {values[name]:>14.6g} {units[name]:<6} {notes.get(name, '')}")
    frac = failed_frac(run["attempted"], run["failed"])
    lines.append(
        f"  {'failed_frac':<48} {frac:>14.6g} {'ratio':<6} "
        f"{run['failed']} of {run['attempted']} ops failed their check"
    )
    if trace:
        lines.append(f"  results identical with shims on and off: {identical} ({run['identical_ops']} ops)")
    lines.extend(f"  FAILED {reason}" for reason in run["failures"])
    lines.append("provenance " + json.dumps(provenance, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    per_op = {k: run.get(k) for k in ("latencies_s", "ref_latencies_s", "kernel_s")}
    record.write_text(json.dumps(dict(result, provenance=provenance, failures=run["failures"],
                                      per_op=per_op), indent=1))
    return {"lines": lines, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mayerbounds" / "__init__.py").is_file() or not SPEC_PATH.is_file():
        sys.stderr.write("perfbench: src/mayerbounds or BENCHMARK.json not found under the checkout\n")
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(set(names)) != len(names) or not all(valid_name(name) for name in names):
        sys.stderr.write("perfbench: BENCHMARK.json has a duplicate or invalid name\n")
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        outputs = [run_workload(w, args.seed, args.seconds, bool(args.trace), spec) for w in chosen]
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    for out in outputs:
        print("\n".join(out["lines"]))
    if len(outputs) == 1:
        final = outputs[0]["result"]
    else:
        final = {
            "correct": all(o["result"]["correct"] for o in outputs),
            "attempted": sum(o["result"]["attempted"] for o in outputs),
            "failed": sum(o["result"]["failed"] for o in outputs),
            "metrics": {
                f"{w}.{name}": metric
                for w, o in zip(chosen, outputs)
                for name, metric in o["result"]["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

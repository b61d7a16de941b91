"""One benchmark process: set up, then run a workload's schedule in a closed loop.

run.py starts a fresh process of this script for every measurement, so every
lazy table and lru_cache in the package is paid the way one CLI invocation
pays it.  The script prints one JSON object on stdout.

    python3 perfbench/worker.py --workload identity --seed 1 --seconds 10
        [--setup-only] [--probe-every SECONDS] [--trace --spans PATH]
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAL_EVERY_S = 0.1  # run the host-speed kernel between ops this often, at most
CAL_SHARE = 0.04  # for this share of the time since it last ran
SETUP_CAL_S = 0.05  # a set-up-only process runs the kernel this long when ready
WALL_CAP = 1.0  # a run stops before this many times `seconds` of wall time


def run_loop(rounds, seconds: float, tracer=None, probe=None, probe_every: float = 0.0,
             kernel=None, cal_every: float = CAL_EVERY_S, cal_share: float = CAL_SHARE) -> dict:
    """Closed loop, one caller: the next op starts only after the previous
    one returns.  Rounds run whole; the loop stops after the round that
    leaves less than half a round's time before the ops have taken
    `seconds` in reference time (so the ops a run holds do not depend on
    the host's speed), or, likewise, before WALL_CAP * `seconds` of the
    loop's wall clock.  An op that raises or fails its check counts
    as failed and the loop goes on.

    `probe`, if given, is called between rounds whenever `probe_every`
    seconds of the loop have passed since it last ran, and once before the
    loop ends.  Its results are returned as "probes"; the time it takes is
    paused out of the loop's clock.

    The host-speed kernel (hostspeed.KERNELS["identity"] unless `kernel` is
    given) runs before the first op, after any op that ends
    `cal_every` seconds or more after the kernel last ran, and after the
    last op.  Each time it runs back to back for `cal_share` of the time
    since it last ran (at least once), and it is paused out of the loop's
    clock.  Each latency is also returned in reference seconds
    ("ref_latencies_s", see hostspeed.py).
    """
    import hostspeed  # numpy: imported after the worker's timed set-up starts

    if kernel is None:
        kernel = hostspeed.KERNELS["identity"]
    latencies: list[float] = []
    key_latencies: list[float] = []
    is_key: list[bool] = []
    digests: list[str | None] = []
    failures: list[str] = []
    failed = 0
    worst_rel_diff = 0.0
    probes: list = []
    cal: list[tuple[float, float]] = []
    op_spans: list[tuple[float, float]] = []
    start = time.monotonic()
    paused = 0.0
    speed = 1.0  # host speed factor of the latest kernel runs
    ref_clock = 0.0  # the ops' reference time so far, by `speed`
    last_probe = start
    index = 0

    def calibrate(since: float) -> float:
        nonlocal paused, speed
        t = time.monotonic()
        t_perf = time.perf_counter()
        burst = hostspeed.kernel_burst(kernel, cal_share * (t - since))
        step = (time.perf_counter() - t_perf) / len(burst)
        cal.extend((t_perf + (k + 0.5) * step, s) for k, s in enumerate(burst))
        speed = hostspeed.speed_factor(kernel, burst)
        now = time.monotonic()
        paused += now - t
        return now

    last_cal = calibrate(start)
    round_s: list[float] = []
    for round_number in itertools.count():
        round_start = time.monotonic()
        round_ref_start = ref_clock
        for op in rounds[round_number % len(rounds)]:
            if tracer is not None:
                tracer.op = index
            t0 = time.perf_counter()
            try:
                outcome = op()
            except Exception as exc:  # a failed op is counted, never fatal
                failure, result_digest = f"{type(exc).__name__}: {exc}", None
            else:
                failure, result_digest = outcome.failure, outcome.digest
                if outcome.rel_diff is not None:
                    worst_rel_diff = max(worst_rel_diff, outcome.rel_diff)
            t1 = time.perf_counter()
            latency = t1 - t0
            latencies.append(latency)
            op_spans.append((t0, t1))
            ref_clock += latency * speed
            is_key.append(getattr(op, "key", False))
            if is_key[-1]:
                key_latencies.append(latency)
            digests.append(result_digest)
            if failure is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"op {index}: {failure}")
            index += 1
            if time.monotonic() - last_cal >= cal_every:
                last_cal = calibrate(last_cal)
        now = time.monotonic()
        round_s.append(now - round_start)
        done = (ref_clock + 0.5 * (ref_clock - round_ref_start) >= seconds
                or now - start - paused + 0.5 * round_s[-1] >= WALL_CAP * seconds)
        if probe is not None and (done or now - last_probe >= probe_every):
            probes.append(probe())
            last_probe = time.monotonic()
            paused += last_probe - now
        if done:
            break
    if op_spans and cal[-1][0] < op_spans[-1][1]:
        calibrate(last_cal)
    factors = hostspeed.window_factors(kernel, cal, op_spans)
    return {
        "t_first_op": start,
        "elapsed_s": time.monotonic() - start - paused,
        "probes": probes,
        "attempted": index,
        "round_s": round_s,
        "failed": failed,
        "failures": failures,
        "latencies_s": latencies,
        "ref_latencies_s": [lat * f for lat, f in zip(latencies, factors)],
        "key_ref_latencies_s": [lat * f for lat, f, k in zip(latencies, factors, is_key) if k],
        "kernel_s": [s for _, s in cal],
        "speed_factors": factors,
        "key_latencies_s": key_latencies,
        "digests": digests,
        "route_rel_diff_max": worst_rel_diff,
    }


def setup_probe(workload: str, seed: int) -> list[float]:
    """Set-up time of a fresh `--setup-only` process, spawn to ready: in
    wall seconds and in reference seconds (by the kernel runs it makes when ready)."""
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    ready = json.loads(proc.stdout.strip().splitlines()[-1])
    wall = ready["t_ready"] - t_spawn
    import hostspeed
    return [wall, wall * ready["speed_factor"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe-every", type=float, default=0.0,
                        help="time a set-up-only process this often (seconds), between rounds")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="write traced spans here (JSONL)")
    args = parser.parse_args(argv)

    t0 = time.monotonic()
    sys.path.insert(0, str(ROOT / "src"))
    import mayerbounds  # noqa: F401  (timed: the import every CLI call pays)
    import numpy

    t1 = time.monotonic()
    import workloads

    rounds = workloads.build(args.workload, args.seed)
    t_ready = time.monotonic()
    result = {
        "import_s": t1 - t0,
        "inputs_s": t_ready - t1,
        "t_ready": t_ready,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "key_ops": workloads.KEY_OPS[args.workload],
    }
    import hostspeed

    kernel = hostspeed.KERNELS[args.workload]
    if args.setup_only:
        result["speed_factor"] = hostspeed.speed_factor(kernel, hostspeed.kernel_burst(kernel, SETUP_CAL_S))
    else:
        tracer = None
        if args.trace:
            import shims

            tracer = shims.Tracer()
            tracer.install()
            result["shims"] = list(tracer.installed)
        probe = None
        if args.probe_every > 0:
            probe = partial(setup_probe, args.workload, args.seed)
        try:
            # a long kernel runs less often, so that it stays CAL_SHARE of the run
            cal_every = max(CAL_EVERY_S, kernel.ref_s / CAL_SHARE)
            result.update(run_loop(rounds, args.seconds, tracer, probe, args.probe_every,
                                   kernel, cal_every))
        finally:
            if tracer is not None:
                tracer.uninstall()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            result["shim_overhead_s"] = tracer.overhead_s()
            if args.spans:
                tracer.write_jsonl(args.spans)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

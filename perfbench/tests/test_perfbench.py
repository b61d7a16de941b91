"""Tests of the benchmark's own logic: tail choice, failure counting, names,
shim install/uninstall.  Run with `python3 -m pytest perfbench/tests -q`."""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import shims  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from mayerbounds import quadrature  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- tail percentile ---------------------------------------------------------

@pytest.mark.parametrize(
    "n, expected",
    [(1, 1), (2, 1), (19, 10), (20, 10), (21, 11), (45, 35), (100, 90), (2000, 1990)],
)
def test_tail_is_the_highest_rank_with_ten_beyond(n, expected):
    rank = run.tail_rank(n)
    assert rank == expected
    assert rank >= math.ceil(n / 2)  # never below the median
    if n >= 2 * run.TAIL_BEYOND:
        assert n - rank == run.TAIL_BEYOND


# -- failure counting --------------------------------------------------------

def test_failed_and_raising_ops_are_counted_and_the_loop_goes_on():
    def boom():
        raise ZeroDivisionError("boom")

    round_ = [
        lambda: workloads.Outcome("a"),
        lambda: workloads.Outcome("b", failure="wrong value"),
        boom,
    ] * 2
    result = worker.run_loop([round_], seconds=0)
    assert result["attempted"] == 6  # a round always runs whole
    assert result["failed"] == 4
    assert result["digests"] == ["a", "b", None] * 2
    assert result["failures"][0] == "op 1: wrong value"
    assert result["failures"][1] == "op 2: ZeroDivisionError: boom"
    assert len(result["latencies_s"]) == 6
    assert run.failed_frac(result["attempted"], result["failed"]) == pytest.approx(4 / 6)


def test_key_op_latencies_are_kept_apart():
    plain = lambda: workloads.Outcome("p")  # noqa: E731
    marked = workloads.key(lambda: workloads.Outcome("k"))
    result = worker.run_loop([[plain, marked, plain]], seconds=0)
    assert len(result["latencies_s"]) == 3
    assert result["key_latencies_s"] == [result["latencies_s"][1]]


def test_probes_run_between_rounds_and_are_paused_out():
    def probe():
        time.sleep(0.05)
        return [0.05, 0.04]

    op = lambda: workloads.Outcome("x")  # noqa: E731
    result = worker.run_loop([[op] * 3], seconds=0, probe=probe, probe_every=0.0)
    assert result["probes"] == [[0.05, 0.04]]  # a probe before the loop ends
    assert result["attempted"] == 3
    assert result["elapsed_s"] < 0.05


def test_failure_list_is_capped():
    result = worker.run_loop([[lambda: workloads.Outcome("x", failure="bad")] * 20], seconds=0)
    assert result["failed"] == 20
    assert len(result["failures"]) == 5


def test_loop_stops_only_between_rounds():
    result = worker.run_loop([[lambda: workloads.Outcome("x")] * 7], seconds=0.05)
    assert result["attempted"] % 7 == 0
    assert result["attempted"] == 7 * len(result["round_s"])


def test_loop_runs_for_its_seconds_of_reference_time():
    op = lambda: time.sleep(0.01) or workloads.Outcome("x")  # noqa: E731
    result = worker.run_loop([[op] * 2], seconds=0.2)
    ref = sum(result["ref_latencies_s"])
    assert 0.15 < ref < 0.35 or result["elapsed_s"] >= worker.WALL_CAP * 0.2


# -- host-speed calibration ---------------------------------------------------

def test_each_op_is_scaled_by_the_kernel_runs_near_it():
    kernel = hostspeed.KERNELS["identity"]
    ref = kernel.ref_s
    samples = [(0.0, ref), (0.5, ref / 2), (5.0, 2 * ref), (20.0, ref)]
    ops = [(0.1, 0.2), (3.0, 3.5), (10.0, 12.0)]
    factors = hostspeed.window_factors(kernel, samples, ops, window=1.0)
    # op 0 sees the first two runs; op 1 none within 1 s, so its neighbours;
    # op 2 none either
    assert factors == pytest.approx([1.5, 1.25, 0.75])
    assert hostspeed.window_factors(kernel, samples, [], window=1.0) == []


def test_kernel_runs_around_every_op_and_is_paused_out():
    def op():
        time.sleep(0.01)
        return workloads.Outcome("x")

    result = worker.run_loop([[op] * 4], seconds=0, cal_every=0.0, cal_share=0.0)
    assert len(result["kernel_s"]) == 5  # before the first op and after each
    assert result["attempted"] == 4
    assert result["ref_latencies_s"] == pytest.approx(
        [lat * f for lat, f in zip(result["latencies_s"], result["speed_factors"])])
    # bursts as long as the ops: the loop's clock leaves them out
    result = worker.run_loop([[op] * 4], seconds=0, cal_every=0.0, cal_share=1.0)
    assert sum(result["kernel_s"]) > 0.03
    assert result["elapsed_s"] < sum(result["latencies_s"]) + 0.5 * sum(result["kernel_s"])


def test_a_kernel_burst_lasts_its_share_of_the_time_since_the_last():
    op = lambda: time.sleep(0.2) or workloads.Outcome("x")  # noqa: E731
    result = worker.run_loop([[op]], seconds=0, cal_share=0.25)
    # one run before the op, then about 0.05 s of runs after it
    assert 0.04 < sum(result["kernel_s"][1:]) < 0.2


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_an_op_of_three_kernels_takes_about_three_reference_kernels(workload):
    kernel = hostspeed.KERNELS[workload]
    op = lambda: workloads.Outcome(str([kernel.run() for _ in range(3)]))  # noqa: E731
    result = worker.run_loop([[op] * 5], seconds=0, kernel=kernel, cal_every=0.0)
    assert statistics.median(result["ref_latencies_s"]) == pytest.approx(3 * kernel.ref_s, rel=0.5)


# -- names -------------------------------------------------------------------

def test_names_use_only_the_allowed_characters_and_are_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(run.valid_name(name) for name in names)
    assert len(names) == len(set(names))
    for bad in ("op p50", "_lead", "a/b", "x" * 65, ""):
        assert not run.valid_name(bad)


def test_workloads_and_metrics_match_the_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS == workloads.WORKLOADS
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert set(e2e) == {"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "key_op_ms",
                        "peak_rss_mb"}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    added_by_run = {"setup.import_s", "setup.inputs_s", "ursell.route_rel_diff_max",
                    "trace.overhead_frac"}
    layer_names = set(shims.Tracer().layer_metrics()) | added_by_run
    assert layer_names == {m["name"] for m in SPEC["per_layer"]}


# -- shims -------------------------------------------------------------------

def _attributes():
    return {(m, a): getattr(sys.modules[m], a) for m, a, _, _ in shims.TARGETS}


def test_install_wraps_and_uninstall_restores_every_target():
    before = _attributes()
    tracer = shims.Tracer()
    tracer.install()
    try:
        during = _attributes()
        assert all(during[key] is not before[key] for key in before)
        assert len(tracer.installed) == len(shims.TARGETS)
    finally:
        tracer.uninstall()
    after = _attributes()
    assert all(after[key] is before[key] for key in before)
    assert tracer.installed == []


def test_a_missing_attribute_raises_and_installs_nothing():
    module = types.ModuleType("perfbench_fake_module")
    present = module.present = lambda: 1
    sys.modules[module.__name__] = module
    try:
        tracer = shims.Tracer()
        with pytest.raises(AttributeError, match="absent"):
            tracer.install([(module.__name__, "present", "fake", "call"),
                            (module.__name__, "absent", "fake", "call")])
        assert module.present is present
        assert tracer.installed == []
    finally:
        del sys.modules[module.__name__]


def test_overhead_estimate_scales_with_spans():
    tracer = shims.Tracer()
    assert tracer.overhead_s(calls=200, repeats=2) == 0.0
    tracer.spans = [["simplex", -1, 0, 0.0, 0.0, 1, "", 0.0]] * 1000
    per_span = tracer.overhead_s(calls=2000, repeats=3) / 1000
    assert 0.0 < per_span < 1e-4


def test_shims_record_spans_without_changing_results():
    plain = workloads.identity_op(3, 5, 1.0)
    tracer = shims.Tracer()
    tracer.install()
    try:
        traced = workloads.identity_op(3, 5, 1.0)
        value, err = quadrature.integrate_adaptive(lambda x: x * x, 0.0, 1.0)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert value == pytest.approx(1.0 / 3.0)
    metrics = tracer.layer_metrics()
    assert metrics["ursell.tree_integral.calls"] == 1
    assert metrics["combinatorics.labeled_trees.count"] == 6  # 3 trees x 2 labelings
    assert metrics["simplex.calls"] > 0
    assert 0 <= metrics["ursell.tree_integral.self_s"] <= metrics["ursell.tree_integral.time_s"]
    assert metrics["ursell.partition_sum.cold_calls"] == 1
    assert metrics["ursell.partition_sum.partitions"] == 5  # Bell(3)
    assert metrics["quadrature.integrate_adaptive.evals"] == 48  # one GL16 + GL32 panel
    parents = {span[shims.PARENT] for span in tracer.spans if span[shims.LAYER] == "simplex"}
    assert {tracer.spans[p][shims.LAYER] for p in parents} <= {
        "ursell.tree_integral", "ursell.merge_expansion"}


def test_bell_numbers():
    assert [shims.bell(n) for n in range(1, 12)] == [
        1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570]


# -- workloads ---------------------------------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    first = workloads.build(workload, 7)
    again = workloads.build(workload, 7)
    other = workloads.build(workload, 8)
    assert len(first) == len(again)
    assert first[0][0]().digest == again[0][0]().digest != other[0][0]().digest


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_round_holds_key_ops(workload):
    rounds = workloads.build(workload, 3)
    assert workload in workloads.KEY_OPS
    assert all(any(getattr(op, "key", False) for op in ops) for ops in rounds)
    assert all(not all(getattr(op, "key", False) for op in ops) for ops in rounds)


def test_identity_matrices_spread_evenly_over_their_entry_sums():
    assert [workloads.van_der_corput(k) for k in range(4)] == [0.0, 0.5, 0.25, 0.75]
    rounds = workloads.build("identity", 5)
    betas = workloads.IDENTITY_BETAS
    for slot, beta in enumerate(betas):
        strata = set()
        for ops in rounds[slot::len(betas)][:4]:  # the first four rounds at this beta
            n, matrix_seed, op_beta = ops[-1].args
            assert (n, op_beta) == (workloads.IDENTITY_KEY_N, beta)
            q = workloads.entry_sum_quantile(workloads.ursell.random_interaction_matrix(n, matrix_seed))
            strata.add(int(q * workloads.IDENTITY_STRATA))
        assert len(strata) == 4  # four different eighths of the distribution

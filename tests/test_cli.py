"""CLI subcommands: exit codes, output formats, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mayerbounds.cli import main


SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_subprocess(argv, cwd):
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-m", "mayerbounds", *argv],
        capture_output=True, text=True, cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


class TestIdentity:
    def test_two_point_exact(self, capsys):
        code, out = run(["identity", "--n", "2", "--seed", "0"], capsys)
        assert code == 0
        assert "AGREE" in out

    def test_n4_json(self, capsys):
        code, out = run(
            ["identity", "--n", "4", "--seed", "42", "--tol", "1e-5", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] is True
        assert set(payload["routes"]) == {
            "graph_sum", "partition_sum", "tree_integral", "merge_expansion",
        }

    def test_n6_runs_all_routes(self, capsys):
        code, out = run(["identity", "--n", "6", "--tol", "1e-10", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] is True
        assert len(payload["routes"]) == 4

    def test_n7_skips_integral_routes(self, capsys):
        code, out = run(["identity", "--n", "7", "--format", "json"], capsys)
        assert code == 0
        assert set(json.loads(out)["routes"]) == {"graph_sum", "partition_sum"}

    @pytest.mark.parametrize("beta", ["nan", "inf", "-1"])
    def test_bad_beta_is_usage_error(self, beta, capsys):
        with pytest.raises(SystemExit) as info:
            main(["identity", "--n", "3", "--beta", beta])
        assert info.value.code == 2
        assert (
            f"mayerbounds identity: error: argument --beta: must be in [0, inf), "
            f"got {float(beta)!r}\n"
        ) in capsys.readouterr().err

    @pytest.mark.parametrize("n", [4, 7])
    def test_overflow_is_numeric_failure(self, n, capsys):
        # at beta = 400 a simplex integral (n = 4) or the graph sum (n = 7)
        # leaves the double range: no NaN or Infinity may reach the JSON, and
        # the check must not report agreement
        code = main(["identity", "--n", str(n), "--beta", "400", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("numeric failure:")

    def test_size_guard_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["identity", "--n", "9"])
        assert info.value.code == 2

    def test_json_byte_identical_across_runs(self, capsys):
        _, first = run(["identity", "--n", "4", "--seed", "7", "--format", "json"], capsys)
        _, second = run(["identity", "--n", "4", "--seed", "7", "--format", "json"], capsys)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "identity.json"
        code, out = run(
            ["identity", "--n", "3", "--format", "json", "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["n"] == 3


class TestCriterion:
    def test_lj_default_reaches_published_cut(self, capsys):
        code, out = run(["criterion", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["max_certified_a"] - 0.6397) < 2e-4
        assert payload["certified"] is True

    def test_failing_interval(self, capsys):
        code, out = run(["criterion", "--interval", "0.65:0.7"], capsys)
        assert code == 1
        assert "0.65" in out

    def test_user_method_repulsive(self, capsys, tmp_path):
        cfg = tmp_path / "repulsive.json"
        cfg.write_text(json.dumps({"kind": "inverse-power", "C": 1.0, "p": 12}))
        code, out = run(
            [
                "criterion", "--potential", str(cfg), "--method", "user",
                "--mu-value", "0", "--interval", "0.2:0.9", "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["max_certified_a"] == 0.9

    def test_cube_golden(self, capsys):
        code, out = run(
            ["criterion", "--method", "cube", "--interval", "0.1:0.79", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["max_certified_a"] == 0.44658060073852546
        assert payload["mu_bound"] == 7820.2548979863395
        assert payload["mu_method"] == "cube-packing"

    def test_cube_for_non_lj_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "repulsive.json"
        cfg.write_text(json.dumps({"kind": "inverse-power", "C": 1.0, "p": 12}))
        with pytest.raises(SystemExit) as info:
            main(["criterion", "--potential", str(cfg), "--method", "cube",
                  "--interval", "0.1:0.5"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "Lennard-Jones" in err

    def test_bad_interval_format(self):
        with pytest.raises(SystemExit) as info:
            main(["criterion", "--interval", "junk"])
        assert info.value.code == 2

    def test_yuhjtman_outside_domain_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["criterion", "--interval", "0.3:0.5"])
        assert info.value.code == 2


class TestBounds:
    def test_lj_json(self, capsys):
        code, out = run(
            ["bounds", "--a", "0.6397", "--beta", "1", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["radii"]["basuev_hat"] > payload["radii"]["basuev_star"]
        assert payload["b_used"] == 14.316

    def test_non_basuev_cut_fails_with_cited_precondition(self, capsys):
        code, out = run(["bounds", "--a", "1.2"], capsys)
        assert code == 1
        assert "V(r) >= V(a) > 0" in out

    @pytest.mark.parametrize("knots", [
        [[0.3, 10], [0.30001, 1], [0.30002, 10], [0.6, 5]],  # narrower than a 1e4 grid
        [[1e-8, 0.5], [2e-8, 10], [0.6, 5]],  # below a grid's inner end 1e-6 a
    ])
    def test_dip_between_samples_fails_the_cut(self, knots, capsys, tmp_path):
        cfg = tmp_path / "dip.json"
        cfg.write_text(json.dumps({"kind": "tabulated", "knots": knots}))
        code, out = run(
            ["bounds", "--potential", str(cfg), "--a", "0.6", "--b-upper", "1"], capsys
        )
        assert code == 1
        assert "V(r) >= V(a) > 0" in out

    def test_missing_a_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["bounds"])
        assert info.value.code == 2

    @pytest.mark.parametrize("beta", ["nan", "inf", "-1", "0"])
    def test_bad_beta_is_usage_error(self, beta, capsys):
        # before the check, nan printed NaN into the JSON, -1 exited 3 after
        # bare RuntimeWarnings and 0 printed NaN ratios
        with warnings.catch_warnings(record=True) as caught, pytest.raises(SystemExit) as info:
            warnings.simplefilter("always")
            main(["bounds", "--beta", beta, "--a", "0.6", "--format", "json"])
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        assert not caught
        usage, error = captured.err.split("\nmayerbounds bounds: error: ")
        assert usage.startswith("usage: mayerbounds bounds")
        assert error == f"argument --beta: must be in (0, inf), got {float(beta)!r}\n"

    def test_csv_format(self, capsys):
        code, out = run(["bounds", "--a", "0.6397", "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "bound,integral,radius,beta,a,B,Bbar"

    def test_published_chat_ceiling_at_small_cut(self, capsys):
        # the damped integral can only shrink with B-bar, so the published
        # ceiling at a = 0.3637 holds for the report's B-bar too
        code, out = run(["bounds", "--a", "0.3637", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["integrals"]["basuev_hat"] <= 12382.0

    def test_identity_at_beta_zero(self, capsys):
        code, out = run(["identity", "--n", "4", "--beta", "0", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["routes"]["graph_sum"] == 0.0
        assert payload["agree"] is True

    def test_custom_stability_inputs(self, capsys):
        code, out = run(
            [
                "bounds", "--a", "0.6397", "--b-upper", "8.61",
                "--bbar-factor", "1.001", "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["b_used"] == 8.61


    @pytest.mark.parametrize("beta", ["30", "60", "300"])
    def test_large_beta_is_valid_json(self, beta):
        # past beta ~ 26 r_pr underflows to 0, and past beta B-bar ~ 709
        # e^{beta B-bar} overflows: the report must still be finite JSON
        argv = ["bounds", "--a", "0.6397", "--beta", beta, "--format", "json"]
        proc = run_subprocess(argv, None)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        payload = json.loads(proc.stdout, parse_constant=reject)
        assert payload["radii"]["penrose_ruelle"] == 0.0
        ratio = payload["ratios"]["hat_over_pr"]
        assert ratio > 1e150 if beta == "30" else ratio == "inf"

    def test_beta_past_double_range_is_numeric_failure(self, capsys):
        # e^{beta} overflows in the well of V: the Penrose-Ruelle integral
        # is not finite, so the report must not print NaN
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["bounds", "--a", "0.6397", "--beta", "1000", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "numeric failure: the Penrose-Ruelle integral overflows at beta = 1000\n"
        )
        assert not caught

    def test_large_dimension_with_vanishing_tail(self, capsys, tmp_path, monkeypatch):
        # r^199 overflows before the tail cut where V = 0: the radial weight
        # is applied only where the integrand is not 0, so no inf * 0 = NaN
        (tmp_path / "cfg.json").write_text(
            json.dumps({"kind": "tabulated", "knots": [[0.5, 3], [1, 1]], "d": 200})
        )
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run(["bounds", "--a", "0.5", "--b-upper", "1", "--potential", "cfg.json",
                             "--format", "json"], capsys)
        assert code == 0
        assert not caught
        payload = json.loads(out)
        assert math.isclose(payload["integrals"]["penrose_ruelle"], 3.5537583581176976e-109,
                            rel_tol=1e-8)
        assert 0.0 < payload["pieces"]["outer_abs"] < math.inf

    @pytest.mark.parametrize("argv, err", [
        # V = inf at the quadrature nodes nearest 0: inf * 0 in the inner factors
        (["bounds", "--a", "1e-23", "--format", "json"],
         "c_hat_inner, c_star_inner not finite at a = 1e-23"),
        # r^-6 overflows, so V(a) = inf - inf
        (["bounds", "--a", "1e-300"], "V(a) = nan is not finite at a = 1e-300"),
        # r^-12 overflows, so V(a) = inf at the interval start
        (["criterion", "--method", "user", "--mu-value", "1", "--interval", "1e-30:0.7"],
         "V(a) = inf is not finite at a = 1e-30"),
    ], ids=["bounds-nodes", "bounds-cut", "criterion-start"])
    def test_tiny_cut_is_numeric_failure(self, argv, err, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"numeric failure: {err}\n"
        assert not caught


class TestReproduce:
    def test_exit_zero_and_flag_set(self, capsys):
        code, out = run(["reproduce", "--section", "all", "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        flags = {(r["section"], r["name"]) for r in rows if r["status"] == "FLAG"}
        assert flags == {
            ("5.2", "h_at_8_61"),
            ("5.2", "radius_denominator"),
            ("5.3", "radius_denominator"),
            ("5.3", "improvement_factor"),
        }
        assert all(r["status"] in ("PASS", "FLAG", "INFO") for r in rows)

    def test_section_filter(self, capsys):
        code, out = run(["reproduce", "--section", "5.3", "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert {r["section"] for r in rows} == {"5.3"}
        names = [r["name"] for r in rows]
        assert "optimal_cut_radius" in names

    def test_table_format_lists_notes(self, capsys):
        code, out = run(["reproduce", "--section", "5.2"], capsys)
        assert code == 0
        assert "pre-registered discrepancy" in out

    def test_json_byte_identical(self, capsys):
        _, first = run(["reproduce", "--format", "json"], capsys)
        _, second = run(["reproduce", "--format", "json"], capsys)
        assert first == second

    def test_csv(self, capsys):
        code, out = run(["reproduce", "--section", "5.2", "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "section,name,computed,published,rel_diff,status"


class TestUsage:
    @pytest.mark.parametrize("command", [["identity", "--n", "3"], ["criterion"]])
    def test_csv_is_offered_only_where_printed(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([*command, "--format", "csv"])
        assert info.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    @pytest.mark.parametrize("config, argv", [
        (None, ["bounds", "--a", "0.5", "--potential", "missing.json"]),
        ("[1, 2]", ["bounds", "--a", "0.5", "--potential", "cfg.json"]),
        ('{"kind": "inverse-power", "p": 12}',
         ["bounds", "--a", "0.5", "--b-upper", "1", "--potential", "cfg.json"]),
        ('{"kind": "hard-core", "a": 0.5, "H": 3, "tail": "lj"}',
         ["bounds", "--a", "0.5", "--b-upper", "1", "--potential", "cfg.json"]),
        ('{"kind": "tabulated", "knots": [[0.3, Infinity], [0.6, 5]]}',
         ["bounds", "--a", "0.6", "--b-upper", "1", "--potential", "cfg.json"]),
        ('{"kind": "hard-core", "a": 0.3, "H": NaN, "tail": {"kind": "lj"}}',
         ["bounds", "--a", "0.6", "--b-upper", "1", "--potential", "cfg.json"]),
        ('{"kind": "inverse-power", "C": Infinity, "p": 12}',
         ["bounds", "--a", "0.6", "--b-upper", "1", "--potential", "cfg.json"]),
        (None, ["criterion", "--method", "user"]),
        (None, ["criterion", "--method", "user", "--mu-value", "-1"]),
        (None, ["criterion", "--method", "user", "--mu-value", "nan"]),
        (None, ["criterion", "--interval", "0:0.5"]),
        (None, ["criterion", "--method", "cube", "--interval", "0.6:inf"]),
        (None, ["criterion", "--tol", "nan"]),
        (None, ["criterion", "--tol", "-1"]),
        (None, ["identity", "--n", "3", "--tol", "nan"]),
        (None, ["identity", "--n", "3", "--tol", "-1"]),
        (None, ["identity", "--n", "3", "--tol", "inf"]),
        (None, ["identity", "--n", "3", "--seed", "-1"]),
        (None, ["bounds", "--a", "0.6397", "--b-upper", "-1"]),
        (None, ["bounds", "--a", "0.6397", "--b-upper", "nan"]),
        (None, ["bounds", "--a", "0.6397", "--b-upper", "inf"]),
        (None, ["bounds", "--a", "0.6397", "--b-lower", "8.61"]),
        (None, ["bounds", "--a", "0.6397", "--bbar-factor", "0.5"]),
        (None, ["bounds", "--a", "0.6397", "--bbar-factor", "nan"]),
        (None, ["bounds", "--a", "0.6397", "--bbar-factor", "inf"]),
        (None, ["bounds", "--a", "0.6397", "--rel-tol", "-1"]),
        (None, ["bounds", "--a", "0.6397", "--rel-tol", "0"]),
        (None, ["bounds", "--a", "0.6397", "--rel-tol", "nan"]),
        ('{"kind": "inverse-power", "C": 1, "p": 12, "d": 0}',
         ["bounds", "--a", "0.5", "--b-upper", "1", "--potential", "cfg.json"]),
        ('{"kind": "inverse-power", "C": 1, "p": 12, "d": -2}',
         ["bounds", "--a", "0.5", "--b-upper", "1", "--potential", "cfg.json"]),
        ('{"kind": "inverse-power", "C": 1, "p": 12, "d": -2}',
         ["criterion", "--method", "user", "--mu-value", "0", "--interval", "0.2:0.9",
          "--potential", "cfg.json"]),
        ('{"kind": "inverse-power", "C": 1, "p": 12, "d": 2.5}',
         ["bounds", "--a", "0.5", "--b-upper", "1", "--potential", "cfg.json"]),
        ('{"kind": "tabulated", "knots": [[0.3, 10], [0.6, 5]], "d": true}',
         ["bounds", "--a", "0.5", "--b-upper", "1", "--potential", "cfg.json"]),
        ('{"kind": "lj", "d": 2}', ["bounds", "--a", "0.6397", "--potential", "cfg.json"]),
        ('{"kind": "hard-core", "a": 0.5, "H": 3, "d": 2, "tail": {"kind": "lj"}}',
         ["bounds", "--a", "0.6", "--b-upper", "1", "--potential", "cfg.json"]),
        (None, ["criterion", "--method", "user", "--mu-value", "inf"]),
    ], ids=["missing-file", "not-an-object", "missing-key", "tail-not-an-object",
            "infinite-knot", "nan-core-height", "infinite-coefficient", "user-without-mu",
            "user-negative-mu", "user-nan-mu", "interval-at-zero", "interval-to-inf",
            "criterion-nan-tol", "criterion-negative-tol", "identity-nan-tol",
            "identity-negative-tol", "identity-inf-tol", "identity-negative-seed",
            "negative-b-upper", "nan-b-upper", "inf-b-upper", "removed-b-lower", "bbar-factor-below-one", "nan-bbar-factor",
            "inf-bbar-factor", "negative-rel-tol", "zero-rel-tol", "nan-rel-tol",
            "zero-d", "negative-d", "criterion-negative-d", "fractional-d", "bool-d",
            "two-dimensional-lj", "hard-core-d-differs-from-tail", "user-inf-mu"])
    def test_bad_input_is_usage_error_without_traceback(self, config, argv, tmp_path):
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
        proc = run_subprocess(argv, tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        error = proc.stderr.split("error: ", 1)[1]
        assert error.count("\n") == 1 and error.endswith("\n")

    @pytest.mark.parametrize("config, argv, err", [
        (None, ["identity", "--n", "7", "--beta", "5000", "--seed", "0"],
         "graph_sum, partition_sum not finite at beta=5000"),
        # the tree route's simplex integral raises before the exact routes are checked
        (None, ["identity", "--n", "3", "--beta", "20000"], "overflow encountered in exp"),
        (None, ["bounds", "--a", "0.3", "--beta", "1e300"],
         "c_hat_inner, c_star_inner not finite at a = 0.3"),
        ('{"kind": "tabulated", "knots": [[1e-300, 1e300], [1e300, -1.0]]}',
         ["bounds", "--a", "0.1", "--b-upper", "1", "--potential", "cfg.json"],
         "outer_abs not finite at a = 0.1"),
        ('{"kind": "inverse-power", "C": 1, "p": 12, "d": 1000}',
         ["bounds", "--a", "0.5", "--b-upper", "1", "--potential", "cfg.json"],
         "the unit-sphere surface in d = 1000 is below the normal double range"),
        ('{"kind": "tabulated", "knots": [[0.5, 3], [1, 1]], "d": 437}',
         ["bounds", "--a", "0.5", "--b-upper", "1", "--potential", "cfg.json"],
         "the unit-ball volume in d = 437 is below the normal double range"),
    ], ids=["identity-n7", "identity-n3", "bounds-lj", "bounds-tabulated", "bounds-d1000",
            "bounds-d437"])
    def test_overflow_is_one_numeric_failure_line(self, config, argv, err, tmp_path, capsys,
                                                  monkeypatch):
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"numeric failure: {err}\n"
        assert not caught

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_unknown_potential_name(self):
        with pytest.raises(SystemExit) as info:
            main(["bounds", "--a", "0.5", "--potential", "nonsense"])
        assert info.value.code == 2


# ---------------------------------------------------------------------------
# the CLI contract over a pool of argument vectors
# ---------------------------------------------------------------------------

NUMBERS = ["nan", "inf", "-inf", "-1", "0", "1e-320", "1e-300", "0.3", "1", "2.7", "50",
           "5000", "1e300"]
FUZZ_CONFIGS = {
    "inverse-power": {"kind": "inverse-power", "C": 1, "p": 12},
    "inverse-power-d2": {"kind": "inverse-power", "C": 1, "p": 12, "d": 2},
    "inverse-power-d0": {"kind": "inverse-power", "C": 1, "p": 12, "d": 0},
    "inverse-power-d-2": {"kind": "inverse-power", "C": 1, "p": 12, "d": -2},
    "inverse-power-d2.5": {"kind": "inverse-power", "C": 1, "p": 12, "d": 2.5},
    "inverse-power-d1000": {"kind": "inverse-power", "C": 1, "p": 12, "d": 1000},
    "inverse-power-dtrue": {"kind": "inverse-power", "C": 1, "p": 12, "d": True},
    "lj-d2": {"kind": "lj", "d": 2},
    "hard-core": {"kind": "hard-core", "a": 0.5, "H": 3, "tail": {"kind": "lj"}},
    "hard-core-d2": {"kind": "hard-core", "a": 0.5, "H": 3, "d": 2, "tail": {"kind": "lj"}},
    "tabulated": {"kind": "tabulated", "knots": [[0.3, 10], [0.6, 5], [1.5, -1], [2, 0]]},
    "tabulated-huge": {"kind": "tabulated", "knots": [[1e-300, 1e300], [1e300, -1.0]]},
}
POTENTIALS = ["lj", "lennard-jones", "nonsense", "missing.json", *FUZZ_CONFIGS]
FORMATS = ["table", "json", "csv"]


def _maybe(flag, pool):
    """Either nothing or [flag, value] with value drawn from pool."""
    return st.one_of(st.just([]), st.sampled_from(pool).map(lambda value: [flag, value]))


def _command(name, *options):
    return st.tuples(*options).map(lambda parts: [name, *(t for part in parts for t in part)])


CLI_ARGV = st.one_of(
    _command(
        "identity", _maybe("--n", [str(n) for n in range(-1, 9)]), _maybe("--beta", NUMBERS),
        _maybe("--seed", ["-1", "0", "3"]), _maybe("--tol", NUMBERS), _maybe("--format", FORMATS),
    ),
    _command(
        "criterion", _maybe("--potential", POTENTIALS),
        _maybe("--method", ["cube", "yuhjtman", "user"]),
        _maybe("--interval", ["0.6:0.7", "0.3:0.7", "0.2:0.9", "0.65:0.7", "1e-30:0.7",
                              "0:0.5", "0.7:0.6", "0.6:inf", "nan:0.7", "junk"]),
        _maybe("--tol", NUMBERS), _maybe("--mu-value", NUMBERS), _maybe("--format", FORMATS),
    ),
    _command(
        "bounds", _maybe("--potential", POTENTIALS), _maybe("--beta", NUMBERS),
        _maybe("--a", [*NUMBERS, "0.6397", "0.3637"]), _maybe("--b-upper", NUMBERS),
        _maybe("--bbar-factor", NUMBERS), _maybe("--rel-tol", NUMBERS),
        _maybe("--format", FORMATS),
    ),
    _command("reproduce", _maybe("--section", ["5.2", "5.3", "all", "9.9"]),
             _maybe("--format", FORMATS)),
)


@pytest.fixture(scope="module")
def fuzz_config_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("configs")
    for name, config in FUZZ_CONFIGS.items():
        (directory / f"{name}.json").write_text(json.dumps(config))
    return directory


def _reject_constant(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(argv=CLI_ARGV)
def test_cli_contract(argv, fuzz_config_dir):
    # every argv ends in exit 0-3 without a traceback or a warning; json
    # output is strict JSON; a failed run prints nothing on stdout
    argv = [str(fuzz_config_dir / f"{arg}.json") if arg in FUZZ_CONFIGS else arg
            for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    if code == 0 and "json" in argv:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    if code in (2, 3):
        assert out.getvalue() == ""
    if code == 3:
        assert err.getvalue().startswith("numeric failure:")
        assert err.getvalue().count("\n") == 1

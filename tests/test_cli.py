"""CLI subcommands: exit codes, output formats, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

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
        assert "beta must be finite and non-negative" in capsys.readouterr().err

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
        usage, error = captured.err.split("\nmayerbounds: error: ")
        assert usage.startswith("usage: mayerbounds")
        assert error == f"beta must be finite and positive, got {float(beta)!r}\n"

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
    ], ids=["missing-file", "not-an-object", "missing-key", "tail-not-an-object",
            "infinite-knot", "nan-core-height", "infinite-coefficient", "user-without-mu",
            "user-negative-mu", "user-nan-mu", "interval-at-zero", "interval-to-inf",
            "criterion-nan-tol", "criterion-negative-tol", "identity-nan-tol",
            "identity-negative-tol", "identity-inf-tol", "identity-negative-seed",
            "negative-b-upper", "nan-b-upper", "inf-b-upper", "removed-b-lower", "bbar-factor-below-one", "nan-bbar-factor",
            "inf-bbar-factor", "negative-rel-tol", "zero-rel-tol", "nan-rel-tol"])
    def test_bad_input_is_usage_error_without_traceback(self, config, argv, tmp_path):
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
        proc = run_subprocess(argv, tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        error = proc.stderr.split("error: ", 1)[1]
        assert error.count("\n") == 1 and error.endswith("\n")

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_unknown_potential_name(self):
        with pytest.raises(SystemExit) as info:
            main(["bounds", "--a", "0.5", "--potential", "nonsense"])
        assert info.value.code == 2

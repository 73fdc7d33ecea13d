"""End-to-end tests of the command-line interface and the suite runner."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binform.checks import REGISTRY, SUITES
from binform.cli import _build_parser, main, run_suite


def _run(*argv):
    return subprocess.run([sys.executable, "-m", "binform.cli", *argv],
                          capture_output=True, text=True)


def _ones(k: int) -> str:
    """The one-column partition of k, as a --l/--m/--n value."""
    return ",".join(["1"] * k)


def _strip_elapsed(report: dict) -> dict:
    out = dict(report)
    out["checks"] = [{k: v for k, v in c.items() if k != "elapsed"}
                     for c in report["checks"]]
    return out


class TestRegistry:
    def test_every_check_in_exactly_one_suite(self):
        ids = [cid for cid, _, _ in REGISTRY]
        assert len(ids) == len(set(ids)) == 13
        for _, suite, _ in REGISTRY:
            assert suite in SUITES
            assert suite != "all"

    def test_suite_names(self):
        assert SUITES == ("core", "syzygy", "wigner", "bridge", "symgroup", "all")

    def test_all_selects_everything_in_order(self):
        report = run_suite("bridge", seed=42, trials=2)
        expected = [cid for cid, suite, _ in REGISTRY if suite == "bridge"]
        assert [r.check_id for r in report.results] == expected


class TestRunSuite:
    def test_bridge_suite_passes(self):
        report = run_suite("bridge", seed=42, trials=2)
        assert report.passed
        assert all(r.status == "pass" for r in report.results)
        assert report.suite == "bridge"
        assert report.seed == 42

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nosuch")

    def test_deterministic_modulo_timing(self):
        a = _strip_elapsed(run_suite("bridge", seed=7, trials=2).to_json_dict())
        b = _strip_elapsed(run_suite("bridge", seed=7, trials=2).to_json_dict())
        assert a == b

    def test_json_dict_shape(self):
        d = run_suite("core", seed=42, trials=2).to_json_dict()
        assert d["passed"] is True
        assert d["suite"] == "core"
        for c in d["checks"]:
            assert set(c) == {"id", "suite", "status", "expected", "actual", "elapsed"}


class TestVerifyCommand:
    def test_exit_zero_and_table(self, tmp_path):
        out = tmp_path / "report.json"
        r = _run("verify", "--suite", "bridge", "--trials", "2", "--out", str(out))
        assert r.returncode == 0
        assert "PASS" in r.stdout
        assert "kappa-triple-route" in r.stdout
        data = json.loads(out.read_text())
        assert data["passed"] is True
        assert {c["id"] for c in data["checks"]} == \
            {cid for cid, suite, _ in REGISTRY if suite == "bridge"}

    def test_unknown_suite_exit_two(self):
        r = _run("verify", "--suite", "nosuch")
        assert r.returncode == 2
        assert "unknown suite" in r.stderr

    def test_json_format_to_stdout(self):
        r = _run("verify", "--suite", "bridge", "--trials", "2", "--format", "json")
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data["suite"] == "bridge"

    def test_report_stable_across_runs(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert _run("verify", "--suite", "core", "--trials", "2",
                        "--out", str(p)).returncode == 0
        a, b = (json.loads(p.read_text()) for p in paths)
        assert _strip_elapsed(a) == _strip_elapsed(b)

    def test_unwritable_out_exit_two(self, tmp_path, capsys):
        # a directory, and a file under a missing directory
        for out in (tmp_path, tmp_path / "missing" / "report.json"):
            argv = ["sym", "mult", "--l", "3,2", "--m", "3,2", "--n", "4,1", "--out", str(out)]
            assert main(argv) == 2
            assert "error: --out: " in capsys.readouterr().err


class TestTransvect:
    def test_inline_coefficients(self):
        r = _run("transvect", "--m", "2", "--n", "2", "--r", "1",
                 "--A", "1 0 1", "--B", "0 1 0")
        assert r.returncode == 0
        assert r.stdout.split(":")[1].split() == ["1/2", "0", "-1/2"]

    def test_json_round_trip(self):
        r1 = _run("transvect", "--m", "2", "--n", "2", "--r", "0",
                  "--A", "1 2 1", "--B", "1 0 1", "--format", "json")
        form = json.loads(r1.stdout)
        assert form["order"] == 4
        r2 = _run("transvect", "--m", "4", "--n", "2", "--r", "1",
                  "--A", json.dumps(form), "--B", "1 0 1", "--format", "json")
        assert r2.returncode == 0
        assert json.loads(r2.stdout)["order"] == 4

    def test_invariant_of_equal_orders(self):
        r = _run("transvect", "--m", "2", "--n", "2", "--r", "2",
                 "--A", "1 0 1", "--B", "1 0 1")
        assert r.returncode == 0, r.stderr
        assert r.stdout.split(":")[1].split() == ["2"]

    def test_wrong_length_exit_two(self):
        r = _run("transvect", "--m", "2", "--n", "2", "--r", "1",
                 "--A", "1 0", "--B", "0 1 0")
        assert r.returncode == 2
        assert "expected 3 coefficients" in r.stderr

    @pytest.mark.parametrize("r", ("-1", "5"))
    @pytest.mark.parametrize("A", ("0 0 0", "1 0 1"))
    def test_index_out_of_range_exit_two(self, A, r):
        out = _run("transvect", "--m", "2", "--n", "2", f"--r={r}", "--A", A, "--B", "1 0 1")
        assert out.returncode == 2
        assert "transvectant index out of range" in out.stderr


class TestSyzygy:
    def test_table_pretty(self):
        r = _run("syzygy", "--m", "5", "--n", "3", "--r", "2")
        assert r.returncode == 0
        assert "theta[0,2] = -8/21" in r.stdout

    def test_table_json(self):
        r = _run("syzygy", "--m", "7", "--n", "5", "--r", "4",
                 "--a", "1", "--b", "0", "--format", "json")
        data = json.loads(r.stdout)
        assert data["point"] == [1, 0]
        assert data["coeffs"]["2,2"] == "-144/605"

    def test_inadmissible_point_exit_two(self):
        r = _run("syzygy", "--m", "5", "--n", "3", "--r", "2", "--a", "1")
        assert r.returncode == 2
        assert "inadmissible" in r.stderr

    def test_closed_form(self):
        r = _run("syzygy", "--m", "5", "--n", "3", "--r", "2", "--closed",
                 "--format", "json")
        assert json.loads(r.stdout)["point"] == "closed-form"

    def test_verify_passes(self):
        r = _run("syzygy", "verify", "--m", "5", "--n", "3", "--r", "2",
                 "--trials", "2")
        assert r.returncode == 0
        assert "pass" in r.stdout


class TestReconstruct:
    def test_round_trip(self):
        u0 = {"pair": "x", "order": 5, "coeffs": ["2", "5", "3", "4", "1", "1"]}
        u1 = {"pair": "x", "order": 3,
              "coeffs": ["-5/6", "4/3", "-2/3", "-1/2"]}
        r = _run("reconstruct", "--m", "3", "--n", "2",
                 "--u0", json.dumps(u0), "--u1", json.dumps(u1),
                 "--format", "json")
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert len(data["transvectants"]) == 1
        assert data["transvectants"][0]["coeffs"] == ["1/3", "8/3"]

    def test_equal_orders_reach_the_invariant(self):
        # A = x1^2 + x2^2, B = x1^2 + 2*x2^2: u_2 = (A, B)_2 = 3 has order 0
        u0 = {"pair": "x", "order": 4, "coeffs": ["1", "0", "3", "0", "2"]}
        u1 = {"pair": "x", "order": 2, "coeffs": ["0", "1", "0"]}
        r = _run("reconstruct", "--m", "2", "--n", "2",
                 "--u0", json.dumps(u0), "--u1", json.dumps(u1))
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "u_2: 3"

    def test_json_missing_fields_exit_two(self):
        r = _run("reconstruct", "--m", "3", "--n", "2", "--u0", "{}", "--u1", "{}")
        assert r.returncode == 2
        assert "'coeffs'" in r.stderr

    def test_inline_coefficients(self, capsys):
        argv = ["reconstruct", "--m", "3", "--n", "2",
                "--u0", "2 5 3 4 1 1", "--u1", "-5/6 4/3 -2/3 -1/2"]
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == "u_2: 1/3 8/3"

    def test_form_errors_name_their_flag(self, capsys):
        recon = ["reconstruct", "--m", "3", "--n", "2"]
        tv = ["transvect", "--m", "2", "--n", "2", "--r", "1"]
        for argv, message in (
            (recon + ["--u0", "1 2 3", "--u1", "1 2 3 4"], "--u0: expected 6 coefficients, got 3"),
            (recon + ["--u0", "2 5 3 4 1 1", "--u1", "1 2"], "--u1: expected 4 coefficients, got 2"),
            (recon + ["--u0", "{bad", "--u1", "1 2 3 4"], "--u0 is not valid JSON"),
            (recon + ["--u0", "{}", "--u1", "{}"], "--u0: serialized form needs a field 'coeffs'"),
            (tv + ["--A", "{bad", "--B", "1 0 1"], "--A is not valid JSON"),
            (tv + ["--A", "1 0 1", "--B", '{"coeffs": ["1/0"]}'], "--B: serialized form"),
        ):
            assert main(argv) == 2
            assert message in capsys.readouterr().err


class TestWignerCommands:
    def test_threej(self):
        r = _run("threej", "--j", "1 1 1", "--m", "1 -1 0")
        assert r.stdout.strip() == "1/6 * sqrt(6)"

    def test_sixj(self):
        r = _run("sixj", "--js", "1 1 1 1 1 1")
        assert r.stdout.strip() == "1/6"

    def test_sixj_half_integers(self):
        r = _run("sixj", "--js", "1/2 1/2 1 1/2 1/2 1")
        assert r.stdout.strip() == "1/6"

    def test_ninej_both_routes(self):
        r = _run("ninej", "--array", "1 1 1; 1 1 1; 1 1 1", "--format", "json")
        data = json.loads(r.stdout)
        assert data["agree"] is True
        assert data["operator"] == data["triplesum"] == "0"

    def test_ninej_single_method(self):
        r = _run("ninej", "--array", "1 1 2; 1 1 2; 2 2 2",
                 "--method", "triplesum")
        assert r.returncode == 0
        assert r.stdout.startswith("triplesum:")

    def test_bad_triad_exit_two(self):
        r = _run("ninej", "--array", "1 1 1; 1 1 1; 1 1 3")
        assert r.returncode == 2


class TestSymCommands:
    def test_tableaux(self):
        r = _run("sym", "tableaux", "--shape", "3,2")
        assert r.returncode == 0
        assert len(r.stdout.splitlines()) == 5
        assert r.stdout.splitlines()[0] == "[1 2 3 / 4 5]"

    def test_mult(self):
        r = _run("sym", "mult", "--l", "3,2", "--m", "3,2", "--n", "4,1",
                 "--format", "json")
        assert json.loads(r.stdout)["multiplicity"] == 1

    def test_projmat(self):
        r = _run("sym", "projmat", "--l", "2,1", "--m", "2,1", "--n", "3",
                 "--format", "json")
        data = json.loads(r.stdout)
        assert data["matrix"] == [["2"], ["1"], ["1"], ["2"]]

    def test_projmat_degree_one(self):
        # S_1 is trivial: the coupling needs no generators
        r = _run("sym", "projmat", "--l", "1", "--m", "1", "--n", "1", "--format", "json")
        assert r.returncode == 0
        assert json.loads(r.stdout)["matrix"] == [["1"]]

    def test_verify_degree_five(self):
        r = _run("sym", "verify", "--d", "5", "--format", "json")
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data["passed"] is True
        assert data["coefficients"] == [32, 100, 25, -180]

    def test_missing_shape_exit_two(self):
        r = _run("sym", "tableaux")
        assert r.returncode == 2

    def test_degree_five_report_and_symgroup_suite_pinned(self, capsys):
        # sha256 of `sym verify --d 5 --format json` and of `verify --suite
        # symgroup --format json` without its elapsed fields
        assert main(["sym", "verify", "--d", "5", "--format", "json"]) == 0
        d5 = capsys.readouterr().out
        assert main(["verify", "--suite", "symgroup", "--format", "json"]) == 0
        suite = json.dumps(_strip_elapsed(json.loads(capsys.readouterr().out)), sort_keys=True)
        assert [hashlib.sha256(text.encode()).hexdigest() for text in (d5, suite)] == [
            "0ba0b07bb5ba985ec722a3fcc17f04a77997d9201ba1467899aea63b44704893",
            "8b88f85b85556aa5b42681d92b03ccd38ce86a8f8f81469c65d3a8dc70e745c6",
        ]


class TestMainInProcess:
    def test_main_returns_zero(self, capsys):
        assert main(["threej", "--j", "0 0 0", "--m", "0 0 0"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_main_value_error_returns_two(self, capsys):
        assert main(["sixj", "--js", "1 2 3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_inline_zero_denominator_exit_two(self, capsys):
        for argv, flag in (
            (["transvect", "--m", "2", "--n", "2", "--r", "1",
              "--A", "1 0 1/0", "--B", "0 1 0"], "--A"),
            (["sixj", "--js", "1/0 1 1 1 1 1"], "--js"),
            (["ninej", "--array", "1/0 1 1; 1 1 1; 1 1 1"], "--array"),
        ):
            assert main(argv) == 2
            assert flag in capsys.readouterr().err

    def test_large_decimal_exponent_exit_two_naming_the_flag(self, capsys):
        # Fraction expands 10**exponent first: 1e10000000 alone took seconds
        def transvect(a, b):
            return main(["transvect", "--m", "0", "--n", "0", "--r", "0", f"--A={a}", f"--B={b}"])

        for a, b, named in (("1e5000", "1", "error: --A "), ("1", "-2E-5000", "error: --B "),
                            ("1e100000000", "1", "error: --A "),
                            ('{"coeffs": ["1e5000"], "order": 0}', "1", "error: --A: ")):
            assert transvect(a, b) == 2
            err = capsys.readouterr().err
            assert err.startswith(named) and "decimal exponents up to" in err
        assert transvect("1e4000", "1") == 0
        assert capsys.readouterr().out.strip().endswith("1" + "0" * 4000)

    def test_json_integer_past_the_digit_limit_exit_two_naming_the_flag(self, capsys):
        # json.loads refuses such a literal with a plain ValueError, which was
        # printed bare, naming no flag
        for digits in (5000, 100_000):
            form = '{"coeffs": [1' + "0" * digits + '], "order": 0}'
            assert main(["transvect", "--m", "0", "--n", "0", "--r", "0", "--A", form,
                         "--B", "1"]) == 2
            assert capsys.readouterr().err.startswith(
                f"error: --A holds a JSON integer of more than {sys.get_int_max_str_digits()} digits")

    def test_deeply_nested_json_exit_two_naming_the_flag(self, capsys):
        # json.loads raised RecursionError, which escaped with exit 1
        form = '{"coeffs": [' + "[" * 100_000
        assert main(["transvect", "--m", "0", "--n", "0", "--r", "0", "--A", "1",
                     "--B", form]) == 2
        assert capsys.readouterr().err.startswith("error: --B is JSON nested too deeply")

    @pytest.mark.parametrize("fmt", ["pretty", "json"])
    def test_result_past_the_digit_limit_exit_two_blaming_the_result(self, capsys, fmt):
        # both inputs pass the exponent check; their product has 6,001 digits
        # and failed in printing with a bare message naming no flag
        assert main(["transvect", "--m", "0", "--n", "0", "--r", "0", "--A", "1e3000",
                     "--B", "1e3000", "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: the result has a coefficient whose numerator or "
                              "denominator has more than")
        assert "--A" not in err and "--B" not in err

    def test_zero_form_in_an_unknown_pair_exit_two(self, capsys):
        # it printed a result in pair "k"; a nonzero form there exited 2
        form = '{"pair": "k", "coeffs": ["0", "0"], "order": 1}'
        assert main(["transvect", "--m", "1", "--n", "1", "--r", "0", "--A", form, "--B", form]) == 2
        assert "unknown pair 'k'" in capsys.readouterr().err

    def test_threej_entry_count_exit_two(self, capsys):
        assert main(["threej", "--j", "1 1", "--m", "1 -1 0"]) == 2
        assert "3 entries in --j, got 2" in capsys.readouterr().err
        assert main(["threej", "--j", "1 1 1", "--m", "1 -1 0 0"]) == 2
        assert "3 entries in --m, got 4" in capsys.readouterr().err

    def test_sym_missing_partition_exit_two(self, capsys):
        assert main(["sym", "mult", "--l", "3,2"]) == 2
        assert "--m is required" in capsys.readouterr().err
        assert main(["sym", "projmat", "--l", "3,1", "--m", "2,2"]) == 2
        assert "--n is required" in capsys.readouterr().err

    def test_oversized_tableaux_shape_exit_two(self, capsys):
        assert main(["sym", "tableaux", "--shape", "999"]) == 2
        assert main(["sym", "tableaux", "--shape", "9,9,9"]) == 2
        assert "--shape" in capsys.readouterr().err

    def test_sym_input_over_the_caps_exit_two(self, capsys):
        # inputs past the caps are refused before any multiplicity or coupling
        # is computed
        for argv, message in (
            (["sym", "mult", "--l", "50", "--m", "50", "--n", "49,1"], "mult takes"),
            (["sym", "mult", "--l", "9,6,5,4,3,2,1", "--m", "7,6,5,4,3,2,2,1",
              "--n", "6,5,5,4,3,3,2,1,1"], "mult takes"),
            (["sym", "projmat", "--l", "9,1", "--m", "9,1", "--n", "9,1"], "projmat takes"),
            (["sym", "projmat", "--l", "5,3", "--m", "5,3", "--n", "7,1"], "projmat takes"),
            (["sym", "projmat", "--l", "4,2,2", "--m", _ones(8), "--n", "3,3,1,1"],
             "projmat takes"),
            (["sym", "projmat", "--l", _ones(23), "--m", "22,1", "--n", "2," + _ones(21)],
             "projmat takes"),
        ):
            assert main(argv) == 2
            assert message in capsys.readouterr().err

    def test_sym_input_at_the_caps_runs(self, capsys):
        for argv in (
            ["sym", "mult", "--l", "8,6,5,4,3,2,1", "--m", "7,6,5,4,3,2,1,1",
             "--n", "6,5,4,4,3,3,2,1,1"],
            ["sym", "projmat", "--l", "5,5", "--m", _ones(10), "--n", "2,2,2,2,2"],
            ["sym", "projmat", "--l", _ones(22), "--m", "21,1", "--n", "2," + _ones(20)],
        ):
            assert main(argv) == 0
            assert "error" not in capsys.readouterr().err

    def test_sym_verify_degree_choices(self, capsys):
        assert _build_parser().parse_args(["sym", "verify", "--d", "8"]).d == 8
        with pytest.raises(SystemExit) as exc:
            main(["sym", "verify", "--d", "9"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_lone_double_dash_value_exit_two(self, capsys):
        for argv, flag in ((["threej", "--j=--", "--m", "0 0 0"], "--j"),
                           (["transvect", "--m=--", "--n", "2", "--r", "1",
                             "--A", "1 0 1", "--B", "0 1 0"], "--m")):
            assert main(argv) == 2
            assert f"{flag} expects one value" in capsys.readouterr().err

    def test_recoupling_entries_over_the_cap_exit_two(self, capsys):
        # without the caps the first of these runs for minutes
        for argv, flag in (
            (["threej", "--j", "99999 99999 0", "--m", "0 0 0"], "--j"),
            (["threej", "--j", "401 401 0", "--m", "0 0 0"], "--j"),
            (["threej", "--j", "1 1 0", "--m", "0 0 -401"], "--m"),
            (["sixj", "--js", "65 65 0 65 65 65"], "--js"),
            (["sixj", "--js", "1 1 1 1 1 129/2"], "--js"),
            (["ninej", "--array", "41/2 41/2 0; 41/2 41/2 0; 0 0 0"], "--array"),
        ):
            assert main(argv) == 2
            assert f"{flag}: entries are limited to" in capsys.readouterr().err

    def test_recoupling_entries_at_the_cap_run(self, capsys):
        for argv in (
            ["threej", "--j", "400 400 0", "--m", "400 -400 0"],
            ["sixj", "--js", "64 64 0 64 64 64"],
            ["ninej", "--array", "20 20 0; 20 20 0; 0 0 0"],
        ):
            assert main(argv) == 0
            assert "error" not in capsys.readouterr().err

    def test_form_orders_and_trials_over_the_caps_exit_two(self, capsys):
        for argv, message in (
            (["transvect", "--m", "111", "--n", "1", "--r", "1", "--A", "1 " * 112,
              "--B", "1 1"], "transvect takes --m and --n of at most 110"),
            (["transvect", "--m", "1", "--n", "111", "--r", "1", "--A", "1 1",
              "--B", "1 " * 112], "transvect takes --m and --n of at most 110"),
            (["syzygy", "--m", "19", "--n", "19", "--r", "19"],
             "syzygy takes --m and --n of at most 18"),
            (["syzygy", "--m", "40", "--n", "40", "--r", "40"],
             "syzygy takes --m and --n of at most 18"),
            (["syzygy", "verify", "--m", "11", "--n", "10", "--r", "10"],
             "syzygy verify takes --m and --n of at most 10"),
            (["syzygy", "verify", "--m", "12", "--n", "12", "--r", "12", "--trials", "200"],
             "syzygy verify takes --m and --n of at most 10"),
            (["syzygy", "verify", "--m", "5", "--n", "3", "--r", "2", "--trials", "13"],
             "syzygy verify takes --trials of at most 12"),
            (["syzygy", "verify", "--m", "5", "--n", "3", "--r", "2", "--trials", "0"],
             "syzygy verify takes --trials of at least 1"),
            (["verify", "--suite", "syzygy", "--trials", "0"],
             "verify takes --trials of at least 1"),
            (["verify", "--suite", "syzygy", "--trials", "13"],
             "verify takes --trials of at most 12"),
            (["reconstruct", "--m", "13", "--n", "2", "--u0", "{}", "--u1", "{}"],
             "reconstruct takes --m and --n of at most 12"),
        ):
            assert main(argv) == 2
            assert message in capsys.readouterr().err

    def test_negative_form_orders_exit_two_naming_the_flags(self, capsys):
        # checked before any form is parsed, so no error blames --u0 or r
        for argv, message in (
            (["transvect", "--m", "-1", "--n", "2", "--r", "0", "--A", "1", "--B", "1 1 1"],
             "transvect takes --m and --n of at least 0"),
            (["syzygy", "--m", "-2", "--n", "3", "--r", "2"],
             "syzygy takes --m and --n of at least 0"),
            (["syzygy", "verify", "--m", "5", "--n", "-3", "--r", "2"],
             "syzygy verify takes --m and --n of at least 0"),
            (["reconstruct", "--m", "-3", "--n", "2", "--u0", "1 2", "--u1", "1"],
             "reconstruct takes --m and --n of at least 0"),
        ):
            assert main(argv) == 2
            assert message in capsys.readouterr().err

    def test_reconstruct_orders_below_one_exit_two_naming_the_flags(self, capsys):
        # u_1 has no meaning there; the forms must not be blamed
        for argv in (
            ["reconstruct", "--m", "0", "--n", "0", "--u0", "1", "--u1", "1"],
            ["reconstruct", "--m", "1", "--n", "0", "--u0", "1 1", "--u1", "1"],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "reconstruct takes --m and --n of at least 1" in err
            assert "--u1" not in err

    def test_form_orders_and_trials_at_the_caps_run(self, capsys):
        from binform import seeding
        from binform.transvectant import random_binary_form, transvect

        rng = seeding.stream(3, "cli-caps")
        A, B = random_binary_form(12, rng), random_binary_form(12, rng)
        u0, u1 = (json.dumps(transvect(A, B, r).to_json_dict()) for r in (0, 1))
        coeffs = " ".join(f"{k % 7 - 3}/{k % 5 + 1}" for k in range(111))
        for argv in (
            ["transvect", "--m", "110", "--n", "110", "--r", "55", "--A", coeffs, "--B", coeffs],
            ["syzygy", "--m", "18", "--n", "18", "--r", "18", "--a", "7", "--b", "0"],
            ["syzygy", "verify", "--m", "10", "--n", "10", "--r", "10", "--a", "4",
             "--trials", "12"],
            ["reconstruct", "--m", "12", "--n", "12", "--u0", u0, "--u1", u1],
        ):
            assert main(argv) == 0
            assert "error" not in capsys.readouterr().err


# Every parser that reads free text, with the other flags pinned to small
# valid values; the text is passed as --flag=TEXT so argparse never reads it
# as an option.
_FUZZED = {
    "--A": lambda t: ["transvect", "--m", "2", "--n", "2", "--r", "1",
                      f"--A={t}", "--B", "0 1 0"],
    "--u0": lambda t: ["reconstruct", "--m", "2", "--n", "2", f"--u0={t}", "--u1", "0 1 0"],
    "--j": lambda t: ["threej", f"--j={t}", "--m", "0 0 0"],
    "--m": lambda t: ["threej", "--j", "1 1 1", f"--m={t}"],
    "--js": lambda t: ["sixj", f"--js={t}"],
    "--array": lambda t: ["ninej", f"--array={t}"],
    "--shape": lambda t: ["sym", "tableaux", f"--shape={t}"],
}

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4), max_leaves=8)
# The numeric alphabet is kept to 10 characters so that every example stays
# quick: entries at the recoupling commands' caps still take about 1 s.
_flag_text = st.one_of(
    st.text(),
    st.text(alphabet="0123456789-/., ;{}", max_size=10),
    st.dictionaries(st.sampled_from(["pair", "order", "coeffs", "convention"]),
                    _json_values).map(json.dumps),
)


@pytest.mark.parametrize("flag", sorted(_FUZZED))
@settings(max_examples=150, deadline=None)
@given(text=_flag_text)
@example(text="1/0")
@example(text="1 0 1/0")
@example(text="999")
@example(text="--")
@example(text='{"coeffs": [1e400], "order": 0}')
@example(text="1e5000")
def test_parsers_exit_zero_or_two(flag, text):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(_FUZZED[flag](text)) in (0, 2)

"""Command-line behavior: formats, exit codes, determinism, config files."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gjmslab.cli import build_parser, main
from gjmslab.errors import TruncationWarning
from gjmslab.spectral import Workspace


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: options that route a run and shape no number, which no report echoes
PLUMBING = {"command", "config", "out", "format", "trace_out"}


def option_dests(command):
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {a.dest for a in subparsers.choices[command]._actions if a.dest != "help"}


@pytest.fixture
def cold_workspaces():
    # a test that patches a spectral builder must neither read a workspace
    # built before the patch nor leave one built with it for later tests
    Workspace.shared.cache_clear()
    yield
    Workspace.shared.cache_clear()


class TestEigenvalues:
    def test_csv_header_and_row_count(self, capsys):
        code, out, _ = run(capsys, "eigenvalues", "--m", "2", "--n", "5", "--K", "8", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,lambda,mu,g_mu_lambda"
        assert len(lines) == 1 + 9

    def test_bottom_eigenvalue_value(self, capsys):
        code, out, _ = run(capsys, "eigenvalues", "--m", "2", "--n", "5", "--K", "2", "--format", "csv")
        rows = list(csv.DictReader(out.splitlines()))
        assert float(rows[0]["lambda"]) == pytest.approx(6.5625, rel=1e-14)
        assert float(rows[0]["g_mu_lambda"]) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("m,n", [(1, 3), (5, 11)])
    def test_high_degree_identity(self, capsys, m, n):
        code, out, _ = run(capsys, "eigenvalues", "--m", str(m), "--n", str(n), "--K", "2000", "--format", "json")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["identity_tolerance"] == 1e-8
        assert len(results["rows"]) == 2001
        assert max(abs(row["g_mu_lambda"] - 1.0) for row in results["rows"]) <= 1e-8

    def test_csv_round_trip(self, capsys):
        code, out, _ = run(capsys, "eigenvalues", "--m", "1", "--n", "3", "--K", "6", "--format", "csv")
        rows = list(csv.DictReader(out.splitlines()))
        rebuilt = [[int(r["k"]), float(r["lambda"]), float(r["mu"]), float(r["g_mu_lambda"])] for r in rows]
        code2, out2, _ = run(capsys, "eigenvalues", "--m", "1", "--n", "3", "--K", "6", "--format", "csv")
        rows2 = list(csv.DictReader(out2.splitlines()))
        rebuilt2 = [[int(r["k"]), float(r["lambda"]), float(r["mu"]), float(r["g_mu_lambda"])] for r in rows2]
        assert rebuilt == rebuilt2


class TestReportInputs:
    @pytest.mark.parametrize(
        "argv,dropped,replaced",
        [
            (["eigenvalues", "--format", "json", "--K", "4"], set(), {}),
            (["sharp-constant", "--format", "json", "--p", "3"], set(), {}),
            (["minimize", "--p", "3", "--K", "4", "--starts", "1"], {"tol"}, {"tol_grad": 1e-9}),
            (
                ["solve", "--p", "3", "--K", "4"],
                {"p"},
                {"f": "1 t^3", "classification": "subcritical", "Q": 16},
            ),
            (["probe", "--p", "3", "--K", "4", "--trials", "1"], {"p"}, {"f": "1 t^3"}),
            (["verify", "--format", "json", "--K", "2", "--trials", "1"], set(), {}),
        ],
    )
    def test_inputs_echo_every_option_but_the_plumbing(self, capsys, argv, dropped, replaced):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        inputs = json.loads(out)["inputs"]
        assert set(inputs) == (option_dests(argv[0]) - PLUMBING - dropped) | set(replaced)
        assert {key: inputs[key] for key in replaced} == replaced


class TestSharpConstant:
    def test_value_formatting(self, capsys):
        from gjmslab.rayleigh import sharp_constant

        code, out, _ = run(capsys, "sharp-constant", "--m", "1", "--n", "3", "--p", "4", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert float(rows[0]["sharp_constant"]) == pytest.approx(3.33216, abs=5e-6)
        # repr formatting makes the table lossless: parsing returns the exact float
        assert float(rows[0]["sharp_constant"]) == sharp_constant(1, 3, 4.0)

    def test_empty_grid(self, capsys):
        code, out, _ = run(capsys, "sharp-constant", "--m", "1", "--n", "3", "--p", "", "--format", "csv")
        assert code == 0
        assert out.strip() == "m,n,p,sharp_constant"

    def test_json_report_shape(self, capsys):
        code, out, _ = run(capsys, "sharp-constant", "--m", "1", "--n", "4", "--p", "3", "--format", "json")
        report = json.loads(out)
        assert report["command"] == "sharp-constant"
        assert report["provenance"]["toolkit_version"]
        assert report["results"]["rows"][0]["sharp_constant"] > 0

    def test_json_wall_time_covers_computation(self, capsys, monkeypatch):
        import time

        import gjmslab.cli as cli

        real = cli.sharp_constant

        def slow(*args):
            time.sleep(0.05)
            return real(*args)

        monkeypatch.setattr(cli, "sharp_constant", slow)
        code, out, _ = run(capsys, "sharp-constant", "--m", "1", "--n", "3", "--p", "4", "--format", "json")
        assert code == 0
        assert json.loads(out)["provenance"]["wall_time_s"] >= 0.05


class TestExitCodes:
    def test_usage_error_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "sharp-constant", "--bogus", "1")
        assert code == 2

    def test_usage_error_domain(self, capsys):
        code, _, err = run(capsys, "sharp-constant", "--m", "2", "--n", "4", "--p", "3")
        assert code == 2
        assert "n > 2m" in err

    def test_missing_rhs(self, capsys):
        code, _, err = run(capsys, "solve", "--m", "1", "--n", "3")
        assert code == 2
        assert "--f or --p" in err

    def test_verify_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "1", "--n", "3", "--K", "12", "--trials", "4")
        assert code == 0
        assert "overall" in out and "FAIL" not in out

    @pytest.mark.parametrize(
        "m,n,seed", [(1, 3, 0), (2, 5, 0), (2, 7, 0), (3, 9, 0), (1, 3, 434548015)]
    )
    def test_verify_default_truncation(self, capsys, m, n, seed):
        # seed 434548015 draws a function whose sampled supremum undershot the
        # true one, which made the pullback decay bound fail
        code, out, _ = run(
            capsys, "verify", "--m", str(m), "--n", str(n), "--seed", str(seed), "--format", "json"
        )
        assert code == 0
        checks = {row["name"]: row for row in json.loads(out)["results"]["checks"]}
        quad = checks["kernel-funk-hecke-quadrature"]
        assert quad["passed"] and quad["margin"] <= 1e-12

    @pytest.mark.parametrize("K", [0, 16, 200, 800])
    @pytest.mark.parametrize("m,n", [(1, 3), (2, 5), (2, 7), (2, 9), (3, 7), (3, 9), (5, 11)])
    def test_verify_passes_across_degrees(self, capsys, m, n, K):
        # K = 0: the exact gradient is 0, so both gradient rows hold rounding
        # noise to the gradient scale; K = 800: the orthonormality row needs
        # no monomial moments, which sit at their own rounding floor there
        code, out, _ = run(
            capsys, "verify", "--m", str(m), "--n", str(n), "--K", str(K), "--format", "json"
        )
        failed = [row for row in json.loads(out)["results"]["checks"] if not row["passed"]]
        assert code == 0 and failed == []

    @pytest.mark.parametrize("m,n,K", [(2, 5, 16), (2, 9, 800)])
    def test_verify_quadrature_moments_catches_a_perturbed_weight(
        self, capsys, monkeypatch, cold_workspaces, m, n, K
    ):
        # one weight off by a relative 1e-8 reads about 1e-11 even at Q = 1608
        import gjmslab.spectral as spectral

        exact = spectral.build_quadrature

        def perturbed(n, Q):
            rule = exact(n, Q)
            weights = rule.weights.copy()
            weights[Q // 2] *= 1.0 + 1e-8
            return spectral.QuadratureRule(n=n, nodes=rule.nodes, weights=weights)

        monkeypatch.setattr(spectral, "build_quadrature", perturbed)
        code, out, _ = run(
            capsys, "verify", "--m", str(m), "--n", str(n), "--K", str(K), "--format", "json"
        )
        assert code == 3
        checks = {row["name"]: row for row in json.loads(out)["results"]["checks"]}
        assert not checks["quadrature-moments"]["passed"]

    @pytest.mark.parametrize("m,n,K", [(1, 3, 16), (2, 7, 16), (3, 9, 200)])
    def test_verify_constant_green_fixed_point(self, capsys, m, n, K):
        code, out, _ = run(
            capsys, "verify", "--m", str(m), "--n", str(n), "--K", str(K), "--format", "json"
        )
        assert code == 0
        checks = {row["name"]: row for row in json.loads(out)["results"]["checks"]}
        row = checks["constant-green-fixed-point"]
        assert row["passed"] and row["margin"] <= 1e-13 and row["tolerance"] == 1e-12

    def test_verify_newton_krylov_step_catches_a_wrong_step(self, capsys, monkeypatch):
        import gjmslab.checks as checks

        exact = checks._minres

        def perturbed(*args, **kwargs):
            Y, iters = exact(*args, **kwargs)
            return Y * (1.0 + 1e-10), iters

        monkeypatch.setattr(checks, "_minres", perturbed)
        code, out, _ = run(capsys, "verify", "--format", "json")
        assert code == 3
        row = json.loads(out)["results"]["checks"][-1]
        assert row["name"] == "newton-krylov-step" and row["tolerance"] == 1e-12
        assert not row["passed"] and 1e-11 < row["margin"] < 1e-9

    def test_verify_gradient_finite_difference_at_high_degree(self, capsys):
        # one step h for every degree would leave rounding of order eps Lambda_K h
        code, out, _ = run(capsys, "verify", "--m", "5", "--n", "11", "--K", "200", "--format", "json")
        assert code == 0
        checks = {row["name"]: row for row in json.loads(out)["results"]["checks"]}
        row = checks["gradient-finite-difference"]
        assert row["passed"] and row["tolerance"] == 1e-6

    def test_verify_gradient_finite_difference_catches_a_wrong_gradient(self, capsys, monkeypatch):
        exact = Workspace.quotient_and_gradient

        def perturbed(self, c, p):
            val, grad = exact(self, c, p)
            grad = grad.copy()
            grad[int(np.argmax(np.abs(grad)))] *= 1.0 + 1e-3
            return val, grad

        monkeypatch.setattr(Workspace, "quotient_and_gradient", perturbed)
        code, out, _ = run(capsys, "verify", "--m", "2", "--n", "5", "--format", "json")
        assert code == 3
        checks = {row["name"]: row for row in json.loads(out)["results"]["checks"]}
        row = checks["gradient-finite-difference"]
        assert not row["passed"] and row["margin"] >= 1e-4

    def test_verify_at_degree_zero_catches_a_gradient_off_the_rays(self, capsys, monkeypatch):
        def energy_term_only(self, c, p):
            # drops the L^p term, so the gradient no longer vanishes along c
            den = float(np.dot(self.weights, np.abs(self.basis @ c) ** p)) ** (2.0 / p)
            return float(np.dot(self.lam, c * c)) / den, 2.0 * self.lam * c / den

        monkeypatch.setattr(Workspace, "quotient_and_gradient", energy_term_only)
        code, out, _ = run(capsys, "verify", "--m", "2", "--n", "5", "--K", "0", "--format", "json")
        assert code == 3
        checks = {row["name"]: row for row in json.loads(out)["results"]["checks"]}
        assert not checks["gradient-finite-difference"]["passed"]
        assert not checks["gradient-euler-orthogonality"]["passed"]

    def test_verify_failure_exits_3_with_failure_rows(self, capsys, monkeypatch):
        import gjmslab.checks as checks

        monkeypatch.setattr(
            checks, "verify_checks", lambda *a: [("synthetic-check", 1.0, 1e-8, False)]
        )
        code, out, _ = run(capsys, "verify", "--m", "1", "--n", "3")
        assert code == 3
        assert "synthetic-check" in out and "FAIL" in out

    def test_internal_inconsistency_exits_4(self, capsys, monkeypatch):
        import gjmslab.kernels as kernels
        from gjmslab.errors import InconsistencyError

        def boom(*args, **kwargs):
            raise InconsistencyError("synthetic inverse-identity violation")

        monkeypatch.setattr(kernels, "green_constant", boom)
        code, _, err = run(capsys, "eigenvalues", "--m", "1", "--n", "3", "--K", "4")
        assert code == 4
        assert "inconsistency" in err.lower()


class TestInputValidation:
    def test_nan_exponent(self, capsys):
        code, _, err = run(capsys, "solve", "--m", "1", "--n", "3", "--p", "nan")
        assert code == 2
        assert "finite" in err

    def test_non_numeric_bubble_dilation(self, capsys):
        code, _, err = run(capsys, "solve", "--m", "1", "--n", "3", "--init", "bubble:abc", "--p", "3")
        assert code == 2
        assert "bubble:LAM" in err

    @pytest.mark.parametrize("lam", ["1e200", "1.2e154", "0"])
    def test_bubble_dilation_out_of_range(self, lam):
        # lam^2 = inf once gave inf - inf in the bubble and a numpy warning
        # before the finiteness error; a fresh process shows the real stderr
        import gjmslab

        src = str(Path(gjmslab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-m", "gjmslab.cli", "solve", "--p", "3", "--K", "8",
             "--init", f"bubble:{lam}"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "dilation" in proc.stderr and "RuntimeWarning" not in proc.stderr

    def test_fractional_sweep_order(self, capsys):
        code, out, err = run(capsys, "sweep", "--m", "1.5", "--n", "5")
        assert code == 2
        assert out == ""
        assert "integers" in err

    def test_negative_tolerance(self, capsys):
        code, _, err = run(capsys, "solve", "--m", "1", "--n", "3", "--p", "3", "--tol", "-1")
        assert code == 2
        assert "tolerance" in err

    @pytest.mark.parametrize("command", [["verify"], ["probe", "--p", "3", "--trials", "1"]])
    def test_negative_seed(self, capsys, command):
        code, _, err = run(capsys, *command, "--seed", "-1")
        assert code == 2
        assert "--seed" in err

    def test_truncation_not_below_rule_size(self, capsys):
        code, _, err = run(
            capsys, "solve", "--m", "2", "--n", "7", "--p", "3", "--K", "48", "--Q", "40"
        )
        assert code == 2
        assert "K < Q" in err

    @pytest.mark.parametrize(
        "argv", [["minimize", "--max", "5", "--p", "3"], ["verify", "--tri", "2"]]
    )
    def test_abbreviated_flag_is_a_usage_error(self, capsys, argv):
        # a config file cannot abbreviate an option, so a flag cannot either
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("init", ["randomly", "random:7"])
    def test_init_is_an_exact_word(self, capsys, init):
        code, out, err = run(capsys, "solve", "--p", "3", "--init", init)
        assert code == 2
        assert out == ""
        assert "unknown --init" in err

    def test_sweep_with_an_invalid_degree_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--m", "1", "--n", "3", "--p", "2.5,3", "--starts", "1", "--K", "0"
        )
        assert code == 2
        assert out == ""
        assert "K >= 1" in err

    def test_sweep_leaves_only_boundary_exponents_blank(self, capsys):
        p_crit = 6.0  # 2n/(n-2m) for (n, m) = (3, 1)
        code, out, _ = run(
            capsys, "sweep", "--m", "1", "--n", "3", "--p", f"2,2.5,{p_crit}", "--starts", "1",
            "--K", "4",
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert [row["minimize_value"] == "" for row in rows] == [True, False, True]

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_verify_needs_a_trial(self, capsys, trials):
        code, out, err = run(capsys, "verify", "--trials", trials)
        assert code == 2
        assert out == ""
        assert "at least one trial" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["probe", "--p", "3", "--tol", "inf", "--trials", "3"],
            ["probe", "--p", "3", "--tol", "nan", "--trials", "1"],
            ["solve", "--p", "3", "--tol", "inf", "--init", "random"],
            ["minimize", "--p", "3", "--tol", "nan", "--starts", "1", "--K", "4"],
            ["minimize", "--p", "3", "--tol", "inf", "--starts", "1", "--K", "4"],
        ],
    )
    def test_tolerance_must_be_finite(self, capsys, argv):
        # an infinite tolerance would pass every iterate as converged, so a
        # probe would archive its random starts as counterexamples
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_solve_needs_a_nonnegative_iteration_cap(self, capsys):
        code, out, err = run(capsys, "solve", "--p", "3", "--max-iter", "-1")
        assert code == 2
        assert out == ""
        assert "max_iter" in err

    @pytest.mark.parametrize("command", [["solve"], ["probe", "--trials", "1"]])
    def test_power_and_general_right_hand_side_exclude_each_other(self, capsys, command):
        code, out, err = run(capsys, *command, "--p", "3", "--f", "1:2")
        assert code == 2
        assert out == ""
        assert "not allowed with" in err


class TestDoubleRangeAndOutputPaths:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sharp-constant", "--p", "3", "--out", "{missing}"],
            ["minimize", "--p", "3", "--K", "4", "--starts", "1", "--trace-out", "{missing}"],
            ["sharp-constant", "--n", "343", "--m", "1", "--p", "2.005"],
            ["eigenvalues", "--n", "342", "--m", "1"],
            ["eigenvalues", "--n", "400", "--m", "1"],
            ["solve", "--n", "172", "--m", "1", "--p", "1.5", "--K", "4"],
            ["verify", "--n", "172", "--m", "1", "--K", "4"],
            ["minimize", "--n", "172", "--m", "1", "--p", "2.01", "--K", "4", "--starts", "1"],
            ["sharp-constant", "--n", "200", "--m", "99", "--p", "2.5"],
            ["sharp-constant", "--n", "200", "--m", "99", "--p", "2.5", "--format", "json"],
            ["eigenvalues", "--n", "101", "--m", "50", "--K", "3000"],
            ["verify", "--n", "170", "--m", "1"],  # the constant root is about 1e324
            ["solve", "--p", "1.001", "--init", "bubble:2"],  # the bubble scale is 3^1000
            ["probe", "--f", "1:1", "--trials", "-5", "--K", "4"],
            # the constant root (0.75 / 1e300)^2 = 5.6e-601 underflows a double
            ["probe", "--n", "3", "--m", "1", "--f", "1e300:1.5", "--K", "8", "--trials", "4"],
            ["solve", "--n", "3", "--m", "1", "--f", "1e300:1.5", "--K", "8"],
        ],
    )
    def test_is_a_usage_error(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "no-such-dir" / "out.csv")
        code, out, err = run(capsys, *(missing if a == "{missing}" else a for a in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("n", [47, 60, 100])
    def test_verify_with_a_constant_root_above_two_to_the_two_hundred(self, capsys, n):
        code, out, _ = run(capsys, "verify", "--n", str(n), "--m", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["passed"] is True

    def test_solve_reports_a_constant_root_above_two_to_the_two_hundred(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "48", "--m", "1", "--p", "1.03", "--K", "4")
        assert code == 0
        root = json.loads(out)["results"]["constant_solution"]
        assert root == pytest.approx((23.0 * 24.0) ** (1.0 / 0.03), rel=1e-12)  # 2.5e91

    def test_constant_roots_far_below_one(self, capsys):
        # c* = 5.6e-121 for 1e60 t^1.5 and 5.6e-201 for 1e100 t^1.5, whose
        # coefficients square to below the smallest double
        code, out, _ = run(capsys, "probe", "--n", "3", "--m", "1", "--f", "1e60:1.5",
                           "--K", "8", "--trials", "4", "--format", "json")
        assert code == 0
        probe = json.loads(out)["results"]["probe"]
        assert (probe["constant"], probe["zero"]) == (4, 0)
        assert probe["constant_value"] == pytest.approx(5.625e-121, rel=1e-14, abs=0.0)
        code, out, _ = run(capsys, "solve", "--n", "3", "--m", "1", "--f", "1e100:1.5",
                           "--K", "8", "--init", "random", "--format", "json")
        assert code == 0
        results = json.loads(out)["results"]
        solve, c_star = results["solve"], results["constant_solution"]
        assert c_star == pytest.approx(5.625e-201, rel=1e-14, abs=0.0)
        assert (solve["stop_reason"], solve["classification"]) == ("tolerance", "constant")
        assert solve["iters"] > 0 and 0.0 < solve["rel_residual"] <= 1e-12

    def test_right_hand_sides_whose_powers_leave_the_double_range(self, capsys):
        # (u+)^3 overflows at c* = 8.7e149 although 1e-300 (u+)^3 does not, and
        # (u+)^2 underflows at c* = 7.5e-201 although 1e200 (u+)^2 does not
        code, out, _ = run(capsys, "solve", "--n", "3", "--m", "1", "--f", "1e-300:3", "--K", "8",
                           "--init", "constant", "--format", "json")
        assert code == 0
        solve = json.loads(out)["results"]["solve"]
        assert (solve["stop_reason"], solve["classification"]) == ("tolerance", "constant")
        assert solve["rel_residual"] <= 1e-12
        code, out, _ = run(capsys, "probe", "--n", "3", "--m", "1", "--f", "1e200:2,1e-200:4",
                           "--K", "8", "--trials", "4", "--format", "json")
        assert code == 0
        probe = json.loads(out)["results"]["probe"]
        assert (probe["constant"], probe["zero"]) == (4, 0)
        assert probe["max_constant_rel_err"] <= 1e-12

    def test_kernel_spectrum_below_the_double_range(self, capsys):
        # for (341, 52) mu_K drops below the smallest normal double at K = 537,
        # while Lambda_K is still finite
        code, out, err = run(capsys, "eigenvalues", "--n", "341", "--m", "52", "--K", "536")
        assert code == 0 and err == ""
        assert out.splitlines()[-1] == "536,1.717070565060893e+296,2.470387998567734e-308,1.0"
        for K in ("537", "700"):
            code, out, err = run(capsys, "eigenvalues", "--n", "341", "--m", "52", "--K", K)
            assert code == 2 and out == ""
            assert err == f"error: mu_{K} underflows a double for n=341, m=52\n"

    def test_sweep_skips_points_past_the_double_range(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "343", "--m", "1", "--p", "2.005")
        assert code == 0
        assert out == "m,n,p,sharp_constant\n"


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""

    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


class TestFiniteReports:
    def test_solve_from_an_overflowing_bubble_start(self, capsys):
        # entries near 1e172-1e179 overflow once squared; the residual norms
        # are finite, and the iterate that passes 1e8 stops as diverged
        with pytest.warns(TruncationWarning, match="suggest K"):
            code, out, _ = run(
                capsys, "solve", "--n", "100", "--m", "1", "--p", "1.0204081632653061",
                "--K", "4", "--init", "bubble:2",
            )
        assert code == 0
        solve = strict_json(out)["results"]["solve"]
        assert math.isfinite(solve["residual"]) and math.isfinite(solve["rel_residual"])
        assert solve["stop_reason"] == "diverged"

    def test_minimize_gradient_norm_past_the_square_root_of_the_double_range(self, capsys):
        code, out, _ = run(
            capsys, "minimize", "--n", "169", "--m", "50", "--p", "3.449275362318841",
            "--K", "4", "--starts", "1",
        )
        assert code == 0
        grad_norm = strict_json(out)["results"]["minimization"]["grad_norm"]
        assert 1e154 < grad_norm < math.inf

    def test_a_non_finite_result_is_a_numerical_failure(self, capsys, monkeypatch):
        import gjmslab.lane_emden as lane_emden

        solve_newton = lane_emden.solve_newton

        def nan_residual(*args, **kwargs):
            result = solve_newton(*args, **kwargs)
            result.residual = math.nan
            return result

        monkeypatch.setattr(lane_emden, "solve_newton", nan_residual)
        code, out, err = run(capsys, "solve", "--p", "3", "--K", "4")
        assert (code, out) == (3, "")
        assert "non-finite" in err


class TestRuntimeDependencies:
    def test_import_loads_no_scipy_sympy_or_numpy_polynomial(self):
        import gjmslab

        src = str(Path(gjmslab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        probe = (
            "import sys, gjmslab, gjmslab.cli, gjmslab.checks; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'sympy') or m.startswith('numpy.polynomial')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"

    @pytest.mark.parametrize(
        "argv",
        [
            ["-c", "import gjmslab"],
            ["-m", "gjmslab.cli", "sharp-constant", "--m", "2", "--n", "7", "--p", "2.5,3", "--format", "json"],
            ["-m", "gjmslab.cli", "sweep", "--m", "1,2", "--n", "3,5,7", "--p", "2.5,3", "--starts", "0"],
            ["-m", "gjmslab.cli", "--version"],
        ],
    )
    def test_closed_forms_and_import_load_no_numpy(self, argv):
        # -X importtime lists every module the fresh interpreter imports on stderr
        import gjmslab

        src = str(Path(gjmslab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", *argv], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        imported = [
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        ]
        assert "gjmslab" in imported
        assert [m for m in imported if m.split(".")[0] == "numpy"] == []


    @pytest.mark.parametrize(
        "argv,modules",
        [
            (["eigenvalues", "--K", "4"], {"spectral", "kernels"}),
            (["solve", "--p", "2.5", "--K", "4"], {"spectral", "conformal", "lane_emden"}),
            (["probe", "--p", "3", "--trials", "2"], {"spectral", "conformal", "lane_emden"}),
            (["minimize", "--p", "3", "--starts", "1"], {"spectral", "conformal", "rayleigh"}),
            (["verify", "--K", "4"], {"spectral", "conformal", "kernels", "lane_emden", "checks"}),
        ],
    )
    def test_each_subcommand_loads_the_modules_the_cli_docstring_lists(self, argv, modules):
        # besides the package, closed_forms and errors, which every command loads
        import gjmslab

        src = str(Path(gjmslab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "gjmslab.cli", *argv],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        imported = {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        loaded = {m.split(".", 1)[1] for m in imported if m.startswith("gjmslab.")}
        assert loaded == {"closed_forms", "errors", *modules}


class TestDeterminism:
    def test_minimize_reports_identical_modulo_walltime(self, tmp_path, capsys):
        args = [
            "minimize", "--m", "1", "--n", "3", "--p", "4", "--K", "12",
            "--starts", "4", "--seed", "11", "--format", "json",
        ]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        r1, r2 = json.loads(out1), json.loads(out2)
        r1["provenance"].pop("wall_time_s")
        r2["provenance"].pop("wall_time_s")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_probe_deterministic(self, capsys):
        args = ["probe", "--m", "1", "--n", "3", "--p", "3", "--trials", "6", "--K", "12", "--seed", "3"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        r1, r2 = json.loads(out1), json.loads(out2)
        r1["provenance"].pop("wall_time_s")
        r2["provenance"].pop("wall_time_s")
        assert r1 == r2


class TestProbeCommand:
    def test_order_three_probe_is_all_constant(self, capsys):
        code, out, _ = run(
            capsys, "probe", "--m", "3", "--n", "9", "--p", "3", "--K", "64", "--trials", "10"
        )
        assert code == 0
        probe = json.loads(out)["results"]["probe"]
        assert probe["fraction_constant"] == 1 and probe["constant"] == 10
        assert probe["stop_reasons"] == {
            "tolerance": 10, "max_iter": 0, "line_search_exhausted": 0, "diverged": 0
        }

    def test_probe_with_a_constant_past_1e8(self, capsys):
        # c* = 2.4e8; the divergence bound scales with c* sqrt|S^9|, so no
        # trial stops as diverged before it reaches the constant
        code, out, _ = run(
            capsys, "probe", "--n", "9", "--m", "1", "--p", "1.143", "--K", "16", "--trials", "4"
        )
        assert code == 0
        probe = json.loads(out)["results"]["probe"]
        assert (probe["diverged"], probe["constant"], probe["fraction_constant"]) == (0, 4, 1.0)
        assert 0.5 < probe["median_nehari_scale"] < 2.0


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sharp constant run\nm = 1\nn = 3\np = 4\nformat = csv\n")
        code, out, _ = run(capsys, "sharp-constant", "--config", str(cfg))
        assert code == 0
        assert float(list(csv.DictReader(out.splitlines()))[0]["p"]) == 4.0
        # explicit flag overrides the config value
        code, out, _ = run(capsys, "sharp-constant", "--config", str(cfg), "--p", "3")
        assert float(list(csv.DictReader(out.splitlines()))[0]["p"]) == 3.0

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("m = 1\nnot a pair\n")
        code, _, err = run(capsys, "sharp-constant", "--config", str(cfg))
        assert code == 2
        assert "bad.cfg:2" in err

    def test_unknown_config_field(self, tmp_path, capsys):
        cfg = tmp_path / "bad2.cfg"
        cfg.write_text("frobnicate = 7\n")
        code, _, err = run(capsys, "sharp-constant", "--config", str(cfg))
        assert code == 2
        assert "frobnicate" in err

    @pytest.mark.parametrize("command", [["solve"], ["probe", "--trials", "1"]])
    def test_config_right_hand_side_conflicting_with_a_flag(self, tmp_path, capsys, command):
        cfg = tmp_path / "rhs.cfg"
        cfg.write_text("f = 1:2\n")
        code, out, err = run(capsys, *command, "--config", str(cfg), "--p", "3")
        assert code == 2
        assert out == ""
        assert "not allowed with" in err

    def test_config_exponent_repeated_as_a_flag_takes_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("p = 2\nK = 4\n")
        code, out, _ = run(capsys, "solve", "--config", str(cfg), "--p", "3")
        assert code == 0
        assert json.loads(out)["inputs"]["f"] == "1 t^3"

    def test_step0_is_not_an_option(self, tmp_path, capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text("p = 4\nstep0 = 1.0\n")
        code, _, err = run(capsys, "minimize", "--config", str(cfg))
        assert code == 2
        assert "step0" in err
        code, _, _ = run(capsys, "minimize", "--p", "4", "--step0", "1.0")
        assert code == 2


class TestSweep:
    def test_grid(self, capsys):
        code, out, _ = run(capsys, "sweep", "--m", "1,2", "--n", "3,5", "--p", "2.5,4")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        # (2,3) invalid and (2,5,p=4) valid: five valid combinations total
        assert len(rows) == 5
        for row in rows:
            m, n, p = int(row["m"]), int(row["n"]), float(row["p"])
            lam0 = math.prod(n * (n - 2) / 4 - j * (j + 1) for j in range(m))
            area = 2 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)
            assert float(row["sharp_constant"]) == pytest.approx(lam0 * area ** (1 - 2 / p), rel=1e-13)

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "sweep", "--m", "", "--n", "", "--p", "")
        assert code == 0
        assert out.strip() == "m,n,p,sharp_constant"


class TestSolveCommand:
    def test_critical_bubble_solve(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--m", "1", "--n", "3", "--p", "5", "--K", "48",
            "--init", "bubble:2", "--tol", "1e-8",
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["solve"]["classification"] == "nonconstant"
        assert report["results"]["solve"]["residual"] <= 1e-8

    def test_zero_solution_is_reported_as_zero(self, capsys):
        # a bubble of size about 1e-15 falls onto c = 0, which is not the constant
        with pytest.warns(TruncationWarning, match="suggest K"):
            code, out, _ = run(capsys, "solve", "--p", "3", "--K", "8", "--init", "bubble:1e-30")
        assert code == 0
        solve = json.loads(out)["results"]["solve"]
        assert solve["stop_reason"] == "tolerance" and solve["classification"] == "zero"
        assert not any(solve["solution"]["coeffs"]) and solve["krylov_iters"] == 0

    def test_random_start_with_a_constant_past_1e8(self, capsys):
        # its coefficient norm is about 1.4e9, past the old absolute bound 1e8
        code, out, _ = run(
            capsys, "solve", "--n", "9", "--m", "1", "--p", "1.143", "--K", "16", "--init", "random"
        )
        assert code == 0
        solve = json.loads(out)["results"]["solve"]
        assert (solve["stop_reason"], solve["classification"]) == ("tolerance", "constant")
        assert solve["iters"] > 1

    def test_random_start_with_a_constant_below_tol(self, capsys):
        # c* = 8.7e-16 is below tol = 1e-12; the iterate reaches it and is not
        # snapped to the exact zero solution
        code, out, _ = run(
            capsys, "solve", "--n", "3", "--m", "1", "--f", "1e30:3", "--init", "random"
        )
        assert code == 0
        results = json.loads(out)["results"]
        solve = results["solve"]
        assert (solve["stop_reason"], solve["classification"]) == ("tolerance", "constant")
        c_star, mean = results["constant_solution"], solve["solution"]["coeffs"][0]
        assert abs(mean / math.sqrt(2 * math.pi**2) - c_star) <= 1e-10 * c_star

    @pytest.mark.parametrize("K", [0, 1, 2, 3])
    def test_bubble_start_below_four_degrees(self, capsys, K):
        # the tail-decay estimate needs fewer than the usual five coefficients
        with pytest.warns(TruncationWarning, match="suggest K"):
            code, out, _ = run(
                capsys, "solve", "--m", "1", "--n", "3", "--p", "4", "--K", str(K),
                "--init", "bubble:2",
            )
        assert code == 0
        assert json.loads(out)["inputs"]["K"] == K

    @pytest.mark.parametrize("p", ["2.5", "3.5", "4.7"])
    def test_constant_start_converges_at_order_three(self, capsys, p):
        # Lambda_K magnifies rounding, so only a relative stop is in reach here
        code, out, _ = run(capsys, "solve", "--m", "3", "--n", "9", "--p", p, "--init", "constant")
        assert code == 0
        solve = json.loads(out)["results"]["solve"]
        assert solve["converged"] is True and solve["stop_reason"] == "tolerance"
        assert solve["rel_residual"] <= 1e-12 and solve["classification"] == "constant"

    def test_solver_option_is_gone(self, capsys):
        code, _, err = run(
            capsys, "solve", "--m", "2", "--n", "5", "--p", "2", "--K", "12",
            "--init", "constant", "--solver", "green",
        )
        assert code == 2
        assert "--solver" in err
        code, out, _ = run(capsys, "solve", "--m", "2", "--n", "5", "--p", "2", "--K", "12")
        assert code == 0
        assert "solver" not in json.loads(out)["inputs"]

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "solve", "--m", "1", "--n", "3", "--p", "3", "--K", "8",
            "--out", str(out_path),
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["command"] == "solve"

    def test_trace_out(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code, _, _ = run(
            capsys, "minimize", "--m", "1", "--n", "3", "--p", "4", "--K", "8",
            "--starts", "2", "--trace-out", str(trace),
        )
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iter,value,grad_norm"
        assert len(lines) >= 2

    def test_trace_csv(self, tmp_path, capsys):
        from gjmslab.rayleigh import OptimizerConfig, SphereParams, minimize

        trace = tmp_path / "trace.csv"
        code, _, _ = run(
            capsys, "minimize", "--m", "1", "--n", "3", "--p", "4", "--K", "8",
            "--starts", "2", "--seed", "4", "--trace-out", str(trace),
        )
        assert code == 0
        text = trace.read_bytes().decode()
        assert "\r" not in text and text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == "iter,value,grad_norm"
        rows = [line.split(",") for line in lines[1:]]
        # floats are written by repr, so each cell parses back to its exact value
        assert all(repr(float(cell)) == cell for row in rows for cell in row[1:])
        cfg = OptimizerConfig(params=SphereParams(n=3, m=1), p=4.0, K=8, starts=2, seed=4)
        res = minimize(cfg)
        assert [(int(it), float(val), float(gn)) for it, val, gn in rows] == res.trace

    def test_minimize_per_start_records(self, capsys):
        code, out, _ = run(
            capsys, "minimize", "--m", "2", "--n", "5", "--p", "2.5", "--K", "12", "--starts", "5",
        )
        assert code == 0
        report = json.loads(out)
        assert "step0" not in report["inputs"]
        result = report["results"]["minimization"]
        assert result["rel_grad_norm"] >= 0.0
        assert len(result["start_iters"]) == len(result["start_stop_reasons"]) == 5
        assert len(result["start_fallback_steps"]) == 5
        assert set(result["start_stop_reasons"]) <= {"tolerance", "rounding_floor"}

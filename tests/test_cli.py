import csv
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxrates import ClassParams, MeasureKind, bound_lookup, contraction, optimal_step, pgm_step, run
from proxrates import certificate as cert
from proxrates import cli, smooth
from proxrates.cli import build_parser, main
from proxrates.smooth import random_composite

from helpers import csv_rows_oracle, expanded_report, json_document_oracle, trace_oracle, trace_rows_oracle


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestRate:
    def test_markers_and_minimum(self, tmp_path):
        code, out = run_cli(["rate", "--mu", "1", "--L", "10"], tmp_path)
        assert code == 0
        doc = load_json(out)
        assert doc["command"] == "rate" and doc["verdict"] == "pass"
        markers = {r["marker"] for r in doc["rows"] if r["marker"]}
        assert markers == {"1/L", "2/(L+mu)", "2/L", "1/mu"}
        best = min(doc["rows"], key=lambda r: r["rho_sq"])
        assert best["gamma"] == pytest.approx(2 / 11, rel=1e-12)
        assert best["rho_sq"] == pytest.approx((9 / 11) ** 2, rel=1e-12)

    def test_zero_step_row(self, tmp_path):
        code, out = run_cli(["rate", "--mu", "1", "--L", "10", "--grid", "0:0.2:3"], tmp_path)
        rows = load_json(out)["rows"]
        assert rows[0]["gamma"] == 0.0 and rows[0]["rho_sq"] == 1.0

    def test_end_of_range_row(self, tmp_path):
        # at gamma = 2/L the large-curvature term |1 - L*gamma| = 1 dominates
        # |1 - mu*gamma| = 1 - 2 mu/L, so the squared rate is exactly 1
        code, out = run_cli(["rate", "--mu", "1", "--L", "10"], tmp_path)
        rows = load_json(out)["rows"]
        end = [r for r in rows if r["marker"] == "2/L"][0]
        assert end["rho_sq"] == 1.0
        assert end["branch"] == "L"
        assert abs(1 - 1 * 0.2) == pytest.approx(1 - 2 / 10)  # the smaller term

    def test_bad_grid_is_usage_error(self, tmp_path):
        code, _ = run_cli(["rate", "--mu", "1", "--L", "10", "--grid", "oops"], tmp_path)
        assert code == 2

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("grid,place", [("0:1e308:2", "rows[5].rho"), ("0:1e200:3", "rows[5].rho_sq")])
    def test_rate_beyond_the_float_range_is_usage_error(self, tmp_path, capsys, grid, place, fmt):
        # the grid holds plain floats, which overflow to inf without a numpy RuntimeWarning
        code, out = run_cli(["rate", "--mu", "1", "--L", "10", "--grid", grid, "--format", fmt], tmp_path)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: {place} is inf; documents never carry NaN or Infinity\n"

    @pytest.mark.parametrize("grid", ["0:nan:3", "0:inf:3", "nan:1:3"])
    def test_non_finite_grid_is_usage_error(self, tmp_path, capsys, grid):
        code, out = run_cli(["rate", "--mu", "1", "--L", "10", "--grid", grid], tmp_path)
        assert code == 2 and not out.exists()
        assert "finite" in capsys.readouterr().err


class TestSimulate:
    def test_round_trip_bit_for_bit(self, tmp_path):
        args = ["simulate", "--mu", "1", "--L", "10", "--gamma", "0.15",
                "--N", "8", "--dim", "4", "--seed", "3", "--h", "l1"]
        code, out = run_cli(args, tmp_path)
        assert code == 0
        doc = load_json(out)
        problem, x0 = random_composite(ClassParams(1.0, 10.0), 4, "l1", 3)
        trace = run(problem, 0.15, x0, 8)
        for k, row in enumerate(doc["rows"]):
            for m in MeasureKind:
                assert row[m.value] == trace.measure(m, k)  # exact float equality

    def test_worst_case_style_ratios_bounded(self, tmp_path):
        code, out = run_cli(
            ["simulate", "--mu", "1", "--L", "10", "--gamma", "opt", "--N", "10", "--seed", "1"],
            tmp_path,
        )
        doc = load_json(out)
        rho_sq = ((10 - 1) / (10 + 1)) ** 2
        for row in doc["rows"][1:]:
            for m in MeasureKind:
                r = row[f"ratio_{m.value}"]
                if r is not None:
                    assert r <= rho_sq * (1 + 1e-8)
        assert doc["verdict"] == "pass"

    def test_infinite_step_is_usage_error(self, tmp_path, capsys):
        args = ["simulate", "--mu", "1", "--L", "10", "--gamma", "inf", "--N", "3", "--dim", "2"]
        code, out = run_cli(args, tmp_path)
        assert code == 2 and not out.exists()
        assert "finite gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["zero", "nonneg", "box", "l1"])
    def test_rows_match_record_oracle(self, kind):
        # N = 100 reaches the rounding floor, where the violation test turns on
        # each step's floor; both verdicts occur among these seeds
        params = ClassParams(1.0, 10.0)
        verdicts = set()
        runs = [(optimal_step(params)[0], 100, range(24)), (0.19, 20, range(2)), (0.25, 6, range(2))]
        for gamma, N, seeds in runs:
            for seed in seeds:
                problem, x0 = random_composite(params, 8, kind, seed)
                trace = run(problem, gamma, x0, N)
                oracle = trace_oracle(problem, x0, N, lambda x, g: (gamma, *pgm_step(problem, gamma, x, g)))
                rate = contraction(params, gamma)
                want = trace_rows_oracle(oracle, rate, trace.outside_theory, cli._RATIO_TOL)
                assert cli._trace_rows(trace, params, gamma) == want
                verdicts.add(want[1])
        assert verdicts == {False, True}

    def test_rational_string_rejected(self, tmp_path):
        code, _ = run_cli(
            ["simulate", "--mu", "1", "--L", "10", "--gamma", "1/3"], tmp_path
        )
        assert code == 2

    def test_envelope_columns_present(self, tmp_path):
        code, out = run_cli(
            ["simulate", "--mu", "1", "--L", "2", "--gamma", "0.5", "--N", "3"], tmp_path
        )
        row = load_json(out)["rows"][2]
        assert "envelope_dist_sq" in row and "envelope_func_gap" in row

    def test_worst_case_instance_ratio_constant(self, tmp_path):
        code, out = run_cli(
            ["simulate", "--mu", "1", "--L", "10", "--gamma", "opt",
             "--N", "6", "--instance", "worst-case"],
            tmp_path,
        )
        assert code == 0
        rows = load_json(out)["rows"]
        rho_sq = ((10 - 1) / (10 + 1)) ** 2
        for row in rows[1:]:
            for m in MeasureKind:
                assert row[f"ratio_{m.value}"] == pytest.approx(rho_sq, rel=1e-12)

    def test_optimum_start_all_measures_zero(self, tmp_path):
        code, out = run_cli(
            ["simulate", "--mu", "1", "--L", "10", "--gamma", "0.1",
             "--N", "4", "--h", "nonneg", "--instance", "optimum", "--seed", "5"],
            tmp_path,
        )
        assert code == 0
        for row in load_json(out)["rows"]:
            assert abs(row["dist_sq"]) <= 1e-20
            assert abs(row["func_gap"]) <= 1e-14


class TestTight:
    def test_help_names_each_generator_and_the_els_rate(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tight", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert all(f"{name}: " in text for name in cli._TIGHT)
        assert "((L-mu)/(L+mu))^2 is the rate that follows from the fixed-step 2/(L+mu) function-value certificate" in text

    def test_choices_are_the_library_tables(self, monkeypatch):
        def choices(parser, command, dest):
            commands = next(a for a in parser._actions if a.dest == "command").choices
            return next(a.choices for a in commands[command]._actions if a.dest == dest)

        monkeypatch.setitem(cert.VERIFIERS, "extra", cert.verify_distance)
        parser = build_parser()
        assert choices(parser, "simulate", "h") is smooth._H_KINDS
        assert choices(parser, "certify", "theorem") == (*cert.VERIFIERS, "all")
        assert choices(parser, "tight", "generator") == tuple(cli._TIGHT)
        for generate, reads in cli._TIGHT.values():
            assert callable(generate) and set(reads) <= set(cli._TIGHT_DEFAULTS)

    def test_qlb_gaps_vanish(self, tmp_path):
        code, out = run_cli(
            ["tight", "qlb", "--mu", "1", "--L", "10", "--gamma", "0.18", "--N", "4"], tmp_path
        )
        assert code == 0
        doc = load_json(out)
        assert len(doc["rows"]) == 3
        assert all(r["rel_gap"] <= 1e-8 for r in doc["rows"])

    def test_mixed_reference_row(self, tmp_path):
        code, out = run_cli(
            ["tight", "mixed", "--mu", "1", "--L", "2", "--N", "2", "--x0", "1"], tmp_path
        )
        assert code == 0
        doc = load_json(out)
        gap_row = [r for r in doc["rows"] if r["cell"] == "dist_sq->func_gap"][0]
        assert gap_row["predicted"] == pytest.approx(1 / 30, rel=1e-12)
        assert gap_row["attained"] == pytest.approx(1 / 30, rel=1e-10)

    def test_mixed_rejects_other_steps(self, tmp_path):
        code, _ = run_cli(
            ["tight", "mixed", "--mu", "1", "--L", "2", "--gamma", "0.4"], tmp_path
        )
        assert code == 2

    def test_els_row(self, tmp_path):
        code, out = run_cli(["tight", "els", "--mu", "1", "--L", "10", "--N", "6"], tmp_path)
        assert code == 0
        row = load_json(out)["rows"][0]
        assert row["attained"] == pytest.approx((9 / 11) ** 2, rel=1e-10)

    @pytest.mark.parametrize("N", ["0", "-2"])
    def test_els_needs_a_step(self, tmp_path, capsys, N):
        code, _ = run_cli(["tight", "els", "--mu", "1", "--L", "10", "--N", N], tmp_path)
        assert code == 2
        assert "horizon N must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("mu", ["2", "1"])
    def test_qlb_rejects_negative_horizon(self, tmp_path, capsys, mu):
        # mu = L makes the decay 0 ** -2, mu < L a finite one; both are usage errors
        code, out = run_cli(["tight", "qlb", "--mu", mu, "--L", "2", "--N", "-1"], tmp_path)
        assert code == 2 and not out.exists()
        assert "N must be >= 0" in capsys.readouterr().err

    def test_unbounded_refuses_a_nan_start(self, tmp_path, capsys):
        code, out = run_cli(["tight", "unbounded", "--x0", "nan"], tmp_path)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == "error: x0 must be feasible (x0 >= 0)\n"

    def test_unbounded_rows(self, tmp_path):
        code, out = run_cli(["tight", "unbounded", "--c", "0.05", "--N", "5", "--L", "1"], tmp_path)
        assert code == 0
        doc = load_json(out)
        assert len(doc["rows"]) == 3
        assert all(r["rel_gap"] <= 1e-8 for r in doc["rows"])


    @pytest.mark.parametrize("N", ["1", "5", "20"])
    @pytest.mark.parametrize("mu", ["1e-6", "1e-8"])
    def test_mixed_at_small_mu(self, tmp_path, mu, N):
        code, out = run_cli(["tight", "mixed", "--mu", mu, "--L", "1", "--N", N], tmp_path)
        assert code == 0
        rows = load_json(out)["rows"]
        assert len(rows) == 3 and all(r["rel_gap"] <= 1e-12 for r in rows)

    @pytest.mark.parametrize(
        "argv",
        [
            ["tables", "--mu", "0.5", "--L", "1", "--N", "600"],
            ["tables", "--mu", "1e-300", "--L", "1", "--N", "5"],
            ["tables", "--mu", "1e-160", "--L", "1", "--N", "5"],
            ["tight", "mixed", "--mu", "0.5", "--L", "1", "--N", "600"],
            ["tight", "mixed", "--mu", "1e-300", "--L", "1", "--N", "5"],
        ],
    )
    def test_bound_outside_the_float_range_is_a_usage_error(self, tmp_path, capsys, argv):
        code, out = run_cli(argv, tmp_path)
        assert code == 2 and not out.exists()
        assert "leaves the float range at k = " in capsys.readouterr().err


class TestCertify:
    def test_default_grid_passes(self, tmp_path):
        code, out = run_cli(["certify"], tmp_path)
        assert code == 0
        doc = load_json(out)
        assert doc["verdict"] == "pass"
        assert len(doc["rows"]) == 3 * doc["config"]["points"]
        assert all(r["verified"] for r in doc["rows"])

    def test_single_point_rational_parsing(self, tmp_path):
        code, out = run_cli(
            ["certify", "--mu", "1/3", "--L", "4/3", "--gamma", "1/2", "--theorem", "distance"],
            tmp_path,
        )
        assert code == 0
        row = load_json(out)["rows"][0]
        assert row["mu"] == "1/3" and row["gamma"] == "1/2"

    def test_boundary_produces_both_regimes(self, tmp_path):
        code, out = run_cli(
            ["certify", "--mu", "1", "--L", "2", "--gamma", "2/3", "--theorem", "funcvalue"],
            tmp_path,
        )
        regimes = {r["regime"] for r in load_json(out)["rows"]}
        assert regimes == {"small_step", "large_step"}

    def test_mutation_hook_fails_verification(self, tmp_path):
        code, out = run_cli(
            ["certify", "--mu", "1", "--L", "2", "--gamma", "1/2",
             "--theorem", "distance", "--selftest-mutate", "lambda2:1/1000"],
            tmp_path,
        )
        assert code == 1
        assert load_json(out)["verdict"] == "fail"

    def test_mu_at_least_L_rejected(self, tmp_path):
        code, _ = run_cli(["certify", "--mu", "2", "--L", "1", "--gamma", "1/2"], tmp_path)
        assert code == 2

    def test_float_like_strings_are_exact(self, tmp_path):
        code, out = run_cli(
            ["certify", "--mu", "0.5", "--L", "1", "--gamma", "opt", "--theorem", "residual"],
            tmp_path,
        )
        assert code == 0
        rows = load_json(out)["rows"]
        assert {r["gamma"] for r in rows} == {"4/3"}  # 2/(1 + 1/2) exactly


    def test_zero_step_residual_is_a_usage_error(self, tmp_path, capsys):
        code, out = run_cli(["certify", "--mu", "1", "--L", "3", "--gamma", "0"], tmp_path)
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert err.startswith("error: residual certificate requires gamma != 0") and "Traceback" not in err

    def test_zero_step_distance_still_verifies(self, tmp_path):
        code, out = run_cli(["certify", "--mu", "1", "--L", "3", "--gamma", "0", "--theorem", "distance"], tmp_path)
        assert code == 0
        expected = expanded_report("distance", 1, 3, 0, cert.Regime.SMALL_STEP).to_json_dict()
        assert load_json(out)["rows"] == [expected] and expected["verified"]

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--selftest-mutate", "bogus"], "NAME must be a term of the selected theorems (grad_combination, lambda0"),
            (["--selftest-mutate", "lambda0:0"], "DELTA must be nonzero"),
            (["--selftest-mutate", "lambda4", "--theorem", "distance"],
             "(lambda0, lambda1, lambda2, lambda3, prox_residual, regime), got 'lambda4'"),
        ],
    )
    def test_mutation_that_changes_nothing_is_a_usage_error(self, tmp_path, capsys, extra, message):
        code, out = run_cli(["certify", "--mu", "1", "--L", "3", "--gamma", "1/3", *extra], tmp_path)
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert err.startswith("error: --selftest-mutate ") and message in err

    @pytest.mark.parametrize("theorem", ["all", "distance"])
    def test_step_beyond_two_over_L_is_a_usage_error(self, tmp_path, capsys, theorem):
        code, out = run_cli(["certify", "--mu", "1", "--L", "3", "--gamma", "1", "--theorem", theorem], tmp_path)
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert err.startswith("error: ") and "gamma = 1" in err and "2/L = 2/3" in err

    @pytest.mark.parametrize("gamma", ["-1/2", "-1"])
    def test_negative_step_is_a_usage_error(self, tmp_path, capsys, gamma):
        for theorem in ("all", "distance", "residual"):
            code, out = run_cli(["certify", "--mu", "1", "--L", "3", f"--gamma={gamma}", "--theorem", theorem], tmp_path)
            err = capsys.readouterr().err
            assert code == 2 and not out.exists()
            assert err == f"error: certificates cover steps gamma >= 0, got gamma = {gamma}\n"
        # the library verifiers still evaluate a negative step
        assert not cert.VERIFIERS["distance"](1, 3, Fraction(-1, 2), cert.Regime.SMALL_STEP).verified

    def test_step_at_two_over_L_still_verifies(self, tmp_path):
        code, out = run_cli(["certify", "--mu", "1", "--L", "3", "--gamma", "2/3"], tmp_path)
        rows = load_json(out)["rows"]
        assert code == 0 and len(rows) == 3 and all(r["verified"] and r["regime"] == "large_step" for r in rows)
        assert all(gamma <= 2 / L for _, L, gamma, _ in cert.default_grid())
        assert len({(mu, L) for mu, L, gamma, _ in cert.default_grid() if gamma == 2 / L}) == 9
        # the library verifiers still evaluate a step beyond 2/L
        assert cert.VERIFIERS["distance"](1, 3, 1, cert.Regime.LARGE_STEP).verified

    def test_mu_zero_with_all_theorems_names_the_ones_that_apply(self, tmp_path, capsys):
        code, out = run_cli(["certify", "--mu", "0", "--L", "1", "--gamma", "1/2"], tmp_path)
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert "requires mu > 0" in err and "--theorem distance" in err and "--theorem residual" in err
        code, out = run_cli(["certify", "--mu", "0", "--L", "1", "--gamma", "1/2", "--theorem", "distance"], tmp_path)
        assert code == 0 and load_json(out)["verdict"] == "pass"

    @pytest.mark.parametrize("gamma,regimes", [("1/10", ["small_step"]), ("2/11", ["small_step", "large_step"])])
    def test_mutation_builds_each_certificate_once(self, tmp_path, monkeypatch, gamma, regimes):
        # the term names are read once per theorem, so the name check builds no certificate of its own
        builds = []

        def counted(theorem, build):
            return lambda regime, *args: builds.append((theorem, regime.value)) or build(regime, *args)

        for theorem, build in list(cert._CERTIFICATES.items()):
            monkeypatch.setitem(cert._CERTIFICATES, theorem, counted(theorem, build))
        argv = ["certify", "--mu", "1", "--L", "10", "--gamma", gamma, "--selftest-mutate", "lambda0"]
        code, _ = run_cli(argv, tmp_path)
        assert code == 1
        assert builds == [(theorem, regime) for regime in regimes for theorem in cert.VERIFIERS]

    def test_mutation_fails_only_the_theorems_that_own_the_term(self, tmp_path):
        code, out = run_cli(["certify", "--mu", "1", "--L", "3", "--gamma", "1/3", "--selftest-mutate", "lambda4"],
                            tmp_path)
        rows = load_json(out)["rows"]
        assert code == 1 and [r["verified"] for r in rows] == [True, True, False]
        assert rows[2]["theorem"] == "funcvalue" and rows[2]["residual"]["lin"]


class TestTables:
    def test_layout_and_diagonal(self, tmp_path):
        code, out = run_cli(
            ["tables", "--mu", "1", "--L", "2", "--gamma", "0.5", "--N", "2"], tmp_path
        )
        assert code == 0
        rows = load_json(out)["rows"]
        assert len(rows) == 27
        diag = [
            r for r in rows
            if r["table"] == "global" and r["init"] == r["final"]
        ]
        for r in diag:
            assert r["value"] == pytest.approx((1 / 2) ** 4, rel=1e-12)
            assert r["provenance"] == "proven_tight"

    def test_smooth_convex_cells(self, tmp_path):
        code, out = run_cli(
            ["tables", "--mu", "1", "--L", "2", "--gamma", "0.5", "--N", "2"], tmp_path
        )
        rows = [r for r in load_json(out)["rows"] if r["table"] == "smooth_convex_limit"]
        forms = {(r["init"], r["final"]): r for r in rows}
        assert forms[("func_gap", "residual_grad_sq")]["form"] == "L/k"
        assert forms[("func_gap", "residual_grad_sq")]["value"] == pytest.approx(1.0)
        unbounded = [r for r in rows if r["value"] == "unbounded"]
        assert len(unbounded) == 3

    def test_open_cells_marked(self, tmp_path):
        code, out = run_cli(
            ["tables", "--mu", "1", "--L", "2", "--gamma", "0.5", "--N", "2"], tmp_path
        )
        rows = [r for r in load_json(out)["rows"] if r["table"] == "global"]
        open_cells = [r for r in rows if r["value"] == "open"]
        assert len(open_cells) == 3


    def test_every_cell_form_and_provenance(self, tmp_path):
        mu, L, gamma, k = 1.0, 2.0, 0.4, 3
        code, out = run_cli(
            ["tables", "--mu", str(mu), "--L", str(L), "--gamma", str(gamma), "--N", str(k)], tmp_path
        )
        assert code == 0
        tight, upper, conj = "proven_tight", "proven_upper_tight_small_step", "conjectured_tight"
        one_over_L = [
            ("rho^(2k)", tight), ("(mu/2)/(rho^(-2k)-1)", conj), ("mu^2/(rho^(-k)-1)^2", conj),
            ("(2/mu) rho^(2k)", upper), ("rho^(2k)", tight), ("2 mu/(rho^(-2k)-1)", conj),
            ("rho^(2k)/mu^2", upper), ("rho^(2k)/(2 mu)", upper), ("rho^(2k)", tight),
        ]
        expected = {
            "global": [("open", "") if p == conj else (f, p) for f, p in one_over_L],
            "step_1_over_L": one_over_L,
            "smooth_convex_limit": [
                ("1", tight), ("L/(4k)", conj), ("L^2/k^2", conj),
                ("Unbounded", conj), ("1", tight), ("L/k", conj),
                ("Unbounded", conj), ("Unbounded", conj), ("1", tight),
            ],
        }
        lookups = {
            "global": (ClassParams(mu, L), gamma, False),
            "step_1_over_L": (ClassParams(mu, L), 1 / L, True),
            "smooth_convex_limit": (ClassParams(0.0, L), 1 / L, False),
        }
        rows = load_json(out)["rows"]
        assert [r["table"] for r in rows] == [t for t in expected for _ in range(9)]
        cells = [(i, f) for i in MeasureKind for f in MeasureKind]
        for n, row in enumerate(rows):
            table = row["table"]
            init, final = cells[n % 9]
            assert (row["init"], row["final"]) == (init.value, final.value)
            assert (row["form"], row["provenance"]) == expected[table][n % 9]
            if row["form"] == "open":
                assert row["value"] == "open"
                continue
            params, g, conjectured = lookups[table]
            bound = bound_lookup(init, final, params, g, k, conjectured=conjectured)
            assert row["value"] == ("unbounded" if bound.is_unbounded else bound.value)

    @pytest.mark.parametrize("step", [["--gamma", "1"], []])
    def test_mu_zero_is_refused(self, tmp_path, capsys, step):
        # every mu = 0 lookup reads smooth_convex_limit, so a global or step-1/L row would mix two tables
        code, out = run_cli(["tables", "--mu", "0", "--L", "1", *step], tmp_path)
        captured = capsys.readouterr()
        assert code == 2 and not out.exists() and captured.out == ""
        assert captured.err.startswith("error: the global and step-1/L tables need mu > 0;")
        assert captured.err.count("\n") == 1 and "smooth_convex_limit, the mu = 0 table" in captured.err

    def test_mu_equal_L(self, tmp_path):
        code, out = run_cli(["tables", "--mu", "2", "--L", "2", "--N", "3"], tmp_path)
        assert code == 0
        rows = load_json(out)["rows"]
        assert len(rows) == 27
        # one step of 1/L lands on the optimum, so every step-1/L cell reads 0
        step = [r for r in rows if r["table"] == "step_1_over_L"]
        assert [r["value"] for r in step] == [0.0] * 9


class TestFormats:
    def test_csv_has_header(self, tmp_path):
        code, out = run_cli(
            ["rate", "--mu", "1", "--L", "2", "--grid", "0:1:5", "--format", "csv"],
            tmp_path,
            name="out.csv",
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"gamma", "rho", "rho_sq", "branch", "marker"}

    def test_stdout_default(self, capsys):
        code = main(["rate", "--mu", "1", "--L", "2", "--grid", "0:1:3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "rate"

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


# strings that look like the renderer's separators and seams, or that the encoder must escape
_TRICKY_TEXT = ['"},\n      {"', '", "', "%s", '"quoted"', "back\\slash", "\x00\x07\x1f\n\r\t", "é ü ☃ 𝄞 \u2028", ""]
_text = st.one_of(st.text(max_size=8), st.sampled_from(_TRICKY_TEXT))
_scalar = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False), _text)
_flat_dict = st.dictionaries(_text, _scalar, max_size=4)
_documents = st.recursive(
    st.one_of(
        _scalar,
        _flat_dict,
        st.lists(_scalar, max_size=4),
        st.lists(_flat_dict, max_size=4),
        st.lists(st.dictionaries(_text, _scalar, min_size=1, max_size=4), min_size=2, max_size=5),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(_text, inner, max_size=4)),
    max_leaves=40,
)

# a non-finite value X in each kind of container the renderer treats apart, and its place
_NON_FINITE = [
    (lambda x: {"a": 1, "b": x}, ".b"),
    (lambda x: [1, x], "[1]"),
    (lambda x: [{"a": 1}, {"a": 2, "b": x}], "[1].b"),
    (lambda x: {"a": [1, [2]], "b": x}, ".b"),
    (lambda x: [[1], x], "[1]"),
    (lambda x: {"rows": [{"m": [{"v": 1}, {"v": x}], "n": 0}]}, ".rows[0].m[1].v"),
]


class TestRenderer:
    """`cli._render` writes the bytes of `json.dumps(indent=2, allow_nan=False)`."""

    @settings(max_examples=200, deadline=None)
    @given(_documents)
    def test_bytes_of_the_oracle(self, doc):
        assert cli._render(doc) == json_document_oracle(doc)

    @pytest.mark.parametrize("depth", [0, 1, 3])
    @pytest.mark.parametrize("build,place", _NON_FINITE)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_at_every_depth(self, depth, build, place, value):
        doc = build(value)
        for _ in range(depth):
            doc = [doc]
        with pytest.raises(ValueError):
            json_document_oracle(doc)
        with pytest.raises(ValueError):
            cli._render(doc)
        place = "[0]" * depth + place
        assert cli._non_finite(doc) == f"{place.removeprefix('.')} is {value!r}"


class TestFlatEncoder:
    """`_flat_encoder` builds one C encoder per depth and reuses it; the encoder keeps no state between calls."""

    @pytest.fixture(autouse=True)
    def fresh_encoders(self):
        cli._flat_encoder.cache_clear()
        yield
        cli._flat_encoder.cache_clear()

    @staticmethod
    def _certify_document(argv):
        config, rows, verdict = cli._cmd_certify(cli._parser().parse_args(["certify", *argv]))
        return {"command": "certify", "config": config, "rows": rows, "verdict": verdict}

    def test_one_build_per_depth(self, monkeypatch):
        make = json.encoder.c_make_encoder
        if make is None:
            pytest.skip("this Python's json has no C encoder")
        separators = []
        monkeypatch.setattr(json.encoder, "c_make_encoder", lambda *a: separators.append(a[5]) or make(*a))
        doc = self._certify_document([])
        for _ in range(2):
            assert cli._render(doc) == json_document_oracle(doc)
        # the config, each multipliers list and each combination dict: one encoder at each of their depths
        assert sorted(separators) == [",\n" + "  " * depth for depth in (2, 5, 6)]

    def test_a_value_refused_mid_encode_leaves_no_state(self):
        row = {"a": 1.0, "b": math.nan}
        doc = {"rows": [{"a": 0.5}, row], "combination": {"x": "1", "gs": math.inf}}
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._render(doc)
        row["b"] = 2.0
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._render(doc)
        doc["combination"]["gs"] = "1/3"
        assert cli._render(doc) == json_document_oracle(doc)

    def test_without_the_c_encoder(self, monkeypatch):
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        doc = self._certify_document(["--mu", "1", "--L", "3", "--gamma", "1/2"])
        assert cli._render(doc) == json_document_oracle(doc)
        with pytest.raises(ValueError):
            cli._render({"rows": [{"a": 1.0}, {"a": math.nan}]})


_SWEEP = [
    ["rate", "--mu", "1", "--L", "10"],
    ["rate", "--mu", "0", "--L", "1", "--grid", "0:3:7"],
    ["simulate", "--mu", "1", "--L", "10", "--gamma", "opt", "--N", "100", "--dim", "8", "--h", "l1", "--seed", "1"],
    ["simulate", "--mu", "1", "--L", "10", "--gamma", "0.19", "--N", "20", "--dim", "1000", "--h", "box"],
    ["simulate", "--mu", "1", "--L", "10", "--gamma", "0.05", "--h", "nonneg", "--seed", "3"],
    ["simulate", "--mu", "1", "--L", "10", "--gamma", "0.5", "--N", "30", "--h", "box"],
    ["simulate", "--mu", "0.5", "--L", "1", "--gamma", "opt", "--instance", "worst-case", "--dim", "3"],
    ["tight", "qlb", "--N", "7"],
    ["tight", "mixed", "--mu", "0.1", "--L", "1"],
    ["tight", "els", "--mu", "1", "--L", "10", "--N", "4"],
    ["tight", "unbounded"],
    ["certify"],
    ["certify", "--mu", "1", "--L", "3", "--gamma", "1/3", "--selftest-mutate", "lambda0"],
    ["certify", "--theorem", "residual", "--mu", "0", "--L", "1", "--gamma", "opt"],
    ["tables", "--mu", "1", "--L", "10"],
    ["tables", "--mu", "0.5", "--L", "2", "--gamma", "0.5", "--N", "3"],
]


class TestDocumentBytes:
    """Every command writes the oracle's bytes of its document, in both formats, to stdout and to --out."""

    @pytest.mark.parametrize("dest", ["stdout", "out"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", _SWEEP, ids=" ".join)
    def test_identity(self, tmp_path, capsys, argv, fmt, dest):
        config, rows, verdict = cli._COMMANDS[argv[0]](cli._parser().parse_args(argv))
        if fmt == "json":
            doc = {"command": argv[0], "config": config, "rows": rows, "verdict": verdict}
            expected = json_document_oracle(doc) + "\n"
        else:
            expected = csv_rows_oracle(rows)
        argv = argv + ["--format", fmt]
        if dest == "out":
            code, out = run_cli(argv, tmp_path)
            text = out.read_bytes().decode()
        else:
            code = main(argv)
            text = capsys.readouterr().out
        assert code == {"pass": 0, "fail": 1}[verdict]
        assert text == expected


class TestSharedParser:
    SIM = ["simulate", "--mu", "1", "--L", "10", "--gamma", "0.1", "--N", "2", "--dim", "3"]

    def test_arguments_do_not_leak_between_calls(self, tmp_path):
        code, out = run_cli(self.SIM + ["--h", "l1", "--seed", "4", "--format", "csv"], tmp_path, "a.csv")
        assert code == 0
        code, out = run_cli(self.SIM, tmp_path, "b.json")
        config = load_json(out)["config"]
        assert code == 0 and config["h"] == "zero" and config["seed"] == 0

    def test_built_once_across_calls(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        try:
            for k in range(4):
                assert run_cli(self.SIM + ["--seed", str(k)], tmp_path)[0] == 0
            assert run_cli(["rate", "--mu", "1", "--L", "10"], tmp_path)[0] == 0
            assert built == [1]
            assert build_parser() is not build_parser()
        finally:
            cli._parser.cache_clear()

    @staticmethod
    def _exit(parse, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["simulate", "--help"], ["certify", "-h"], [], ["frobnicate"], ["simulate", "--mu", "1"],
         ["tight", "qlb", "--N", "x"], ["rate", "--mu", "1", "--L", "2", "--bogus"]],
    )
    def test_help_and_usage_errors_match_a_fresh_parser(self, tmp_path, capsys, argv):
        run_cli(self.SIM, tmp_path)  # the shared parser has served a command first
        shared = self._exit(main, argv, capsys)
        fresh = self._exit(build_parser().parse_args, argv, capsys)
        assert shared == fresh
        assert shared[0] in (0, 2) and (shared[1] or shared[2])


class TestPipeline:
    """Each command returns its document; `main` alone writes it and maps the verdict to the exit status."""

    @pytest.mark.parametrize(
        "argv,verdict",
        [
            (["rate", "--mu", "1", "--L", "10"], "pass"),
            (["simulate", "--mu", "1", "--L", "10", "--gamma", "0.1", "--N", "5", "--dim", "3"], "pass"),
            (["tight", "qlb", "--N", "3"], "pass"),
            (["tight", "els", "--mu", "1", "--L", "10", "--N", "4"], "pass"),
            (["certify", "--mu", "1", "--L", "3", "--gamma", "1/3"], "pass"),
            (["certify", "--mu", "1", "--L", "3", "--gamma", "1/3", "--selftest-mutate", "lambda0"], "fail"),
            (["certify", "--theorem", "residual", "--mu", "0", "--L", "1", "--gamma", "opt",
              "--selftest-mutate", "subgrad_change:-1/7"], "fail"),
            (["tables", "--mu", "1", "--L", "10"], "pass"),
        ],
    )
    def test_exit_status_follows_verdict(self, tmp_path, argv, verdict):
        code, out = run_cli(argv, tmp_path)
        doc = load_json(out)
        assert doc["command"] == argv[0] and doc["verdict"] == verdict
        assert code == {"pass": 0, "fail": 1}[verdict]

    @pytest.mark.parametrize("verdict,status", [("pass", 0), ("fail", 1)])
    @pytest.mark.parametrize("command", ["rate", "simulate", "tight", "certify", "tables"])
    def test_main_maps_every_commands_verdict(self, tmp_path, monkeypatch, command, verdict, status):
        monkeypatch.setitem(cli._COMMANDS, command, lambda args: ({"n": 1}, [{"a": 2}], verdict))
        argv = {"tight": ["tight", "qlb"], "certify": ["certify"]}.get(command, [command])
        required = {"rate": ["--mu", "1", "--L", "2"], "simulate": ["--mu", "1", "--L", "2", "--gamma", "opt"],
                    "tables": ["--mu", "1", "--L", "2"]}
        code, out = run_cli(argv + required.get(command, []), tmp_path)
        assert code == status
        assert load_json(out) == {"command": command, "config": {"n": 1}, "rows": [{"a": 2}], "verdict": verdict}

    @pytest.mark.parametrize(
        "argv",
        [
            ["rate", "--mu", "1", "--L", "10", "--grid", "oops"],
            ["rate", "--mu", "1", "--L", "10", "--grid", "0:1:1"],
            ["simulate", "--mu", "1", "--L", "10", "--gamma", "1/3"],
            ["simulate", "--mu", "1", "--L", "10", "--gamma", "0.5", "--N", "400", "--h", "box"],
            ["tight", "mixed", "--gamma", "0.3"],
            ["certify", "--mu", "1"],
            ["certify", "--mu", "abc", "--L", "3", "--gamma", "1/3"],
            ["certify", "--mu", "1", "--L", "3"],
            ["simulate", "--mu", "1", "--L", "10", "--gamma", "opt", "--instance", "worst-case", "--h", "l1"],
            ["tables", "--mu", "1", "--L", "10", "--gamma", "1/3"],
        ],
    )
    def test_usage_error_writes_nothing(self, tmp_path, capsys, argv):
        code, out = run_cli(argv, tmp_path)
        captured = capsys.readouterr()
        assert code == 2 and not out.exists()
        assert captured.out == "" and captured.err.startswith("error: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["tight", "qlb", "--dim", "0"],
            ["simulate", "--mu", "1", "--L", "10", "--gamma", "opt", "--instance", "worst-case", "--dim", "0"],
            ["tight", "mixed", "--x0", "1e200"],
            ["tight", "mixed", "--x0", "1e-170"],
            ["tight", "mixed", "--x0", "1e-155"],
            ["tight", "unbounded", "--c", "1e-170"],
            ["tight", "unbounded", "--c", "1e-150", "--x0", "1e-200"],
            ["tight", "unbounded", "--c", "1e-160"],
            ["tight", "qlb", "--mu", "1e-300", "--L", "1"],
            ["tight", "qlb", "--mu", "1e-160", "--L", "1", "--N", "5"],
            ["tight", "qlb", "--N", "2000"],
            ["tight", "qlb", "--N", "330"],
            ["tight", "unbounded", "--x0", "0"],
            ["simulate", "--mu", "1e-300", "--L", "1", "--gamma", "opt", "--instance", "worst-case"],
            ["certify", "--mu", "1", "--L", "3", "--gamma=-1/2"],
            ["tables", "--mu", "1", "--L", "2", "--gamma", "nan"],
        ],
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_instance_outside_the_float_range_writes_nothing(self, tmp_path, capsys, argv, fmt):
        code, out = run_cli(argv + ["--format", fmt], tmp_path)
        captured = capsys.readouterr()
        assert code == 2 and not out.exists()
        assert captured.out == "" and captured.err.startswith("error: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv,unread",
        [
            (["tight", "els", "--gamma", "0.3"], "--gamma"),
            (["tight", "els", "--dim", "2"], "--dim"),
            (["tight", "unbounded", "--gamma", "5"], "--gamma"),
            (["tight", "unbounded", "--mu", "1", "--dim", "3"], "--dim"),
            (["tight", "mixed", "--dim", "7"], "--dim"),
            (["tight", "mixed", "--c", "0.2"], "--c"),
            (["tight", "mixed", "--gamma", "0.5", "--L", "2"], "--gamma"),  # mixed runs at 1/L only
            (["tight", "qlb", "--x0", "-4", "--c", "-1"], "--x0, --c"),
            (["tight", "qlb", "--x0", "2"], "--x0"),
        ],
    )
    def test_tight_refuses_an_option_its_generator_never_reads(self, tmp_path, capsys, argv, unread):
        code, out = run_cli(argv, tmp_path)
        captured = capsys.readouterr()
        assert code == 2 and not out.exists() and captured.out == ""
        assert captured.err == f"error: tight {argv[1]} does not read {unread}\n"

    def test_tight_config_echoes_the_defaults_it_fills(self, tmp_path):
        code, out = run_cli(["tight", "unbounded", "--mu", "1", "--x0", "2"], tmp_path)
        assert code == 0
        assert load_json(out)["config"] == {"generator": "unbounded", "mu": 1.0, "L": 2.0, "N": 5, "x0": 2.0, "c": 0.1}

    def test_tight_fails_on_any_nan_gap(self, monkeypatch):
        # max() skips a NaN that is not its first argument; every gap has to pass
        rows = [("a", 1.0, 1.0), ("b", 1.0, math.nan)]
        monkeypatch.setitem(cli._TIGHT, "qlb", (lambda args, params: iter(rows), ()))
        _, _, verdict = cli._COMMANDS["tight"](cli._parser().parse_args(["tight", "qlb"]))
        assert verdict == "fail"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_document_never_carries_nan_or_infinity(self, tmp_path, capsys, monkeypatch, fmt, value):
        rows = [("a", 1.0, 1.0), ("b", 1.0, value)]
        monkeypatch.setitem(cli._TIGHT, "qlb", (lambda args, params: iter(rows), ()))
        code, out = run_cli(["tight", "qlb", "--format", fmt], tmp_path)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: rows[1].attained is {value!r}; documents never carry NaN or Infinity\n"

    def test_long_envelope_overflow_names_k(self, tmp_path, capsys):
        # gamma = 0.5 > 2/L: the envelope grows as 16^k, past a float at k = 256; the box keeps the iterates finite
        argv = ["simulate", "--mu", "1", "--L", "10", "--gamma", "0.5", "--h", "box", "--N"]
        code, _ = run_cli(argv + ["400"], tmp_path)
        assert code == 2 and "k = 256" in capsys.readouterr().err
        code, out = run_cli(argv + ["250"], tmp_path)
        doc = load_json(out)
        assert code == 0 and doc["config"]["outside_theory"] is True and len(doc["rows"]) == 251
        assert doc["rows"][-1]["envelope_dist_sq"] == 16.0**250 * doc["rows"][0]["dist_sq"]


class TestEntryPoint:
    """`python -m proxrates.cli` exits with main's status and writes main's bytes."""

    @staticmethod
    def _module(argv):
        src = str(pathlib.Path(cli.__file__).parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, "-m", "proxrates.cli", *argv],
            capture_output=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
        )

    @pytest.mark.parametrize(
        "argv,status",
        [
            (["tight", "qlb", "--N", "3"], 0),
            (["certify", "--mu", "1", "--L", "3", "--gamma", "1/3", "--selftest-mutate", "lambda0",
              "--format", "csv"], 1),
            (["tables", "--mu", "1", "--L", "10", "--gamma", "1/3"], 2),
        ],
    )
    def test_module_matches_in_process_main(self, capsys, argv, status):
        done = self._module(argv)
        assert main(argv) == done.returncode == status
        out, err = capsys.readouterr()
        assert done.stdout == out.encode() and done.stderr == err.encode()
        assert (done.stdout == b"") == (status == 2)

    def test_diverging_run_past_the_envelope_exits_2(self, tmp_path):
        # the unconstrained run's objective overflows at k = 256; the run stops there
        out = tmp_path / "out.json"
        done = self._module(["simulate", "--mu", "1", "--L", "10", "--gamma", "0.5", "--N", "400", "--out", str(out)])
        assert done.returncode == 2 and not out.exists()
        assert b"error: F(x_k) is not finite at k = 256" in done.stderr and b"Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "argv,error",
        [
            # predicts nothing at x0 = 0, so nothing is run (its residual would overflow)
            pytest.param(["tight", "unbounded", "--c", "1e300", "--x0", "0"],
                         "tight unbounded predicts no value at these inputs: there is nothing to compare",
                         id="tight-predicts-nothing"),
            pytest.param(["simulate", "--mu", "1", "--L", "1e300", "--gamma", "opt", "--N", "5", "--dim", "3",
                          "--h", "l1"],
                         "residual_grad_sq is not finite at k = 0: it leaves the float range", id="residual-overflows"),
            pytest.param(["simulate", "--mu", "0", "--L", "1e-300", "--gamma", "opt", "--N", "5", "--dim", "3"],
                         "F(x_k) is not finite at k = 1: the iterates diverge", id="objective-overflows"),
            # F(x_k) passes a float at k = 256 in the one block of the run, and at k = 254, the last row of
            # block 84 of 3 rows, at dim 2e4; the steps after it in its block run on inf and NaN
            pytest.param(["simulate", "--mu", "1", "--L", "10", "--gamma", "0.5", "--N", "400", "--dim", "5"],
                         "F(x_k) is not finite at k = 256: the iterates diverge", id="diverges-in-one-block"),
            pytest.param(["simulate", "--mu", "1", "--L", "10", "--gamma", "0.5", "--N", "400", "--dim", "20000",
                          "--seed", "0"],
                         "F(x_k) is not finite at k = 254: the iterates diverge", id="diverges-in-block-84"),
        ],
    )
    def test_run_past_the_float_range_writes_one_error_line(self, tmp_path, argv, error):
        # no numpy warning reaches stderr: the usage error is the one line there
        out = tmp_path / "out.json"
        done = self._module([*argv, "--out", str(out)])
        assert done.returncode == 2 and not out.exists()
        assert done.stderr.decode() == f"error: {error}\n"

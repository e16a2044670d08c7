import csv
import json

import pytest

from proxrates import ClassParams, MeasureKind, bound_lookup, run
from proxrates.cli import main
from proxrates.smooth import random_composite


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

    def test_unbounded_rows(self, tmp_path):
        code, out = run_cli(["tight", "unbounded", "--c", "0.05", "--N", "5", "--L", "1"], tmp_path)
        assert code == 0
        doc = load_json(out)
        assert len(doc["rows"]) == 3
        assert all(r["rel_gap"] <= 1e-8 for r in doc["rows"])


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

"""Command-line front end: rate tables, simulations, tightness and certificate reports.

Output is a single JSON document {command, config, rows, verdict} or the rows
as CSV with a header line. Exit status: 0 on success, 1 when any bound or
certificate in the command's scope is violated, 2 on usage errors.

Step sizes are parsed as decimals on the simulation commands and as exact
rational strings (e.g. "1/3") on the certificate command; passing a rational
string to a simulation command is a usage error rather than a silent
conversion.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import certificate as cert
from .engine import run, run_exact_line_search
from .rates import BOUND_TABLES, ClassParams, MeasureKind, bound_lookup, contraction, optimal_step, rate_branch
from .smooth import random_composite
from .worstcase import (
    DIST_TO_FUNCGAP,
    DIST_TO_RESIDUAL,
    FUNCGAP_TO_RESIDUAL,
    mixed_measure_instance,
    els_worst_quadratic,
    quadratic_lower_bound,
    unbounded_family,
)

_RATIO_TOL = 1e-8
_GAP_TOL = 1e-8

_MEASURES = list(MeasureKind)


class UsageError(Exception):
    pass


def _parse_decimal(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise UsageError(
            f"{what} must be a decimal on this command (got {text!r}); "
            "rational strings like 1/3 belong to `certify`"
        ) from None


def _parse_gamma(text: str, params: ClassParams) -> float:
    if text == "opt":
        return optimal_step(params)[0]
    return _parse_decimal(text, "--gamma")


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start_s, stop_s, count_s = spec.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
        if count < 2 or stop <= start:
            raise ValueError
    except ValueError:
        raise UsageError(f"--grid must look like start:stop:count, got {spec!r}") from None
    return np.linspace(start, stop, count)


def _emit(command: str, config: dict, rows: list[dict], verdict: str, args) -> None:
    if args.format == "json":
        text = json.dumps(
            {"command": command, "config": config, "rows": rows, "verdict": verdict},
            indent=2,
        )
    else:
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _cmd_rate(args) -> int:
    params = ClassParams(args.mu, args.L)
    grid_spec = args.grid or f"0:{2.0 / params.L}:81"
    gammas = list(_parse_grid(grid_spec))
    markers = {
        "1/L": 1.0 / params.L,
        "2/(L+mu)": 2.0 / (params.L + params.mu),
        "2/L": 2.0 / params.L,
    }
    if params.mu > 0:
        markers["1/mu"] = 1.0 / params.mu
    rows = []
    seen = set()
    marked = {v: k for k, v in markers.items()}
    for g in sorted(set(gammas) | set(markers.values())):
        if g in seen:
            continue
        seen.add(g)
        rate = contraction(params, g)
        rows.append(
            {
                "gamma": g,
                "rho": rate.rho,
                "rho_sq": rate.rho_squared,
                "branch": rate_branch(params, g),
                "marker": marked.get(g, ""),
            }
        )
    config = {"mu": params.mu, "L": params.L, "grid": grid_spec}
    _emit("rate", config, rows, "pass", args)
    return 0


def _trace_rows(trace, params: ClassParams, gamma: float) -> tuple[list[dict], bool]:
    rate = contraction(params, gamma)
    rows = []
    violated = False
    initial = {m: trace.measure(m, 0) for m in _MEASURES}
    ratios = {m: [None, *trace.step_ratios(m)] for m in _MEASURES}
    for k, rec in enumerate(trace.records):
        row = {"k": k, "F": rec.F_val}
        for m in _MEASURES:
            row[m.value] = rec.measure(m)
            m0 = initial[m]
            row[f"envelope_{m.value}"] = (
                rate.geometric(k) * m0 if m0 is not None else None
            )
        for m in _MEASURES:
            row[f"ratio_{m.value}"] = ratios[m][k]
            prev, cur = (trace.measure(m, k - 1) if k > 0 else None), row[m.value]
            if prev is not None and cur is not None and not trace.outside_theory:
                violated |= cur > rate.rho_squared * prev * (1 + _RATIO_TOL) + trace.measure_floor(m, k)
        rows.append(row)
    return rows, violated


def _cmd_simulate(args) -> int:
    params = ClassParams(args.mu, args.L)
    gamma = _parse_gamma(args.gamma, params)
    if args.instance == "worst-case":
        if args.h != "zero":
            raise UsageError("the worst-case quadratic instance is unconstrained (--h zero)")
        spec = quadratic_lower_bound(params, gamma, dim=args.dim, N=args.N)
        problem, x0 = spec.problem, spec.x0
    else:
        problem, x0 = random_composite(params, args.dim, args.h, args.seed)
        if args.instance == "optimum":
            x0 = problem.optimum()[0]
    trace = run(problem, gamma, x0, args.N)
    rows, violated = _trace_rows(trace, params, gamma)
    config = {
        "mu": params.mu,
        "L": params.L,
        "gamma": gamma,
        "N": args.N,
        "dim": args.dim,
        "seed": args.seed,
        "h": args.h,
        "instance": args.instance,
        "outside_theory": trace.outside_theory,
    }
    _emit("simulate", config, rows, "fail" if violated else "pass", args)
    return 1 if violated else 0


def _cell_name(cell) -> str:
    return f"{cell[0].value}->{cell[1].value}"


def _attained(trace, cell, k: int) -> float:
    init, final = cell
    m0 = trace.measure(init, 0)
    mk = trace.measure(final, k)
    if init == final:
        return mk / m0
    return mk


def _rel_gap(predicted: float, attained: float) -> float:
    scale = max(abs(predicted), abs(attained))
    return abs(predicted - attained) / scale if scale > 0 else 0.0


def _cmd_tight(args) -> int:
    params = ClassParams(args.mu, args.L)
    rows = []
    if args.generator == "qlb":
        gamma = _parse_gamma(args.gamma or "opt", params)
        spec = quadratic_lower_bound(params, gamma, dim=args.dim, N=args.N)
        trace = run(spec.problem, spec.gamma, spec.x0, spec.N, s0=spec.s0)
        for cell, predicted in spec.predicted.items():
            attained = _attained(trace, cell, spec.N)
            rows.append(
                {
                    "cell": _cell_name(cell),
                    "predicted": predicted,
                    "attained": attained,
                    "rel_gap": _rel_gap(predicted, attained),
                }
            )
    elif args.generator == "mixed":
        gamma = _parse_gamma(args.gamma, params) if args.gamma else 1.0 / params.L
        if not math.isclose(gamma, 1.0 / params.L, rel_tol=1e-12):
            raise UsageError("mixed-measure instances are tuned for gamma = 1/L")
        for target in (DIST_TO_FUNCGAP, DIST_TO_RESIDUAL, FUNCGAP_TO_RESIDUAL):
            spec = mixed_measure_instance(params, args.N, args.x0, target)
            trace = run(spec.problem, spec.gamma, spec.x0, spec.N, s0=spec.s0)
            predicted = spec.predicted[target]
            attained = _attained(trace, target, spec.N)
            rows.append(
                {
                    "cell": _cell_name(target),
                    "predicted": predicted,
                    "attained": attained,
                    "rel_gap": _rel_gap(predicted, attained),
                }
            )
    elif args.generator == "els":
        spec = els_worst_quadratic(params, N=args.N)
        trace = run_exact_line_search(spec.problem, spec.x0, spec.N)
        predicted = spec.predicted[(MeasureKind.FUNC_GAP, MeasureKind.FUNC_GAP)]
        ratios = [r for r in trace.step_ratios(MeasureKind.FUNC_GAP) if r is not None]
        attained = max(ratios)
        rows.append(
            {
                "cell": "func_gap->func_gap (per step)",
                "predicted": predicted,
                "attained": attained,
                "rel_gap": _rel_gap(predicted, attained),
            }
        )
    elif args.generator == "unbounded":
        spec = unbounded_family(args.c, x0=args.x0, N=args.N, L=params.L)
        trace = run(spec.problem, spec.gamma, spec.x0, spec.N, s0=spec.s0)
        for cell, predicted in spec.predicted.items():
            init, final = cell
            attained = trace.measure(final, spec.N) / trace.measure(init, 0)
            rows.append(
                {
                    "cell": _cell_name(cell),
                    "predicted": predicted,
                    "attained": attained,
                    "rel_gap": _rel_gap(predicted, attained),
                }
            )
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown generator {args.generator!r}")

    worst = max((r["rel_gap"] for r in rows), default=0.0)
    verdict = "pass" if worst <= _GAP_TOL else "fail"
    config = {
        "generator": args.generator,
        "mu": params.mu,
        "L": params.L,
        "N": args.N,
        "x0": args.x0,
        "c": args.c,
    }
    _emit("tight", config, rows, verdict, args)
    return 0 if verdict == "pass" else 1


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{what} must be an exact rational string, got {text!r}") from None


def _certify_points(args):
    if args.mu is None and args.L is None and args.gamma is None:
        return cert.default_grid()
    if args.mu is None or args.L is None:
        raise UsageError("certify needs both --mu and --L (or neither, for the default grid)")
    mu = _parse_rational(args.mu, "--mu")
    L = _parse_rational(args.L, "--L")
    if not 0 <= mu < L:
        raise UsageError("certificates require 0 <= mu < L")
    if args.gamma is None:
        raise UsageError("certify needs --gamma with --mu/--L (use a rational string)")
    if args.gamma == "opt":
        gamma = 2 / (L + mu)
    else:
        gamma = _parse_rational(args.gamma, "--gamma")
    g_star = 2 / (L + mu)
    if gamma < g_star:
        return [(mu, L, gamma, cert.Regime.SMALL_STEP)]
    if gamma > g_star:
        return [(mu, L, gamma, cert.Regime.LARGE_STEP)]
    return [(mu, L, gamma, cert.Regime.SMALL_STEP), (mu, L, gamma, cert.Regime.LARGE_STEP)]


def _cmd_certify(args) -> int:
    theorems = list(cert.VERIFIERS) if args.theorem == "all" else [args.theorem]
    mutate = None
    if args.selftest_mutate:
        name, _, delta = args.selftest_mutate.partition(":")
        mutate = (name, _parse_rational(delta or "1/1000", "--selftest-mutate delta"))
    points = _certify_points(args)
    rows = []
    all_ok = True
    for mu, L, gamma, regime in points:
        for theorem in theorems:
            report = cert.VERIFIERS[theorem](mu, L, gamma, regime, _mutate=mutate)
            all_ok &= report.verified
            row = report.to_json_dict()
            rows.append(row)
    config = {
        "theorem": args.theorem,
        "points": len(points),
        "mutate": args.selftest_mutate or "",
    }
    _emit("certify", config, rows, "pass" if all_ok else "fail", args)
    return 0 if all_ok else 1


def _table_rows(table: str, params: ClassParams, gamma: float, k: int, conjectured: bool) -> list[dict]:
    rows = []
    for (init, final), cell in BOUND_TABLES[table].items():
        value, provenance = "open", ""
        if cell.factor is not None:
            bound = bound_lookup(init, final, params, gamma, k, conjectured=conjectured)
            value = "unbounded" if bound.is_unbounded else bound.value
            provenance = bound.provenance.value
        rows.append(
            {
                "table": table,
                "init": init.value,
                "final": final.value,
                "value": value,
                "form": cell.form,
                "provenance": provenance,
            }
        )
    return rows


def _cmd_tables(args) -> int:
    params = ClassParams(args.mu, args.L)
    gamma = _parse_gamma(args.gamma or "opt", params)
    short = 1.0 / params.L
    rows = _table_rows("global", params, gamma, args.N, conjectured=False)
    rows += _table_rows("step_1_over_L", params, short, args.N, conjectured=True)
    rows += _table_rows("smooth_convex_limit", ClassParams(0.0, params.L), short, args.N, conjectured=False)
    config = {"mu": params.mu, "L": params.L, "gamma": gamma, "k": args.N}
    _emit("tables", config, rows, "pass", args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxrates",
        description="Worst-case rates, attaining instances and proof certificates "
        "for the proximal gradient method.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")

    p_rate = sub.add_parser("rate", help="contraction factor over a step-size grid")
    p_rate.add_argument("--mu", type=float, required=True)
    p_rate.add_argument("--L", type=float, required=True)
    p_rate.add_argument("--grid", default=None, help="step-size grid start:stop:count")
    common(p_rate)

    p_sim = sub.add_parser("simulate", help="run PGM on a seeded random composite instance")
    p_sim.add_argument("--mu", type=float, required=True)
    p_sim.add_argument("--L", type=float, required=True)
    p_sim.add_argument("--gamma", required=True, help='decimal step size or "opt"')
    p_sim.add_argument("--N", type=int, default=20)
    p_sim.add_argument("--dim", type=int, default=5)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--h", choices=("zero", "nonneg", "box", "l1"), default="zero")
    p_sim.add_argument(
        "--instance",
        choices=("random", "worst-case", "optimum"),
        default="random",
        help="random composite, the rate-attaining quadratic, or a random composite started at its optimum",
    )
    common(p_sim)

    p_tight = sub.add_parser("tight", help="attained vs predicted worst-case values")
    p_tight.add_argument("generator", choices=("qlb", "mixed", "els", "unbounded"))
    p_tight.add_argument("--mu", type=float, default=1.0)
    p_tight.add_argument("--L", type=float, default=2.0)
    p_tight.add_argument("--gamma", default=None, help='decimal step size or "opt"')
    p_tight.add_argument("--N", type=int, default=5)
    p_tight.add_argument("--x0", type=float, default=1.0)
    p_tight.add_argument("--c", type=float, default=0.1, help="slope of the unbounded family")
    p_tight.add_argument("--dim", type=int, default=2)
    common(p_tight)

    p_cert = sub.add_parser("certify", help="verify the proof certificates in exact arithmetic")
    p_cert.add_argument("--theorem", choices=("distance", "residual", "funcvalue", "all"), default="all")
    p_cert.add_argument("--mu", default=None, help="exact rational, e.g. 1/2")
    p_cert.add_argument("--L", default=None, help="exact rational")
    p_cert.add_argument("--gamma", default=None, help='exact rational or "opt"')
    p_cert.add_argument(
        "--selftest-mutate",
        default=None,
        metavar="NAME[:DELTA]",
        help="test hook: perturb one named coefficient and expect verification to fail",
    )
    common(p_cert)

    p_tab = sub.add_parser("tables", help="render the three bound tables with provenance")
    p_tab.add_argument("--mu", type=float, required=True)
    p_tab.add_argument("--L", type=float, required=True)
    p_tab.add_argument("--gamma", default=None, help='decimal step size or "opt"')
    p_tab.add_argument("--N", type=int, default=2, help="iteration count k for the cells")
    common(p_tab)

    return parser


_COMMANDS = {
    "rate": _cmd_rate,
    "simulate": _cmd_simulate,
    "tight": _cmd_tight,
    "certify": _cmd_certify,
    "tables": _cmd_tables,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

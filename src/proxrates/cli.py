"""Command-line front end: rate tables, simulations, tightness and certificate reports.

Each command maps its parsed arguments to (config, rows, verdict); `main`
alone writes them, as one JSON document {command, config, rows, verdict} or
as CSV rows with a header line, and sets the exit status: 0 on "pass", 1 on
"fail" (a bound or certificate in the command's scope is violated), 2 on a
usage error (any ValueError, or a MemoryError from arrays the input asks for
that cannot be allocated, before anything is written). A document never
carries NaN or Infinity, in either format; the error names the first one's
place, e.g. `rows[5].rho is inf`.

One renderer, `_render`, writes every JSON document, with the bytes of
`json.dumps(doc, indent=2, allow_nan=False)`. Below Python 3.13 that call runs
the pure-Python encoder; `_render` hands each container of scalars, and each
list of such dicts, to the C encoder in one call, with one encoder per depth.

Step sizes are parsed as decimals on the simulation commands and as exact
rational strings (e.g. "1/3") on the certificate command; passing a rational
string to a simulation command is a usage error rather than a silent
conversion.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import certificate as cert
from .engine import run, run_exact_line_search
from .rates import BOUND_TABLES, ClassParams, MeasureKind, bound_lookup, contraction, optimal_step, rate_branch
from .smooth import _H_KINDS, random_composite
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


def _parse_decimal(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"{what} must be a decimal on this command (got {text!r}); "
            "rational strings like 1/3 belong to `certify`"
        ) from None


def _parse_gamma(text: str, params: ClassParams) -> float:
    if text == "opt":
        return optimal_step(params)[0]
    return _parse_decimal(text, "--gamma")


def _parse_grid(spec: str) -> list[float]:
    try:
        start_s, stop_s, count_s = spec.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
        if count < 2 or stop <= start:
            raise ValueError
    except ValueError:
        raise ValueError(f"--grid must look like start:stop:count, got {spec!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"--grid bounds must be finite, got {spec!r}")
    return np.linspace(start, stop, count).tolist()


_SCALARS = (float, str, int, type(None))  # bool is an int; most values are floats


@functools.cache
def _flat_encoder(depth: int):
    """Encode a container of scalars with its items one per line at `depth`.

    The item separator carries the newline and the indent. Where `json` has
    its C encoder, it is built once per depth, as `JSONEncoder.encode` would
    build it, but with no markers dict: a document is a tree, so there is no
    cycle to detect, and an encoder without one keeps no state between calls,
    not even after a NaN raised mid-encode. Elsewhere `JSONEncoder.encode`
    runs the pure-Python encoder.
    """
    separator = ",\n" + "  " * depth
    encoder = json.JSONEncoder(separators=(separator, ": "), allow_nan=False)
    if json.encoder.c_make_encoder is None:
        return encoder.encode
    encode = json.encoder.c_make_encoder(
        None, encoder.default, encode_basestring_ascii, None, ": ", separator, False, False, False
    )
    return lambda value: "".join(encode(value, 0))


def _is_flat(values) -> bool:
    return all(map(isinstance, values, repeat(_SCALARS)))


def _is_flat_rows(values) -> bool:
    """Whether every value is a nonempty dict of scalars."""
    if not all(map(isinstance, values, repeat(dict))):
        return False
    return all(values) and _is_flat(chain.from_iterable(map(dict.values, values)))


def _leaf(value) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {float.__repr__(value)}")
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render(value, depth: int = 0) -> str:
    """`json.dumps(value, indent=2, allow_nan=False)`, nested `depth` levels deep; dict keys are strings.

    Each container of scalars, and each list of such dicts, is one call of
    its depth's `_flat_encoder`, so a document builds at most one encoder per
    depth. The encoder escapes every control character inside a string, so in
    its output a raw newline comes only from a separator. In a list of flat
    dicts the seam "},<newline><indent>{" therefore only ever joins two rows.
    """
    pad = "\n" + "  " * depth
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        if _is_flat(value.values()):
            return "{" + inner + _flat_encoder(depth + 1)(value)[1:-1] + pad + "}"
        items = [
            encode_basestring_ascii(k) + ": " + (_leaf(v) if isinstance(v, _SCALARS) else _render(v, depth + 1))
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if _is_flat(value):
            return "[" + inner + _flat_encoder(depth + 1)(value)[1:-1] + pad + "]"
        if _is_flat_rows(value):
            field = inner + "  "
            text = _flat_encoder(depth + 2)(value)[2:-2].replace("}," + field + "{", inner + "}," + inner + "{" + field)
            return "[" + inner + "{" + field + text + inner + "}" + pad + "]"
        return "[" + inner + ("," + inner).join(_render(v, depth + 1) for v in value) + pad + "]"
    return _leaf(value)


def _non_finite(value, place: str = "") -> str | None:
    """'<place> is <value>' for the first NaN or infinity in document order, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else f"{place} is {float.__repr__(value)}"
    if isinstance(value, dict):
        items = ((f"{place}.{k}" if place else k, v) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{place}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    return next(filter(None, (_non_finite(v, p) for p, v in items)), None)


def _refuse_non_finite(doc: dict) -> None:
    found = _non_finite(doc)
    if found:
        raise ValueError(f"{found}; documents never carry NaN or Infinity")


def _emit(command: str, config: dict, rows: list[dict], verdict: str, args) -> None:
    """Write the command's document, as JSON or as CSV rows, to --out or stdout."""
    doc = {"command": command, "config": config, "rows": rows, "verdict": verdict}
    if args.format == "json":
        try:
            text = _render(doc)
        except ValueError:
            _refuse_non_finite(doc)  # the success path takes no per-value pass
            raise
    else:
        _refuse_non_finite(doc)
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_rate(args):
    params = ClassParams(args.mu, args.L)
    grid_spec = args.grid or f"0:{2.0 / params.L}:81"
    gammas = _parse_grid(grid_spec)
    markers = {
        "1/L": 1.0 / params.L,
        "2/(L+mu)": optimal_step(params)[0],
        "2/L": 2.0 / params.L,
    }
    if params.mu > 0:
        markers["1/mu"] = 1.0 / params.mu
    rows = []
    marked = {v: k for k, v in markers.items()}
    for g in sorted(set(gammas) | set(markers.values())):
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
    return {"mu": params.mu, "L": params.L, "grid": grid_spec}, rows, "pass"


def _trace_rows(trace, params: ClassParams, gamma: float) -> tuple[list[dict], bool]:
    """One row per iterate, built column by column from the trace; and whether a step broke rho^2."""
    rate = contraction(params, gamma)
    n = len(trace)
    geometric = np.array([rate.geometric(k) for k in range(n)])
    columns: dict[str, list] = {"k": list(range(n)), "F": trace.F.tolist()}
    violated = False
    for m in _MEASURES:
        values = trace.measures[m]  # NaN where undefined, and any comparison with NaN is False
        columns[m.value] = [None if math.isnan(v) else v for v in values.tolist()]
        columns[f"envelope_{m.value}"] = [None] * n if math.isnan(values[0]) else (geometric * values[0]).tolist()
        if not trace.outside_theory:
            above = values[1:] > rate.rho_squared * values[:-1] * (1 + _RATIO_TOL) + trace.floors[m][1:]
            violated |= bool(np.any(above))
    for m in _MEASURES:
        columns[f"ratio_{m.value}"] = [None, *trace.step_ratios(m)]
    return [dict(zip(columns, row)) for row in zip(*columns.values())], violated


def _cmd_simulate(args):
    params = ClassParams(args.mu, args.L)
    gamma = _parse_gamma(args.gamma, params)
    if args.instance == "worst-case":
        if args.h != "zero":
            raise ValueError("the worst-case quadratic instance is unconstrained (--h zero)")
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
    return config, rows, "fail" if violated else "pass"


def _cell_name(cell) -> str:
    return f"{cell[0].value}->{cell[1].value}"


def _rel_gap(predicted: float, attained: float) -> float:
    scale = max(abs(predicted), abs(attained))
    return abs(predicted - attained) / scale if scale > 0 else 0.0


def _measured(spec):
    """Run spec; per predicted (init, final) cell, measure `final` at N over measure `init` at 0.

    A spec that predicts nothing is not run: `tight` refuses it, with nothing to compare.
    """
    if not spec.predicted:
        return
    trace = run(spec.problem, spec.gamma, spec.x0, spec.N, s0=spec.s0)
    for (init, final), predicted in spec.predicted.items():
        yield _cell_name((init, final)), predicted, trace.measure(final, spec.N) / trace.measure(init, 0)


def _tight_qlb(args, params: ClassParams):
    gamma = _parse_gamma(args.gamma or "opt", params)
    yield from _measured(quadratic_lower_bound(params, gamma, dim=args.dim, N=args.N))


def _tight_mixed(args, params: ClassParams):
    for target in (DIST_TO_FUNCGAP, DIST_TO_RESIDUAL, FUNCGAP_TO_RESIDUAL):
        spec = mixed_measure_instance(params, args.N, args.x0, target)
        trace = run(spec.problem, spec.gamma, spec.x0, spec.N, s0=spec.s0)
        yield _cell_name(target), spec.predicted[target], trace.measure(target[1], spec.N)


def _tight_els(args, params: ClassParams):
    spec = els_worst_quadratic(params, N=args.N)
    trace = run_exact_line_search(spec.problem, spec.x0, spec.N)
    predicted = spec.predicted[(MeasureKind.FUNC_GAP, MeasureKind.FUNC_GAP)]
    ratios = [r for r in trace.step_ratios(MeasureKind.FUNC_GAP) if r is not None]
    yield "func_gap->func_gap (per step)", predicted, max(ratios)


def _tight_unbounded(args, params: ClassParams):
    yield from _measured(unbounded_family(args.c, x0=args.x0, N=args.N, L=params.L))


# each generator of `tight`, and the options it reads of those that only some generators read;
# --L and --N are read by all, --mu by all but unbounded (which runs mu = 0 and only echoes the --mu given)
_TIGHT = {"qlb": (_tight_qlb, ("gamma", "dim")), "mixed": (_tight_mixed, ("x0",)),
          "els": (_tight_els, ()), "unbounded": (_tight_unbounded, ("x0", "c"))}
_TIGHT_DEFAULTS = {"gamma": None, "dim": 2, "x0": 1.0, "c": 0.1}


def _cmd_tight(args):
    generate, reads = _TIGHT[args.generator]
    unread = [f"--{name}" for name in _TIGHT_DEFAULTS if name not in reads and getattr(args, name) is not None]
    if unread:
        raise ValueError(f"tight {args.generator} does not read {', '.join(unread)}")
    for name, default in _TIGHT_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    params = ClassParams(args.mu, args.L)
    rows = [
        {"cell": cell, "predicted": predicted, "attained": attained, "rel_gap": _rel_gap(predicted, attained)}
        for cell, predicted, attained in generate(args, params)
    ]
    if not rows:
        raise ValueError(f"tight {args.generator} predicts no value at these inputs: there is nothing to compare")
    config = {
        "generator": args.generator,
        "mu": params.mu,
        "L": params.L,
        "N": args.N,
        "x0": args.x0,
        "c": args.c,
    }
    return config, rows, "pass" if all(r["rel_gap"] <= _GAP_TOL for r in rows) else "fail"


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{what} must be an exact rational string, got {text!r}") from None


def _certify_points(args):
    if args.mu is None and args.L is None and args.gamma is None:
        return cert.default_grid()
    if args.mu is None or args.L is None:
        raise ValueError("certify needs both --mu and --L (or neither, for the default grid)")
    mu = _parse_rational(args.mu, "--mu")
    L = _parse_rational(args.L, "--L")
    if not 0 <= mu < L:
        raise ValueError("certificates require 0 <= mu < L")
    if args.gamma is None:
        raise ValueError("certify needs --gamma with --mu/--L (use a rational string)")
    gamma = 2 / (L + mu) if args.gamma == "opt" else _parse_rational(args.gamma, "--gamma")
    if gamma < 0:
        raise ValueError(f"certificates cover steps gamma >= 0, got gamma = {gamma}")
    if gamma > 2 / L:
        raise ValueError(f"certificates cover steps up to 2/L = {2 / L}, got gamma = {gamma}")
    return [(mu, L, gamma, regime) for regime in cert._regimes(mu, L, gamma)]


def _cmd_certify(args):
    theorems = list(cert.VERIFIERS) if args.theorem == "all" else [args.theorem]
    mutate = None
    if args.selftest_mutate:
        name, _, delta = args.selftest_mutate.partition(":")
        mutate = (name, _parse_rational(delta or "1/1000", "--selftest-mutate delta"))
    points = _certify_points(args)
    if args.theorem == "all" and any(mu == 0 for mu, *_ in points):
        raise ValueError(
            "function-value certificate requires mu > 0; at mu = 0 use --theorem distance or --theorem residual"
        )
    if mutate is not None:
        names = sorted({n for theorem in theorems for n in cert._TERM_NAMES[theorem]})
        if name not in names:
            raise ValueError(
                f"--selftest-mutate NAME must be a term of the selected theorems ({', '.join(names)}), got {name!r}"
            )
        if mutate[1] == 0:
            raise ValueError("--selftest-mutate DELTA must be nonzero")
    reports = [
        cert.VERIFIERS[theorem](mu, L, gamma, regime, _mutate=mutate)
        for mu, L, gamma, regime in points
        for theorem in theorems
    ]
    config = {"theorem": args.theorem, "points": len(points), "mutate": args.selftest_mutate or ""}
    return config, [r.to_json_dict() for r in reports], "pass" if all(r.verified for r in reports) else "fail"


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


def _cmd_tables(args):
    params = ClassParams(args.mu, args.L)
    if params.mu == 0:
        raise ValueError(
            "the global and step-1/L tables need mu > 0; smooth_convex_limit, the mu = 0 table, is printed at every mu"
        )
    gamma = _parse_gamma(args.gamma or "opt", params)
    short = 1.0 / params.L
    rows = _table_rows("global", params, gamma, args.N, conjectured=False)
    rows += _table_rows("step_1_over_L", params, short, args.N, conjectured=True)
    rows += _table_rows("smooth_convex_limit", ClassParams(0.0, params.L), short, args.N, conjectured=False)
    return {"mu": params.mu, "L": params.L, "gamma": gamma, "k": args.N}, rows, "pass"


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
    p_sim.add_argument("--h", choices=_H_KINDS, default="zero")
    p_sim.add_argument(
        "--instance",
        choices=("random", "worst-case", "optimum"),
        default="random",
        help="random composite, the rate-attaining quadratic, or a random composite started at its optimum",
    )
    common(p_sim)

    p_tight = sub.add_parser("tight", help="attained vs predicted worst-case values")
    p_tight.add_argument(
        "generator",
        choices=tuple(_TIGHT),
        help="qlb: the quadratic that attains the fixed-step rate; mixed: the constrained 1-d instances of "
        "the step-1/L mixed-measure cells; els: the exact-line-search zigzag, whose per-step gap ratio "
        "((L-mu)/(L+mu))^2 is the rate that follows from the fixed-step 2/(L+mu) function-value certificate "
        "(the line search does at least as well as that step); unbounded: the mu = 0 linear program on the orthant",
    )
    p_tight.add_argument("--mu", type=float, default=1.0)
    p_tight.add_argument("--L", type=float, default=2.0)
    p_tight.add_argument("--gamma", default=None, help='decimal step size or "opt" (qlb; mixed runs at 1/L)')
    p_tight.add_argument("--N", type=int, default=5)
    p_tight.add_argument("--x0", type=float, default=None, help="start (mixed, unbounded; default 1.0)")
    p_tight.add_argument("--c", type=float, default=None, help="slope of the unbounded family (default 0.1)")
    p_tight.add_argument("--dim", type=int, default=None, help="dimension (qlb; default 2)")
    common(p_tight)

    p_cert = sub.add_parser("certify", help="verify the proof certificates in exact arithmetic")
    p_cert.add_argument("--theorem", choices=(*cert.VERIFIERS, "all"), default="all")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` shares across calls; parse_args only reads it."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command and write its document; the exit status follows its verdict (2: a usage error)."""
    args = _parser().parse_args(argv)
    try:
        config, rows, verdict = _COMMANDS[args.command](args)
        _emit(args.command, config, rows, verdict, args)
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if verdict == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())

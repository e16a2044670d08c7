"""Seeded op lists of the three workloads, and the check of every op's output.

An op is one CLI command, run in-process through ``cli.main`` with ``--out``
to a file, or one library call where no command exists. Functions are looked
up through their modules at call time, so the tracer's patches take effect.

Checks rely on oracles outside the code path under test: exit statuses and
per-row verdicts, symbolic certificates evaluated at a rational step against
the exact-rational certificate, the line search against the fixed optimal
step recomputed through the public ``h.prox``/``problem.value``, and the
rate envelopes. Random instances are drawn from audited seed pools (see
audit.py), so every timed op is expected to pass.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from proxrates import certificate, cli, engine, smooth
from proxrates.rates import ClassParams

EPS = float(np.finfo(float).eps)
FLOOR = 256.0 * EPS  # relative rounding scale of one stored value
GAP_TOL = 1e-8  # the tolerance `tight` applies to rel_gap

H_KINDS = ("zero", "nonneg", "box", "l1")
LS_H_KINDS = ("nonneg", "box", "l1")
SIM_MU, SIM_L = 1.0, 10.0  # class of every `simulate` op; steps below are <= 2/L
CERT_NAMES = {
    "distance": ("lambda0", "lambda1", "lambda2", "lambda3", "prox_residual", "regime"),
    "residual": ("lambda0", "lambda1", "lambda2", "lambda3", "subgrad_change", "regime"),
    "funcvalue": (
        "lambda0", "lambda1", "lambda2", "lambda3", "lambda4",
        "grad_combination", "point_combination", "subgrad_combination",
    ),
}


@dataclass
class Outcome:
    ok: bool
    reason: str = ""


OK = Outcome(True)


def bad(reason: str) -> Outcome:
    return Outcome(False, reason)


@dataclass
class Op:
    kind: str
    label: str
    work: int  # verifications, PGM iterations or line-search steps
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    exact: bool = False  # exact-rational certify op (must never build a RatFunc)


class OutFile:
    """The --out target of CLI ops; records the bytes of the last document."""

    def __init__(self, path: str):
        self.path = path
        self.bytes = 0

    def load(self) -> dict:
        with open(self.path) as fh:
            text = fh.read()
        self.bytes = len(text)
        return json.loads(text)


def _cli_op(kind, argv, work, out: OutFile, check, exact=False) -> Op:
    full = list(argv) + ["--out", out.path]

    def run():
        return cli.main(full)

    def checked(rc):
        try:
            return check(rc, out.load())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return bad(f"unreadable output: {exc!r}")
        finally:
            # an op that writes nothing must not be checked against the last document
            if os.path.exists(out.path):
                os.remove(out.path)

    return Op(kind, " ".join(argv), work, run, checked, exact)


# ----------------------------------------------------------------------------
# certify


def _check_point(regimes):
    def check(rc, doc):
        rows = doc["rows"]
        if rc != 0 or doc["verdict"] != "pass":
            return bad(f"exit {rc}, verdict {doc['verdict']}")
        if len(rows) != 3 * len(regimes) or {r["regime"] for r in rows} != regimes:
            return bad(f"{len(rows)} rows for regimes {sorted(regimes)}")
        if not all(r["verified"] and r["residual_zero"] for r in rows):
            return bad("a row is not verified")
        return OK

    return check


def _check_mutation(name):
    def check(rc, doc):
        if rc != 1 or doc["verdict"] != "fail":
            return bad(f"mutation {name} not detected: exit {rc}")
        for row in doc["rows"]:
            names = {m["name"] for m in row["multipliers"]} | {t["name"] for t in row["sos_terms"]}
            if (name in names) == row["verified"]:
                return bad(f"{row['theorem']}: verified={row['verified']} with {name} mutated")
        return OK

    return check


def _symbolic_op(theorem, mu, L, regime, t) -> Op:
    def run():
        return getattr(certificate, f"verify_{theorem}")(mu, L, certificate.gamma_symbol(), regime)

    def check(report):
        if not (report.verified and report.residual_zero and report.symbolic_gamma):
            return bad("symbolic certificate not verified")
        exact = certificate.VERIFIERS[theorem](mu, L, t, regime)
        terms = [(m.name, m.value, e.name, e.value) for m, e in zip(report.multipliers, exact.multipliers)]
        terms += [(s.name, s.coefficient, e.name, e.coefficient) for s, e in zip(report.sos_terms, exact.sos_terms)]
        if len(terms) != len(exact.multipliers) + len(exact.sos_terms):
            return bad("symbolic and exact reports list different terms")
        for name, value, exact_name, want in terms:
            got = value.eval(t) if isinstance(value, certificate.RatFunc) else value
            if name != exact_name or got != want:
                return bad(f"{name} at gamma={t}: {got} != {want}")
        return OK

    label = f"verify_{theorem}({mu}, {L}, gamma, {regime.value}) checked at gamma={t}"
    return Op("certify-symbolic", label, 1, run, check)


def certify_ops(rng: random.Random, out: OutFile, failing: dict) -> list[Op]:
    points: dict = {}
    for mu, L, gamma, regime in certificate.default_grid():
        points.setdefault((mu, L, gamma), set()).add(regime.value)
    ops = []
    for (mu, L, gamma), regimes in points.items():
        argv = ["certify", "--mu", str(mu), "--L", str(L), "--gamma", str(gamma)]
        ops.append(_cli_op("certify-point", argv, 3 * len(regimes), out, _check_point(regimes), exact=True))
    single = [p for p, regimes in points.items() if len(regimes) == 1]
    for name in sorted({n for names in CERT_NAMES.values() for n in names}):
        mu, L, gamma = rng.choice(single)
        argv = ["certify", "--mu", str(mu), "--L", str(L), "--gamma", str(gamma), "--selftest-mutate", name]
        ops.append(_cli_op("certify-mutate", argv, 3, out, _check_mutation(name), exact=True))
    for _ in range(3):
        L = Fraction(rng.randint(2, 12))
        mu = L * Fraction(rng.randint(1, 9), 10)
        g_star = 2 / (L + mu)
        for regime in certificate.Regime:
            for theorem in CERT_NAMES:
                share = Fraction(rng.randint(1, 999), 1000)
                if regime is certificate.Regime.SMALL_STEP:
                    t = g_star * share
                else:
                    t = g_star + (2 / L - g_star) * share
                ops.append(_symbolic_op(theorem, mu, L, regime, t))
    return ops


# ----------------------------------------------------------------------------
# seeded instance pools
#
# `simulate` and the line search run seeded random instances. Each class of
# instance draws its seeds from a fixed pool, range(pool). audit.py runs every
# pool seed once through the op and check below and records in
# instances.json the seeds whose op fails; the workloads time only the others,
# and the known-defect probe reruns the failing ones in every run.


@dataclass(frozen=True)
class Instances:
    key: str  # names the class in instances.json
    per_pass: int  # ops drawn from the pool for one op list
    pool: int  # seeds 0 .. pool-1 were audited
    make: Callable[[int, OutFile], Op]  # the op of one instance seed


def _load_audit() -> dict:
    """The failing seeds of each pool, {key: {seed: reason}}, from instances.json."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "instances.json")) as fh:
        audit = json.load(fh)
    for _, classes in WORKLOADS.values():
        for cls in classes():
            if audit["pools"].get(cls.key) != cls.pool:
                raise ValueError(f"instances.json does not cover pool {cls.key!r}; rerun perfbench/audit.py")
    return audit["failing"]


def clean_seeds(cls: Instances, failing: dict) -> list[int]:
    bad_seeds = {int(s) for s in failing.get(cls.key, {})}
    return [s for s in range(cls.pool) if s not in bad_seeds]


# ----------------------------------------------------------------------------
# pgm_fixed


def _check_simulate(N):
    def check(rc, doc):
        rows = doc["rows"]
        if len(rows) != N + 1 or doc["config"]["outside_theory"]:
            return bad(f"{len(rows)} rows, outside_theory={doc['config']['outside_theory']}")
        for a, b in zip(rows, rows[1:]):
            if not b["F"] <= a["F"] + FLOOR * max(abs(a["F"]), 1.0):
                return bad(f"F increased at k={b['k']}")
        if rc != 0 or doc["verdict"] != "pass":
            return bad(f"exit {rc}, verdict {doc['verdict']}; {_worst_excess(doc):.2g} of the initial measure "
                       "is the largest excess of a step over rho^2 times the last")
        return OK

    return check


def _worst_excess(doc) -> float:
    """Largest step excess over the rho^2 contraction, relative to the initial measure."""
    rows, gamma = doc["rows"], doc["config"]["gamma"]
    rho_sq = max(abs(1 - gamma * SIM_MU), abs(1 - gamma * SIM_L)) ** 2
    return max((
        (b[m] - rho_sq * a[m]) / rows[0][m]
        for m in ("dist_sq", "func_gap", "residual_grad_sq")
        for a, b in zip(rows, rows[1:])
        if rows[0][m] > 0
    ), default=0.0)


def _check_tight(rc, doc):
    gaps = [r["rel_gap"] for r in doc["rows"]]
    if rc != 0 or doc["verdict"] != "pass" or not gaps or max(gaps) > GAP_TOL:
        return bad(f"exit {rc}, rel_gap {max(gaps, default=None)}")
    return OK


def _simulate(h, gamma, N, dim) -> Instances:
    def make(seed, out):
        argv = ["simulate", "--mu", str(SIM_MU), "--L", str(SIM_L), "--gamma", gamma,
                "--N", str(N), "--dim", str(dim), "--h", h, "--seed", str(seed)]
        return _cli_op(f"simulate-dim{dim}", argv, N, out, _check_simulate(N))

    per_pass, pool = SIM_SIZES[(N, dim)]
    if dim == 100_000:
        per_pass = BIG_OPS[h]
    return Instances(f"simulate h={h} gamma={gamma} N={N} dim={dim}", per_pass, pool, make)


def _tight_ops(rng, generator, count, out) -> list[Op]:
    ops = []
    for _ in range(count):
        mu = rng.choice((0.5, 1.0, 2.0))
        L = mu * rng.choice((2, 4, 10, 20))
        N = rng.randint(3, 12)
        argv = ["tight", generator, "--mu", str(mu), "--L", str(L), "--N", str(N)]
        work = N
        if generator == "qlb":
            gamma = rng.choice(("opt", repr(round(rng.uniform(0.05, 1.95) / L, 6))))
            argv += ["--gamma", gamma, "--dim", str(rng.randint(1, 4))]
        elif generator == "mixed":
            argv += ["--x0", repr(round(rng.uniform(0.5, 3.0), 3))]
            work = 3 * N  # one run per mixed cell
        elif generator == "unbounded":
            argv += ["--x0", repr(round(rng.uniform(0.5, 3.0), 3)), "--c", repr(round(rng.uniform(0.05, 0.5), 3))]
        ops.append(_cli_op(f"tight-{generator}", argv, work, out, _check_tight))
    return ops


# (N, dim) -> (ops per pass for each h and step, audited pool size)
SIM_SIZES = {(20, 8): (4, 128), (100, 8): (4, 64), (20, 1000): (2, 64), (10, 100_000): (0, 16)}
# dim-1e5 ops per h: twelve, so that the tail percentile (ten ops per pass
# beyond it) falls inside them; one box op, as its per-coordinate optimum solve
# costs four times the others'
BIG_OPS = {"zero": 4, "nonneg": 4, "box": 1, "l1": 3}


def pgm_fixed_classes() -> list[Instances]:
    classes = []
    for h in H_KINDS:
        classes += [_simulate(h, gamma, 20, 8) for gamma in ("opt", "0.1", "0.05", "0.19")]
        # N=100 reaches the rounding floor, where the measure_floor defect lives
        classes.append(_simulate(h, "opt", 100, 8))
        classes += [_simulate(h, gamma, 20, 1000) for gamma in ("opt", "0.1")]
        classes.append(_simulate(h, "opt", 10, 100_000))
    return classes


def pgm_fixed_ops(rng: random.Random, out: OutFile, failing: dict) -> list[Op]:
    ops = []
    for cls in pgm_fixed_classes():
        ops += [cls.make(s, out) for s in rng.sample(clean_seeds(cls, failing), cls.per_pass)]
    for generator in ("qlb", "mixed", "unbounded"):
        ops += _tight_ops(rng, generator, 4, out)
    return ops


# ----------------------------------------------------------------------------
# pgm_linesearch

ELS_N = 10
# dim-8 ops are two thirds, so the median op sits inside them and the tail
# percentile inside the dim-1e3 ops
ELS_PER_PASS = {8: 16, 1000: 8}


def _els(h, dim) -> Instances:
    params = ClassParams(SIM_MU, SIM_L)

    def make(seed, out):
        def run():
            problem, x0 = smooth.random_composite(params, dim, h, seed)
            return engine.run_exact_line_search(problem, x0, ELS_N)

        label = f"run_exact_line_search({h}, dim={dim}, seed={seed}, N={ELS_N})"
        return Op(f"els-dim{dim}", label, ELS_N, run, _check_els)

    return Instances(f"els h={h} dim={dim} N={ELS_N}", ELS_PER_PASS[dim], 400, make)


def _check_els(trace) -> Outcome:
    problem = trace.problem
    if len(trace.records) != ELS_N + 1 or len(trace.gammas) != ELS_N:
        return bad(f"{len(trace.records)} records for N={ELS_N}")
    g_star = 2.0 / (SIM_L + SIM_MU)
    rho_sq = ((SIM_L - SIM_MU) / (SIM_L + SIM_MU)) ** 2
    F_star = problem.optimum()[1]
    for k, (a, b) in enumerate(zip(trace.records, trace.records[1:])):
        x_fixed = problem.h.prox(g_star, a.x - g_star * problem.f.grad(a.x))
        F_fixed = problem.value(x_fixed)
        F_a, F_b = problem.value(a.x), problem.value(b.x)
        if not F_b <= F_fixed + 1e-12 * (1.0 + abs(F_fixed)):
            return bad(f"step {k}: F={F_b!r} above the fixed 2/(L+mu) step's {F_fixed!r}")
        if not F_b - F_star <= rho_sq * (F_a - F_star) + FLOOR * max(abs(F_b), abs(F_star)):
            return bad(f"step {k}: function gap outside the rho*^2 envelope")
    return OK


def pgm_linesearch_classes() -> list[Instances]:
    return [_els(h, dim) for h in LS_H_KINDS for dim in (8, 1000)]


def pgm_linesearch_ops(rng: random.Random, out: OutFile, failing: dict) -> list[Op]:
    ops = []
    for cls in pgm_linesearch_classes():
        ops += [cls.make(s, out) for s in rng.sample(clean_seeds(cls, failing), cls.per_pass)]
    ops += _tight_ops(rng, "els", 8, out)
    return ops


def certify_classes() -> list[Instances]:
    return []


WORKLOADS = {
    "certify": (certify_ops, certify_classes),
    "pgm_fixed": (pgm_fixed_ops, pgm_fixed_classes),
    "pgm_linesearch": (pgm_linesearch_ops, pgm_linesearch_classes),
}


def build(workload: str, seed: int, out_path: str) -> tuple[list[Op], OutFile]:
    """The op list of `workload` for `seed`, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    out = OutFile(out_path)
    make_ops, _ = WORKLOADS[workload]
    ops = make_ops(rng, out, _load_audit())
    rng.shuffle(ops)
    return ops, out


def known_defect_ops(workload: str, out: OutFile) -> list[Op]:
    """The op of every audited instance of `workload` that failed."""
    failing = _load_audit()
    _, classes = WORKLOADS[workload]
    return [cls.make(int(s), out) for cls in classes() for s in failing.get(cls.key, {})]


def tail_percentile(ops_per_pass: int) -> float:
    """Highest percentile, to 0.1, with at least ten ops of one pass beyond it."""
    return math.floor(1000 * (ops_per_pass - 11) / (ops_per_pass - 1)) / 10


def out_dir(root: str) -> str:
    path = os.path.join(root, ".perfbench-out")
    os.makedirs(path, exist_ok=True)
    return path

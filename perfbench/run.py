"""Benchmark of proxrates: proof checking, fixed-step PGM and exact line search.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Workloads are ``certify``, ``pgm_fixed`` and ``pgm_linesearch``. Each builds
a seeded op list and runs it in whole passes until ``--seconds`` have
elapsed, checking every op's output after its timed region. The last line of
stdout is one JSON object ``{correct, attempted, failed, metrics}``.

``--trace 0`` reports the end-to-end metrics: work_per_s, op_p50_ms and
op_tail_ms from each op's fastest pass, setup_s (median of fresh-process
set-ups) and peak_rss_mb. ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics of the traced passes plus the tracing
overhead; the spans of the first traced pass are written to
``.perfbench-out/``.

An op failed when it raised or its output check failed; ``correct`` is false
when any op failed. After the timed passes, the pool instances that audit.py
recorded as failing are rerun once, untimed, and the number that still fail
is printed (see perfbench/README.md).
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 8  # fresh processes whose set-up times, with the run's own, give setup_s
WORKLOADS = ("certify", "pgm_fixed", "pgm_linesearch")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help="set up, print the time, exit")
    return parser.parse_args(argv)


def set_up(workload: str, seed: int):
    """Import proxrates from src/ and build the op list; returns (ops, out, seconds)."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import proxrates

    if Path(proxrates.__file__).resolve().parent != SRC / "proxrates":
        raise ImportError(f"proxrates imported from {proxrates.__file__}, not from {SRC}")
    import ops as ops_mod

    ops, out = ops_mod.build(workload, seed, os.path.join(ops_mod.out_dir(str(ROOT)), f"out-{os.getpid()}.json"))
    return ops, out, perf_counter() - t0


def probe_setup(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def blas_threads():
    """OpenBLAS's thread count as the library bundled with numpy reports it, or None."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*.so*"))
    for lib in sorted(libs):
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


class Tally:
    """Latencies, work and failures of the ops run so far."""

    def __init__(self, n_ops: int):
        self.latencies: list[list[float]] = [[] for _ in range(n_ops)]  # per op, one per pass
        self.work = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.out_bytes = 0

    def run_pass(self, ops, out, tracer=None) -> float:
        """Run every op once; returns the pass's timed seconds."""
        busy = 0.0
        for op_id, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = op_id
                tracer.enabled = True
            result, error = None, None
            t0 = perf_counter()
            try:
                result = op.run()
            except (Exception, SystemExit) as exc:  # argparse exits on usage errors; a failed op
                error = exc
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            busy += dt
            self.latencies[op_id].append(dt)
            self.attempted += 1
            self.work += op.work
            reason = f"raised {error!r}" if error is not None else op.check(result).reason
            self.out_bytes += out.bytes
            out.bytes = 0
            if reason:
                self.failed += 1
                self.failures.append(f"{op.label}: {reason}")
        return busy

    def merged(self, other: "Tally") -> "Tally":
        """The counts and failures of both tallies (latencies are not merged)."""
        both = Tally(0)
        both.attempted = self.attempted + other.attempted
        both.failed = self.failed + other.failed
        both.failures = self.failures + other.failures
        return both


def warm_up(ops, out) -> None:
    """Run the first op of each kind once, untimed and uncounted."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            try:
                op.check(op.run())
            except (Exception, SystemExit):  # counted when the timed passes run it
                pass
            out.bytes = 0


def best_of_passes(tally, ops, pct) -> dict:
    """End-to-end figures from each op's fastest latency over the run's passes.

    The host is shared, and other tenants slow it by up to half for seconds
    to minutes at a time. An op's fastest pass is the one least disturbed by them, so
    figures built from it move with the program, not with the neighbours.
    """
    import numpy as np

    best = np.array([min(lat) for lat in tally.latencies])
    work = sum(op.work for op in ops)
    return {
        "work_per_s": (work / float(best.sum()), "1/s"),
        "op_p50_ms": (float(np.percentile(best, 50)) * 1e3, "ms"),
        "op_tail_ms": (float(np.percentile(best, pct)) * 1e3, "ms"),
    }


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop that does not touch proxrates."""
    t0 = perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return perf_counter() - t0


def run_passes(seconds, step) -> int:
    """Call step() until `seconds` have passed, at least three times; returns the count."""
    deadline = perf_counter() + seconds
    passes = 0
    while passes < 3 or perf_counter() < deadline:
        step()
        passes += 1
    return passes


def measure(args, ops, out, setup_self):
    import ops as ops_mod

    warm_up(ops, out)
    tally = Tally(len(ops))
    pass_times, setup_times, host = [], [setup_self], []
    start = perf_counter()

    def step():
        pass_times.append(tally.run_pass(ops, out))
        host.append(reference_loop())
        # Set-up probes are spread over the run, between passes, so that one
        # slow phase of the shared host does not hold all of them.
        due = start + (len(setup_times) - 1) * args.seconds / SETUP_PROBES
        if len(setup_times) <= SETUP_PROBES and perf_counter() >= due:
            setup_times.append(probe_setup(args))

    passes = run_passes(args.seconds, step)
    while len(setup_times) <= SETUP_PROBES:
        setup_times.append(probe_setup(args))
    pct = ops_mod.tail_percentile(len(ops))
    metrics = best_of_passes(tally, ops, pct)
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    print(f"{passes} passes of {len(ops)} ops, {min(pass_times):.3f} to {max(pass_times):.3f} s each; "
          f"each op's latency is its fastest pass; op_tail_ms is p{pct} over the ops")
    print(f"setup_s samples {[round(t, 4) for t in setup_times]}")
    # The host is shared; this loop's speed tells a slow phase of the host
    # from a slower program when runs are compared.
    print(f"host reference loop: fastest {min(host) * 1e3:.2f} ms, median {statistics.median(host) * 1e3:.2f} ms")
    return tally, metrics, []


def measure_traced(args, ops, out):
    import ops as ops_mod
    import tracer as tracer_mod

    warm_up(ops, out)
    tracer = tracer_mod.Tracer()
    exact = {i for i, op in enumerate(ops) if op.exact}
    plain, traced = Tally(len(ops)), Tally(len(ops))
    summaries = []
    first_spans = None

    def step():
        nonlocal first_spans
        plain.run_pass(ops, out)
        bytes_before = traced.out_bytes
        tracer.install()
        try:
            traced.run_pass(ops, out, tracer)
        finally:
            tracer.uninstall()
        spans = tracer.take()
        summary = tracer_mod.summarize(spans, exact)
        summary["cli.out_bytes"] = traced.out_bytes - bytes_before
        summaries.append(summary)
        if first_spans is None:
            first_spans = spans

    passes = run_passes(args.seconds, step)
    metrics = {}
    first = summaries[0]
    for key, value in first.items():
        if key.endswith(".self_s"):
            metrics[key] = (statistics.median(s[key] for s in summaries), "s")
        else:
            metrics[key] = (value, "bytes" if key == "cli.out_bytes" else "count" if ".calls" in key else "ratio")
    problems = []
    if any(s[k] != first[k] for s in summaries for k in first if not k.endswith(".self_s")):
        problems.append("per-layer counts differ between traced passes of one op list")
    problems += bypass_violations(args.workload, metrics)
    pct = ops_mod.tail_percentile(len(ops))
    plain_rate = best_of_passes(plain, ops, pct)["work_per_s"][0]
    traced_rate = best_of_passes(traced, ops, pct)["work_per_s"][0]
    metrics["engine.trace_bytes_max"] = (tracer.trace_bytes_max, "bytes")
    metrics["trace.work_per_s_untraced"] = (plain_rate, "1/s")
    metrics["trace.work_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.overhead_frac"] = (1 - traced_rate / plain_rate, "ratio")
    tally = plain.merged(traced)
    metrics["fail_frac"] = (tally.failed / tally.attempted, "ratio")
    path = os.path.join(ops_mod.out_dir(str(ROOT)), f"spans-{args.workload}-seed{args.seed}.tsv")
    write_spans(path, first_spans, ops)
    print(f"{passes} traced and {passes} untraced passes of {len(ops)} ops; spans in {path}")
    print(f"tracing overhead: {plain_rate:.4g} -> {traced_rate:.4g} work/s untraced -> traced")
    return tally, metrics, problems


def probe_known_defects(workload: str, out) -> tuple[int, int]:
    """Rerun once, untimed, every audited instance whose op failed; returns (still failing, audited failing)."""
    import ops as ops_mod

    cases = ops_mod.known_defect_ops(workload, out)
    still = 0
    for op in cases:
        try:
            still += not op.check(op.run()).ok
        except (Exception, SystemExit):
            still += 1
    return still, len(cases)


def bypass_violations(workload: str, metrics: dict) -> list[str]:
    """Layers each workload must not reach, read from the traced counts."""
    def calls(prefix):
        return sum(v for k, (v, _) in metrics.items() if k.startswith(prefix) and k.endswith(".calls"))

    zero = {"certificate.ratfunc.calls_exact": metrics["certificate.ratfunc.calls_exact"][0]}
    if workload == "pgm_fixed":
        zero["certificate.*.calls"] = calls("certificate.")
        zero["engine.ls.calls"] = metrics["engine.ls.calls"][0]
    elif workload == "certify":
        zero["engine.*.calls"] = calls("engine.")
        zero["prox.*.calls"] = calls("prox.")
    return [f"bypass check: {name} = {value}, expected 0" for name, value in zero.items() if value]


def write_spans(path: str, spans, ops) -> None:
    with open(path, "w") as fh:
        fh.write("# name\tstart_s\tend_s\tparent\top\n")
        for name, t0, t1, parent, op in spans:
            fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{op}\n")
        fh.write("# ops\n")
        for i, op in enumerate(ops):
            fh.write(f"# {i}\t{op.kind}\t{op.label}\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "proxrates" / "__init__.py").is_file():
        print(f"error: no proxrates package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    ops, out, setup_self = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(setup_self)
        return 0
    if args.trace:
        tally, metrics, problems = measure_traced(args, ops, out)
    else:
        tally, metrics, problems = measure(args, ops, out, setup_self)
    still, recorded = probe_known_defects(args.workload, out)
    if args.trace:
        metrics["known_defect.still_failing"] = (still, "count")
    print(f"workload {args.workload} seed {args.seed}: blas threads {blas_threads()}; "
          f"{tally.failed} of {tally.attempted} ops failed; "
          f"known defects: {still} of the {recorded} audited failing instances still fail (untimed)")
    for line in (tally.failures + problems)[:20]:
        print(f"FAILED {line}")
    result = {
        "correct": not (tally.failures or problems),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

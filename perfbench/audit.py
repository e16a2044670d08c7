"""Audit the seeded instance pools of the workloads; writes perfbench/instances.json.

Run from the root of a checkout:

    python3 perfbench/audit.py

Every seed of every pool (see ops.py) is run once through the same op and
output check the benchmark uses. The seeds whose op fails are recorded with
the reason. The workloads never draw them; the benchmark's known-defect probe
reruns them in every run and reports how many still fail. Rerun the audit
only when the pools change: the file is part of the benchmark's inputs.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ops  # noqa: E402


def main() -> int:
    out = ops.OutFile(os.path.join(ops.out_dir(str(HERE.parent)), f"audit-{os.getpid()}.json"))
    pools, failing = {}, {}
    for workload, (_, classes) in ops.WORKLOADS.items():
        for cls in classes():
            t0 = perf_counter()
            pools[cls.key] = cls.pool
            for seed in range(cls.pool):
                op = cls.make(seed, out)
                try:
                    outcome = op.check(op.run())
                except (Exception, SystemExit) as exc:
                    outcome = ops.bad(f"raised {exc!r}")
                if not outcome.ok:
                    failing.setdefault(cls.key, {})[str(seed)] = outcome.reason
            print(f"{workload}: {cls.key}: {len(failing.get(cls.key, {}))} of {cls.pool} fail "
                  f"({perf_counter() - t0:.1f} s)", file=sys.stderr, flush=True)
    with open(HERE / "instances.json", "w") as fh:
        json.dump({"pools": pools, "failing": failing}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py [--seed N]

For each workload, runs one round of operations on the code as it is and
requires every output to pass.  Then it moves one output off (a velocity by
1e-6 relative, or a fit by 0.02 in c_ge) and requires exactly that
operation to be counted as failed.  Exits 1 if either does not hold.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    run._import_sawkit()
    from workloads import WORKLOADS

    ok = True
    for name, cls in WORKLOADS.items():
        workdir = run.OUT_DIR / f"selftest-{os.getpid()}"
        try:
            workload = cls(args.seed, workdir)
            ops, _ = run.measure(workload, 0.0, run.HostSpeed())
            clean = [r for r in run.failures(workload, ops) if r is not None]
            changed = workload.perturb(ops)
            reasons = run.failures(workload, ops)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        flagged = [i for i, r in enumerate(reasons) if r is not None]
        passed = not clean and flagged == [changed]
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}: {len(reasons)} checked, "
              f"clean run failed {len(clean)}, perturbed op {changed} -> failed {flagged}"
              + (f" ({reasons[changed]})" if changed in flagged else ""))
        for r in clean:
            print(f"  clean-run failure: {r}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

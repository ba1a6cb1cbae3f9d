"""Write the reference CSVs the benchmark checks sweep outputs against.

Usage, from the repository root::

    python3 bench/make_reference.py [SEED ...]

Runs each workload's sweep through the CLI exactly as ``bench/run.py``
does and stores the CSV as ``bench/reference/<workload>/<seed>.csv``.
Without arguments it writes the default seed and seeds 0-31.  A CSV that
breaks an analytic invariant is not stored.  Regenerate only when a
workload's definition changes; a reference written by changed library code
would no longer catch that change.
"""

from __future__ import annotations

import shutil
import sys

import run

DEFAULT_SEEDS = (run.DEFAULT_SEED, *range(32))


def main(seeds) -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    status = 0
    for workload in run.WORKLOADS.values():
        target_dir = run.REFERENCE_DIR / workload.name
        target_dir.mkdir(parents=True, exist_ok=True)
        for seed in seeds:
            target = target_dir / f"{seed}.csv"
            if target.exists():
                target.unlink()  # check invariants only, not the old reference
            result = run.run_sweep(workload, seed, "reference")
            if result.failed:
                print(f"{workload.name} seed {seed}: not stored: {result.problems}", file=sys.stderr)
                status = 1
                continue
            shutil.copyfile(run.OUT_DIR / f"{workload.name}-reference.csv", target)
            print(f"{workload.name} seed {seed}: {result.measured.wall_s:.2f} s -> {target}")
    return status


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or DEFAULT_SEEDS))

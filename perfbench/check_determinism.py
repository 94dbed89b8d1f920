"""Check that the traced run's machine-independent counts are determined by
the seed: two traced runs with one seed must report the same counts, and a
run with another seed must change at least one of them.

    python3 perfbench/check_determinism.py --workload bracket-flow --seed 1

Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
from spans import is_count  # noqa: E402


def traced_counts(workload, seed, seconds):
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180, check=True)
    doc = json.loads(res.stdout.strip().splitlines()[-1])
    if not doc["correct"]:
        raise SystemExit(f"{workload} seed {seed}: traced run not correct")
    return {k: v["value"] for k, v in doc["metrics"].items() if is_count(k)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, action="append")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=2.0,
                   help="short is enough: counts cover a fixed item prefix")
    args = p.parse_args(argv)
    ok = True
    for workload in args.workload or WORKLOADS:
        first = traced_counts(workload, args.seed, args.seconds)
        again = traced_counts(workload, args.seed, args.seconds)
        other = traced_counts(workload, args.seed + 1, args.seconds)
        differ = sorted(k for k in first if first[k] != again[k])
        moved = sorted(k for k in first if first[k] != other[k])
        same_seed_ok = not differ
        other_seed_ok = bool(moved)
        ok = ok and same_seed_ok and other_seed_ok
        print(f"{workload}: {len(first)} counts; same seed "
              f"{'repeats exactly' if same_seed_ok else f'differs in {differ}'}; "
              f"seed {args.seed + 1} moves {len(moved)} of them")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

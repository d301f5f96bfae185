#!/usr/bin/env python3
"""Run every verification suite at its canonical configuration.

Writes one JSON report per suite plus a summary table to stdout.  The full
run took about 5 s on a 2-core machine with one BLAS thread (numpy 2.4,
scipy 1.17); pass --quick for a smoke run.
"""

import argparse
import json
import pathlib
import sys
import time

from qmc.verify import VerifyConfig, run_suite

CANONICAL = [
    ("theorem-2", dict(d=7, s=2, t=2, samples=100, env_samples=5, restarts=32, iterations=2000)),
    ("theorem-3", dict(d=13, s=2, t=6, restarts=8, iterations=500)),
    ("theorem-3", dict(d=7, s=2, t=2, restarts=8, iterations=500)),
    ("theorem-4", dict(d=7, s=2, t=2, env_samples=20, restarts=4, iterations=300)),
    ("theorem-5", dict(d=7, s=2, t=2, env_samples=20, restarts=8, iterations=500)),
    ("lemmas", dict(d=7, s=2, t=2, samples=100)),
    ("lemmas", dict(d=13, s=2, t=6, samples=100)),
    ("coding", dict(d=13, s=2, t=6, trials=200)),
]

QUICK_OVERRIDES = dict(samples=10, env_samples=2, restarts=2, iterations=60, trials=20)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="reports")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_pass = True
    for idx, (suite, overrides) in enumerate(CANONICAL):
        if args.quick:
            overrides = {**overrides, **{k: v for k, v in QUICK_OVERRIDES.items() if k in overrides}}
        cfg = VerifyConfig(seed=args.seed, **overrides)
        started = time.perf_counter()
        reports = run_suite(suite, cfg)
        elapsed = time.perf_counter() - started
        for report in reports:
            for line in report.lines():
                print(line)
            all_pass = all_pass and report.passed
        path = out_dir / f"{idx:02d}_{suite}.json"
        path.write_text(
            json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"
        )
        print(f"-- {suite} ({overrides}) finished in {elapsed:.1f}s -> {path}")
    print("overall:", "PASS" if all_pass else "FAIL")
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())

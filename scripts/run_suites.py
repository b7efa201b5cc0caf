#!/usr/bin/env python3
"""Run every randomized suite (s-structure axioms, t-structure checks,
oracle agreement) across seeds and modes, and summarize.

Usage: python3 scripts/run_suites.py [--samples 200] [--seeds 1,2,3]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stagger.sstruct import SConfig, axiom_suite
from stagger.stag import tstructure_suite
from stagger.oracle import agreement_suite


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--seeds", default="1,2,3")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    failures = 0
    for seed in seeds:
        for mode in ("weight", "trivial"):
            cfg = SConfig(mode)
            for name, run in (
                ("axioms", lambda: axiom_suite(cfg, seed=seed, samples=args.samples)),
                ("tstructure", lambda: tstructure_suite(cfg, seed=seed, samples=args.samples)),
            ):
                t0 = time.time()
                rep = run()
                dt = time.time() - t0
                status = "ok" if rep.ok else "FAIL(%d)" % rep.violation_count()
                print("%-11s mode=%-7s seed=%d  %-8s %.2fs"
                      % (name, mode, seed, status, dt))
                if not rep.ok:
                    failures += 1
                    for line in rep.summary_lines():
                        print("   ", line)
        t0 = time.time()
        rep = agreement_suite(seed=seed, samples=args.samples)
        dt = time.time() - t0
        status = "ok" if rep.ok else "FAIL(%d)" % rep.violation_count()
        print("%-11s %-14s seed=%d  %-8s %.2fs" % ("agreement", "", seed, status, dt))
        if not rep.ok:
            failures += 1
            for line in rep.summary_lines():
                print("   ", line)

    print("\n%d suite run(s) failed" % failures if failures else "\nall suites clean")
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Print the Borel-orbit verification report for the projective line.

Usage: python3 scripts/flag_report.py [--window 4] [--json]
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stagger.flag import flag_verify


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--window", type=int, default=4)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()

    rep = flag_verify(window=args.window)
    if args.json:
        print(json.dumps(rep.to_json(), indent=2, sort_keys=True))
    else:
        for line in rep.summary_lines():
            print(line)
    return 0 if rep.ok else 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the full identity-check registry and print a summary table.

Usage: python scripts/run_all_checks.py [--max-n N]
Exit code 0 when every check passes, 1 otherwise.
"""

import argparse
import sys
import time
from collections import Counter

from combi import verify


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=None,
                    help="cap every check at this n")
    args = ap.parse_args()

    t0 = time.perf_counter()
    reports = verify.run_all(args.max_n)
    elapsed = time.perf_counter() - t0

    by_id = Counter()
    worst = {}
    for rep in reports:
        by_id[rep.id] += 1
        if rep.status != "pass":
            worst.setdefault(rep.id, rep)
    width = max(len(c.id) for c in verify.CHECKS)
    for check in verify.CHECKS:
        rep = worst.get(check.id)
        status = "ok" if rep is None else rep.status
        print(f"{check.id:<{width}}  runs={by_id[check.id]:<3} {status}")
        if rep is not None and rep.status == "fail":
            print(f"  n={rep.n}  lhs: {rep.lhs}")
            print(f"  n={rep.n}  rhs: {rep.rhs}")
    failures = sum(1 for r in reports if r.status == "fail")
    print(f"\n{len(reports)} reports, {failures} failures, {elapsed:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

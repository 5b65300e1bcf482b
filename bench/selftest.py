"""Show that the benchmark counts a wrong answer as failed, not as timed.

    python3 bench/selftest.py

From the root of a checkout, runs one repetition of each workload with a
planted defect and exits 1 unless every one reports failed operations:

registry, stream  the single-coefficient `n_row` mutation of
                  test_criterion_14 (N-el-enum and friends; the matching
                  `el` distribution against `n_row(n)`)
algebra           `a_poly` off by x^(n+1), which the convolution route of
                  P_24 uses and the recurrence does not
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import HERE, BenchError, Runner

MUTANT_OF = {"registry": "n_row", "stream": "n_row", "algebra": "a_poly"}


def main() -> int:
    runner = Runner(Path.cwd())
    ok = True
    for workload, mutant in MUTANT_OF.items():
        try:
            stdout = runner.run([str(HERE / "worker.py"), "--workload", workload,
                                 "--seed", "0", "--mutant", mutant])
        except BenchError as exc:
            print(f"{workload}: {exc}")
            ok = False
            continue
        rep = json.loads(stdout.strip().splitlines()[-1])
        caught = rep["failed"] > 0
        ok = ok and caught
        print(f"{workload} with mutant {mutant}: {rep['failed']} of "
              f"{rep['attempted']} operations failed -> "
              f"{'caught' if caught else 'NOT CAUGHT'}")
        for problem in rep["problems"][:3]:
            print(f"  {problem[:160]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

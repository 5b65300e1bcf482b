"""One repetition of one workload, in the interpreter that runs this file.

    python3 bench/worker.py --workload stream --seed 3 [--trace 1 --spans F]
                            [--mutant n_row]

combi is imported from `src/` of the checkout that holds this file, before
the clock starts; `run.py` times that import separately as `setup_s`.
The last line of stdout is a JSON object: wall and CPU seconds of the
repetition (without the host-speed samples), the median seconds of those
samples, this process's own peak RSS, the operations attempted and
failed, a digest of the outputs and, when traced, the per-layer summary.

`--mutant` plants a known defect, for `selftest.py` to show that a wrong
answer is counted as failed rather than timed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutant_n_row(n):
    """The single-coefficient mutation of test_criterion_14: 2k becomes k."""
    row = [0, 1]
    for m in range(1, n):
        new = [0] * (m + 2)
        for k in range(1, m + 2):
            old_k = row[k] if k <= m else 0
            new[k] = k * old_k + (2 * m - 2 * k + 3) * row[k - 1]
        row = new
    return tuple(row)


def _plant(mutant: str) -> None:
    from combi import families
    from combi.poly import X

    if mutant == "n_row":
        families.n_row = _mutant_n_row
    elif mutant == "a_poly":
        a_poly = families.a_poly
        families.a_poly = lambda n: a_poly(n) + (X ** (n + 1) if n >= 2 else 0)


MUTANTS = ("n_row", "a_poly")


def _reference_loop() -> None:
    """A fixed 10 ms of the kinds of work combi does (small and big ints,
    tuple-keyed dicts, Fractions) that calls no combi code."""
    x = 0
    for k in range(30_000):
        x += k * k % 7
    d = {}
    for i in range(10_000):
        key = (i % 97, i % 89)
        d[key] = d.get(key, 0) + i * i
    a = 1
    for i in range(1, 400):
        a = a * (3 * i + 1) // (i % 5 + 1) + i
    s = Fraction(0)
    for i in range(1, 150):
        s += Fraction(1, i)


class HostSpeed:
    """Times `_reference_loop` at the start, every SAMPLE_EVERY_S seconds
    of wall time (from a SIGALRM handler, between two bytecodes of the
    workload) and at the end.  The host's speed drifts by 20-40 % over
    minutes and swings within one repetition; `run.py` divides by these
    samples to take that out of its times.  `spent` is the time inside the
    samples, which the repetition's wall time excludes."""

    SAMPLE_EVERY_S = 0.5

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, *_):
        t0 = time.perf_counter()
        _reference_loop()
        self.samples.append(time.perf_counter() - t0)

    @property
    def spent(self) -> float:
        return sum(self.samples)

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY_S,
                         self.SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def main() -> int:
    from workloads import WORKLOADS, Outcome

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file to write the span records to")
    ap.add_argument("--mutant", choices=MUTANTS)
    args = ap.parse_args()

    import combi
    import combi.cli
    src = (ROOT / "src").resolve()
    if src not in Path(combi.__file__).resolve().parents:
        print(f"combi was imported from {combi.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.mutant:
        _plant(args.mutant)
    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)

    # A traced repetition is not sampled: the samples would land in the
    # self time of whatever combi call they interrupt.
    host = HostSpeed()
    out = Outcome(clock=lambda: time.perf_counter() - host.spent)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with host if tracer is None else contextlib.nullcontext():
        WORKLOADS[args.workload](args.seed, out)
    wall = time.perf_counter() - t0 - host.spent
    cpu = time.process_time() - cpu0 - host.spent

    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "ref_s": statistics.median(host.samples) if host.samples else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": out.attempted,
        "failed": out.failed,
        "problems": out.problems,
        "digest": out.digest,
        "phases": dict(out.phases),
    }
    if tracer is not None:
        result["layers"] = tracer.summary(combi.REGISTRY, combi.objects.CLASS_NAMES)
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent"],
                           "installed": tracer.wrapped,
                           "dropped": tracer.spans_dropped,
                           "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark driver for combi.

    python3 bench/run.py --workload registry|stream|algebra --seed N \
                         --seconds S --trace 0|1

Run it from the root of a checkout: combi is imported from `src/` there,
nothing is installed.  Every repetition runs in a fresh interpreter
(`worker.py`), one after another and never in parallel, so process-level
caches start cold as they do for a user's `combi` call.  A run always
makes one repetition and starts another only while the mean so far says
it will end within S seconds; one `registry` repetition alone is longer.

--trace 0 prints the end-to-end metrics of BENCHMARK.json:
    wall_s       median wall time of one repetition, import excluded
    peak_rss_mb  largest RUSAGE_SELF peak RSS a repetition reported
    setup_s      median of 15 fresh `python -c "import combi"` (after one
                 untimed import that writes the bytecode cache)
Both times are scaled to a nominal host speed: each repetition times a
fixed reference loop every 0.5 s of its work (`worker.HostSpeed`), and the
times are multiplied by REF_S / (median over the repetitions of their
median sample).  The shared host's speed drifts by 20-40 % over minutes,
and this takes most of the drift out.  The raw times and the factor are
in the record.
--trace 1 prints the per-layer metrics instead.  It runs pairs of one
repetition without and one with the wrappers of `tracer.py`, as many as
fit in S seconds (one pair on `registry`), and reports medians over the
pairs: the layer values, the tracing overhead (traced minus untraced wall
time of a pair) and the stream phase rates (from the untraced ones).  It
fails when the checks that combi registers are not exactly the
`verify.check_s.<id>` metrics of BENCHMARK.json.

Inputs come from --seed; all outputs are checked (see workloads.py), and
every repetition of a run must give the same output digest.  The last
line of stdout is the result object; the line before it records the seed,
the repetitions and the machine.  Records also go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170
SETUP_RUNS = 15
REF_S = 0.01  # seconds of one host-speed sample at the nominal speed


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, root: Path):
        self.root = root
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env.pop("COMBI_MAX_ORDER", None)
        self.env["PYTHONHASHSEED"] = "0"

    def run(self, argv: list[str]) -> str:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a child")
        try:
            proc = subprocess.run([sys.executable, *argv], cwd=self.root,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {argv} ran past the deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"child {argv} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        return proc.stdout

    def setup_s(self) -> float:
        argv = ["-c", "import combi"]
        self.run(argv)
        times = []
        for _ in range(SETUP_RUNS):
            t0 = time.perf_counter()
            self.run(argv)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def rep(self, workload: str, seed: int, trace: bool = False,
            spans: Path | None = None) -> dict:
        argv = [str(HERE / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--trace", str(int(trace))]
        if spans is not None:
            argv += ["--spans", str(spans)]
        lines = self.run(argv).strip().splitlines()
        if not lines:
            raise BenchError(f"worker for {workload} printed nothing")
        return json.loads(lines[-1])


def machine() -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "machine": platform.machine()}


def untraced(runner: Runner, args) -> tuple[dict, list[dict]]:
    setup = runner.setup_s()
    reps = []
    start = time.monotonic()
    while True:
        reps.append(runner.rep(args.workload, args.seed))
        elapsed = time.monotonic() - start
        if elapsed * (len(reps) + 1) / len(reps) > args.seconds:
            break
    factor = REF_S / statistics.median(r["ref_s"] for r in reps)
    values = {"setup_s": setup * factor,
              "wall_s": statistics.median(r["wall_s"] for r in reps) * factor,
              "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
              "raw_setup_s": setup, "host_factor": factor}
    return values, reps


def traced(runner: Runner, args, out_dir: Path) -> tuple[dict, list[dict]]:
    """Pairs of one untraced and one traced repetition, while the mean pair
    says the next one ends within --seconds (at least one pair).  Layer
    values, overhead and stream rates are medians over the pairs."""
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    pairs = []
    start = time.monotonic()
    while True:
        plain = runner.rep(args.workload, args.seed)
        rep = runner.rep(args.workload, args.seed, trace=True,
                         spans=None if pairs else spans)
        pairs.append((plain, rep))
        elapsed = time.monotonic() - start
        if elapsed * (len(pairs) + 1) / len(pairs) > args.seconds:
            break

    def median(f):  # median_low keeps counts whole
        return statistics.median_low(f(plain, rep) for plain, rep in pairs)

    values = {key: median(lambda p, r: r["layers"][key])
              for key in pairs[0][1]["layers"]}
    values["trace.overhead_s"] = median(lambda p, r: r["wall_s"] - p["wall_s"])
    values["trace.overhead_share"] = median(
        lambda p, r: (r["wall_s"] - p["wall_s"]) / p["wall_s"])
    for phase, count in (("emit", "objects"), ("roundtrip", "objects"),
                         ("map", "mapped")):
        values[f"stream.{phase}_objects_per_s"] = median(
            lambda p, r: (p["phases"][count] / p["phases"][f"{phase}_s"]
                          if p["phases"].get(f"{phase}_s") else 0.0))
    return values, [r for pair in pairs for r in pair]


def select(spec: dict, section: str, values: dict) -> dict:
    metrics = {}
    for m in spec[section]:
        name = m["name"]
        if name not in values:
            raise BenchError(f"the run measured no value for {name}")
        metrics[name] = {"value": values[name], "unit": m["unit"]}
    return metrics


def check_ids_agree(spec: dict, values: dict) -> None:
    """The traced run times every registered check; BENCHMARK.json must
    name exactly those, so that none is added or dropped unnoticed."""
    prefix = "verify.check_s."
    named = {m["name"] for m in spec["per_layer"] if m["name"].startswith(prefix)}
    measured = {k for k in values if k.startswith(prefix)}
    if named != measured:
        raise BenchError("registered checks and BENCHMARK.json disagree: "
                         f"not in BENCHMARK.json {sorted(measured - named)}, "
                         f"not registered {sorted(named - measured)}")


def main() -> int:
    ap = argparse.ArgumentParser(description="combi benchmark driver")
    ap.add_argument("--workload", required=True,
                    choices=("registry", "stream", "algebra"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    try:
        if not (root / "src" / "combi" / "__init__.py").is_file():
            raise BenchError(f"{root} holds no combi source tree (src/combi)")
        spec = json.loads((root / "BENCHMARK.json").read_text())
        runner = Runner(root)
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        if args.trace:
            values, reps = traced(runner, args, out_dir)
            check_ids_agree(spec, values)
        else:
            values, reps = untraced(runner, args)
        metrics = select(spec, "per_layer" if args.trace else "end_to_end",
                         values)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    digests = {r["digest"] for r in reps}
    attempted = sum(r["attempted"] for r in reps) + len(reps) - 1
    failed = sum(r["failed"] for r in reps) + len(digests) - 1
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "run_seconds": args.seconds,
              "machine": machine(),
              "raw_setup_s": values.get("raw_setup_s"),
              "host_factor": values.get("host_factor"),
              "reps": [{k: r[k] for k in ("wall_s", "cpu_s", "ref_s",
                                          "peak_rss_mb", "attempted", "failed",
                                          "digest", "problems", "phases")}
                       for r in reps]}
    (out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**record, "metrics": metrics}, indent=1))
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The dyndeg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the directory holding ``src/dyndeg``).
Closed loop, one client, one thread: passes run one after another, each in
a fresh worker process (perfbench/worker.py) that imports dyndeg from
``src/``, builds the workload's seeded item batch, and sends every item's
argv lists through ``dyndeg.cli.main`` in-process with stdout captured.
Every answer is checked by an oracle independent of dyndeg
(perfbench/workloads.py).  Passes repeat until S seconds have gone by.

End-to-end metrics (``--trace 0``):
  run_s        wall seconds inside dyndeg.cli.main for one pass over the
               batch, fastest pass (see fastest_pass)
  setup_s      wall seconds from spawning a worker until its first item
               starts, median over the passes
  peak_rss_mb  peak resident memory of a worker, median over the passes
The record line also gives each pass's cpu_s, the worker's CPU seconds over
the same calls: when run_s grows and cpu_s does not, other processes were
competing for the CPU.
Failed items (wrong answer, exception, nonzero exit, pass cut off by the
time limit) count in the result's "failed"; none is ever timed silently.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of perfbench/tracer.py (medians over traced passes),
with trace.overhead_frac = traced run_s / untraced run_s - 1.  The spans
of the last traced pass go to perfbench/out/spans-NAME.jsonl.

The last line of stdout is the result object; the line before it records
the environment and every pass's figures.  Without ``src/dyndeg`` the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.tracer import TARGETS  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
# the whole run, passes included, ends well inside the 180 s allowed
HARD_LIMIT_S = 150.0
MIN_PASSES = 3

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# figures the tracer's hooks count, then ratios formed here
_LAYER_COUNTS = (
    ("exactalg.mul.term_pairs", "count"),
    ("exactalg.substitute_system.out_terms", "count"),
    ("exactalg.poly_gcd.univariate_s", "s"),
    ("exactalg.poly_gcd.multivariate_s", "s"),
    ("exactalg.poly_divexact.quotient_terms", "count"),
)
PER_LAYER = (
    tuple(
        (f"{name}.{what}", "count" if what == "calls" else "s")
        for _, _, name, whats, _ in TARGETS
        for what in whats
    )
    + _LAYER_COUNTS
    + (
        ("exactalg.poly_gcd.nontrivial_frac", "ratio"),
        ("ratmap.iterates", "count"),
        ("ratmap.cancel_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
    )
)


def fastest_pass(reports: list[dict]) -> float:
    """run_s of the fastest pass.

    Every pass runs the same items in a fresh process, so pass times differ
    only by load from outside, which only ever adds time.  On a shared
    2-vCPU host with bursts of outside load, the quartile spread of this
    figure over five seeds was 0.06, against 0.20 for the median pass.
    """
    return min(r["run_s"] for r in reports)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(report: dict) -> dict[str, float]:
    """Per-layer figures of one traced pass (all but trace.overhead_frac)."""
    stats, counters = report["stats"], report["counters"]
    out = {
        f"{name}.{what}": stats[name][what]
        for _, _, name, whats, _ in TARGETS
        for what in whats
    }
    out.update((key, counters.get(key, 0)) for key, _ in _LAYER_COUNTS)
    out["exactalg.poly_gcd.nontrivial_frac"] = _ratio(
        counters.get("exactalg.poly_gcd.nontrivial", 0), out["exactalg.poly_gcd.calls"]
    )
    out["ratmap.iterates"] = report["iterates"]
    out["ratmap.cancel_frac"] = _ratio(report["cancelled"], report["iterates"])
    return out


def _git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(numpy_version: str | None) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def run_worker(workload: str, seed: int, traced: bool, timeout: float) -> dict | None:
    """One pass in a fresh process; None when it was cut off or crashed."""
    spans = os.path.join(OUT_DIR, f"spans-{workload}.jsonl")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, ROOT, workload, str(seed), "1" if traced else "0", spans],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        return None
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report["first_item"] - spawned
    report["traced"] = traced
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that run_worker kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "dyndeg", "cli.py")):
        print(f"error: no dyndeg source under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    start = time.monotonic()
    reports: list[dict] = []
    cut_off = 0
    batch_size = None
    while True:
        now = time.monotonic()
        untraced = sum(1 for r in reports if not r["traced"])
        traced_n = len(reports) - untraced
        enough = (
            untraced >= MIN_PASSES and (not args.trace or traced_n >= MIN_PASSES)
        )
        if (now - start >= args.seconds and enough) or now - start >= HARD_LIMIT_S:
            break
        want_trace = bool(args.trace) and traced_n < untraced
        report = run_worker(args.workload, args.seed, want_trace, start + HARD_LIMIT_S - now)
        if report is None:
            if batch_size is None:
                print("error: the first pass did not complete", file=sys.stderr)
                return 2
            cut_off += 1
            continue
        batch_size = report["attempted"]
        reports.append(report)

    attempted = sum(r["attempted"] for r in reports) + cut_off * batch_size
    failed = sum(r["failed"] for r in reports) + cut_off * batch_size
    digests = {r["digest"] for r in reports}
    problems = [p for r in reports for p in r["problems"]]
    if len(digests) > 1:
        problems.append("captured stdout differs between passes")
    plain = [r for r in reports if not r["traced"]]
    traced = [r for r in reports if r["traced"]]
    if args.trace and not traced:
        print("error: no traced pass completed in time", file=sys.stderr)
        return 2
    if args.trace:
        per_pass = [layer_metrics(r) for r in traced]
        values = {key: median([m[key] for m in per_pass]) for key in per_pass[0]}
        values["trace.overhead_frac"] = fastest_pass(traced) / fastest_pass(plain) - 1
        units = dict(PER_LAYER)
    else:
        values = {name: median([r[name] for r in plain]) for name, _ in END_TO_END}
        values["run_s"] = fastest_pass(plain)
        units = dict(END_TO_END)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(reports[0].get("numpy")),
        "passes": [
            {k: r[k] for k in ("traced", "run_s", "cpu_s", "setup_s", "peak_rss_mb", "failed")}
            for r in reports
        ],
        "cut_off": cut_off,
        "problems": problems[:10],
    }
    print(json.dumps(record))
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

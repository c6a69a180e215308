"""One pass of a workload in a fresh process.

    python3 perfbench/worker.py ROOT WORKLOAD SEED TRACE SPANS_FILE

run.py starts this once per pass, so every pass pays the interpreter
start, ``import dyndeg`` and input generation that a CLI user pays on
every call, and no cache survives from one pass to the next.  The worker
prints one JSON line: the clock reading when the first item started,
the seconds spent inside ``dyndeg.cli.main``, item counts, a digest of
the captured stdout, peak RSS and, when traced, the per-layer figures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

MAX_PROBLEMS = 5


def _iterate_counts(doc: dict) -> tuple[int, int]:
    """(iterates n >= 2, those with deg f^n < d * deg f^(n-1)) from a
    degseq or stability answer; (0, 0) from any other answer."""
    degrees = doc.get("degrees")
    if not degrees:
        return 0, 0
    d = degrees[0]
    cancelled = sum(1 for prev, cur in zip(degrees, degrees[1:]) if cur < d * prev)
    return len(degrees) - 1, cancelled


def run_pass(main, batch, check) -> dict:
    """Run every item through ``main`` in order and check its answers.

    Only the time inside ``main`` is counted; oracles run outside it.
    """
    digest = hashlib.sha256()
    run_s = 0.0
    cpu_s = 0.0
    failed = 0
    problems: list[str] = []
    iterates = cancelled = 0
    for index, item in enumerate(batch):
        results = []
        problem = None
        for argv in item.calls:
            buf = io.StringIO()
            start = time.perf_counter()
            cpu_start = time.process_time()
            try:
                with contextlib.redirect_stdout(buf):
                    code = main(list(argv))
            except Exception as exc:  # an item that raises fails; the pass goes on
                problem = f"raised {exc!r}"
                break
            finally:
                run_s += time.perf_counter() - start
                cpu_s += time.process_time() - cpu_start
            out = buf.getvalue()
            digest.update(out.encode())
            results.append((code, out))
        if problem is None:
            problem = check(item, results)
        if problem is not None:
            failed += 1
            if len(problems) < MAX_PROBLEMS:
                problems.append(f"item {index} ({item.kind}): {problem}")
            continue
        for _, out in results:
            n, c = _iterate_counts(json.loads(out))
            iterates += n
            cancelled += c
    return {
        "run_s": run_s,
        "cpu_s": cpu_s,
        "attempted": len(batch),
        "failed": failed,
        "problems": problems,
        "digest": digest.hexdigest(),
        "iterates": iterates,
        "cancelled": cancelled,
    }


def main(argv: list[str]) -> int:
    root, workload, seed, trace, spans_file = argv
    sys.path[:0] = [os.path.join(root, "src"), root]
    import dyndeg.cli

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(dyndeg.cli.__file__).startswith(src + os.sep):
        print(f"dyndeg was imported from {dyndeg.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    from perfbench.tracer import Tracer
    from perfbench.workloads import check, make_batch

    batch = make_batch(workload, int(seed))
    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        tracer.install()
    first_item = time.monotonic()
    report = run_pass(dyndeg.cli.main, batch, check)
    report["first_item"] = first_item
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["numpy"] = sys.modules["numpy"].__version__
    if tracer is not None:
        tracer.uninstall()
        report["stats"] = {
            name: {"calls": s.calls, "self_s": s.self_s, "incl_s": s.incl_s}
            for name, s in tracer.stats.items()
        }
        report["counters"] = tracer.counters
        tracer.write_spans(spans_file)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

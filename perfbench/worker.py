"""One pass of a workload: every operation once, in this fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace FILE]

Run from the root of a checkout.  realclasses is imported from ``src/``
there, so module caches start empty, as they do for a command-line user.
Prints one JSON object: per-operation results, the pass's wall time and
peak RSS and, with ``--trace``, the per-layer metrics; the spans go to
FILE.
"""

import argparse
import json
import os
import resource
import sys
import time
import types

import workloads


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", help="write the spans to this file")
    args = parser.parse_args()

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import realclasses
    from realclasses import cli, counts, oracle
    if not realclasses.__file__.startswith(src + os.sep):
        sys.exit("realclasses was imported from %s, not from %s"
                 % (realclasses.__file__, src))
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, realclasses)
    rc = types.SimpleNamespace(cli=cli, counts=counts, oracle=oracle)

    ops = workloads.operations(args.workload, args.seed)
    results = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out, err = workloads.run_op(rc, op), None
        except Exception as exc:  # a failed operation must not end the pass
            out, err = None, "%s: %s" % (type(exc).__name__, exc)
        results.append([op["id"], time.perf_counter() - t0, out, err])
    wall_s = time.perf_counter() - start

    report = {"wall_s": wall_s,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              / 1024,
              "results": results}
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["spans"] = len(tracer.span_start)
        tracer.dump(args.trace)
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()

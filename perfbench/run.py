"""Benchmark of realclasses: its workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload label_routes --seed 1 --seconds 55
    python3 perfbench/run.py --workload all --trace 1

Each pass runs every operation of the workload once, in a fresh interpreter
(perfbench/worker.py), as a closed loop from one process and one thread.
A run makes passes until --seconds are used up, and at least two.  Every
successful output is checked against perfbench/golden/<workload>.json.
The run prints a report, then as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics of the traced ones, plus
the tracing overhead; the spans of the last traced pass are written to
.perfbench_out/.  --record-golden writes the golden file from one pass.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 15
RUN_LIMIT_S = 170
OUT_DIR = ".perfbench_out"
# The end-to-end metrics of the result line.  The report also prints
# op_ms_p50, op_ms_p90 and fail_ratio, which are not in the result line:
# fail_ratio is 0 on oracle_verify, and the latency percentiles of its 45
# operations moved by about a quarter from run to run.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
OVERHEAD = "trace.overhead_s"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def time_left(deadline):
    left = deadline - time.perf_counter()
    if left <= 0:
        raise TimeoutError("the run passed its %d s limit" % RUN_LIMIT_S)
    return left


def setup_seconds(deadline):
    """Seconds from launching an interpreter to the end of `import realclasses`.

    The first launch only warms the file cache and is not counted.
    """
    code = "import time, realclasses; print(time.perf_counter())"
    samples = []
    for _ in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                             capture_output=True, text=True, check=True,
                             timeout=time_left(deadline))
        samples.append(float(out.stdout) - t0)
    return samples[1:]


def run_pass(workload, seed, deadline, trace_file=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace_file:
        cmd += ["--trace", trace_file]
    out = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                         text=True, check=True, timeout=time_left(deadline))
    return json.loads(out.stdout.splitlines()[-1])


def golden_path(workload):
    return os.path.join(HERE, "golden", workload + ".json")


def load_golden(workload):
    with open(golden_path(workload)) as f:
        return json.load(f)


def write_golden(workload, results):
    """Keep the output of every operation that succeeded, one per line."""
    outputs = {op_id: out for op_id, _, out, err in results if err is None}
    lines = ["%s: %s" % (json.dumps(k), json.dumps(outputs[k]))
             for k in sorted(outputs)]
    with open(golden_path(workload), "w") as f:
        f.write("{\n" + ",\n".join(lines) + "\n}\n")
    return len(outputs)


def check_pass(golden, results):
    """Sort one pass's operations into failures and golden mismatches.

    An operation fails when it raised, or its output differs from the golden
    one.  Operations that failed when the golden file was recorded have no
    golden value: a success there is accepted, a failure is only counted.
    Returns (failures {id: reason}, mismatches [id], golden ids not run).
    """
    failures, mismatches, seen = {}, [], set()
    for op_id, _, out, err in results:
        seen.add(op_id)
        if err is not None:
            failures[op_id] = err
            if op_id in golden:
                mismatches.append(op_id)
        elif op_id in golden and golden[op_id] != out:
            failures[op_id] = "output differs from the golden value"
            mismatches.append(op_id)
    return failures, mismatches, sorted(set(golden) - seen)


def spread(values):
    """(median, first quartile, third quartile) of two or more values."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def spans_path(workload, seed):
    return os.path.join(OUT_DIR, "spans-%s-seed%d.jsonl" % (workload, seed))


def measure(workload, seed, seconds, trace, deadline):
    """Make the passes of one run; return (passes, traced passes, setup)."""
    setup = [] if trace else setup_seconds(deadline)
    plain, traced = [], []
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(workload, seed, deadline))
        if trace:
            traced.append(run_pass(workload, seed, deadline,
                                   spans_path(workload, seed)))
        now = time.perf_counter()
        # at least two passes, and no pass predicted to end after `seconds`
        if (len(plain) + len(traced) >= 2
                and now - start + (now - t0) > seconds):
            return plain, traced, setup


def summarize(workload, seed, seconds, trace, deadline):
    """One run of one workload: report lines, then the result object."""
    golden = load_golden(workload)
    plain, traced, setup = measure(workload, seed, seconds, trace, deadline)
    attempted, failed, correct = 0, 0, True
    failures, bad = {}, set()
    for p in plain + traced:
        fails, mismatches, missing = check_pass(golden, p["results"])
        attempted += len(p["results"])
        failed += len(fails)
        correct = correct and not mismatches and not missing
        bad.update(mismatches + missing)
        for key in fails.items():
            failures[key] = failures.get(key, 0) + 1

    lines = ["workload %s  seed %d  %d untraced + %d traced passes of %d "
             "operations (closed loop, 1 process, 1 thread)"
             % (workload, seed, len(plain), len(traced),
                len(plain[0]["results"]))]
    walls = [p["wall_s"] for p in plain]
    metrics = {}
    if trace:
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in tracing.LAYER_METRICS}
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    - statistics.median(walls))
        for name, unit in tracing.LAYER_METRICS.items():
            metrics[name] = {"value": layers[name], "unit": unit}
        metrics[OVERHEAD] = {"value": overhead, "unit": "s"}
        lines += ["  %-50s %14.6g %s" % (name, m["value"], m["unit"])
                  for name, m in metrics.items()]
        lines.append("  spans of the last traced pass: %d, in %s"
                     % (traced[-1]["spans"], spans_path(workload, seed)))
    else:
        rss = [p["rss_mb"] for p in plain]
        values = {"setup_s": (setup, "launches"),
                  "wall_s": (walls, "passes"),
                  "peak_rss_mb": (rss, "passes")}
        for name, (samples, what) in values.items():
            mid, q1, q3 = spread(samples)
            metrics[name] = {"value": mid, "unit": END_TO_END[name]}
            lines.append("  %-12s %12.6f %-3s median of %d %s, quartiles "
                         "%.6f..%.6f" % (name, mid, END_TO_END[name],
                                         len(samples), what, q1, q3))
        op_ms = [s * 1000 for p in plain
                 for op_id, s, _, err in p["results"]
                 if err is None and op_id not in bad]
        deciles = statistics.quantiles(op_ms, n=10)
        for name, value in (("op_ms_p50", deciles[4]),
                            ("op_ms_p90", deciles[8])):
            lines.append("  %-12s %12.6f ms  over %d successful operations"
                         % (name, value, len(op_ms)))
    lines.append("  %-12s %12.6f ratio %d failed / %d attempted"
                 % ("fail_ratio", failed / attempted, failed, attempted))
    grouped = {}
    for (op_id, reason), times in sorted(failures.items()):
        grouped.setdefault((reason, times), []).append(op_id)
    for (reason, times), ids in sorted(grouped.items()):
        lines.append("    failed in %d of %d passes, %d operation(s), %s: %s"
                     % (times, len(plain) + len(traced), len(ids), reason,
                        "; ".join(ids)))
    lines.append("  golden check: %s" % (
        "every successful output matches" if correct else
        "FAILED for " + ", ".join(sorted(bad))))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="write the golden file(s) from one pass")
    args = parser.parse_args()
    # SIGTERM becomes SystemExit, so subprocess.run kills and waits for the
    # pass in progress instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not os.path.isfile(os.path.join("src", "realclasses", "__init__.py")):
        sys.exit("run from the root of a realclasses checkout: "
                 "src/realclasses is missing")
    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    deadline = time.perf_counter() + RUN_LIMIT_S * len(names)

    if args.record_golden:
        for name in names:
            results = run_pass(name, args.seed, deadline)["results"]
            print("%s: %d golden outputs" % (name,
                                             write_golden(name, results)))
        return

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        lines, result = summarize(name, args.seed, args.seconds,
                                  bool(args.trace), deadline)
        print("\n".join(lines))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = name + "." if args.workload == "all" else ""
        for metric, value in result["metrics"].items():
            total["metrics"][prefix + metric] = value
    print(json.dumps(total))


if __name__ == "__main__":
    main()

"""grsoliton benchmark: time to verdict, points/s, peak RSS and a layer trace.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Closed loop, one client, one single-threaded process per workload.  An
operation is one in-process `grsoliton all --format json` call; each one is
checked against its known answer (workloads.check).  Set-up (import, input
generation, one warm-up operation per manifest) is timed and excluded from
the timed loop.

--trace 0 prints the end-to-end metrics: verdict_s.p50, points_per_s,
peak_rss_mb and setup_s (the median of this process's set-up and two more
set-ups run in child processes).

--trace 1 replays the workload's trace round (every manifest kind plus one
negative control); each operation runs once untraced and twice traced.  It
prints per-layer self times (seconds per operation), per-operation counts,
the tracing overhead, and writes the spans to .perfbench/ in the checkout.
The counts of the two traced runs must agree exactly.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exits 2 without that line when grsoliton cannot be imported.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import layertrace
import workloads

STARTED = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 150
P90_MIN_ABOVE = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time as JSON and exit")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_package():
    """Import grsoliton from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "grsoliton", "cli.py")):
        raise ImportError(f"no grsoliton sources under {src}")
    sys.path.insert(0, src)
    import grsoliton.cli
    if not os.path.abspath(grsoliton.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"grsoliton imported from {grsoliton.cli.__file__}")
    return grsoliton.cli


class Runner:
    """Runs and checks operations; keeps the failure tally."""

    def __init__(self, cli, check):
        self.cli = cli
        self.check = check
        self.attempted = 0
        self.failures = []

    def call(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(op.argv())
            except Exception as ex:  # an exception is a failed operation
                code = f"exception {type(ex).__name__}: {ex}"
        return code, out.getvalue(), err.getvalue()

    def timed(self, op):
        start = time.perf_counter()
        result = self.call(op)
        return result, time.perf_counter() - start

    def record(self, op, result):
        code, out, err = result
        self.attempted += 1
        reason = code if isinstance(code, str) else self.check(op, code, out)
        if reason:
            self.failures.append(f"op {op.index} ({op.kind}, seed {op.seed}, "
                                 f"negative={op.negative}): {reason}; "
                                 f"stderr: {err.strip()[:300]!r}")


def set_up(args):
    """Import, input generation and warm-up; returns (runner, workload)."""
    cli = import_package()
    workload = workloads.build(args.workload, args.seed)
    runner = Runner(cli, workloads.check)
    for op in workload.warmup():
        runner.record(op, runner.call(op))
    return runner, workload


def probe_setup(args):
    """Set-up time of a fresh process running this workload."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(args, runner, workload, setup_main):
    times = []
    index = 0
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < args.seconds:
        for _ in workload.kinds:   # whole cycles keep every kind's share equal
            op = workload.operation(index)
            result, elapsed = runner.timed(op)
            runner.record(op, result)
            times.append(elapsed)
            index += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_main] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]

    n = len(times)
    p50 = statistics.median(times)
    pps = workload.points * n / sum(times)
    setup_s = statistics.median(setups)
    lines = [f"verdict_s.p50      {p50:.6f} s      (n={n} operations)"]
    p90 = statistics.quantiles(times, n=10)[-1] if n >= 2 else None
    above = sum(t > p90 for t in times) if p90 is not None else 0
    if p90 is not None and above >= P90_MIN_ABOVE:
        lines.append(f"verdict_s.p90      {p90:.6f} s      (n={n}, {above} above)")
    else:
        lines.append(f"verdict_s.p90      not reported  (n={n} leaves {above} "
                     f"samples above p90; needs {P90_MIN_ABOVE})")
    lines += [
        f"points_per_s       {pps:.1f} 1/s     ({workload.points} points per operation)",
        f"peak_rss_mb        {peak_mb:.1f} MB",
        f"setup_s            {setup_s:.4f} s      (median of "
        f"{', '.join(f'{s:.4f}' for s in setups)})",
        f"failed_ops         {len(runner.failures)} of {runner.attempted} "
        f"({len(runner.failures) / runner.attempted:.4f})",
    ]
    metrics = {
        "verdict_s.p50": metric(p50, "s"),
        "points_per_s": metric(pps, "1/s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
        "setup_s": metric(setup_s, "s"),
    }
    return lines, metrics, []


def run_traced(args, runner, workload):
    tracer = layertrace.Tracer()
    round_ops = workload.trace_round()
    untraced = []
    traced = []
    first_counts = {}
    problems = []
    missing = set()
    rounds = 0
    loop_start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - loop_start < args.seconds:
        for op in round_ops:
            counts = []
            # untraced between the two traced runs, so neither side always
            # follows the other
            for copy in ("a", None, "b"):
                if copy is None:
                    result, elapsed = runner.timed(op)
                    runner.record(op, result)
                    untraced.append(elapsed)
                    continue
                missing.update(tracer.install())
                try:
                    result, elapsed = tracer.operation(
                        f"{rounds}.{op.index}{copy}", lambda: runner.call(op))
                finally:
                    tracer.uninstall()
                runner.record(op, result)
                traced.append(elapsed)
                counts.append(tracer.counts(f"{rounds}.{op.index}{copy}"))
            first_counts.setdefault(op.index, counts[0])
            for got in counts:
                if got != first_counts[op.index]:
                    problems.append(f"op {op.index}: counts differ between "
                                    f"traced runs: {got} vs {first_counts[op.index]}")
        rounds += 1

    per_op = tracer.self_times()
    metrics = {}
    for name in layertrace.TIME_METRICS:
        total = sum(layers[name] for layers in per_op.values())
        metrics[name] = metric(total / len(per_op), "s")
    round_counts = list(first_counts.values())
    for name in layertrace.COUNT_METRICS:
        values = [c[name] for c in round_counts]
        value = max(values) if name == "tensors.ricci_max_tree" else \
            sum(values) / len(values)
        metrics[name] = metric(value, "count")
    evaluated = metrics["expr.evaluated_nodes"]["value"]
    metrics["expr.node_reuse"] = metric(
        metrics["expr.distinct_nodes"]["value"] / evaluated if evaluated else 0.0,
        "ratio")
    metrics["expr.eval_bytes"] = metric(evaluated * workload.points * 8, "B")
    traced_op = sum(traced) / len(traced)
    untraced_op = sum(untraced) / len(untraced)
    metrics["trace.op_s"] = metric(traced_op, "s")
    metrics["trace.untraced_op_s"] = metric(untraced_op, "s")
    metrics["trace.overhead_ratio"] = metric(traced_op / untraced_op, "ratio")

    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    span_file = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(span_file)

    if missing:
        print(f"warning: not traced, their layers read 0: {sorted(missing)}",
              file=sys.stderr)
    accounted = sum(metrics[name]["value"] for name in layertrace.TIME_METRICS)
    lines = [f"trace round: {len(round_ops)} operations x {rounds} rounds, each "
             f"run untraced once and traced twice; spans in "
             f"{os.path.relpath(span_file, ROOT)}",
             "per-layer self time, seconds per operation (mean over traced runs):"]
    for name in sorted(layertrace.TIME_METRICS, key=lambda k: -metrics[k]["value"]):
        share = metrics[name]["value"] / accounted
        lines.append(f"  {name:26s} {metrics[name]['value']:.6f} s  {share:6.1%}")
    lines.append("per-operation counts (first round; ricci_max_tree is the "
                 "round's maximum; eval_bytes = evaluated x N x 8, computed):")
    for name in layertrace.COUNT_METRICS + ("expr.node_reuse", "expr.eval_bytes"):
        lines.append(f"  {name:26s} {metrics[name]['value']:.6g} "
                     f"{metrics[name]['unit']}")
    lines.append(f"traced op {traced_op:.6f} s = sum of layer self times "
                 f"{accounted:.6f} s; untraced op {untraced_op:.6f} s; "
                 f"overhead {traced_op / untraced_op - 1:+.2%}")
    return lines, metrics, problems


def main(argv=None):
    args = parse_args(argv)
    try:
        runner, workload = set_up(args)
    except ImportError as ex:
        print(f"cannot import grsoliton: {ex}", file=sys.stderr)
        return 2
    setup_main = time.perf_counter() - STARTED
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_main}))
        return 0

    if args.trace:
        lines, metrics, problems = run_traced(args, runner, workload)
    else:
        lines, metrics, problems = run_untraced(args, runner, workload, setup_main)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  (closed loop, 1 client, 1 process)")
    for line in lines:
        print(line)
    for problem in runner.failures + problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.failures and not problems,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of fermimass: one workload per run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload model-sweep --seed 1 --seconds 30 --trace 0

One client runs ops in a closed loop (the next op starts when the last
ends), in whole rounds, until the timed ops add up to --seconds.  With
--trace 0 the last line of standard output holds the end-to-end metrics;
with --trace 1 untraced and traced rounds alternate and it holds the
per-layer metrics.  A summary goes to standard error.  The BLAS and OpenMP
pools are pinned to one thread before numpy is imported (see README.md).
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

START = time.perf_counter()

import program  # noqa: E402  (imports nothing that loads numpy)

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("lattice-verify", "model-sweep", "fluctuation-io"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--default-blas-pool", action="store_true",
                        help="leave the BLAS/OpenMP thread pools at the library default "
                             "(reference figures only; the benchmark pins one thread)")
    return parser.parse_args(argv)


def set_up(workload_cls, seed, workdir):
    """Input generation, model files written, warm-up; repeated, median reported."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = workload_cls(seed, workdir)
        workload.warm_up()
        times.append(time.perf_counter() - t0)
    return workload, statistics.median(times)


class Loop:
    """The closed loop: op times by round, attempts and failures.

    An op fails when the program exits non-zero, raises, or gives an output
    that fails its check (or whose check raises); every failure makes the
    run incorrect.
    """

    def __init__(self):
        self.untraced = []  # one list of op times per round
        self.traced = []
        self.attempted = 0
        self.failed = 0
        self.cpu_s = 0.0
        self.failed_s = 0.0  # time spent in ops that raised, so the loop ends anyway

    def fail(self, message):
        self.failed += 1
        print(message, file=sys.stderr)

    def run_round(self, workload, tracer=None):
        times = []
        (self.traced if tracer else self.untraced).append(times)
        for run, check in workload.round():
            self.attempted += 1
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = run() if tracer is None else tracer.op(run)
            except Exception:
                self.failed_s += time.perf_counter() - t0
                self.fail(traceback.format_exc())
                continue
            times.append(time.perf_counter() - t0)
            if tracer is None:
                self.cpu_s += time.process_time() - c0
            try:
                errors = check(result)
            except Exception:
                errors = [traceback.format_exc()]
            if errors:
                self.fail("check failed: " + "; ".join(errors))

    def timed(self):
        return sum(map(sum, self.untraced)) + sum(map(sum, self.traced)) + self.failed_s


def measure(workload, seconds, tracer=None):
    """Whole rounds until the timed ops add up to `seconds`; with a tracer,
    untraced and traced rounds alternate."""
    loop = Loop()
    while loop.timed() < seconds:
        loop.run_round(workload)
        if tracer is not None:
            with tracer.installed():
                loop.run_round(workload, tracer)
    return loop


def ops_of(rounds):
    return [t for times in rounds for t in times]


def op_median(rounds):
    """Median over rounds of the mean op time in a round.

    A round of lattice-verify or fluctuation-io is one op, so this is the
    op median there.  A model-sweep round runs twelve models whose op times
    differ up to threefold; the median of the pooled op times would sit on
    the edge between two model sizes and jump with their tails.
    """
    means = [sum(times) / len(times) for times in rounds if times]
    return statistics.median(means) if means else 0.0  # no op completed: the run is incorrect


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(loop, setup_s):
    ops = ops_of(loop.untraced)
    return {
        "ops_per_s": metric(len(ops) / sum(ops) if ops else 0.0, "1/s"),
        "op_s_p50": metric(op_median(loop.untraced), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": metric(setup_s, "s"),
    }


def result(loop, metrics):
    """The last line of standard output; correct only if no op failed."""
    return {"correct": loop.attempted > 0 and loop.failed == 0, "attempted": loop.attempted,
            "failed": loop.failed, "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    program.pin_threads(None if args.default_blas_pool else 1)
    try:
        program.import_program(os.getcwd())
    except program.ProgramMissing as exc:
        print(f"error: {exc}; run from the root of a fermimass checkout", file=sys.stderr)
        return 2
    import tracing
    import workloads

    import_s = time.perf_counter() - START
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload, rest_s = set_up(workloads.WORKLOADS[args.workload], args.seed, workdir)
        tracer = tracing.Tracer() if args.trace else None
        loop = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = ops_of(loop.untraced)
    p50 = op_median(loop.untraced)
    summary = (f"{args.workload} seed={args.seed}: {len(ops)} untraced ops, "
               f"p50 {p50:.6f} s")
    if len(ops) >= 10:
        summary += (f", pooled op times p50 {statistics.median(ops):.6f} s"
                    f" p90 {statistics.quantiles(ops, n=10)[-1]:.6f} s")
    if tracer is None:
        metrics = end_to_end(loop, import_s + rest_s)
        summary += f", import {import_s:.3f} s, set-up {rest_s:.3f} s (median of {SETUP_REPEATS})"
    else:
        traced_p50 = op_median(loop.traced)
        metrics = {name: metric(value, unit)
                   for name, (value, unit) in tracer.layer_metrics().items()}
        metrics["process.cpu_s"] = metric(loop.cpu_s / max(1, len(ops)), "s")
        metrics["trace.op_s_p50"] = metric(traced_p50, "s")
        metrics["trace.overhead_s"] = metric(traced_p50 - p50, "s")
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans)
        summary += (f"; {len(ops_of(loop.traced))} traced ops, p50 {traced_p50:.6f} s, "
                    f"spans in {spans}")
    print(summary, file=sys.stderr)
    line = result(loop, metrics)
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

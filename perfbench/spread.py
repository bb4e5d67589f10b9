"""Run one workload on several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload model-sweep --seeds 1-10

Each run lasts run_seconds from BENCHMARK.json, with tracing off.  Runs
are made one after another, never side by side.  For each metric it
prints the median of the runs and the distance between the first and
third quartiles (statistics.quantiles(values, n=4)) as a share of the
median, and writes every run's result to
perfbench/out/spread-<workload>-<first>-<last>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "iqr_share": (q3 - q1) / med if med else float("nan"),
                     "min": min(values), "max": max(values)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    results = [run_once(args.workload, s, seconds) for s in args.seeds]
    summary = summarize(results)
    failed = [(r["failed"], r["attempted"]) for r in results]
    for name, s in summary.items():
        print(f"{args.workload:15s} {name:32s} median {s['median']:.6g}  "
              f"iqr/median {100 * s['iqr_share']:.2f}%  range {s['min']:.6g}..{s['max']:.6g}")
    print(f"{args.workload:15s} failed/attempted per run: {failed}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"spread-{args.workload}-{args.seeds[0]}-{args.seeds[-1]}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
                   "runs": results, "summary": summary}, fh, indent=1, sort_keys=True)
    print(f"written {path}")


if __name__ == "__main__":
    main()

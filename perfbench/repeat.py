"""Repeat the benchmark over seeds and summarise each metric.

    python3 perfbench/repeat.py --workload rk4_long --runs 10 --first-seed 100

Runs ``run.py`` once per seed (``first-seed``, ``first-seed + 1``, ...),
then prints for every metric its median and quartiles over the runs and the
spread: the interquartile distance as a share of the median.  An end-to-end
metric whose spread exceeds its bound in BENCHMARK.json is flagged
``OVER BOUND``, one above a third of its bound ``noisy``.  The runs and the
summary are written to ``perfbench/results/``.
"""

import argparse
import json
import os
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(bench_path) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        res = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                              "--workload", args.workload, "--seed", str(seed),
                              "--seconds", str(args.seconds), "--trace", str(args.trace)],
                             capture_output=True, text=True, check=True)
        line = json.loads(res.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **line})
        print(f"seed {seed}: correct={line['correct']} failed={line['failed']}/"
              f"{line['attempted']}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = stats.quartiles(values)
        spread = stats.spread(values)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "OVER BOUND" if spread > bound else "noisy" if spread > bound / 3 else ""
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bound, "flag": flag,
                         "unit": runs[0]["metrics"][name]["unit"]}
        print(f"  {name:44s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:<8.4f} bound {bound if bound is not None else '-'} {flag}")
    failed = sum(r["failed"] for r in runs)
    print(f"  failed operations over all runs: {failed}")
    out = os.path.join(HERE, "results", f"repeat-{args.workload}-trace{args.trace}-"
                       f"seeds{args.first_seed}-{args.first_seed + args.runs - 1}.json")
    with open(out, "w") as fh:
        json.dump({"runs": runs, "summary": summary}, fh, indent=1)
    print(f"record {os.path.relpath(out, ROOT)}")


if __name__ == "__main__":
    main()

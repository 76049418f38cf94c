"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/report.py
    python3 perfbench/report.py --trace 1 --seeds 1 2

Runs ``perfbench/run.py`` once per workload and seed (1 to 10 unless given),
one run at a time, for the ``run_seconds`` of ``BENCHMARK.json``, from the
root of the checkout.  For each metric it prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, next to the bound in ``BENCHMARK.json``.  The raw
results are written to ``perfbench/out/report-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = bench["run_seconds"]

    raw = {}
    for w in workloads.WORKLOADS:
        runs = []
        for seed in args.seeds:
            r = run_once(w, seed, seconds, args.trace)
            runs.append(r)
            print(f"{w} seed {seed}: attempted {r['attempted']} failed {r['failed']} correct {r['correct']}",
                  file=sys.stderr, flush=True)
        raw[w] = runs
        print(f"\n## {w}: {len(runs)} runs of {seconds} s, seeds {args.seeds}")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"failed share: {shares}; all correct: {all(r['correct'] for r in runs)}; "
              f"median cases attempted: {statistics.median(r['attempted'] for r in runs)}")
        print("| metric | unit | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {name} | {m['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} | {bounds.get(name)} |")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"report-trace{args.trace}.json"), "w") as f:
        json.dump({"seeds": args.seeds, "seconds": seconds, "runs": raw}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

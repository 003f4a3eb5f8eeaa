"""Run the benchmark several times per workload and report each end-to-end
metric's median, quartiles and spread (interquartile range over median).

    python3 bench/steadiness.py --runs 10 --first-seed 100
    python3 bench/steadiness.py --runs 5 --workloads generate_large

Runs are made one at a time, each in a fresh process with its own seed
(first-seed, first-seed + 1, ...).  The summary is printed as a table and
written to ``bench/out/steadiness-<first-seed>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                raise SystemExit(f"{workload} seed {seed} failed: {result}")
            runs.append(result)
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            rows[metric["name"]] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": metric["bound"],
                "values": values,
            }
            print(f"{workload:15s} {metric['name']:12s} median {median:12.6g} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {(q3 - q1) / median:7.2%} "
                  f"bound {metric['bound']:.0%}", flush=True)
        failed = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        summary[workload] = {"metrics": rows, "failed_share": failed}
    out = BENCH / "out" / f"steadiness-{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1), encoding="utf-8")


if __name__ == "__main__":
    main()

"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload matrix --seeds 1-10

Runs ``perfbench/run.py`` untraced once per seed for ``run_seconds`` of
BENCHMARK.json, one run at a time, from the checkout root, and prints for
every metric its median, first and third quartile
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share
of the median.  ``--json PATH`` also writes every run's result.
Use it to compare two commits: run it in each checkout with the same seeds
and compare the medians against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--json", metavar="PATH")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    results = []
    for seed in seeds_from(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        results.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print(f"{'metric':44} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        print(f"{name:44} {median:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.3f} {'' if bound is None else bound:>6}")
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Summarize alternating parent/change runs of the benchmark.

    python tools/pairs.py DIR [--out BENCH.json]

DIR holds the stdout of `perfbench/run.py --workload all --seed SEED`
as parent-SEED.out and change-SEED.out, one pair per seed. That output
does not name the run's settings (--seconds and the like), so the
summary records only the seeds, read from the file names.
For each workload and end-to-end metric of BENCHMARK.json this prints,
and stores under "benchmark_pairs" in --out, each side's median and
quartiles, the ratio of the medians (change / parent), how many pairs
the change wins (ties count for neither side), whether the medians
differ by more than the parent's interquartile range, and whether the
change's median is worse than the parent's by more than the metric's
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _last_json(path):
    return json.loads(path.read_text().strip().splitlines()[-1])


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(directory):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = sorted(int(p.stem.split("-")[1]) for p in directory.glob("parent-*.out"))
    runs = {side: [_last_json(directory / f"{side}-{seed}.out") for seed in seeds]
            for side in ("parent", "change")}
    out = {"seeds": seeds,
           "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
           "metrics": {}}
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            key = f"{workload['name']}/{metric['name']}"
            sign = 1.0 if metric["better"] == "lower" else -1.0
            parent = [r["metrics"][key]["value"] for r in runs["parent"]]
            change = [r["metrics"][key]["value"] for r in runs["change"]]
            p, c = _quartiles(parent), _quartiles(change)
            gain = sign * (p["median"] - c["median"])
            out["metrics"][key] = {
                "unit": metric["unit"], "better": metric["better"],
                "parent": p, "change": c,
                "ratio": c["median"] / p["median"],
                "change_wins": sum(sign * (a - b) > 0 for a, b in zip(parent, change)),
                "pairs": len(seeds),
                "beyond_parent_iqr": gain > p["q3"] - p["q1"],
                "worse_beyond_bound": -gain > metric["bound"] * p["median"],
            }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", type=Path)
    parser.add_argument("--out", help="JSON file to store the summary in "
                                      "(its other keys are kept)")
    args = parser.parse_args(argv)
    summary = summarize(args.directory)
    for key, m in summary["metrics"].items():
        print(f"{key:32s} parent {m['parent']['median']:<9.4g} change "
              f"{m['change']['median']:<9.4g} ratio {m['ratio']:<6.3f} wins "
              f"{m['change_wins']}/{m['pairs']}  beyond IQR {m['beyond_parent_iqr']}  "
              f"worse beyond bound {m['worse_beyond_bound']}")
    print(f"failed: {summary['failed']}")
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc["benchmark_pairs"] = summary
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Median, quartiles and spread of each metric over several result files.

    python3 perfbench/summarize.py perfbench/out/census-s*-t0.json ...

Groups the files run.py writes by workload and trace mode. The spread
is (q3 - q1) / median with the quartiles of statistics.quantiles(n=4);
for end-to-end metrics it is shown beside the metric's bound from
BENCHMARK.json, and the raw (unscaled) times follow. The last line is the summary as JSON.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def stats(values: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4)
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def summarize(paths: list[str]) -> dict:
    runs = defaultdict(list)
    for path in paths:
        with open(path) as f:
            result = json.load(f)
        env = result["env"]
        runs[(env["workload"], env["trace"])].append(result)
    out = {}
    for (workload, trace), results in sorted(runs.items()):
        group = out.setdefault(f"{workload}-t{trace}", {
            "runs": len(results),
            "seeds": sorted(r["env"]["seed"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": {}, "raw": {}})
        for name in results[0]["metrics"]:
            group["metrics"][name] = {
                "unit": results[0]["metrics"][name]["unit"],
                **stats([r["metrics"][name]["value"] for r in results])}
        for name in results[0]["raw"]:
            group["raw"][name] = stats([r["raw"][name] for r in results])
    return out


def main() -> int:
    summary = summarize(sys.argv[1:])
    with open(ROOT / "BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    for key, group in summary.items():
        print(f"{key}: {group['runs']} runs, seeds {group['seeds']}, "
              f"failed {group['failed']}/{group['attempted']}")
        for name, m in group["metrics"].items():
            bound = bounds.get(name)
            note = f"  bound {bound}" if bound is not None else ""
            print(f"  {name:36s} {m['median']:12.6g} {m['unit']:6s} "
                  f"spread {m['spread']:.3f}{note}")
        for name, m in group["raw"].items():
            print(f"  raw.{name:32s} {m['median']:12.6g} {'':6s} "
                  f"spread {m['spread']:.3f}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

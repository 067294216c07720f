"""facthappy benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from src/ (it is
not installed); FACTHAPPY_THREADS is removed so scans take their serial
default. With --trace 0 the last line is a JSON object with every
end-to-end metric of BENCHMARK.json; with --trace 1, every per-layer
metric, derived from spans recorded around each call into the
package's public functions. Times are host-normalized seconds (see
harness.py). Lines before the JSON are for people: the environment, a
hash of the generated inputs, every metric, also under the name the
workload gives it, and the raw (unscaled) times. Results and spans go
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

from harness import measure, raw_figures
from workloads import ROOT, SRC, WORKLOADS

OUT = Path(__file__).resolve().parent / "out"


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def inputs_hash(tasks: list[tuple]) -> str:
    # hex() because str() of an int above 4300 digits is refused.
    h = hashlib.sha256()
    for task in tasks:
        h.update(repr(tuple(hex(x) if isinstance(x, int) else x
                            for x in task)).encode())
    return h.hexdigest()


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def environment(args, wl, tally) -> dict:
    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": inputs_hash(wl.tasks),
        "tasks_per_pass": len(wl.tasks), "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": git_commit(),
        "pythonpath": "src", "facthappy_threads": "unset",
        "bytecode_share": wl.bytecode_share,
    }


def run_one(name: str, args, spec: dict) -> dict:
    wl = WORKLOADS[name](random.Random(f"{name}:{args.seed}"))
    metrics, tally, tracer = measure(wl, args.seconds, bool(args.trace))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = {m["name"] for m in wanted} - set(metrics)
    if missing:
        raise SystemExit(f"benchmark bug: metrics not computed: {sorted(missing)}")
    env = environment(args, wl, tally)
    print("# env " + json.dumps(env))
    for m in wanted:
        value = metrics[m["name"]]
        print(f"{name} {m['name']} {value:.6g} {m['unit']}")
        if m["name"] in wl.aliases:
            alias, scale, unit = wl.aliases[m["name"]]
            print(f"{name} {alias} {value * scale:.6g} {unit}")
    raw = raw_figures(wl, tally)
    for key, value in raw.items():
        print(f"{name} raw.{key} {value:.6g}")
    print(f"{name} failed_frac {tally.failed / tally.attempted:.6g} "
          f"({tally.failed}/{tally.attempted})")
    for line in tally.failures:
        print(f"# failure: {line}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-s{args.seed}-t{args.trace}"
    with open(OUT / f"{stem}.json", "w") as f:
        json.dump({"env": env, **result, "raw": raw,
                   "setups_s": tally.setups, "raw_setups_s": tally.raw_setups,
                   "passes_s": tally.walls[False],
                   "traced_passes_s": tally.walls[True]}, f, indent=1)
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl.gz")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "facthappy" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("FACTHAPPY_THREADS", None)
    spec = load_spec()
    if args.workload != "all":
        print(json.dumps(run_one(args.workload, args, spec)))
        return 0
    # Each workload in a child of its own, one after the other, so peak
    # RSS and loaded state are its own. The summary's names carry the
    # workload.
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

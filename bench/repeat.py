#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize its run-to-run spread.

    python3 bench/repeat.py --seeds 1-10 [--workloads sweep,figures]
                            [--out runs.json] [--against earlier-runs.json]

For every workload and end-to-end metric it prints the median of the runs
and the spread (q3 - q1) / median, from statistics.quantiles(values, n=4),
next to the metric's bound from BENCHMARK.json; a spread of a third of the
bound or more is flagged.  --against compares each median and each seed's
output digest with an earlier --out file of the same code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(spec: str) -> list[int]:
    seeds: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digest = next((l.split()[-1] for l in lines if l.startswith("output digest ")), None)
    return {"workload": workload, "seed": seed, "digest": digest, **result}


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    opts = parser.parse_args()

    runs = []
    for workload in opts.workloads.split(","):
        for seed in parse_seeds(opts.seeds):
            run = run_once(workload, seed, opts.seconds)
            runs.append(run)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in run["metrics"].items())
            print(f"{workload} seed {seed}: failed {run['failed']}/{run['attempted']} {values}", flush=True)
    if opts.out:
        opts.out.write_text(json.dumps(runs, indent=1), encoding="utf-8")
    earlier = json.loads(opts.against.read_text(encoding="utf-8")) if opts.against else []

    ok = True
    for workload in opts.workloads.split(","):
        mine = [r for r in runs if r["workload"] == workload]
        old = [r for r in earlier if r["workload"] == workload]
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in mine]
            if len(values) < 2:
                continue
            median, share = spread(values)
            bound = m.get("bound")
            note = ""
            if bound is not None and share >= bound / 3:
                note, ok = "  <-- spread >= bound/3", False
            if old and bound is not None:
                base = statistics.median(r["metrics"][m["name"]]["value"] for r in old)
                change = (median - base) / base if m["better"] == "lower" else (base - median) / base
                note += f"  vs earlier {base:.6g} ({100 * change:+.1f}% worse)"
                if change > bound:
                    note, ok = note + " <-- beyond bound", False
            print(f"{workload:>10} {m['name']:<36} median {median:<12.6g} spread {100 * share:6.2f}%"
                  + (f" (bound {100 * bound:.0f}%)" if bound is not None else "") + note)
        if old:
            seen = {r["seed"]: r["digest"] for r in old}
            differ = [r["seed"] for r in mine if r["seed"] in seen and seen[r["seed"]] != r["digest"]]
            print(f"{workload:>10} output digests: {'differ for seeds ' + str(differ) if differ else 'equal'}")
            ok &= not differ
        failed = sum(r["failed"] for r in mine)
        print(f"{workload:>10} failed operations: {failed} of {sum(r['attempted'] for r in mine)}")
        ok &= failed == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

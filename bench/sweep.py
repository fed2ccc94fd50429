"""Run the benchmark over many seeds and summarise the spread of every metric.

    python3 bench/sweep.py --seeds 1-10 --out bench/baselines/NAME.json
    python3 bench/sweep.py --seeds 1-5 --workloads paper_front --trace-seed 0

Each end-to-end metric gets its median and quartiles over the seeds
(``statistics.quantiles(values, n=4)``) and its spread, (q3 - q1) / median,
next to the bound in ``BENCHMARK.json``.  Model-quality figures (test AUC,
KKT residual, LP gap) are summarised the same way.  With ``--trace-seed N``
one traced run per workload adds the per-layer metrics.  Run from the root
of a checkout; the result is one JSON file, the baseline a later change is
compared against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = Path(".bench_work") / f"sweep-{os.getpid()}.json"
    out.parent.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    try:
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        out.unlink()


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace-seed", type=int, help="also make one traced run with this seed")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report: dict = {"seeds": seed_list(args.seeds), "seconds": seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        records = []
        for seed in report["seeds"]:
            records.append(one_run(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: " + json.dumps(records[-1]["result"]["metrics"]), flush=True)
        entry: dict = {
            "env": records[0]["env"],
            "correct": [r["result"]["correct"] for r in records],
            "attempted": [r["result"]["attempted"] for r in records],
            "failed": [r["result"]["failed"] for r in records],
            "end_to_end": {},
            "quality": {},
        }
        for name, bound in bounds.items():
            stats = summary([r["result"]["metrics"][name]["value"] for r in records])
            stats["bound"] = bound
            stats["within_third"] = name == "setup_s" or stats["spread"] < bound / 3
            steady &= stats["within_third"]
            entry["end_to_end"][name] = stats
        for name in sorted({k for r in records for k in r["quality"]}):
            values = [r["quality"][name] for r in records if name in r["quality"]]
            entry["quality"][name] = summary(values)
        if args.trace_seed is not None:
            traced = one_run(workload, args.trace_seed, seconds, 1)
            entry["per_layer"] = {"seed": args.trace_seed,
                                  **{k: v["value"] for k, v in traced["result"]["metrics"].items()}}
        report["workloads"][workload] = entry
        for name, stats in entry["end_to_end"].items():
            print(f"{workload:14s} {name:16s} median {stats['median']:.6g}  spread {stats['spread']:.4f}"
                  f"  bound {stats['bound']}  {'ok' if stats['within_third'] else 'WIDE'}", flush=True)
        for name, stats in entry["quality"].items():
            print(f"{workload:14s} {name:24s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}"
                  f"  q3 {stats['q3']:.6g}", flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("every spread below a third of its bound" if steady else "some spreads are wide")
    return 0


if __name__ == "__main__":
    sys.exit(main())

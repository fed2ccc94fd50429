"""Benchmark of the ddimine chain: one workload, one seed, one JSON result line.

Run from the root of a checkout:

    python3 bench/run.py --workload planted_lasso --seed 7 --seconds 40 --trace 0

This script stays on the standard library.  Setup, each chain run and the
output checks run as child processes (``bench/chain.py``), so a child's peak
RSS is its own (a child starts with its parent's resident set counted in).
Load is one closed-loop client: one chain at a time, ``jobs=1``, BLAS pools
pinned to one thread.

A run generates ``Workload.inputs`` inputs, each from its own seed derived
from ``--seed``, so that one run averages over inputs and the solver work of
any one input weighs less.  ``--trace 0`` sets up every input (``setup_s`` is
the median of those set-ups), then runs rounds of one untraced chain run per
input until ``--seconds`` would be overrun (at least one round).  ``wall_s``
and ``peak_rss_mb`` are the median over rounds of the mean over inputs;
``artifact_mb`` and ``objective_ratio`` are means over inputs.  ``--trace 1``
sets up the first input only, runs the chain on it once untraced and once
traced, and reports the per-layer metrics, including the tracing overhead.
Every run checks its outputs; the last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``.  ``--smoke`` runs the same
code path on the ``mini`` preset in seconds; ``--out FILE`` also writes the
full record (environment, raw measurements, checks) to FILE.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, input_seeds, smoke

HERE = Path(__file__).resolve().parent
SETUP_REPS = 3
CHILD_TIMEOUT = 150.0
STAGES = ("ingest", "filter", "label", "split", "featurize", "train", "evaluate", "alerts")
LAYERS = ("pipeline", "corpus", "labeling", "splitting", "features", "learn", "metrics", "mar_alerts")


class Child:
    """One finished child process: exit code, wall seconds, peak RSS, its JSON report.

    A child still running after ``CHILD_TIMEOUT`` seconds is killed and fails.
    """

    def __init__(self, argv: list[str], env: dict, log: Path, report: Path | None):
        started = time.perf_counter()
        with open(log, "w", encoding="utf-8") as err:
            proc = subprocess.Popen([sys.executable, str(HERE / "chain.py"), *argv],
                                    env=env, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)  # rusage of this child alone
            except BaseException:  # interrupted or terminated: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.seconds = time.perf_counter() - started
        self.returncode = proc.returncode
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # KiB on Linux
        self.error = log.read_text(encoding="utf-8")[-2000:] if self.returncode else ""
        self.report = {}
        if self.returncode == 0 and report is not None:
            self.report = json.loads(report.read_text(encoding="utf-8"))

    @property
    def ok(self) -> bool:
        return self.returncode == 0


def artifacts(out: Path) -> tuple[int, str]:
    """Bytes and one digest over every artifact; manifests are metadata, excluded."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(out.rglob("*")):
        if path.is_file() and "manifests" not in path.relative_to(out).parts:
            data = path.read_bytes()
            total += len(data)
            digest.update(str(path.relative_to(out)).encode() + b"\0" + hashlib.sha256(data).digest())
    return total, digest.hexdigest()


def environment(root: Path, seed: int, wl, versions: dict) -> dict:
    head = root / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            ref = ref_file.read_text(encoding="utf-8").strip() if ref_file.is_file() else ref
        commit = ref
    source = hashlib.sha256()
    for path in sorted((root / "src" / "ddimine").rglob("*.py")):
        source.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "seed": seed,
        "workload": wl.name,
        "params": wl.params,
        "config": wl.config,
        "stages": list(wl.stages),
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def layer_metrics(trace: dict, setup_trace: dict, verify: dict) -> dict[str, float]:
    """Per-layer metrics from the traced run's spans and counts (names as in BENCHMARK.json)."""
    stats, counts = trace["stats"], trace["counts"]

    def total(name: str) -> float:
        return stats.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return stats.get(name, {}).get("calls", 0)

    m: dict[str, float] = {f"pipeline.{s}_s": total(f"pipeline.stage_{s}") for s in STAGES}
    m["pipeline.codec_self_s"] = sum(v["self_s"] for k, v in stats.items() if k.startswith("pipeline.stage_"))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v["self_s"] for k, v in stats.items() if k.startswith(layer + "."))
    for name in (
        "corpus.load_corpus", "corpus.tokenize_abstracts", "corpus.filter_cardiac",
        "labeling.extract_templates", "labeling.enumerate_samples",
        "splitting.split_corpus", "splitting.assign_abstracts",
        "features.build_vocab", "features.build_count_matrix",
        "features.undersample", "features.save_matrix", "features.load_matrix",
        "learn.cross_validate", "learn.train", "learn.loss_gradient",
        "metrics.roc_curve",
        "mar_alerts.parse_mar", "mar_alerts.build_exposures", "mar_alerts.detect_overlaps",
    ):
        m[f"{name}_s"] = total(name)
    for name in ("corpus.abstracts", "corpus.tokens", "labeling.catalog_pairs", "labeling.samples",
                 "features.rows_built", "features.nnz", "features.matrix_mb", "learn.fits",
                 "learn.iterations_total", "mar_alerts.alerts"):
        m[name] = counts.get(name, 0)
    rows_in = counts.get("features.undersample_rows_in", 0)
    m["features.rows_kept_ratio"] = counts.get("features.undersample_rows_out", 0) / rows_in if rows_in else 1.0
    m["learn.iterations"] = verify["quality"].get("learn.iterations", 0)
    m["learn.loss_gradient_calls"] = calls("learn.loss_gradient")
    m["learn.loss_value_calls"] = calls("learn.loss_value")
    m["learn.step_accept_ratio"] = (
        calls("learn.loss_gradient") / calls("learn.loss_value") if calls("learn.loss_value") else 0.0
    )
    m["metrics.roc_curve_calls"] = calls("metrics.roc_curve")
    m.update(verify.get("matvec", {}))
    m["synth.write_dataset_s"] = setup_trace["stats"].get("synth.write_dataset", {}).get("total_s", 0.0)
    m["trace.spans"] = trace["spans"]
    return m


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def finite(value):
    """JSON has no NaN: a value that could not be measured is null."""
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def run(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "ddimine" / "__init__.py").is_file():
        print(f"error: no ddimine source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = smoke(wl)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    work = root / ".bench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", wl.name] + (["--smoke"] if args.smoke else [])
    log = work / "child.log"
    seeds = input_seeds(args.seed, 1 if args.trace else wl.inputs)
    inputs = [work / f"in{i}" for i in range(len(seeds))]
    record: dict = {"input_seeds": seeds, "setup": [], "rounds": [], "verify": [], "errors": []}
    try:
        # -- setup: one input per seed (the first one only, traced, with --trace 1)
        setup_trace: dict = {}
        for data, seed in zip(inputs, seeds):
            argv = ["setup", *common, "--seed", str(seed), "--dir", str(data)]
            if args.trace:
                argv += ["--report", str(work / "setup.json")]
            child = Child(argv, env, log, work / "setup.json" if args.trace else None)
            if not child.ok:
                record["errors"].append(f"setup failed:\n{child.error}")
                return emit(args, spec, record, wl, root, attempted=1, failed=1, metrics={})
            record["setup"].append(child.seconds)
            setup_trace = child.report

        # -- rounds, each one chain run per input: untraced until --seconds would be
        #    overrun (at least one round); with --trace 1, one untraced and one traced
        digests: dict[int, str] = {}
        failed = 0
        spent = 0.0  # seconds in rounds, the first round's oracle checks included
        while not failed:
            traced = bool(args.trace) and len(record["rounds"]) == 1
            runs: list[dict] = []
            record["rounds"].append(runs)
            started = time.perf_counter()
            for i, data in enumerate(inputs):
                failed += chain_run(args, common, env, log, work, data, i, traced, digests, runs, record)
                if failed:
                    break
            spent += time.perf_counter() - started
            if args.trace:
                if traced:
                    break
            elif spent + spent / len(record["rounds"]) > args.seconds:
                break

        attempted = sum(len(runs) for runs in record["rounds"])
        untraced = [runs for runs in record["rounds"]
                    if len(runs) == len(inputs) and all(r["ok"] and not r["traced"] for r in runs)]
        metrics: dict[str, float] = {}
        if not failed and untraced:
            if args.trace:
                metrics = layer_metrics(record["trace"], setup_trace, record["verify"][0])
                traced_wall = record["rounds"][1][0]["wall_s"]
                metrics["trace.traced_wall_s"] = traced_wall
                metrics["trace.untraced_wall_s"] = untraced[0][0]["wall_s"]
                metrics["trace.overhead_s"] = traced_wall - untraced[0][0]["wall_s"]
            else:
                metrics = {
                    "setup_s": median(record["setup"]),
                    "wall_s": median([statistics.fmean(r["wall_s"] for r in runs) for runs in untraced]),
                    "peak_rss_mb": median([statistics.fmean(r["peak_rss_mb"] for r in runs)
                                           for runs in untraced]),
                    "artifact_mb": statistics.fmean(r["artifact_bytes"] for r in untraced[0]) / 1e6,
                    "objective_ratio": statistics.fmean(
                        v["quality"]["objective_ratio"] for v in record["verify"]),
                }
        return emit(args, spec, record, wl, root, attempted, failed, metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass  # another run's directory is still there


def chain_run(args, common: list[str], env: dict, log: Path, work: Path, data: Path, index: int,
              traced: bool, digests: dict[int, str], runs: list[dict], record: dict) -> int:
    """One chain run on input ``index``, checked; returns 1 if it failed, else 0.

    The first run on an input goes through the oracle checks; every later one
    must leave artifacts byte-identical to it.
    """
    out = work / f"out{index}"
    argv = ["run", "--config", str(data / "config.json"), "--output", str(out),
            "--stages", ",".join(WORKLOADS[args.workload].stages), "--report", str(work / "run.json")]
    child = Child(argv + (["--trace"] if traced else []), env, log, work / "run.json")
    run_rec = {"input": index, "traced": traced, "ok": child.ok, "peak_rss_mb": child.peak_rss_mb}
    runs.append(run_rec)
    try:
        if not child.ok:
            record["errors"].append(f"chain run on input {index} failed:\n{child.error}")
            return 1
        run_rec["wall_s"] = child.report["wall_s"]
        run_rec["artifact_bytes"], digest = artifacts(out)
        if traced:
            record["trace"] = child.report["trace"]
        if index in digests:
            if digest != digests[index]:
                record["errors"].append(f"input {index}: artifacts differ from its first run")
                return 1
            return 0
        digests[index] = digest
        argv = ["verify", *common, "--dir", str(data), "--output", str(out),
                "--report", str(work / "verify.json")] + (["--matvec"] if args.trace else [])
        check = Child(argv, env, log, work / "verify.json")
        if not check.ok:
            record["errors"].append(f"verify on input {index} failed:\n{check.error}")
            return 1
        record["verify"].append(check.report)
        return 0 if all(c["ok"] for c in check.report["checks"].values()) else 1
    finally:
        shutil.rmtree(out, ignore_errors=True)


def emit(args, spec: dict, record: dict, wl, root: Path, attempted: int, failed: int, metrics: dict) -> int:
    """Human-readable report, then the one-line JSON result as the last line of stdout."""
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    verify = record["verify"]
    correct = failed == 0 and not record["errors"] and all(
        finite(metrics.get(m["name"])) is not None for m in wanted
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": finite(metrics.get(m["name"])), "unit": m["unit"]} for m in wanted},
    }
    record["env"] = environment(root, args.seed, wl, verify[0]["versions"] if verify else {})
    record["env"]["input_seeds"] = record["input_seeds"]
    record["result"] = result
    # quality figures: the mean over the checked inputs
    names = sorted({k for v in verify for k in v["quality"]})
    record["quality"] = {k: statistics.fmean(v["quality"][k] for v in verify if k in v["quality"])
                         for k in names}
    print(f"# workload {wl.name}  seed {args.seed}  trace {args.trace}  inputs {len(record['input_seeds'])}"
          f"  runs {attempted}  failed {failed}")
    for name, val in result["metrics"].items():
        print(f"{name:32s} {val['value']!r:>24} {val['unit']}")
    for name, val in record["quality"].items():
        print(f"{'quality.' + name:32s} {val!r:>24}")
    for i, v in enumerate(verify):
        for name, check in v["checks"].items():
            print(f"check {i} {name:24s} {'ok' if check['ok'] else 'FAILED'}  {check['detail']}")
    for error in record["errors"]:
        print(f"error: {error}")
    print("# env " + json.dumps(record["env"], sort_keys=True))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def main() -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement budget for chain runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="mini preset, same code path")
    parser.add_argument("--out", help="also write the full record as JSON to this file")
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())

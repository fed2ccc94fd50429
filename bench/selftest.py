"""Tests of the benchmark harness itself, on the ``mini`` preset (about a minute).

    python3 bench/selftest.py

Run from the root of a checkout.  They catch metric, check and tracing
regressions in the harness without the long runs: every workload's smoke
run must print exactly the metrics ``BENCHMARK.json`` names, and each output
check must fail on a deliberately damaged output.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import chain  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORK = ROOT / ".bench_work" / f"selftest-{os.getpid()}"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


class SmokeRuns(unittest.TestCase):
    """Every workload, both modes: the result line matches the spec and passes."""

    def test_every_workload_and_mode(self):
        for workload in WORKLOADS:
            for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                                 "--trace", trace, "--smoke")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, val in result["metrics"].items():
                        self.assertIsInstance(val["value"], (int, float), name)
                        if section == "end_to_end":
                            self.assertGreater(val["value"], 0, name)

    def test_fails_without_the_program(self):
        bare = WORK / "bare"
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "paper_front", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


    def test_terminate_leaves_no_child(self):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", "planted_lasso", "--seed", "2",
               "--seconds", "1", "--trace", "0", "--smoke"]
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        time.sleep(4.0)  # inside the chain run, which takes several seconds on mini
        proc.terminate()
        out, _ = proc.communicate(timeout=30)
        self.assertEqual(proc.returncode, 128 + signal.SIGTERM)
        self.assertEqual(out, b"")
        work = f"planted_lasso-2-{proc.pid}"  # the run's work directory, in every child's argv
        ps = subprocess.run(["ps", "-eo", "args"], capture_output=True, text=True).stdout
        self.assertNotIn(work, ps)
        self.assertFalse((ROOT / ".bench_work" / work).exists())


class Spans(unittest.TestCase):
    def test_self_time_excludes_children(self):
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])
        tracer.enter("a.outer")
        now[0] += 1.0
        tracer.enter("b.inner")
        now[0] += 3.0
        tracer.exit()
        now[0] += 2.0
        tracer.exit()
        stats = tracer.summary()["stats"]
        self.assertEqual(stats["a.outer"], {"calls": 1, "total_s": 6.0, "self_s": 3.0})
        self.assertEqual(stats["b.inner"], {"calls": 1, "total_s": 3.0, "self_s": 3.0})

    def test_recursion_counts_inclusive_time_once(self):
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])
        tracer.enter("a.f")
        tracer.enter("a.f")
        now[0] += 2.0
        tracer.exit()
        now[0] += 1.0
        tracer.exit()
        self.assertEqual(tracer.summary()["stats"]["a.f"]["total_s"], 3.0)

    def test_install_rebinds_every_namespace(self):
        from ddimine import learn, metrics, pipeline

        original = metrics.roc_curve
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(learn.roc_curve, original)
        self.assertIs(learn.roc_curve, metrics.roc_curve)
        self.assertIs(pipeline.STAGE_FUNCS["label"], pipeline.stage_label)
        learn.roc_curve([0.1, 0.9], [0, 1])
        self.assertEqual(tracer.summary()["stats"]["metrics.roc_curve"]["calls"], 1)


class Checks(unittest.TestCase):
    """Each oracle check passes on a real output and fails on a damaged copy."""

    @classmethod
    def setUpClass(cls):
        cls.data, cls.out = WORK / "data", WORK / "out"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for argv in (
            ["setup", "--workload", "planted_lasso", "--smoke", "--seed", "3", "--dir", str(cls.data)],
            ["run", "--config", str(cls.data / "config.json"), "--output", str(cls.out),
             "--stages", "ingest,filter,label,split,alerts", "--report", str(WORK / "run.json")],
        ):
            subprocess.run([sys.executable, str(HERE / "chain.py"), *argv], env=env, check=True)
        cls.truth = json.loads((cls.data / "truth.json").read_text(encoding="utf-8"))

    def damaged(self, name: str, edit) -> Path:
        copy = WORK / f"damaged-{name}"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(self.out, copy)
        path = copy / name
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        return copy

    def test_labels(self):
        self.assertTrue(chain.check_labels(self.out, set(self.truth["interactors"]))[0])
        flipped = self.damaged("samples.tsv", lambda t: t.replace("\t1\t", "\t0\t", 1))
        self.assertFalse(chain.check_labels(flipped, set(self.truth["interactors"]))[0])

    def test_leakage(self):
        self.assertTrue(chain.check_leakage(self.out)[0])

        def move_one_abstract(text: str) -> str:
            lines = text.splitlines()
            for i, line in enumerate(lines):
                kind, key, split = (line.split("\t") + ["", "", ""])[:3]
                if kind == "abstract" and split == "train":
                    lines[i] = f"abstract\t{key}\ttest"
                    break
            return "\n".join(lines) + "\n"

        leaky = self.damaged("assignment.tsv", move_one_abstract)
        self.assertFalse(chain.check_leakage(leaky)[0])
        reported = self.damaged("leakage_report.txt", lambda t: t.replace(
            "cross-split shared abstracts:\n", "cross-split shared abstracts:\n  dev/test\t1\n"))
        self.assertFalse(chain.check_leakage(reported)[0])

    def test_alerts(self):
        self.assertTrue(chain.check_alerts(self.out, self.data / "catalog.tsv")[0])
        lines = (self.out / "alerts.tsv").read_text(encoding="utf-8").splitlines()
        fields = lines[-1].split("\t")
        fields[2] = "nosuchdrug"
        stray = self.damaged("alerts.tsv", lambda t: t + "\t".join(fields) + "\n")
        self.assertFalse(chain.check_alerts(stray, self.data / "catalog.tsv")[0])

    def test_auc_oracle_against_pair_count(self):
        scores = [0.1, 0.4, 0.4, 0.8, 0.3, 0.9]
        labels = [0, 0, 1, 1, 0, 1]
        pairs = [(p, n) for p, lp in zip(scores, labels) if lp for n, ln in zip(scores, labels) if not ln]
        expected = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p, n in pairs) / len(pairs)
        self.assertAlmostEqual(chain.auc_oracle(scores, labels), expected, places=12)

    def test_logistic_reference_is_certified(self):
        import numpy as np

        rng = np.random.default_rng(1)
        X = rng.poisson(0.5, size=(60, 8)).astype(float)
        y = (X[:, 0] - X[:, 1] + 0.5 * rng.normal(size=60) > 0).astype(float)
        best, residual = chain.logistic_optimum(X, y, 0.01, np.zeros(8), 0.0)
        self.assertLessEqual(residual, 1e-5)
        for _ in range(20):
            w, b = rng.normal(size=8), float(rng.normal())
            self.assertGreaterEqual(chain.objective("logistic", X, y, w, b, 0.01), best - 1e-9)

    def test_hinge_lp_lower_bounds_any_model(self):
        import numpy as np

        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 5))
        y = (X[:, 0] + 0.3 * rng.normal(size=40) > 0).astype(float)
        best, solved = chain.hinge_optimum(X, y, 0.01)
        self.assertTrue(solved)
        for _ in range(20):
            w, b = rng.normal(size=5), float(rng.normal())
            self.assertGreaterEqual(chain.objective("hinge", X, y, w, b, 0.01), best - 1e-9)


def tearDownModule():
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        WORK.parent.rmdir()
    except OSError:
        pass  # another run's directory is still there


if __name__ == "__main__":
    unittest.main()

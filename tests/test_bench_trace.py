"""The benchmark's tracer on the chain: the shapes its counters read still hold.

``bench/spans.py`` counts tokens off the items that ``corpus.tokenize_abstracts``
returns (the length of each one's ``.tokens``, its word codes), nonzeros off
``result[0].X`` of ``features.build_count_matrix``, samples off the list
``labeling.enumerate_samples`` returns, and fits off the calls of ``learn._fit``.  The
tracer rebinds functions throughout the package, so it runs in a child interpreter, not
in the test process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from ddimine import artifacts

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from spans import Tracer
tracer = Tracer()
tracer.install()
from ddimine.config import load_config
from ddimine.pipeline import run_all
from ddimine.synth import SynthParams, write_dataset
cfg = load_config(write_dataset(SynthParams(seed=7), sys.argv[2])["config"])
run_all(cfg)
print(json.dumps([tracer.summary()["counts"], str(cfg.output)]))
"""


def test_tracer_counts_tokens_and_nonzeros_on_mini(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "bench"), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    counts, output = json.loads(child.stdout.splitlines()[-1])
    assert counts["corpus.tokens"] > 0 and counts["features.nnz"] > 0
    assert counts["features.rows_built"] > 0
    # one fit per fold and lambda with a defined AUC, and the final fit
    cv_rows = [line.split("\t") for line in artifacts.read(Path(output) / "cv_results.tsv")[0] if line[:1] != "#"]
    assert counts["learn.fits"] == 1 + sum(cell != "N/A" for row in cv_rows for cell in row[3:])
    assert len(cv_rows) > 1
    assert counts["labeling.samples"] == len(list(artifacts.read(Path(output) / "samples.tsv")[0]))

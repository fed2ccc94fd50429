"""Golden digests: every artifact of seven fixed runs is pinned by SHA-256.

``golden_artifacts.json`` maps each case in :data:`CASES` to every file the
run writes outside ``manifests/`` (``diagnose_split.txt`` included): its
SHA-256, and digests of its ``ddimine show`` text in blocks of
:data:`BLOCK` lines, so that a mismatch names the file and the first block of
lines that differs, printed as the run now writes it.  A file ``show`` has no
text form for is shown as its own text.  The table also records the numpy and
scipy versions it was made with; a test run under other versions says so
first, and fails.  A change that moves an artifact on purpose rewrites the
table with::

    PYTHONPATH=src python tests/test_golden.py

and lists in CHANGES.md each file that moved, and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from ddimine import artifacts
from ddimine.cli import _show
from ddimine.config import build_config
from ddimine.errors import ValidationError
from ddimine.pipeline import file_digest, run_all, run_stage
from ddimine.synth import SynthParams, planted_params, write_dataset

TABLE = Path(__file__).with_name("golden_artifacts.json")
BLOCK = 16  # lines of show text per block digest
# case -> (preset, the config's top-level fields changed from write_dataset's)
CASES = {
    "mini": ("mini", {}),
    "mini-embeddings": ("mini", {"features": "embeddings"}),
    "mini-stopwords-drop": ("mini", {"vocab_stopwords": "drop"}),
    "mini-drop-empty": ("mini", {"drop_empty_samples": True}),
    "mini-train-only": ("mini", {"ratios": [1, 0, 0]}),
    "mini-hinge": ("mini", {"model": {"loss": "hinge"}}),
    "planted": ("planted", {}),
}


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def show_lines(path: Path) -> list[str]:
    """The file as ``ddimine show`` prints it, or for a kind it does not print, its own text."""
    try:
        kind, header, lines = _show(str(path))
    except ValidationError:
        return path.read_text(encoding="utf-8").splitlines(keepends=True)
    return [artifacts.header_text(kind, header), *lines]


def block_digests(lines: list[str]) -> str:
    """The first 8 hex digits of each block's SHA-256, concatenated."""
    return "".join(hashlib.sha256("".join(lines[i : i + BLOCK]).encode("utf-8")).hexdigest()[:8]
                   for i in range(0, len(lines), BLOCK))


def run_cases(root: Path) -> dict[str, Path]:
    """Run every case under ``root``: the chain, then diagnose-split; case -> its output directory."""
    configs = {preset: json.loads(write_dataset(params, root / preset)["config"].read_text(encoding="utf-8"))
               for preset, params in (("mini", SynthParams(seed=7)), ("planted", planted_params(7)))}
    outputs = {}
    for case, (preset, changed) in CASES.items():
        raw = configs[preset]
        changed = {key: {**raw[key], **val} if isinstance(val, dict) else val for key, val in changed.items()}
        cfg = build_config({**raw, **changed}, {"output": str(root / "runs" / case)})
        run_all(cfg)
        run_stage(cfg, "diagnose-split")
        outputs[case] = cfg.output
    return outputs


def files_of(out: Path) -> dict[str, Path]:
    return {str(p.relative_to(out)): p for p in sorted(out.rglob("*")) if p.is_file() and "manifests" not in p.parts}


def mismatch(case: str, name: str, path: Path, expected_blocks: str) -> str:
    """The file, and the first block of its show text whose digest differs, as the run now writes it."""
    lines = show_lines(path)
    actual = block_digests(lines)
    first = next((k for k in range(0, max(len(actual), len(expected_blocks)), 8)
                  if actual[k : k + 8] != expected_blocks[k : k + 8]), None)
    if first is None:  # the show text agrees, so the bytes show leaves out moved
        return f"{case}: {name}: the bytes differ; its show text ({len(lines)} lines) does not"
    start = first // 8 * BLOCK
    block = lines[start : start + BLOCK]
    shown = "".join(f"\n    {start + i}: {line.rstrip()[:120]}" for i, line in enumerate(block, 1))
    return (f"{case}: {name}: show text first differs in lines {start + 1}-{start + BLOCK} "
            f"({len(lines)} lines now); they read now:{shown or ' (none)'}")


def test_every_artifact_matches_the_golden_table(tmp_path):
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    problems = []
    if table["versions"] != versions():
        problems.append(f"the table was made with {table['versions']}, this run has {versions()}")
    for case, out in run_cases(tmp_path).items():
        expected, actual = table["cases"][case], files_of(out)
        problems += [f"{case}: {name} is missing" for name in sorted(expected.keys() - actual.keys())]
        problems += [f"{case}: {name} is not in the table" for name in sorted(actual.keys() - expected.keys())]
        for name in sorted(expected.keys() & actual.keys()):
            digest, blocks = expected[name]
            if file_digest(actual[name]) != digest:
                problems.append(mismatch(case, name, actual[name], blocks))
    assert not problems, "\n".join(problems)


def write_table() -> None:
    with tempfile.TemporaryDirectory() as root:
        cases = {case: {name: [file_digest(path), block_digests(show_lines(path))]
                        for name, path in files_of(out).items()}
                 for case, out in run_cases(Path(root)).items()}
    TABLE.write_text(json.dumps({"versions": versions(), "cases": cases}, indent=1, sort_keys=True) + "\n",
                     encoding="utf-8")
    print(f"wrote {TABLE}", file=sys.stderr)


if __name__ == "__main__":
    write_table()

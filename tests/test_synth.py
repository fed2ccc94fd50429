"""The synthetic datasets: pinned to the byte, light to import, and open to the benchmark's hook."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ddimine import synth

ROOT = Path(__file__).resolve().parents[1]

STOPWORDS = "73804769a098558757cde89333e47b2c9a39733b3540dc724d1bd981f49943b8"

# SHA-256 of every file write_dataset writes, taken before the generator was made in blocks;
# config.json with its paths made relative to the output directory
GOLDEN = {
    ("mini", 7): {
        "catalog.tsv": "3b6d90bd2c133ac606a7a533635d351a2e5cf0a7f811663ee56c654cadc5c9c7",
        "config.json": "9653c50ac051b29720eb0d778024d67a83f63630250ff07ab6bfada5b23afa98",
        "corpus.tsv": "ea27f3ffcf2e04614f64f6a8a966250a79920e1f6b8314eac425cf837028936a",
        "embeddings.txt": "61dad640b563c62220b4c2562e9748f97ff97dabf06fbd4524119138b28ec643",
        "lexicon.tsv": "edb9fa7e196f98dbedd57e46a51a4b0a4a192d51b9b11b6ad610b41b3a38b45e",
        "mar.tsv": "13638d524a0d1d2370663752a720e55230535c810734bfe016e14f3f3f08e414",
        "stopwords.txt": STOPWORDS,
    },
    ("mini", 3): {
        "catalog.tsv": "b3370db42232a79335152346746b9e64d5e4ff5470640395159b261aa50b7273",
        "config.json": "8bc5af04640660a85e05f41beaf0c2a7c744811aa15fb5b14c991edf5f903324",
        "corpus.tsv": "7d7d74a4db8e3ea0a562bf054db153a9fe642c094781348dd8db8813f9122bde",
        "embeddings.txt": "432aec65669c3b7d09ae35b179536c875426b2f9a4c26054f2ce48b60680df5c",
        "lexicon.tsv": "e0cf2cb47c72b61054a79d4a621593f426ae938a6efedd31a90578f50ce1c9cf",
        "mar.tsv": "6d6f581d733952c2724094a0d35d59bdd5f759643225cb01960c30a1a21198f3",
        "stopwords.txt": STOPWORDS,
    },
    ("planted", 11): {
        "catalog.tsv": "7230eae0663d4e3b2fab1faa817da3465e005787400b7473651187d6a9881c86",
        "config.json": "172009bf22275302c3fd47e29ac119c4c0168dbc3c1e5d30a989774c36f732cd",
        "corpus.tsv": "02ff30bb4cd5b76819c4db967019a149efead9add99601f90ae3c60046d49769",
        "embeddings.txt": "cbf1c5fe92713d76dc76c56a9fbc8234105fdda2b27c851ded7904a20d1d44ed",
        "lexicon.tsv": "4d8eef6f4749ea089bf60be977469e87a5c352f3c84e86a848be1aee845e2415",
        "mar.tsv": "3d47447b81b37ce9df1268ccbeb9516d5483edcf403b109b44fe284786b033b6",
        "stopwords.txt": STOPWORDS,
    },
}


@pytest.mark.parametrize("preset,seed", list(GOLDEN))
def test_datasets_are_byte_for_byte_the_pinned_ones(tmp_path, preset, seed):
    params = synth.planted_params(seed) if preset == "planted" else synth.SynthParams(seed=seed)
    paths = synth.write_dataset(params, tmp_path)
    digests = {}
    for path in paths.values():
        data = path.read_bytes()
        if path.name == "config.json":
            data = data.replace(f"{tmp_path}/".encode(), b"")
        digests[path.name] = hashlib.sha256(data).hexdigest()
    assert digests == GOLDEN[preset, seed]


def test_importing_synth_leaves_scipy_out():
    """The benchmark's ``setup_s`` is the wall time of a whole ``bench/chain.py setup`` child, imports included.

    ``import scipy.sparse`` alone takes 0.29-0.35 s on a 2-vCPU machine, about the whole ``setup_s`` of the
    ``planted_lasso`` workload (0.27-0.41 s).  ``synth`` imports ``corpus``, ``labeling`` and ``rng``, so a scipy
    import added to any of them would show up there as a setup slowdown, not as a failing check.
    """
    code = "import sys, ddimine.synth; print('scipy' in sys.modules)"
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "False"


def test_write_dataset_calls_the_module_generate_dataset(tmp_path, monkeypatch):
    """``bench/chain.py setup`` replaces ``generate_dataset`` to keep the ground truth it writes."""
    seen = []
    generate = synth.generate_dataset
    monkeypatch.setattr(synth, "generate_dataset", lambda params: seen.append(generate(params)) or seen[-1])
    synth.write_dataset(synth.SynthParams(seed=7), tmp_path)
    assert len(seen) == 1
    assert seen[0].high_drugs and seen[0].high_drugs <= seen[0].lexicon.phrases.keys()
    assert seen[0].signal_words == synth.SIGNAL_WORDS

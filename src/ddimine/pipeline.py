"""Stage orchestration: the stage table, artifacts on disk, manifests, digests.

Each stage is declared once, in :data:`STAGES`: its function, the config
fields it reads (paths included), the artifacts it reads (in argument order)
and the artifacts it writes.  ``STAGE_ORDER`` and ``ARTIFACTS`` follow from it.

Freshness has one rule.  Each artifact is headed by its stage's digest: a
SHA-256 over the stage name, the values of the fields it declares (a path by
its file's content), and the digests of the artifacts it reads.  An input is
fresh when its digest is the one its producer would write now, worked out by
walking up the table; so a setting or file stales only its readers' artifacts
and those downstream.

The front passes columns.  Ingest tokenizes each abstract to word codes, builds
the word counts from them, finds the lexicon's mentions as a product of the
counts and the phrases, and writes the abstracts that mention a drug to
``cardiac.tsv`` as records: the ids, the mentions and the word counts
(:class:`ddimine.corpus.AbstractColumns`); filter reads it and writes only the
corpus statistics, row and column sums, and no stage waits on filter.  Each
stage that reads ``samples.tsv`` refuses a malformed or repeated row as
``path:line``.  Split, featurize and diagnose-split each draw every kept
abstract's and every sample's split as a code aligned with its row, from the
two row counts, the ratios and the seed (:func:`ddimine.splitting.split_corpus`),
and compute the sample x abstract incidence from the kept corpus's mention
columns and the codes (:func:`ddimine.splitting.incidence`).  Split writes both
by name, to ``assignment.tsv`` and ``assigned_samples.tsv``, and its leakage
report; no stage reads those files.  Featurize maps words to columns once for
all splits.

:func:`run_stage` does every artifact read and write.  Before a stage runs, a
missing input names the stage that produces it (:class:`MissingArtifactError`),
and a stale one, or one with no header, names the stage to rerun
(:class:`ArtifactMismatchError`); then each input is decoded and passed to the
stage function.  The stage returns its artifacts, name -> (kind, header fields,
body), and reads and writes none; ``run_stage`` writes them after it returns,
atomically and under the header of :mod:`ddimine.artifacts`.  So a stage that
fails writes nothing: split's leakage check, for one, raises before any
``leakage_report.txt`` is written.  Stage manifests (each output's content
digest, and the time taken) live under ``manifests/`` and are metadata, not
artifacts: reruns are byte-identical in everything outside that directory.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import artifacts, csr
from . import corpus as corpus_mod
from . import features as features_mod
from . import labeling as labeling_mod
from . import learn as learn_mod
from . import mar_alerts as mar_mod
from . import metrics as metrics_mod
from . import splitting as splitting_mod
from .config import PATH_RULES, PATHS, PipelineConfig
from .errors import ConfigError, MissingArtifactError, ValidationError

Outputs = dict[str, artifacts.Encoded]


class Stage(NamedTuple):
    """One stage, declared once: what it runs, reads and writes."""

    run: Callable[..., Outputs]  # (cfg, *decoded reads) -> its artifacts; reads and writes no artifact
    config: tuple[str, ...]  # the config fields it reads, path fields included
    reads: tuple[str, ...]  # the artifacts it reads, in argument order
    writes: tuple[str, ...]  # the artifacts it returns


def file_digest(path: Path) -> str:
    """SHA-256 of a file's bytes, read in 1 MiB blocks: no copy of the whole file is held."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def _content_digest(path: Path | None) -> str | None:
    """A file's digest, or for a directory corpus one over each member's name and digest; None for no file."""
    if path is None or not path.exists():
        return None
    if path.is_dir():
        members = {member.name: file_digest(member) for member in corpus_mod.corpus_members(path)}
        return hashlib.sha256(json.dumps(members, sort_keys=True).encode("utf-8")).hexdigest()
    return file_digest(path)


def stage_digests(cfg: PipelineConfig) -> Callable[[str], str]:
    """stage -> the digest it writes under ``cfg`` now; memoized, so each file is hashed once."""
    content = functools.cache(_content_digest)

    @functools.cache
    def digest(stage: str) -> str:
        spec = STAGES[stage]
        values = {key: content(getattr(cfg, key)) if key in PATHS else getattr(cfg, key) for key in spec.config}
        upstream = {name: digest(ARTIFACTS[name]) for name in spec.reads}
        payload = json.dumps([stage, values, upstream], sort_keys=True, default=asdict)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    return digest


def check_stage_paths(cfg: PipelineConfig, stage: str) -> None:
    """Verify the declared paths: each set one exists, and each that no setting makes optional is set."""
    optional = {key for keys in PATH_RULES.values() for key in keys}
    missing = []
    for key in (key for key in STAGES[stage].config if key in PATHS):
        val = getattr(cfg, key)
        if val is None and key not in optional:
            missing.append(f"paths.{key} is required by the {stage!r} stage")
        elif val is not None and not val.exists():
            missing.append(f"paths.{key} does not exist: {val}")
    if missing:
        raise ConfigError(missing)


def _encode_samples(samples, A=None, names: Sequence[str] = ()) -> artifacts.Encoded:
    """One row per sample; given the sample x abstract incidence ``A`` and the abstract id of each of its columns,
    ``names``, each row's ids, ","-joined or "-", as a fifth column.  The body is made as it is written, a block of
    rows at a time from A's slices: no list of every cell is held."""

    def blocks(size: int = 4096) -> Iterator[str]:
        for start in range(0, len(samples), size):
            block = samples[start : start + size]
            rows = [f"{s.cardiac_drug}\t{s.other_drug}\t{s.label}\t{'-' if s.template_id is None else s.template_id}"
                    for s in block]
            if A is not None:
                ends = A.indptr[start : start + len(block) + 1].tolist()
                ids = list(map(names.__getitem__, A.indices[ends[0] : ends[-1]].tolist()))
                rows = [f"{row}\t{','.join(ids[a - ends[0] : b - ends[0]]) or '-'}"
                        for row, a, b in zip(rows, ends, ends[1:])]
            yield "".join(f"{row}\n" for row in rows)

    cols = "cardiac\tother\tlabel\ttemplate_id" + ("" if A is None else "\tabstract_ids")
    return "samples", {"columns": cols}, blocks()


def _decode_samples(path: Path) -> list[labeling_mod.InteractionSample]:
    """Inverse of :func:`_encode_samples` without ``A``; a malformed or repeated row is refused as
    ``path:line``."""
    samples, seen = [], set()
    with artifacts.body_lines(path, width=4) as (rows, _):
        for cardiac, other, label, tid in rows:
            if label not in ("0", "1") or not (tid == "-" or tid.isascii() and tid.isdecimal()):
                raise ValidationError(f"bad label {label!r} or template id {tid!r}")
            if (cardiac, other) in seen:  # split would draw each copy its own split, and featurize build it twice
                raise ValidationError(f"repeated sample {cardiac}|{other}")
            seen.add((cardiac, other))
            samples.append(labeling_mod.InteractionSample(cardiac, other, int(label), None if tid == "-" else int(tid)))
    return samples


# artifact -> its decoder.  The module loaders are looked up at each call, so a
# wrapper installed on them later (a tracer, say) sees the read.
_DECODERS: dict[str, Callable[[Path], object]] = {
    "cardiac.tsv": lambda path: corpus_mod.load_abstracts(path),
    "samples.tsv": _decode_samples,
    "model.txt": lambda path: learn_mod.load_model(path)[0],
    **{f"features_{split}.txt": lambda path: features_mod.load_matrix(path)[0] for split in splitting_mod.SPLITS},
}


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage_ingest(cfg: PipelineConfig) -> Outputs:
    """Parse the corpus, tokenize, match the drug lexicon, and keep the abstracts that mention a drug."""
    lexicon = corpus_mod.DrugLexicon.load(cfg.lexicon)
    abstracts, skipped = corpus_mod.load_corpus(cfg.corpus, cfg.corpus_format)
    codes: dict[str, int] = {}  # word -> code, as tokenizing meets them
    tokenized = corpus_mod.tokenize_abstracts(abstracts, codes)
    del abstracts  # the texts go before the columns are built
    kept = corpus_mod.AbstractColumns.mentioning(tokenized, codes, lexicon)
    retention = len(kept.ids) / len(tokenized) if tokenized else 0.0
    fields = {"skipped_records": skipped, "retention": retention, "before": len(tokenized)}
    return {"cardiac.tsv": corpus_mod.encode_abstracts(kept, **fields)}


def stage_filter(cfg: PipelineConfig, kept) -> Outputs:
    """Corpus statistics of the kept abstracts."""
    if "retention" not in kept.header:
        raise ValidationError("cardiac.tsv has no retention in its header; rerun the 'ingest' stage")
    lexicon = corpus_mod.DrugLexicon.load(cfg.lexicon)
    seen_cardiac = lexicon.cardiac.intersection(map(kept.drugs.__getitem__, set(kept.mentions.indices.tolist())))
    body = corpus_mod.render_stats(corpus_mod.corpus_stats(kept))
    body += f"retention_ratio\t{kept.header['retention']}\n"  # a float's str, as ingest wrote it, is its repr
    body += f"cardiac_drugs_in_lexicon\t{len(lexicon.cardiac)}\n"
    body += f"cardiac_drugs_in_abstracts\t{len(seen_cardiac)}\n"
    return {"corpus_stats.txt": ("corpus-stats", {}, body)}


def stage_label(cfg: PipelineConfig) -> Outputs:
    """Enumerate (cardiac, other) samples with labels and type templates."""
    lexicon = corpus_mod.DrugLexicon.load(cfg.lexicon)
    if not lexicon.cardiac:
        raise ValidationError(f"{cfg.lexicon}: cardiac drug set is empty: no drug is flagged cardiac")
    catalog = labeling_mod.InteractionCatalog.load(cfg.catalog)
    universe = labeling_mod.build_universe(set(lexicon.cardiac), catalog)
    table = labeling_mod.extract_templates(catalog, lexicon)
    samples = labeling_mod.enumerate_samples(set(lexicon.cardiac), universe, catalog, table.by_pair)

    lines = ["# template_id\ttext\tsupport"]
    lines += [f"{tid}\t{text}\t{table.support[tid]}" for tid, text in enumerate(table.templates)]

    tallies = labeling_mod.positive_tallies(samples)
    body_lines = [
        f"universe_size\t{len(universe)}",
        f"cardiac_drugs\t{len(lexicon.cardiac)}",
        f"samples\t{len(samples)}",
        f"catalog_pairs\t{len(catalog)}",
        f"catalog_duplicate_rows\t{catalog.n_duplicate_rows}",
        f"template_count\t{len(table.templates)}",
        f"template_warnings\t{table.n_warnings}",
    ]
    body_lines += [f"{k}\t{v}" for k, v in tallies.items()]
    body_lines += [
        "#",
        "# Reference full-scale tallies (documented, not asserted):",
        "# related drugs 1781; positive interactions 63450;",
        "# cardiac-cardiac positives 218; interaction types 53.",
    ]
    return {
        "samples.tsv": _encode_samples(samples),
        "templates.tsv": ("templates", {}, "\n".join(lines) + "\n"),
        "label_report.txt": ("label-report", {}, "\n".join(body_lines) + "\n"),
    }


def stage_split(cfg: PipelineConfig, kept, samples) -> Outputs:
    """Split abstracts and samples independently, then attach same-split abstracts."""
    split = splitting_mod.split_corpus(len(kept.ids), len(samples), cfg.ratios, cfg.seed)
    A, order = splitting_mod.incidence(kept, samples, split)
    report = splitting_mod.leakage_report(split, A)
    if report.total_cross_split != 0:
        raise ValidationError("split postcondition violated: cross-split abstract sharing detected")
    return {
        "assignment.tsv": splitting_mod.encode_assignment(split, kept.ids, samples, cfg.seed, cfg.ratios),
        "assigned_samples.tsv": _encode_samples(samples, A, [kept.ids[i] for i in order]),
        "leakage_report.txt": ("leakage-report", {}, report.render()),
    }


def stage_featurize(cfg: PipelineConfig, kept, samples) -> Outputs:
    """Build the train vocabulary, one words -> columns map, and per-split feature matrices through it."""
    split = splitting_mod.split_corpus(len(kept.ids), len(samples), cfg.ratios, cfg.seed)  # as split drew it
    A, order = splitting_mod.incidence(kept, samples, split)
    stop: frozenset[str] = frozenset()
    if cfg.vocab_stopwords == "drop" or cfg.feature_kind == "embeddings":
        stop = corpus_mod.load_stopwords(cfg.stopwords)
    stopped = np.fromiter((word in stop for word in kept.words), dtype=bool, count=len(kept.words))
    train = split[0] == splitting_mod.SPLITS.index("train")
    dropped = stopped if cfg.vocab_stopwords == "drop" else False
    vocab = features_mod.build_vocab(csr.rows(kept.counts, train), kept.words, cfg.top_k, dropped)
    outputs = {"vocab.tsv": features_mod.encode_vocab(vocab)}
    report_lines = [f"vocab_size\t{len(vocab)}"]

    columns, V = [word for word, _ in vocab], None
    if cfg.feature_kind == "embeddings":
        columns, V = features_mod.load_embeddings(cfg.embeddings, stop)
    M = features_mod.column_map(kept.words, columns)
    by_column = csr.rows(kept.counts, order)
    matrices = {}
    for code, name in enumerate(splitting_mod.SPLITS):
        rows = np.flatnonzero(split[1] == code)
        matrices[name], misses = features_mod.build_count_matrix(
            [samples[i] for i in rows], csr.rows(A, rows), by_column, M, cfg.drop_empty_samples, V, ~stopped
        )
        if V is not None:
            report_lines.append(f"embedding_misses_{name}\t{misses}")

    if cfg.undersample_train:
        before = matrices["train"].n_rows
        matrices["train"] = features_mod.undersample(matrices["train"], cfg.seed)
        report_lines.append(f"undersample_train\t{before} -> {matrices['train'].n_rows}")
    for name, m in matrices.items():
        report_lines.append(f"rows_{name}\t{m.n_rows}")
        outputs[f"features_{name}.txt"] = features_mod.encode_matrix(m)
    outputs["featurize_report.txt"] = ("featurize-report", {}, "\n".join(report_lines) + "\n")
    return outputs


def stage_train(cfg: PipelineConfig, matrix) -> Outputs:
    """Cross-validate the L1 penalty by held-out AUC, then fit the final model from the CV fits."""
    model_cfg = cfg.model
    w0 = b0 = None
    design = learn_mod.design(matrix, model_cfg.standardize)  # the grid, every CV fold and the final fit share it

    def fmt_number(value: float) -> str:
        return "N/A" if math.isnan(value) else repr(float(value))

    cv_lines = ["# lambda\tmean_auc\tmean_loss\t" + "\t".join(f"fold{i}" for i in range(cfg.cv.k))]
    if cfg.cv_enabled():
        grid = cfg.cv.grid or learn_mod.default_lambda_grid(design)
        result = learn_mod.cross_validate(design, grid, cfg.cv.k, model_cfg, cfg.seed)
        for gi, lam in enumerate(result.lambda_grid):
            folds = "\t".join(fmt_number(result.fold_auc[gi, i]) for i in range(result.fold_auc.shape[1]))
            cv_lines.append(
                f"{lam!r}\t{fmt_number(result.mean_auc[gi])}\t{fmt_number(result.mean_loss[gi])}\t{folds}"
            )
        cv_lines.append(f"# best_lambda: {result.best_lambda!r}")
        cv_lines += [f"# warning: {warning}" for warning in result.warnings]
        model_cfg = replace(model_cfg, l1_lambda=result.best_lambda)
        w0, b0 = result.w_start, result.b_start
    else:
        cv_lines.append("# cross-validation disabled")
    model = learn_mod.train(design, model_cfg, cfg.seed, w0, b0)
    return {
        "cv_results.tsv": ("cv-results", {}, "\n".join(cv_lines) + "\n"),
        "model.txt": learn_mod.encode_model(model),
    }


def stage_evaluate(cfg: PipelineConfig, model, dev, test) -> Outputs:
    """Score dev and test splits: metric reports and ROC curve exports."""
    outputs = {}
    for split, matrix in (("dev", dev), ("test", test)):
        scores = learn_mod.predict_scores(model, matrix)
        counts = metrics_mod.confusion(scores, matrix.y, cfg.threshold)
        extra = {}
        curve_lines = ["# threshold\tsensitivity\tspecificity\tfpr"]
        if (classes := len(set(matrix.y.tolist()))) < 2:
            extra["auc"] = f"N/A ({'single-class' if classes else 'empty'} split)"
        else:
            curve = metrics_mod.roc_curve(scores, matrix.y)
            extra["auc"] = repr(curve.auc)
            columns = (curve.thresholds, curve.tpr, 1.0 - curve.fpr, curve.fpr)
            # tolist() gives Python floats, whose repr the file prints
            curve_lines += map("{!r}\t{!r}\t{!r}\t{!r}".format, *(column.tolist() for column in columns))
        body = metrics_mod.render_metrics_report(counts, cfg.threshold, extra)
        outputs[f"metrics_{split}.txt"] = ("metrics", {}, body)
        outputs[f"curve_{split}.tsv"] = ("roc-curve", {}, "\n".join(curve_lines) + "\n")
    return outputs


def stage_alerts(cfg: PipelineConfig) -> Outputs:
    """Detect co-exposure windows for catalog-positive pairs in the MAR."""
    catalog = labeling_mod.InteractionCatalog.load(cfg.catalog)
    events = mar_mod.parse_mar(cfg.mar)
    windows = mar_mod.build_exposures(events, cfg.alerts.window_hours, cfg.alerts.per_drug_hours)
    return mar_mod.encode_alerts(mar_mod.detect_overlaps(windows, catalog))


def stage_diagnose_split(cfg: PipelineConfig, kept, samples) -> Outputs:
    """Side-by-side leakage counts: the split-isolated assignment vs the naive one."""
    split = splitting_mod.split_corpus(len(kept.ids), len(samples), cfg.ratios, cfg.seed)
    isolated = splitting_mod.leakage_report(split, splitting_mod.incidence(kept, samples, split)[0])
    naive = splitting_mod.leakage_report(split, splitting_mod.incidence(kept, samples)[0])
    lines = ["pair\tisolated\tnaive"]
    for (a, b), count in sorted(isolated.cross_split_shared.items()):
        lines.append(f"{a}/{b}\t{count}\t{naive.cross_split_shared[a, b]}")
    lines.append(f"total\t{isolated.total_cross_split}\t{naive.total_cross_split}")
    return {"diagnose_split.txt": ("split-diagnosis", {}, "\n".join(lines) + "\n")}


# the stage table; diagnose-split reports on the split and is not a link of the chain
STAGES: dict[str, Stage] = {
    "ingest": Stage(stage_ingest, ("corpus", "corpus_format", "lexicon"), (), ("cardiac.tsv",)),
    "filter": Stage(stage_filter, ("lexicon",), ("cardiac.tsv",), ("corpus_stats.txt",)),
    "label": Stage(stage_label, ("catalog", "lexicon"), (), ("samples.tsv", "templates.tsv", "label_report.txt")),
    "split": Stage(
        stage_split, ("ratios", "seed"), ("cardiac.tsv", "samples.tsv"),
        ("assignment.tsv", "assigned_samples.tsv", "leakage_report.txt"),
    ),
    "featurize": Stage(
        stage_featurize,
        ("embeddings", "stopwords", "feature_kind", "vocab_stopwords", "top_k", "drop_empty_samples",
         "undersample_train", "ratios", "seed"),
        ("cardiac.tsv", "samples.tsv"),
        ("vocab.tsv", "features_train.txt", "features_dev.txt", "features_test.txt", "featurize_report.txt"),
    ),
    "train": Stage(stage_train, ("model", "cv", "seed"), ("features_train.txt",), ("model.txt", "cv_results.tsv")),
    "evaluate": Stage(
        stage_evaluate, ("threshold",), ("model.txt", "features_dev.txt", "features_test.txt"),
        ("metrics_dev.txt", "metrics_test.txt", "curve_dev.tsv", "curve_test.tsv"),
    ),
    "alerts": Stage(stage_alerts, ("catalog", "mar", "alerts"), (), ("alerts.tsv", "alert_report.txt")),
    "diagnose-split": Stage(
        stage_diagnose_split, ("ratios", "seed"), ("cardiac.tsv", "samples.tsv"), ("diagnose_split.txt",),
    ),
}
STAGE_ORDER = tuple(stage for stage in STAGES if stage != "diagnose-split")
# artifact -> the stage that writes it
ARTIFACTS: dict[str, str] = {name: stage for stage, spec in STAGES.items() for name in spec.writes}
# stage -> its function, as run_stage calls it: bench/spans.py's tracer wraps the
# functions held in module dicts, so calls made through this one are traced
STAGE_FUNCS: dict[str, Callable[..., Outputs]] = {stage: spec.run for stage, spec in STAGES.items()}


def run_stage(cfg: PipelineConfig, stage: str, digest: Callable[[str], str] | None = None) -> None:
    """Check and decode the stage's inputs, run it, then write its artifacts and its manifest."""
    if stage not in STAGES:
        raise ValidationError(f"unknown stage {stage!r}; expected one of {tuple(STAGES)}")
    spec = STAGES[stage]
    check_stage_paths(cfg, stage)
    cfg.output.mkdir(parents=True, exist_ok=True)
    digest = digest or stage_digests(cfg)  # a chain shares one, so that each file is hashed once
    for name in spec.reads:
        if not (cfg.output / name).exists():
            raise MissingArtifactError(name, ARTIFACTS[name])
        artifacts.check_digest(cfg.output / name, digest(ARTIFACTS[name]), ARTIFACTS[name])
    header = {"digest": digest(stage)}
    started = time.perf_counter()
    inputs = [_DECODERS[name](cfg.output / name) for name in spec.reads]
    outputs = STAGE_FUNCS[stage](cfg, *inputs)
    del inputs  # what the outputs still need, they hold; the rest goes before the writes
    for name, (kind, fields, body) in outputs.items():
        artifacts.write(cfg.output / name, kind, {**header, **fields}, body)
    elapsed = time.perf_counter() - started
    manifest_dir = cfg.output / "manifests"
    manifest_dir.mkdir(exist_ok=True)
    manifest = {"stage": stage, "outputs": {name: file_digest(cfg.output / name) for name in outputs},
                "elapsed_s": elapsed}
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    artifacts.write_atomic(manifest_dir / f"{stage}.json", [text])


def run_all(cfg: PipelineConfig) -> list[str]:
    """Run the full chain; the alerts stage runs only when a MAR path is set."""
    ran = [stage for stage in STAGE_ORDER if stage != "alerts" or cfg.mar is not None]
    digest = stage_digests(cfg)
    for stage in ran:
        run_stage(cfg, stage, digest)
    return ran

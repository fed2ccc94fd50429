"""Command-line entry point; the pipeline's only user interface."""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterator

from . import artifacts
from .config import load_config
from .corpus import AbstractColumns, load_abstracts
from .errors import PipelineError, ValidationError
from .features import FeatureMatrix, load_matrix
from .pipeline import STAGES, run_all, run_stage
from .synth import SynthParams, planted_params, write_dataset


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddimine",
        description="Mine drug-drug interaction evidence from abstracts and "
        "flag co-exposure windows in medication records.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_stage(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="pipeline configuration file (JSON)")
        p.add_argument("--seed", type=int, help="override the configured seed")
        p.add_argument("--output", help="override the configured output directory")
        return p

    for stage, spec in STAGES.items():
        add_stage(stage, spec.run.__doc__.partition("\n")[0])
    add_stage("all", "run every stage in order")

    show = sub.add_parser("show", help="print a feature file or the kept corpus as text, header first: a feature "
                          "file's part rows as col:value cells, then each sample's key, label and part indices; the "
                          "kept corpus as one id TAB mentions TAB word:count line per abstract, words sorted")
    show.add_argument("file", help="a features_{train,dev,test}.txt file or cardiac.tsv")

    gen = sub.add_parser("gen-synthetic", help="write a synthetic dataset plus a ready config")
    gen.add_argument("--output", required=True, help="directory for the generated files")
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--preset", choices=["mini", "planted"], default="mini")
    return parser


def _matrix_lines(matrix: FeatureMatrix) -> Iterator[str]:
    """A feature file's body as text: the sizes and kind, each part row as ``col:value`` pairs, then one row record
    per sample with its part indices."""
    P, A = matrix.parts, matrix.A
    yield f"rows {matrix.n_rows}\nparts {P.shape[0]}\ndims {matrix.dims}\nkind {matrix.kind}\n"
    indptr = P.indptr.tolist()
    for start, end in zip(indptr, indptr[1:]):  # each row from its own slices: no list of every cell
        cells = map("{}:{!r}".format, P.indices[start:end].tolist(), P.data[start:end].tolist())
        yield " ".join(["part", *cells]) + "\n"
    indptr, refs = A.indptr.tolist(), A.indices.tolist()
    for key, label, start, end in zip(matrix.keys, matrix.y.tolist(), indptr, indptr[1:]):
        yield " ".join(["row", key, str(label), *map(str, refs[start:end])]) + "\n"


def _corpus_lines(kept: AbstractColumns) -> Iterator[str]:
    """The kept corpus as text: ``id TAB mentions TAB word:count ...`` per abstract, drugs and words sorted."""
    M, C = kept.mentions, kept.counts
    for i, aid in enumerate(kept.ids):
        drugs = " ".join(kept.drugs[j] for j in M.indices[M.indptr[i] : M.indptr[i + 1]].tolist())
        start, end = C.indptr[i], C.indptr[i + 1]
        words = map(kept.words.__getitem__, C.indices[start:end].tolist())
        cells = map("{}:{}".format, words, C.data[start:end].tolist())
        yield f"{aid}\t{drugs}\t{' '.join(cells)}\n"


def _show(path: str) -> tuple[str, dict[str, str], Iterator[str]]:
    """(kind, header fields, body lines) of a feature file or the kept corpus, as text."""
    kind = artifacts.kind_of(path)
    if kind == "kept-corpus":
        kept = load_abstracts(path)
        return kind, kept.header, _corpus_lines(kept)
    if kind == "feature-matrix":
        matrix, header = load_matrix(path)
        return kind, header, _matrix_lines(matrix)
    raise ValidationError(f"{path}: kind {kind!r} has no text form; show prints a feature file or the kept corpus")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "show":
            kind, header, lines = _show(args.file)
            try:
                sys.stdout.write(artifacts.header_text(kind, header))
                sys.stdout.writelines(lines)
                sys.stdout.flush()
            except BrokenPipeError:  # the reader, such as `head`, has all it wants; no flush at exit either
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        if args.command == "gen-synthetic":
            params = planted_params(args.seed) if args.preset == "planted" else SynthParams(seed=args.seed)
            paths = write_dataset(params, args.output)
            print(f"wrote synthetic dataset under {args.output}")
            print(f"config: {paths['config']}")
            return 0

        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.output is not None:
            overrides["output"] = args.output
        cfg = load_config(args.config, overrides)

        if args.command == "all":
            ran = run_all(cfg)
            print(f"completed stages: {', '.join(ran)}")
        elif args.command == "diagnose-split":
            run_stage(cfg, "diagnose-split")
            print(*artifacts.read(cfg.output / "diagnose_split.txt")[0], sep="\n")
        else:
            run_stage(cfg, args.command)
            print(f"stage {args.command} complete")
        return 0
    except (PipelineError, OSError) as exc:  # an OSError names the path the system refused
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

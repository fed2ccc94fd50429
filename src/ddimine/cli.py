"""Command-line entry point; the pipeline's only user interface."""

from __future__ import annotations

import argparse
import sys

from . import artifacts
from .config import load_config
from .errors import PipelineError
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

    gen = sub.add_parser("gen-synthetic", help="write a synthetic dataset plus a ready config")
    gen.add_argument("--output", required=True, help="directory for the generated files")
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--preset", choices=["mini", "planted"], default="mini")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
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
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point. Exit codes: 0 success, 2 config error, 3 data
error."""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, SynthlocError
from .experiment import (
    cmd_ablate,
    cmd_evaluate,
    cmd_train,
    cmd_variants,
    cmd_worldgen,
    load_config,
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synthloc",
        description="Synthetic-world visual localization pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("worldgen", help="generate a world and write its CSV directory")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("variants", help="generate domain-shift variants and consistency scores")
    p.add_argument("--config", default=None)
    p.add_argument("--world", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train embedding models, one per seed, plus the average")
    p.add_argument("--config", default=None)
    p.add_argument("--world", required=True)
    p.add_argument("--variants", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="retrieval + localization evaluation of a model")
    p.add_argument("--config", default=None)
    p.add_argument("--world", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("ablate", help="run the method grid and tabulate the report")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "worldgen":
            cmd_worldgen(config, args.out, seed=args.seed)
        elif args.command == "variants":
            cmd_variants(args.world, config, args.out)
        elif args.command == "train":
            cmd_train(args.world, args.variants, config, args.out)
        elif args.command == "evaluate":
            cmd_evaluate(args.world, args.model, config, args.out)
        elif args.command == "ablate":
            cmd_ablate(config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SynthlocError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: train, predict, and experiment over config + CSV.

Exit codes: 0 success, 1 usage error, 2 configuration or validation error,
3 data or artifact error, 4 runtime error. Diagnostics always go to stderr;
stdout carries human-readable progress, which --quiet suppresses.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

from .config import parse_model_definition
from .data import read_text
from .definition import TrainingParams
from .errors import (
    ArtifactError,
    ConfigError,
    DataError,
    ToolkitError,
)
from .pipelines import ValidationFailed, experiment, predict, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4

SEED_ENV_VAR = "ECD_SEED"


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this tool reserves 2 for config errors
    def error(self, message):
        raise _UsageExit(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="ecdkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="{train,predict,experiment}")

    def common(p, trains: bool):
        """-d, -o and -q for every subcommand; -c, --seed and --no-cache
        for the two that train."""
        p.add_argument("-d", "--dataset", required=True, help="CSV dataset path")
        p.add_argument("-o", "--output-dir", default=None,
                       help="run directory (default ./results/run_<timestamp>)")
        p.add_argument("-q", "--quiet", action="store_true",
                       help="suppress progress output (never diagnostics)")
        if trains:
            seed = next(f for f in fields(TrainingParams) if f.name == "seed").metadata["default"]
            p.add_argument("-c", "--config", required=True, help="model definition file")
            p.add_argument("--seed", type=int, default=None,
                           help=f"random seed (falls back to ${SEED_ENV_VAR}, then the "
                                f"definition, then {seed})")
            p.add_argument("--no-cache", action="store_true",
                           help="disable the preprocessed-tensor cache")

    common(sub.add_parser("train", help="train a model from a definition"), True)
    p_predict = sub.add_parser("predict", help="predict with a saved model")
    p_predict.add_argument("-m", "--model-dir", required=True, help="saved model directory")
    common(p_predict, False)
    common(sub.add_parser("experiment", help="train then evaluate on the test split"), True)
    return parser


def _resolve_seed(args) -> int | None:
    """Explicit --seed wins, then the environment, then the definition."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"${SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return None


def _output_dir(args) -> Path:
    if args.output_dir:
        return Path(args.output_dir)
    stamp = time.strftime("%Y%m%d_%H%M%S")
    return Path("results") / f"run_{stamp}"


def _load_definition(path: str):
    config_path = Path(path)
    if not config_path.exists():
        raise ConfigError(f"config file not found: {config_path}")
    return parse_model_definition(read_text(config_path, ConfigError, "config file"))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageExit as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    log = None if args.quiet else lambda line: print(line)
    try:
        out_dir = _output_dir(args)
        if args.command == "train":
            definition = _load_definition(args.config)
            model_dir, _ = train(definition, args.dataset, out_dir, seed=_resolve_seed(args),
                                 use_cache=not args.no_cache, log=log)
            if log:
                log(f"model saved to {model_dir}")
        elif args.command == "experiment":
            definition = _load_definition(args.config)
            model_dir, _, _ = experiment(definition, args.dataset, out_dir,
                                         seed=_resolve_seed(args),
                                         use_cache=not args.no_cache, log=log)
            if log:
                log(f"model and metrics saved under {out_dir}")
        else:
            predictions_path, metrics_path = predict(args.model_dir, args.dataset, out_dir)
            if log:
                log(f"predictions written to {predictions_path}")
                if metrics_path is not None:
                    log(f"metrics written to {metrics_path}")
    except ValidationFailed as exc:
        for diagnostic in exc.diagnostics:
            print(f"error: {diagnostic}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, ArtifactError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: train, eval, dump-attention.

Any config key can be overridden on the command line as ``--key value``
(CLI > config file > defaults).  Errors exit nonzero with a single
``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, build_config


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lstmn",
        description="Memory-tape sequence models: training, evaluation, "
                    "attention inspection.")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model from a config")
    evaluate = sub.add_parser("eval", help="report metrics on a split")
    dump = sub.add_parser("dump-attention", help="write attention traces for one input")
    for p in (train, evaluate, dump):
        p.add_argument("--config", default="", help="flat key = value config file")
        p.add_argument("--checkpoint", default="", help="checkpoint .npz path")
        p.add_argument("--out", default="out", help="output directory")
    dump.add_argument("--input", default="", help="input text file")
    return parser


def _collect_overrides(extras: list) -> dict:
    """The ``--key value`` pairs by key, '-' in a key read as '_'.  A key
    given twice is refused rather than the later value silently winning."""
    overrides = {}
    for i in range(0, len(extras), 2):
        key = extras[i]
        if not key.startswith("--") or i + 1 >= len(extras):
            raise ConfigError(f"expected '--key value' pairs, got {' '.join(extras)!r}")
        key = key[2:].replace("-", "_")
        if key in overrides:
            raise ConfigError(f"command-line key {key} is set again")
        overrides[key] = extras[i + 1]
    return overrides


def _config_path(args) -> str:
    # eval/dump default to the effective config written beside the checkpoint.
    config_path = args.config
    if not config_path and args.checkpoint:
        candidate = os.path.join(os.path.dirname(args.checkpoint) or ".", "config.cfg")
        if os.path.exists(candidate):
            config_path = candidate
    return config_path


def main(argv=None) -> int:
    args, extras = _make_parser().parse_known_args(argv)
    try:
        cfg = build_config(_config_path(args), _collect_overrides(extras))
        # Imported here so config errors surface before numpy spin-up cost.
        from . import train as workflows

        if args.command == "train":
            result = workflows.run_train(cfg, args.out)
            print(f"checkpoint: {result.checkpoint_path}")
        elif args.command == "eval":
            if not args.checkpoint:
                raise ConfigError("eval needs --checkpoint")
            metrics = workflows.run_eval(cfg, args.checkpoint)
            print(metrics.record())
        else:
            if not args.checkpoint or not args.input:
                raise ConfigError("dump-attention needs --checkpoint and --input")
            os.makedirs(args.out, exist_ok=True)
            out_path = os.path.join(args.out, "attention.tsv")
            workflows.run_dump_attention(cfg, args.checkpoint, args.input, out_path)
            print(f"attention dump: {out_path}")
        return 0
    except Exception as exc:   # single-line, machine-parsable failure
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

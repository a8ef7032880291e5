"""Command-line experiment runner.

Subcommands: gen, train, compare, ablate, sweep-eta, export-figs, split,
check-config.  Exit codes: 0 success, 1 config error, 2 runtime divergence.
Config files are JSON; see the README for the schema.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    ExperimentConfig,
    cmd_ablate,
    cmd_compare_losses,
    cmd_export_figures,
    cmd_gen,
    cmd_sweep_eta,
    cmd_train,
    config_from_dict,
    config_to_dict,
    kfold_split,
)
from .model import TrainingDiverged
from .simdata import generate_corpus

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2


def _num(value, spec: str) -> str:
    """A metric for printing; a fold without normal scenes has no NFPs/FROC."""
    return "undefined" if value is None else format(value, spec)


def load_config(path, seed_override=None) -> ExperimentConfig:
    if path is None:
        cfg_dict = {}
    else:
        with open(path) as fh:
            cfg_dict = json.load(fh)
    if seed_override is not None:
        cfg_dict = {**cfg_dict, "seeds": [seed_override]}
    return config_from_dict(ExperimentConfig, cfg_dict)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dghm",
        description="Synthetic partially-annotated detection experiments")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON experiment config (defaults apply if omitted)")
    parser.add_argument("--seed", type=int, default=None,
                        help="replace the config's seed list with this one seed")
    parser.add_argument("--out", type=Path, default=Path("runs"),
                        help="output directory")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel worker processes for grid runs")
    parser.add_argument("--force", action="store_true",
                        help="overwrite existing outputs")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gen", help="generate and serialize the corpus")

    p_train = sub.add_parser("train", help="train a single model")
    p_train.add_argument("--loss", default=None, help="loss kind (default: first configured)")
    p_train.add_argument("--eta", type=float, default=None, help="annotation drop rate")

    sub.add_parser("compare", help="loss comparison grid (losses x folds x seeds)")
    sub.add_parser("ablate", help="mu and lambda ablation grids")
    sub.add_parser("sweep-eta", help="controlled annotation-missing-rate sweep")

    p_figs = sub.add_parser("export-figs", help="export figure CSVs from a training run")
    p_figs.add_argument("run_dir", type=Path, help="directory produced by the train command")

    p_split = sub.add_parser("split", help="print the stratified fold assignment")
    p_split.add_argument("-k", type=int, default=None, help="fold count (default: config)")

    sub.add_parser("check-config", help="validate a config file against the schema")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "check-config":
            print(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True))
            print(f"config ok (hash {cfg.config_hash()})")
        elif args.command == "gen":
            path = cmd_gen(cfg, args.out, force=args.force)
            print(f"wrote {path}")
        elif args.command == "train":
            record = cmd_train(cfg, args.out, loss_name=args.loss, eta=args.eta)
            r = record.report
            print(f"loss={record.task.loss} eta={record.task.eta:g} recall={r.recall:.4f} "
                  f"precision={r.precision:.4f} nfps={_num(r.nfps, '.2f')} "
                  f"froc={_num(r.froc, '.4f')}")
        elif args.command == "compare":
            _, rows = cmd_compare_losses(cfg, args.out, jobs=args.jobs)
            for row in rows:
                print(f"{row['group']}: froc={_num(row['froc_mean'], '.4f')} "
                      f"recall={row['recall_mean']:.4f}")
        elif args.command == "ablate":
            cmd_ablate(cfg, args.out, jobs=args.jobs)
            print(f"wrote ablation tables to {args.out}")
        elif args.command == "sweep-eta":
            cmd_sweep_eta(cfg, args.out, jobs=args.jobs)
            print(f"wrote sweep tables to {args.out}")
        elif args.command == "export-figs":
            path = cmd_export_figures(args.run_dir, args.out, harmonizer=cfg.harmonizer)
            print(f"wrote {path}")
        elif args.command == "split":
            scenes = generate_corpus(cfg.corpus.scene_spec, cfg.corpus.n_ap,
                                     cfg.corpus.n_np, cfg.corpus.seed)
            k = cfg.folds if args.k is None else args.k
            for i, fold in enumerate(kfold_split(scenes, k, cfg.corpus.seed)):
                print(f"fold {i}: {' '.join(str(s) for s in fold)}")
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (FileExistsError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

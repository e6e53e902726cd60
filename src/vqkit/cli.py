"""Command-line entry point.

Usage: vqkit <subcommand> --config <path> --out <dir> [--seed N]

Subcommands: toy-trajectory, affine-toy, ablation, train, init-study,
metrics-replay. Exit codes: 0 success, 2 config error (an array too large to
allocate included), 3 numeric failure. A run stages its artifacts
(`artifacts.staged`) and commits them once it ends, so one that does not exit 0
changes no file in `--out` except `config.json` on exit 3; an exit 2 also
removes each directory it made. A killed process leaves `.<name>.<pid>.tmp`
files. Given the same config and seed, outputs are byte-identical across runs.
"""
from __future__ import annotations

import argparse
import csv
import math
import shutil
import sys
from pathlib import Path

import numpy as np

from . import experiments as exp
from . import metrics as mtr
from .artifacts import commit, staged, write_csv, write_json, write_jsonl
from .errors import ConfigError, NumericFailure, VQKitError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def cmd_toy_trajectory(cfg: dict, out: Path, args) -> None:
    summary = {}
    for mode in exp.TOY_MODES:
        traj = exp.run_toy_trajectory(cfg, mode)
        rows = [[step, *row] for step, row in enumerate(traj.rows)]
        write_csv(out / f"trajectory_{mode}.csv",
                  ["step", "z_e_x", "z_e_y", "z_q_x", "z_q_y", "task_loss"], rows)
        summary[mode] = {"path_length": traj.path_length,
                         "steps_to_tol": traj.steps_to_tol,
                         "final_task_loss": traj.rows[-1][4]}
    write_json(out / "summary.json", summary)


def cmd_affine_toy(cfg: dict, out: Path, args) -> None:
    result = exp.run_affine_toy(cfg)
    for variant in ("standard", "affine"):
        rows = [[i, g] for i, g in enumerate(result[variant]["gap_history"])]
        write_csv(out / f"gap_{variant}.csv", ["update", "codebook_mean_gap"], rows)
    summary = {variant: {k: v for k, v in result[variant].items() if k != "gap_history"}
               for variant in result}
    write_json(out / "summary.json", summary)


def cmd_ablation(cfg: dict, out: Path, args) -> None:
    rows = exp.run_ablation(cfg)
    header = sorted(rows[0])
    write_csv(out / "ablation.csv", header, [[r[k] for k in header] for r in rows])
    write_json(out / "summary.json", rows)


def cmd_train(cfg: dict, out: Path, args) -> None:
    result = exp.run_training(cfg)
    mtr.write_metrics_csv(result.records, out / "metrics.csv")
    result.codebook.save(out / "codebook.bin")
    write_jsonl(out / "replacements.jsonl", result.replacement_events)
    last = result.records[-1]
    write_json(out / "summary.json", {
        "steps": len(result.records),
        "final_task_loss": last.task_loss,
        "final_commit_loss": last.commit_loss,
        "final_perplexity": last.perplexity,
        "final_active_ratio": last.active_ratio,
        "n_replacement_events": len(result.replacement_events),
    })


def cmd_init_study(cfg: dict, out: Path, args) -> None:
    rows = exp.run_init_study(cfg)
    methods = cfg["init_study"]["methods"]
    write_csv(out / "init_study.csv", ["seed"] + list(methods),
              [[r["seed"]] + [r[m] for m in methods] for r in rows])
    summary = {m: {"mean": float(np.mean([r[m] for r in rows])),
                   "sd": float(np.std([r[m] for r in rows]))} for m in methods}
    write_json(out / "summary.json", summary)


def cmd_metrics_replay(cfg: dict, out: Path, args) -> None:
    """Summarize the metrics CSV `args.metrics`: per-column min/max/final plus
    the step of the best task loss."""
    try:
        with open(args.metrics, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != list(mtr.METRICS_HEADER):
                raise ConfigError(f"unexpected metrics header {reader.fieldnames}")
            rows = []
            for row in reader:
                try:
                    values = {k: float(v) for k, v in row.items()}
                except (TypeError, ValueError) as exc:
                    # a short row leaves None values, a long one a None key
                    raise ConfigError(
                        f"metrics CSV line {reader.line_num}: {exc}") from exc
                bad = next((k for k, v in values.items() if not math.isfinite(v)), None)
                if bad is not None:
                    raise ConfigError(f"metrics CSV line {reader.line_num}: "
                                      f"non-finite {bad} {row[bad]!r}")
                if values["step"] < 0 or not values["step"].is_integer():
                    raise ConfigError(f"metrics CSV line {reader.line_num}: step "
                                      f"{row['step']!r} is not an integer >= 0")
                rows.append(values)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read metrics CSV: {exc}") from exc
    if not rows:
        raise ConfigError("metrics CSV has no data rows")
    summary = {}
    for col in mtr.METRICS_HEADER[1:]:
        vals = [r[col] for r in rows]
        summary[col] = {"min": min(vals), "max": max(vals), "final": vals[-1]}
    best = min(rows, key=lambda r: r["task_loss"])
    summary["best_task_loss_step"] = int(best["step"])
    summary["n_steps"] = len(rows)
    write_json(out / "replay_summary.json", summary)


# subcommand -> (the scenario its config must name, the handler, called with
# the resolved config, the output directory and the parsed arguments, and the
# subcommand's own required options with their help)
COMMANDS = {
    "toy-trajectory": ("toy-trajectory", cmd_toy_trajectory, {}),
    "affine-toy": ("affine-toy", cmd_affine_toy, {}),
    "ablation": ("ablation", cmd_ablation, {}),
    "train": ("train", cmd_train, {}),
    "init-study": ("init-study", cmd_init_study, {}),
    "metrics-replay": ("train", cmd_metrics_replay,
                       {"--metrics": "path to an existing metrics CSV to summarize"}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="vqkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, options) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        for flag, help_text in options.items():
            p.add_argument(flag, required=True, help=help_text)
    args = parser.parse_args(argv)
    scenario, run, _ = COMMANDS[args.command]
    out, created = Path(args.out), []

    try:
        # numpy's floating-point warnings would precede the one-line report;
        # ignoring them changes no value, and the finiteness checks still raise
        with np.errstate(all="ignore"), staged() as written:
            if not args.out:
                raise ConfigError("--out is empty")
            cfg = exp.load_config(args.config, seed=args.seed)
            if cfg["scenario"] != scenario:
                raise ConfigError(
                    f"config scenario {cfg['scenario']!r} does not match subcommand "
                    f"{args.command!r}")
            # each directory the run makes, outermost first: an exit 2 removes them
            for level in reversed((out, *out.parents)):
                if not level.exists():
                    level.mkdir()
                    created.append(level)
            write_json(out / "config.json", cfg)
            try:
                run(cfg, out, args)
            except NumericFailure:
                commit([out / "config.json"])
                raise
            commit(written)
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (VQKitError, OSError, MemoryError) as exc:
        if isinstance(exc, OSError):
            # every read reports its own ConfigError, so this is an --out
            # level or an artifact, which `atomic_open` and `commit` name
            print(f"config error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        else:
            # a MemoryError: the config sizes an array the machine cannot hold
            kind = "config error" if isinstance(exc, (ConfigError, MemoryError)) else "error"
            print(f"{kind}: {exc}", file=sys.stderr)
        for level in reversed(created):
            shutil.rmtree(level, ignore_errors=True)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

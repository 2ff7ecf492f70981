"""Command-line entry points: run experiments, validate configs, compute
labeling efficiencies from emitted metrics.

Outputs are deterministic: the same config (and seeds) always produces
byte-identical metrics.csv / selections.jsonl / summary.json, regardless of
the worker count. CSV uses '.' decimals and LF line endings.

Exit codes: 0 success, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, parse_config
from .simulator import MetricsLog, labeling_efficiency, run_experiment

SEED_ENV_VAR = "STREAMLINE_SEED"

# The RoundRecord fields a metrics.csv row and a selections.jsonl line hold.
METRICS_COLUMNS = ("method", "seed", "round", "labels_total", "full_metric", "rare_metric", "identified_slice",
                   "true_slice", "granted_b", "gamma")
SELECTIONS_KEYS = ("method", "seed", "round", "slice_sizes", "selected_ids")


def _run_job(args) -> MetricsLog:
    cfg, method, seed = args
    return run_experiment(cfg.stream_spec(seed), method, cfg.run_config())


def _mean_curve(curves: list) -> list[tuple[float, float]]:
    """Average per-seed (labels, metric) curves, per round index."""
    return [
        (float(np.mean([c[r][0] for c in curves])), float(np.mean([c[r][1] for c in curves])))
        for r in range(len(curves[0]))
    ]


def _efficiencies(curves: dict, target: float) -> dict:
    """Labeling efficiency vs random per method, from per-seed curves."""
    random_curve = _mean_curve(curves["random"])
    return {method: labeling_efficiency(_mean_curve(c), random_curve, target) for method, c in curves.items()}


def _summarize(by_method: dict) -> dict:
    """Final-round mean/std per method plus efficiency vs random.

    Efficiency is always measured on the rare metric (efficiency_metric in
    the output). Its target is random's seed-averaged final rare metric (the
    least-effort strategy's endpoint); it is null when random was not run.
    """
    summary = {"methods": {}, "efficiency_metric": "rare", "efficiency_target": None}
    curves = {method: [log.curve("rare") for log in logs] for method, logs in by_method.items()}
    efficiencies = {}
    if "random" in curves:
        summary["efficiency_target"] = _mean_curve(curves["random"])[-1][1]
        efficiencies = _efficiencies(curves, summary["efficiency_target"])
    for method, logs in by_method.items():
        finals_full = [log.final("full") for log in logs]
        finals_rare = [log.final("rare") for log in logs]
        summary["methods"][method] = {
            "seeds": [log.seed for log in logs],
            "final_full_mean": float(np.mean(finals_full)),
            "final_full_std": float(np.std(finals_full)),
            "final_rare_mean": float(np.mean(finals_rare)),
            "final_rare_std": float(np.std(finals_rare)),
            "labels_spent_mean": float(np.mean([log.labels_spent for log in logs])),
            "labeling_efficiency_vs_random": efficiencies.get(method),
        }
    return summary


def run(config: ExperimentConfig, out_dir, workers: int = 1) -> int:
    """Execute every (method, seed) pair and write the three output files.

    At most one worker process per job is started, and a single worker runs
    the jobs in this process: a process pool starts all its workers at once.
    """
    if workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {workers}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write_probe"
    try:
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise RuntimeError(f"output directory {out} is not writable: {exc}") from exc

    jobs = [(config, method, seed) for method in config.methods for seed in config.seeds]
    workers = min(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            logs = list(pool.map(_run_job, jobs))
    else:
        logs = [_run_job(job) for job in jobs]

    by_method: dict[str, list[MetricsLog]] = {}
    for log in logs:
        by_method.setdefault(log.method, []).append(log)

    records = [rec for log in logs for rec in log.records]
    with open(out / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRICS_COLUMNS)
        writer.writerows([getattr(rec, c) for c in METRICS_COLUMNS] for rec in records)

    with open(out / "selections.jsonl", "w", newline="") as fh:
        for rec in records:
            fh.write(json.dumps({k: getattr(rec, k) for k in SELECTIONS_KEYS}, sort_keys=True) + "\n")

    summary = _summarize(by_method)
    with open(out / "summary.json", "w", newline="") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _cell(path, line: int, row: dict, column: str, parse):
    """One metrics.csv cell, parsed and finite; a bad cell is named by file, line and column."""
    value = row[column]
    try:
        number = parse(value)
    except (TypeError, ValueError):  # a short row leaves its last cells None
        kind = "an integer" if parse is int else "a number"
        problem = "missing" if value is None else f"not {kind}: {value!r}"
        raise RuntimeError(f"{path}:{line}: column {column} is {problem}") from None
    if not math.isfinite(number):
        raise RuntimeError(f"{path}:{line}: column {column} is not finite: {value!r}")
    return number


def _efficiency_from_metrics(path, target: float, metric: str) -> dict:
    """Recompute per-method efficiency vs random from an emitted metrics.csv."""
    col = f"{metric}_metric"
    curves: dict[tuple, list] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(METRICS_COLUMNS):
            raise RuntimeError(f"{path} does not look like an emitted metrics.csv")
        for row in reader:
            line = reader.line_num
            key = (row["method"], _cell(path, line, row, "seed", int))
            point = (_cell(path, line, row, "labels_total", float), _cell(path, line, row, col, float))
            curves.setdefault(key, []).append(point)
    by_method: dict[str, list] = {}
    for (method, seed), curve in sorted(curves.items()):
        per_seed = by_method.setdefault(method, [])
        if per_seed and len(curve) != len(per_seed[0]):
            raise RuntimeError(f"{path}: seed {seed} of {method} has {len(curve)} rounds, not {len(per_seed[0])}")
        per_seed.append(sorted(curve))
    if "random" not in by_method:
        raise RuntimeError("metrics.csv contains no 'random' rows to compare against")
    return _efficiencies(by_method, target)


def _seeds_from_env(seeds: list) -> list:
    """The one seed STREAMLINE_SEED names, when it is set, else seeds."""
    if (override := os.environ.get(SEED_ENV_VAR)) is None:
        return seeds
    try:
        seed = int(override)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR}: must be an integer, got {override!r}") from None
    if seed < 0:
        raise ConfigError(f"{SEED_ENV_VAR}: must be >= 0, got {override!r}")
    return [seed]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="streamline",
        description="Slice-aware streaming active-learning experiments on synthetic streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run every configured (method, seed) pair")
    p_run.add_argument("--config", required=True, help="path to a JSON experiment config")
    p_run.add_argument("--out", required=True, help="output directory for metrics/selections/summary")
    p_run.add_argument("--workers", type=int, default=1, help="parallel (method, seed) workers")

    p_val = sub.add_parser("validate", help="parse and validate a config, printing the resolved values")
    p_val.add_argument("--config", required=True)

    p_eff = sub.add_parser("efficiency", help="labeling efficiency vs random from a metrics.csv")
    p_eff.add_argument("--metrics", required=True, help="path to an emitted metrics.csv")
    p_eff.add_argument("--target", type=float, required=True, help="target metric value")
    p_eff.add_argument("--metric", choices=["rare", "full"], default="rare")

    args = parser.parse_args(argv)
    try:
        if args.command == "efficiency":
            if not math.isfinite(args.target):
                raise ConfigError(f"--target must be finite, got {args.target}")
            table = _efficiency_from_metrics(args.metrics, args.target, args.metric)
            for method, value in sorted(table.items()):
                shown = "undefined" if value is None else f"{value:.4f}"
                print(f"{method}\t{shown}")
            return 0
        config = parse_config(args.config)
        config.seeds = _seeds_from_env(config.seeds)
        if args.command == "validate":
            print(f"config OK: {len(config.methods)} method(s) x {len(config.seeds)} seed(s), "
                  f"{config.rounds} rounds, budget {config.budget}, rho {config.rho}")
            print(f"schedule: {list(config.spec.schedule)}")
            return 0
        run(config, args.out, workers=args.workers)  # run, the last command
        print(f"wrote {Path(args.out) / 'metrics.csv'}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to a distinct exit code
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

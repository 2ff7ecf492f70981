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
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, parse_config
from .simulator import MetricsLog, labeling_efficiency, run_experiment

SEED_ENV_VAR = "STREAMLINE_SEED"

METRICS_COLUMNS = [
    "method",
    "seed",
    "round",
    "labels_total",
    "full_metric",
    "rare_metric",
    "identified_slice",
    "true_slice",
    "granted_b",
    "gamma",
]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _run_job(args) -> MetricsLog:
    cfg, method, seed = args
    return run_experiment(cfg.stream_spec(seed), method, cfg.run_config())


def _mean_curve(curves: list) -> list[tuple[float, float]]:
    """Average per-seed (labels, metric) curves, per round index."""
    return [
        (float(np.mean([c[r][0] for c in curves])), float(np.mean([c[r][1] for c in curves])))
        for r in range(len(curves[0]))
    ]


def _summarize(by_method: dict, metric_for_target: str = "rare") -> dict:
    """Final-round mean/std per method plus efficiency vs random.

    The efficiency target is random's seed-averaged final rare metric (the
    least-effort strategy's endpoint); it is null when random was not run.
    """
    summary = {"methods": {}, "efficiency_metric": metric_for_target, "efficiency_target": None}
    random_curve = None
    if "random" in by_method:
        random_curve = _mean_curve([log.curve(metric_for_target) for log in by_method["random"]])
        summary["efficiency_target"] = random_curve[-1][1]
    for method, logs in by_method.items():
        finals_full = [log.final("full") for log in logs]
        finals_rare = [log.final("rare") for log in logs]
        entry = {
            "seeds": [log.seed for log in logs],
            "final_full_mean": float(np.mean(finals_full)),
            "final_full_std": float(np.std(finals_full)),
            "final_rare_mean": float(np.mean(finals_rare)),
            "final_rare_std": float(np.std(finals_rare)),
            "labels_spent_mean": float(np.mean([log.labels_spent for log in logs])),
            "labeling_efficiency_vs_random": None,
        }
        if random_curve is not None:
            curve = _mean_curve([log.curve(metric_for_target) for log in logs])
            eff = labeling_efficiency(curve, random_curve, summary["efficiency_target"])
            entry["labeling_efficiency_vs_random"] = eff
        summary["methods"][method] = entry
    return summary


def run(config: ExperimentConfig, out_dir, workers: int = 1) -> int:
    """Execute every (method, seed) pair and write the three output files."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write_probe"
    try:
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise RuntimeError(f"output directory {out} is not writable: {exc}") from exc

    jobs = [(config, method, seed) for method in config.methods for seed in config.seeds]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            logs = list(pool.map(_run_job, jobs))
    else:
        logs = [_run_job(job) for job in jobs]

    by_method: dict[str, list[MetricsLog]] = {}
    for log in logs:
        by_method.setdefault(log.method, []).append(log)

    with open(out / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRICS_COLUMNS)
        for log in logs:
            for rec in log.records:
                writer.writerow(
                    [
                        log.method,
                        log.seed,
                        rec.round,
                        rec.labels_total,
                        _fmt(rec.full_accuracy),
                        _fmt(rec.rare_accuracy),
                        rec.identified_slice,
                        rec.true_slice,
                        rec.granted,
                        _fmt(rec.gamma),
                    ]
                )

    with open(out / "selections.jsonl", "w", newline="") as fh:
        for log in logs:
            for rec in log.records:
                fh.write(
                    json.dumps(
                        {
                            "method": log.method,
                            "seed": log.seed,
                            "round": rec.round,
                            "selected_ids": list(rec.selected_ids),
                            "slice_sizes": list(rec.slice_sizes),
                        },
                        sort_keys=True,
                    )
                )
                fh.write("\n")

    summary = _summarize(by_method)
    with open(out / "summary.json", "w", newline="") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _efficiency_from_metrics(path, target: float, metric: str) -> dict:
    """Recompute per-method efficiency vs random from an emitted metrics.csv."""
    col = "rare_metric" if metric == "rare" else "full_metric"
    curves: dict[tuple, list] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != METRICS_COLUMNS:
            raise RuntimeError(f"{path} does not look like an emitted metrics.csv")
        for row in reader:
            key = (row["method"], int(row["seed"]))
            curves.setdefault(key, []).append((float(row["labels_total"]), float(row[col])))
    by_method: dict[str, list] = {}
    for (method, _seed), curve in sorted(curves.items()):
        by_method.setdefault(method, []).append(sorted(curve))
    if "random" not in by_method:
        raise RuntimeError("metrics.csv contains no 'random' rows to compare against")

    random_curve = _mean_curve(by_method["random"])
    return {
        method: labeling_efficiency(_mean_curve(per_seed), random_curve, target)
        for method, per_seed in by_method.items()
    }


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
    if args.command == "run" and args.workers < 1:
        print(f"config error: --workers must be at least 1, got {args.workers}", file=sys.stderr)
        return 2

    try:
        if args.command in ("run", "validate"):
            config = parse_config(args.config)
            override = os.environ.get(SEED_ENV_VAR)
            if override is not None:
                try:
                    config.seeds = [int(override)]
                except ValueError:
                    raise ConfigError(f"{SEED_ENV_VAR}: must be an integer, got {override!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "validate":
            print(f"config OK: {len(config.methods)} method(s) x {len(config.seeds)} seed(s), "
                  f"{config.rounds} rounds, budget {config.budget}, rho {config.rho}")
            print(f"schedule: {list(config.resolved_schedule())}")
            return 0
        if args.command == "run":
            run(config, args.out, workers=args.workers)
            print(f"wrote {Path(args.out) / 'metrics.csv'}")
            return 0
        if args.command == "efficiency":
            table = _efficiency_from_metrics(args.metrics, args.target, args.metric)
            for method in sorted(table):
                value = table[method]
                shown = "undefined" if value is None else f"{value:.4f}"
                print(f"{method}\t{shown}")
            return 0
    except Exception as exc:  # runtime failures map to a distinct exit code
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

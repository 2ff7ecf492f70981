"""Benchmark of the streamline round loop: desk, scaled and churn workloads.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0          # every workload
    python3 perfbench/run.py --write-manifest                 # regenerate BENCHMARK.json

Run from the repository root. The package is imported from `src/` of the
checkout that holds this file, never from an installed copy. With
`--trace 0` the last stdout line is a JSON object with every end-to-end
metric; with `--trace 1` it carries the per-layer metrics of a separate
traced run. Lines before it are a human-readable table, with the sample
count beside each timing, and the run's environment. See README.md.
"""

from __future__ import annotations

import os

# Hold the BLAS thread count fixed, below the core count, before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import BASELINE_SELECTORS, LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = "perfbench"
RUN_SECONDS = 25
SETUP_PROBES = 7

WORKLOAD_WHY = {
    "desk": "acceptance defaults through cli.run, 7 methods: retraining is the work, kernels are tiny",
    "scaled": "ROADMAP scaled shape, no retraining: identify and select on dense 2000 x 4000 kernels do the work",
    "churn": "12 small slices, 4x duplicate buffers, rare slice every 2nd round: appends, rare budget, duplicates",
}

END_TO_END = [  # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("episodes_per_s", "1/s", "higher", 0.25),
    ("episode_p50_ms", "ms", "lower", 0.25),
    ("episode_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("identify_acc", "fraction", "higher", 0.1),
    ("select_value_mean", "flcg", "higher", 0.1),
    ("final_rare_acc", "fraction", "higher", 0.2),
    ("final_full_acc", "fraction", "higher", 0.1),
]

PER_LAYER = [  # name, unit, better
    ("kernels.build_kernel.calls", "count", "lower"),
    ("kernels.build_kernel.busy_s", "s", "lower"),
    ("kernels.build_kernel.cells", "cells", "lower"),
    ("kernels.build_kernel.bytes_computed", "bytes", "lower"),
    ("setfunctions.smidentify_scores.busy_s", "s", "lower"),
    ("maximize.calls", "count", "lower"),
    ("maximize.busy_s", "s", "lower"),
    ("maximize.picks", "count", "higher"),
    ("maximize.evaluations", "count", "lower"),
    ("maximize.evals_per_pick", "ratio", "lower"),
    ("core.smidentify.busy_s", "s", "lower"),
    ("core.smidentify.self_s", "s", "lower"),
    ("core.scg_select.busy_s", "s", "lower"),
    ("core.scg_select.self_s", "s", "lower"),
    ("core.slice_aware_budget.busy_s", "s", "lower"),
    ("core.pool_add.busy_s", "s", "lower"),
    ("core.pool_add.rows", "count", "higher"),
    ("core.streamline_round.calls", "count", "higher"),
    ("core.streamline_round.self_s", "s", "lower"),
    ("core.budget.rare_rounds", "count", "higher"),
    ("core.budget.gamma_final", "labels", "lower"),
    ("core.identify.margin_min", "score", "higher"),
    *[(f"baselines.{s}.{k}", u, "lower")
      for s in BASELINE_SELECTORS for k, u in (("calls", "count"), ("busy_s", "s"))],
    ("simulator.generate_stream.busy_s", "s", "lower"),
    ("simulator.fit_logistic.calls", "count", "lower"),
    ("simulator.fit_logistic.busy_s", "s", "lower"),
    ("simulator.fit_logistic.epochs", "count", "lower"),
    ("simulator.fit_logistic.share", "fraction", "lower"),
    ("simulator.loss_and_grad.calls", "count", "lower"),
    ("simulator.fit_logistic.accept_ratio", "ratio", "higher"),
    ("simulator.evaluate.busy_s", "s", "lower"),
    ("cli.run.busy_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    ("trace.wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def manifest() -> dict:
    return {
        "command": ["python3", f"{BENCH_DIR}/run.py"],
        "paths": [BENCH_DIR],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x} for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def import_package():
    """Import streamline from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "streamline" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'streamline'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import streamline

    if Path(streamline.__file__).resolve().parent != (SRC / "streamline").resolve():
        print(f"error: imported streamline from {streamline.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def tail(samples):
    """(value, percentile): the highest percentile with >= 10 samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    head = None
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            path = git / ref[5:]
            head = path.read_text().strip() if path.is_file() else None
        else:
            head = ref
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "streamline").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": head or "unavailable",
        "src_sha256": src_digest.hexdigest(),
    }


def setup_seconds(args) -> list[float]:
    """Fresh interpreter to ready-for-the-first-timed-call, several times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        out.append(elapsed)
    return out


def measure(w, rec, seconds: float) -> None:
    """Closed loop: play units until `seconds` have passed and the window is done."""
    start = time.perf_counter()
    unit = 0
    while unit < w.window or time.perf_counter() - start < seconds:
        w.play(unit, rec, collect=True)
        unit += 1


def measure_traced(w, rec, untraced, tracer) -> None:
    """Play each window unit traced and untraced, alternating which goes first.

    Adjacent pairs keep the machine's drift out of the overhead ratio.
    """
    for unit in range(w.window):
        for traced in ((False, True) if unit % 2 == 0 else (True, False)):
            w.play(unit, rec if traced else untraced, tracer=tracer if traced else None)
    rec.attempted += untraced.attempted
    rec.failed += untraced.failed
    rec.problems += untraced.problems


def end_to_end(rec, peak_rss_mb, setups) -> tuple[dict, list]:
    lat = rec.latencies_ms
    if not lat:
        raise RuntimeError("no episode completed")
    tail_ms, pct = tail(lat)
    n_rounds = len(rec.ident)
    values = {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} fresh interpreters"),
        "episodes_per_s": (rec.completed / rec.timed_s, f"n={rec.completed} episodes in {rec.timed_s:.1f} s timed"),
        "episode_p50_ms": (statistics.median(lat), f"n={len(lat)}"),
        "episode_tail_ms": (tail_ms, f"p{pct:.1f}, n={len(lat)}"),
        "peak_rss_mb": (peak_rss_mb, "one fresh process"),
        "identify_acc": (sum(rec.ident) / n_rounds, f"{sum(rec.ident)}/{n_rounds} window rounds"),
        "select_value_mean": (statistics.fmean(rec.values), f"n={len(rec.values)} window rounds"),
        "final_rare_acc": (statistics.fmean(rec.final_rare), f"n={len(rec.final_rare)} window units"),
        "final_full_acc": (statistics.fmean(rec.final_full), f"n={len(rec.final_full)} window units"),
    }
    units = {n: u for n, u, _, _ in END_TO_END}
    rows = [(n, v, units[n], note) for n, (v, note) in values.items()]
    rows.insert(1, ("failed_ratio", rec.failed / rec.attempted, "ratio", f"{rec.failed}/{rec.attempted} episodes"))
    return {n: v for n, (v, _) in values.items()}, rows


def baseline_rows(workload: str, m: dict) -> list[str]:
    """The ROADMAP baseline-table rows this workload's shape regenerates."""
    calls = m["core.streamline_round.calls"]
    if workload == "scaled" and calls:
        return [
            f"| `smidentify`, 4 slices x 4000 (rare 800), |U| 2000, dim 64 | "
            f"{m['core.smidentify.busy_s'] / calls:.3f} s per call |",
            f"| `scg_select`, lazy, B = 100, same shape | {m['core.scg_select.busy_s'] / calls:.3f} s per call |",
        ]
    if workload == "desk":
        return [f"| desk `cli.run`, 7 methods | {m['trace.wall_s']:.1f} s traced; "
                f"{100 * m['simulator.fit_logistic.share']:.0f}% in `fit_logistic` |"]
    return []


def run_one(args) -> int:
    import_package()
    from workloads import WORKLOADS, Record

    w = WORKLOADS[args.workload](args.size, args.fault)
    if args.setup_probe:
        w.setup(args.seed)
        print("ready", flush=True)
        w.close()
        return 0

    w.setup(args.seed)
    rec = Record()
    try:
        if args.trace:
            tracer, untraced = Tracer(), Record()
            measure_traced(w, rec, untraced, tracer)
            metrics = tracer.summary(rec.timed_s, untraced.timed_s, w.config.rounds)
            units = {n: u for n, u, _ in PER_LAYER}
            rows = [(n, v, units[n], "") for n, v in metrics.items()]
            extra = baseline_rows(args.workload, metrics)
        else:
            measure(w, rec, args.seconds)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            w.verify(rec)
            metrics, rows = end_to_end(rec, peak, setup_seconds(args))
            extra = [f"desk outputs sha256 {d}" for d in rec.digests]
    finally:
        w.close()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  size {args.size}")
    for name, value, unit, note in rows:
        print(f"  {name:42s} {value:14.6g} {unit:9s} {note}")
    for line in extra:
        print(line)
    for problem in rec.problems:
        print(f"FAILED {problem}")
    print("info " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    result = {
        "correct": rec.failed == 0 and not rec.problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {n: {"value": v, "unit": u} for n, v, u, _ in rows if n in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process; prints each one's table."""
    results = {}
    for name in WORKLOAD_WHY:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOAD_WHY, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shapes are for the smoke test")
    parser.add_argument("--fault", choices=["outside", "short"], default=None,
                        help="smoke test only: a selector_fn that breaks every 2nd round (scaled, churn)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-manifest", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

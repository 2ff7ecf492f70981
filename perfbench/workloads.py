"""The three closed-loop workloads and the checks on their outputs.

Every workload is a sequence of units played one after another by a single
caller: a `cli.run` call on `desk`, a whole generated stream on `scaled` and
`churn`. Unit i draws its data from seed `seed * 1000 + i`, so a run is a
pure function of its seed. The first `window` units are played by every run;
the count metrics (identification accuracy, selection value, final accuracy)
are taken over them only, so they repeat exactly for a given seed. Timings
cover every unit played.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import shutil
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import streamline
import streamline.cli
import streamline.simulator
from streamline.config import config_from_dict

DESK_METHODS = [
    "streamline",
    "streamline_no_budget",
    "random",
    "entropy",
    "submodular",
    "similar",
    "badge",
]

# Shapes. `desk` is the acceptance-suite default config; `scaled` is the
# ROADMAP scaled shape; `churn` spreads small slices that grow fast.
CONFIGS = {
    "desk": {"methods": DESK_METHODS},
    "scaled": {
        "methods": ["streamline"],
        "slices": 4,
        "dim": 64,
        "common_pool_size": 4000,
        "imbalance": 5,
        "episode_size": 2000,
        "schedule": "every_3",
        "rounds": 12,
        "budget": 100,
        "rho": 0.5,
        "maximizer": {"algorithm": "lazy"},
    },
    "churn": {
        "methods": ["streamline"],
        "slices": 12,
        "dim": 32,
        "common_pool_size": 150,
        "imbalance": 5,
        "episode_size": 400,
        "redundancy": 4,
        "schedule": "every_2",
        "rounds": 60,
        "budget": 120,
        "rho": 0.5,
    },
}
# Units every run plays, and over which the count metrics are taken.
WINDOWS = {"desk": 5, "scaled": 3, "churn": 5}

# Tiny shapes for the smoke test only.
TINY = {
    "desk": {"rounds": 3, "common_pool_size": 40, "eval_per_slice": 40, "learner": {"epochs": 10}},
    "scaled": {"common_pool_size": 200, "episode_size": 100, "dim": 16, "rounds": 3},
    "churn": {"common_pool_size": 30, "episode_size": 40, "dim": 16, "rounds": 6},
}

class Record:
    """What a run saw: episodes, their latencies, failures, window data."""

    def __init__(self):
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.latencies_ms: list[float] = []
        self.timed_s = 0.0
        self.problems: list[str] = []
        self.ident: list[bool] = []
        self.values: list[float] = []
        self.final_rare: list[float] = []
        self.final_full: list[float] = []
        self.digests: list[str] = []

    def fail(self, where: str, why: str, episodes: int = 1) -> None:
        self.failed += episodes
        if len(self.problems) < 20:
            self.problems.append(f"{where}: {why}")


def describe(exc: BaseException) -> str:
    """Exception type, message and the line that raised it."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} ({Path(frame.filename).name}:{frame.lineno})"


def round_problems(selected, buffer_ids, labeled, B, gamma_prev, gamma_after, fixed) -> list[str]:
    """Checks every round must pass, from public outputs only.

    Selected ids are unique, come from the buffer and were not labeled
    before; gamma stays >= 0; and the round conserves budget: a fixed-budget
    round spends min(B, |U|) and banks nothing, any other round spends plus
    banks exactly B.
    """
    out = []
    sel = [int(i) for i in selected]
    if len(set(sel)) != len(sel):
        out.append("selected ids repeat")
    if not set(sel) <= buffer_ids:
        out.append("selected id outside the buffer")
    if labeled.intersection(sel):
        out.append("selected id already labeled")
    if gamma_after < 0:
        out.append(f"gamma {gamma_after} < 0")
    if fixed:
        if gamma_after != gamma_prev or len(sel) != min(B, len(buffer_ids)):
            out.append(f"fixed budget: spent {len(sel)}, gamma {gamma_prev} -> {gamma_after}")
    elif abs(len(sel) + (gamma_after - gamma_prev) - B) > 1e-9:
        out.append(f"budget not conserved: spent {len(sel)} + banked {gamma_after - gamma_prev} != {B}")
    return out


def flcg_value(X_u, X_p, rows) -> float:
    """FLCG value of buffer rows over a slice, from the public kernel and set function."""
    S_uu = streamline.build_kernel(X_u, X_u)
    S_up = streamline.build_kernel(X_u, X_p)
    return streamline.FLCG(S_uu, S_up).value(rows)


def replay(pool, buffers, rounds):
    """Rebuild each round's pre-round identified slice from the initial pool.

    `rounds` holds (round index, identified slice, selected ids) for every
    round that completed. Yields each selection's FLCG value over that
    slice; leaves `pool` holding the initial pool plus every selection
    appended to its identified slice.
    """
    for r, t, selected in rounds:
        buf = buffers[r]
        pos = {int(i): k for k, i in enumerate(buf.ids)}
        rows = np.array([pos[int(i)] for i in selected], dtype=np.intp)
        sl = pool.slices[t]
        yield flcg_value(buf.X, sl.X, rows) if len(rows) else 0.0
        sl.ids = np.concatenate([sl.ids, np.asarray(selected, dtype=np.int64)])
        sl.X = np.vstack([sl.X, buf.X[rows]])


class Workload:
    name = ""

    def __init__(self, size: str = "full", fault: str | None = None):
        data = {**CONFIGS[self.name], "seeds": [0]}
        if size == "tiny":
            data.update(TINY[self.name])
        self.config = config_from_dict(data)
        self.window = 1 if size == "tiny" else WINDOWS[self.name]
        self.fault = fault
        self.seed = 0

    def data_seed(self, unit: int) -> int:
        return self.seed * 1000 + unit

    def setup(self, seed: int) -> None:
        self.seed = seed

    def play(self, unit: int, rec: Record, tracer=None, collect: bool = False) -> None:
        """Play one unit; with `collect`, keep what the count metrics need."""
        raise NotImplementedError

    def verify(self, rec: Record) -> None:
        """Post-run checks and count metrics that need kernels; untimed."""

    def close(self) -> None:
        pass


class StreamWorkload(Workload):
    """`streamline_round` over generated streams, no retraining."""

    def setup(self, seed: int) -> None:
        super().setup(seed)
        cfg = self.config.run_config()
        self.B, self.rho = cfg.budget, cfg.rho
        self.learner_cfg = cfg.learner
        self.round_cfg = streamline.StreamlineConfig(maximizer=cfg.maximizer)
        if self.fault:
            self.round_cfg.selector_fn = self._faulty_selector(cfg.maximizer)
        self._first = streamline.generate_stream(self.config.stream_spec(self.data_seed(0)))
        self.window_rounds: list = []  # per window unit: (unit, rounds, final ids per slice)

    def _faulty_selector(self, maximizer):
        calls = [0]

        def select(pool, buffer, t, b):
            ids = streamline.scg_select(pool, buffer, t, b, maximizer)
            calls[0] += 1
            if calls[0] % 2 == 0:
                return ids + [int(buffer.ids.max()) + 1] if self.fault == "outside" else ids[:-1]
            return ids

        return select

    def play(self, unit, rec, tracer=None, collect=False):
        if unit == 0 and self._first is not None:
            stream, self._first = self._first, None
        else:
            stream = streamline.generate_stream(self.config.stream_spec(self.data_seed(unit)))
        pool, buffers, eval_set = stream
        labeled = {int(i) for sl in pool.slices for i in sl.ids}
        state = streamline.BudgetState(B=self.B, rho=self.rho)
        in_window = collect and unit < self.window
        rounds = []
        for r, buf in enumerate(buffers):
            where = f"seed {self.data_seed(unit)} round {r}"
            truth = dict(zip(buf.ids.tolist(), buf.true_labels.tolist()))
            oracle = lambda ids: np.array([truth[int(i)] for i in ids], dtype=np.int64)  # noqa: E731
            size_before, gamma_before = pool.total_size, state.gamma
            rec.attempted += 1
            if tracer is not None:
                tracer.episode = rec.attempted
            try:
                start = time.perf_counter()
                with tracer.active() if tracer is not None else nullcontext():
                    report, pool, new_state = streamline.streamline_round(
                        pool, buf, state, self.round_cfg, oracle
                    )
                elapsed = time.perf_counter() - start
            except Exception as exc:  # a failed episode is counted, the run carries on
                rec.fail(where, describe(exc))
                continue
            rec.timed_s += elapsed
            rec.completed += 1
            rec.latencies_ms.append(1000.0 * elapsed)
            sel = report.selected_ids
            problems = round_problems(
                sel, set(truth), labeled, self.B, gamma_before, new_state.gamma, fixed=False
            )
            problems += self._decision_problems(report, buf, pool, gamma_before, size_before)
            labeled.update(sel)
            state = new_state
            if problems:
                rec.fail(where, "; ".join(problems))
            if in_window:
                rec.ident.append(report.identified_slice == buf.true_slice)
                rounds.append((r, report.identified_slice, sel))
        if in_window:
            self.window_rounds.append((unit, rounds, [sl.ids.copy() for sl in pool.slices]))
            # The learner runs once per window stream, after its last round
            # and outside every timed section, to score the labeled pool.
            learner = streamline.train_learner(pool, self.learner_cfg, self.config.classes)
            full, per_slice = streamline.evaluate(learner, eval_set)
            rec.final_full.append(full)
            rec.final_rare.append(float(per_slice[self.config.rare_slice]))

    def _decision_problems(self, report, buf, pool, gamma_before, size_before) -> list[str]:
        """The budget law and pool growth, from the round's own report."""
        out = []
        d, sel, n = report.decision, report.selected_ids, len(buf)
        if len(sel) > d.b:
            out.append(f"selected {len(sel)} > granted b {d.b}")
        law = gamma_before + (d.b - min(d.b, n))
        law += -d.sigma if d.branch == "rare" else self.B - d.b
        if abs(report.gamma_after - law) > 1e-9:
            out.append(f"gamma {report.gamma_after} != {law} by the {d.branch} branch law")
        if pool.total_size != size_before + len(sel):
            out.append(f"pool grew by {pool.total_size - size_before}, selected {len(sel)}")
        ids = np.concatenate([sl.ids for sl in pool.slices])
        if len(np.unique(ids)) != len(ids):
            out.append("pool ids are not disjoint")
        grown = pool.slices[report.identified_slice].ids
        if grown[len(grown) - len(sel):].tolist() != list(sel):
            out.append("selected ids were not appended to the identified slice")
        return out

    def verify(self, rec):
        for unit, rounds, final_ids in self.window_rounds:
            pool, buffers, _ = streamline.generate_stream(self.config.stream_spec(self.data_seed(unit)))
            rec.values.extend(replay(pool, buffers, rounds))
            if [sl.ids.tolist() for sl in pool.slices] != [ids.tolist() for ids in final_ids]:
                rec.fail(f"seed {self.data_seed(unit)}", "final pool differs from its replay", 0)


class Scaled(StreamWorkload):
    name = "scaled"


class Churn(StreamWorkload):
    name = "churn"


class Desk(Workload):
    """Serial in-process `cli.run`, one data seed per call, every method."""

    name = "desk"

    def setup(self, seed):
        super().setup(seed)
        out_root = Path(__file__).resolve().parent / ".out"
        out_root.mkdir(exist_ok=True)
        self.out = Path(tempfile.mkdtemp(prefix="desk-", dir=out_root))
        self.window_rows: list = []  # per window unit: (seed, rounds, final slice sizes)

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)
        try:
            self.out.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    def play(self, unit, rec, tracer=None, collect=False):
        seed = self.data_seed(unit)
        cfg = dataclasses.replace(self.config, seeds=[seed])
        rounds, methods = cfg.rounds, cfg.methods
        episodes = rounds * len(methods)
        rec.attempted += episodes
        marks: list[float] = []
        sim = streamline.simulator
        evaluate = sim.evaluate

        def mark_round_end(*args):
            result = evaluate(*args)
            marks.append(time.perf_counter())
            return result

        try:
            # The untraced run rebinds `evaluate` with a clock read only: its
            # returns mark round ends, which `cli.run` does not expose.
            if tracer is None:
                sim.evaluate = mark_round_end
            start = time.perf_counter()
            with tracer.active() if tracer is not None else nullcontext():
                streamline.cli.run(cfg, self.out)
            elapsed = time.perf_counter() - start
        except Exception as exc:  # a failed call fails all its episodes, the run carries on
            rec.fail(f"seed {seed}", describe(exc), episodes)
            return
        finally:
            sim.evaluate = evaluate
        rec.timed_s += elapsed
        rec.completed += episodes
        if tracer is None:
            if len(marks) != episodes:
                rec.fail(f"seed {seed}", f"{len(marks)} rounds evaluated, expected {episodes}", 0)
            # Round r > 0 of a job runs from the end of round r-1's evaluate to
            # the end of its own; round 0 also holds the job's stream
            # generation and first fit, so it gives no latency sample.
            for j in range(len(marks) // rounds):
                job = marks[j * rounds : (j + 1) * rounds]
                rec.latencies_ms.extend(1000.0 * (b - a) for a, b in zip(job, job[1:]))
        try:
            self._check_outputs(cfg, seed, rec, collect and unit < self.window)
        except (OSError, ValueError, KeyError) as exc:  # unreadable outputs fail the call
            rec.fail(f"seed {seed}", f"outputs: {describe(exc)}", episodes)

    def _check_outputs(self, cfg, seed, rec, in_window) -> None:
        digest = {}
        for name in ("metrics.csv", "selections.jsonl", "summary.json"):
            digest[name] = hashlib.sha256((self.out / name).read_bytes()).hexdigest()
        rec.digests.append(f"seed {seed}: " + " ".join(f"{k}={v[:16]}" for k, v in digest.items()))
        with open(self.out / "metrics.csv", newline="") as fh:
            metrics = {}
            for row in csv.DictReader(fh):
                metrics.setdefault((row["method"], int(row["seed"]), int(row["round"])), []).append(row)
        selections = {}
        with open(self.out / "selections.jsonl") as fh:
            for line in fh:
                row = json.loads(line)
                selections.setdefault((row["method"], row["seed"], row["round"]), []).append(row)

        pool0, buffers, _ = streamline.generate_stream(cfg.stream_spec(seed))
        sizes0 = [len(sl) for sl in pool0.slices]
        B = cfg.budget
        for method in cfg.methods:
            labeled = {int(i) for sl in pool0.slices for i in sl.ids}
            gamma, sizes, total, kept = 0.0, sizes0, 0, []
            for r, buf in enumerate(buffers):
                key, where = (method, seed, r), f"{method} seed {seed} round {r}"
                m_rows, s_rows = metrics.get(key, []), selections.get(key, [])
                if len(m_rows) != 1 or len(s_rows) != 1:
                    rec.fail(where, f"{len(m_rows)} metrics rows, {len(s_rows)} selections rows")
                    continue
                m, s = m_rows[0], s_rows[0]
                sel = s["selected_ids"]
                t, g = int(m["identified_slice"]), float(m["gamma"])
                problems = round_problems(
                    sel, set(buf.ids.tolist()), labeled, B, gamma, g, fixed=method != "streamline"
                )
                grown = [b - a for a, b in zip(sizes, s["slice_sizes"])]
                if grown != [len(sel) if k == t else 0 for k in range(len(sizes))]:
                    problems.append(f"slice sizes {sizes} -> {s['slice_sizes']} for {len(sel)} at slice {t}")
                total += len(sel)
                if int(m["granted_b"]) != len(sel) or int(m["labels_total"]) != total:
                    problems.append("granted_b or labels_total disagrees with selections")
                if problems:
                    rec.fail(where, "; ".join(problems))
                labeled.update(sel)
                gamma, sizes = g, s["slice_sizes"]
                if in_window and method.startswith("streamline"):
                    rec.ident.append(t == int(m["true_slice"]))
                if in_window and method == "streamline":
                    kept.append((r, t, sel))
            if in_window and method == "streamline":
                self.window_rows.append((seed, kept, sizes))

        if in_window:
            summary = json.loads((self.out / "summary.json").read_text())["methods"]["streamline"]
            rec.final_rare.append(summary["final_rare_mean"])
            rec.final_full.append(summary["final_full_mean"])

    def verify(self, rec):
        for seed, rounds, final_sizes in self.window_rows:
            pool, buffers, _ = streamline.generate_stream(self.config.stream_spec(seed))
            rec.values.extend(replay(pool, buffers, rounds))
            if [len(sl) for sl in pool.slices] != list(final_sizes):
                rec.fail(f"streamline seed {seed}", "final slice sizes differ from their replay", 0)


WORKLOADS = {w.name: w for w in (Desk, Scaled, Churn)}

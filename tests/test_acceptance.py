"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The end-to-end grid (criteria 8 and 9) runs once per
session and is shared.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from streamline.cli import run as cli_run
from streamline.config import config_from_dict
from streamline.core import (
    BudgetState,
    LabeledSlice,
    SlicedLabeledPool,
    UnlabeledBuffer,
    scg_select,
    slice_aware_budget,
    smidentify,
    smidentify_scores,
)
from streamline.kernels import build_kernel, normalize_rows
from streamline.maximize import MaximizerConfig, lazy_greedy, naive_greedy, stochastic_greedy
from streamline.setfunctions import FLCG, FLQMI, FacilityLocation, scg_value, smi_value
from streamline.simulator import (
    LearnerConfig,
    RunConfig,
    StreamSpec,
    every_k_schedule,
    labeling_efficiency,
    run_experiment,
)


def _report(num: int, label: str, ok: bool, detail: str = ""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {label} {detail}"


def _unit_vectors(rng, n, dim=6):
    return normalize_rows(rng.normal(size=(n, dim)))


def _random_fl(rng, n, dim=6):
    X = _unit_vectors(rng, n, dim)
    return FacilityLocation(build_kernel(X, X))


def _brute_fl(S, A):
    return sum(max((S[i, j] for j in A), default=0.0) for i in range(S.shape[0]))


def _brute_optimum(f, b):
    return max(
        f.value(list(A)) for A in itertools.combinations(range(f.ground_size), b)
    )


# ---------------------------------------------------------------------------
# 1. Greedy approximation ratio


def test_criterion_1_greedy_ratio():
    start = time.time()
    ratio = 1.0 - 1.0 / math.e
    worst = np.inf
    for seed in range(50):
        f = _random_fl(np.random.default_rng(seed), 12)
        trace = naive_greedy(f, MaximizerConfig(budget=3, algorithm="naive"))
        opt = _brute_optimum(f, 3)
        worst = min(worst, f.value(trace.chosen) / opt)
        assert f.value(trace.chosen) >= ratio * opt - 1e-12
    elapsed = time.time() - start
    _report(
        1,
        "greedy value >= (1-1/e) x brute-force optimum on 50 instances",
        worst >= ratio and elapsed < 10.0,
        f"(worst ratio {worst:.4f}, {elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 2. Lazy greedy is naive greedy


def test_criterion_2_lazy_equals_naive():
    start = time.time()
    rng = np.random.default_rng(100)
    ok = True
    for case in range(100):
        kind = ("fl", "flqmi", "flcg")[case % 3]
        n = int(rng.integers(6, 16))
        X = _unit_vectors(rng, n)
        if kind == "fl":
            inst = FacilityLocation(build_kernel(X, X))
        elif kind == "flqmi":
            inst = FLQMI(build_kernel(X, _unit_vectors(rng, int(rng.integers(2, 6)))))
        else:
            inst = FLCG(
                build_kernel(X, X),
                build_kernel(X, _unit_vectors(rng, int(rng.integers(2, 6)))),
            )
        b = int(rng.integers(1, n + 1))
        t_naive = naive_greedy(inst, MaximizerConfig(budget=b, algorithm="naive"))
        t_lazy = lazy_greedy(inst, MaximizerConfig(budget=b, algorithm="lazy"))
        ok &= t_lazy.chosen == t_naive.chosen
        ok &= bool(np.allclose(t_lazy.gains, t_naive.gains, atol=1e-9))
        ok &= t_lazy.evaluations <= t_naive.evaluations
    elapsed = time.time() - start
    _report(
        2,
        "lazy trace == naive trace with no more evaluations, 100 instances",
        ok and elapsed < 30.0,
        f"({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 3. Stochastic greedy


def test_criterion_3_stochastic_greedy():
    start = time.time()
    # epsilon small enough that the sample covers the whole ground set
    f = _random_fl(np.random.default_rng(200), 20)
    covered = stochastic_greedy(
        f, MaximizerConfig(budget=5, algorithm="stochastic", epsilon=0.001, seed=0)
    )
    exact = naive_greedy(f, MaximizerConfig(budget=5, algorithm="naive"))
    identical = covered.chosen == exact.chosen

    stoch_vals, naive_vals = [], []
    for seed in range(100):
        f = _random_fl(np.random.default_rng(300 + seed), 20)
        cfg = MaximizerConfig(budget=5, algorithm="stochastic", epsilon=0.05, seed=seed)
        stoch_vals.append(f.value(stochastic_greedy(f, cfg).chosen))
        naive_vals.append(f.value(naive_greedy(f, MaximizerConfig(budget=5)).chosen))
    mean_ratio = float(np.mean(stoch_vals) / np.mean(naive_vals))
    elapsed = time.time() - start
    _report(
        3,
        "stochastic greedy: exact under full coverage, mean >= 0.9 x naive",
        identical and mean_ratio >= 0.9 and elapsed < 30.0,
        f"(mean ratio {mean_ratio:.4f}, {elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 4. Set-function identities


def test_criterion_4_information_identities():
    rng = np.random.default_rng(400)
    ok = True
    for _ in range(200):
        n = int(rng.integers(3, 7))
        X = _unit_vectors(rng, n)
        S = build_kernel(X, X)
        F = FacilityLocation(S)
        A = list(rng.choice(n, size=rng.integers(0, n), replace=False))
        B = list(rng.choice(n, size=rng.integers(0, n), replace=False))
        union = sorted(set(A) | set(B))
        ok &= abs(smi_value(F, A, B) - (_brute_fl(S, A) + _brute_fl(S, B) - _brute_fl(S, union))) <= 1e-9
        ok &= abs(scg_value(F, A, B) - (_brute_fl(S, union) - _brute_fl(S, B))) <= 1e-9

        p = int(rng.integers(1, 4))
        S_up = build_kernel(X, _unit_vectors(rng, p))
        joined = np.hstack([S, S_up])
        fl_joined = FacilityLocation(joined)
        P = list(range(n, n + p))
        flcg = FLCG(S, S_up)
        expected = fl_joined.value(sorted(A) + P) - fl_joined.value(P)
        ok &= abs(flcg.value(A) - expected) <= 1e-9
    _report(4, "smi/scg/flcg match brute-force identities on 200 instances", ok)


# ---------------------------------------------------------------------------
# 5. Budget arithmetic


def _sized_pool(sizes, rare_flags):
    slices, next_id = [], 0
    for size in sizes:
        slices.append(
            LabeledSlice(np.arange(next_id, next_id + size), np.zeros(size, int), np.ones((size, 2)))
        )
        next_id += size
    return SlicedLabeledPool(slices, rare_flags), next_id


def test_criterion_5_budget_arithmetic():
    # hand-simulated schedule: common, common, rare with B=100, rho=0.5,
    # starting sizes 200 (common), 150 (common), 40 (rare)
    pool, next_id = _sized_pool([200, 150, 40], [False, False, True])
    state = BudgetState(B=100, rho=0.5)
    trace = []
    for t in (0, 1, 2):
        decision, state = slice_aware_budget(pool, state, t)
        trace.append((decision.b, decision.sigma, state.gamma))
        pool.add(t, np.arange(next_id, next_id + decision.b), np.zeros(decision.b, int), np.ones((decision.b, 2)))
        next_id += decision.b
    # round 1: b = floor(50 + 50*40/200) = 60, gamma 40
    # round 2: b = floor(50 + 50*40/150) = 63, gamma 77
    # round 3: d = mean(260, 213) - 40 = 196.5, sigma = min(77, 96.5) = 77, b = 177
    hand = [(60, 0.0, 40.0), (63, 0.0, 77.0), (177, 77.0, 0.0)]
    exact = trace == hand

    rng = np.random.default_rng(500)
    fuzz_ok = True
    for _ in range(1000):
        T = int(rng.integers(2, 5))
        pool, next_id = _sized_pool(
            [int(rng.integers(1, 50)) for _ in range(T)],
            [bool(rng.random() < 0.3) for _ in range(T)],
        )
        B = int(rng.integers(1, 30))
        state = BudgetState(B=B, rho=float(rng.random()))
        rounds = int(rng.integers(1, 6))
        total = 0
        for _ in range(rounds):
            t = int(rng.integers(T))
            gamma_before = state.gamma
            decision, state = slice_aware_budget(pool, state, t)
            fuzz_ok &= state.gamma >= 0.0
            fuzz_ok &= decision.sigma <= gamma_before + 1e-12
            fuzz_ok &= float(decision.b) == int(decision.b)  # integral grant
            total += decision.b
            if decision.b:
                pool.add(
                    t,
                    np.arange(next_id, next_id + decision.b),
                    np.zeros(decision.b, int),
                    np.ones((decision.b, 2)),
                )
                next_id += decision.b
        fuzz_ok &= total <= rounds * B
    _report(
        5,
        "hand-simulated budget trace exact; 1000-schedule fuzz conserves gamma",
        exact and fuzz_ok,
        f"(trace {trace})",
    )


# ---------------------------------------------------------------------------
# 6. Identification


def test_criterion_6_identification():
    correct = 0
    scale_ok = True
    for trial in range(100):
        rng = np.random.default_rng(600 + trial)
        dim, T = 12, 4
        centroids = 6.0 * np.eye(dim)[:T]  # >= 6x the unit noise std apart
        slices, next_id = [], 0
        for s in range(T):
            X = centroids[s] + rng.normal(size=(15, dim))
            slices.append(LabeledSlice(np.arange(next_id, next_id + 15), np.zeros(15, int), X))
            next_id += 15
        pool = SlicedLabeledPool(slices, [False] * T)
        target = int(rng.integers(T))
        buf = UnlabeledBuffer(
            ids=np.arange(next_id, next_id + 20),
            X=centroids[target] + rng.normal(size=(20, dim)),
            true_slice=target,
        )
        result = smidentify(pool, buf)
        correct += result.slice_id == target

        kernels = [
            build_kernel(buf.X, sl.X) for sl in pool.slices
        ]
        base = int(np.argmax(smidentify_scores(kernels)))
        for c in (0.3, 2.0, 11.0):
            scale_ok &= int(np.argmax(smidentify_scores([c * K for K in kernels]))) == base
    _report(
        6,
        ">=95% slice identification; argmax invariant to kernel scaling",
        correct >= 95 and scale_ok,
        f"({correct}/100 correct)",
    )


# ---------------------------------------------------------------------------
# 7. Redundancy handling


def _brute_flcg(S_uu, S_up, A):
    total = 0.0
    for i in range(S_uu.shape[0]):
        best_a = max((S_uu[i, j] for j in A), default=0.0)
        best_p = max(S_up[i, j] for j in range(S_up.shape[1]))
        total += max(best_a - best_p, 0.0)
    return total


def test_criterion_7_redundancy():
    ok = True
    for trial in range(15):
        rng = np.random.default_rng(700 + trial)
        uniques = int(rng.integers(2, 5))  # |U| = 2 * uniques <= 8
        dim = 5
        U_uniq = np.abs(rng.normal(size=(uniques, dim))) + 0.2
        X = np.vstack([U_uniq, U_uniq])  # item i duplicates item i+uniques
        P = np.abs(rng.normal(size=(3, dim))) * 0.1 + 0.02
        pool = SlicedLabeledPool(
            [LabeledSlice(np.arange(1000, 1003), np.zeros(3, int), P)], [False]
        )
        buf = UnlabeledBuffer(ids=np.arange(2 * uniques), X=X, true_slice=0)
        b = int(rng.integers(1, uniques + 1))
        picked = scg_select(pool, buf, 0, b, MaximizerConfig(budget=0, algorithm="lazy"))
        pairs = [p % uniques for p in picked]
        ok &= len(set(pairs)) == len(pairs)  # at most one copy of each pair

        # brute-force FLCG oracle: some duplicate-free subset attains the optimum
        S_uu = build_kernel(X, X)
        S_up = build_kernel(X, P)
        best_val, best_sets = -1.0, []
        for A in itertools.combinations(range(2 * uniques), b):
            val = _brute_flcg(S_uu, S_up, list(A))
            if val > best_val + 1e-12:
                best_val, best_sets = val, [A]
            elif abs(val - best_val) <= 1e-12:
                best_sets.append(A)
        ok &= any(
            len({a % uniques for a in A}) == len(A) for A in best_sets
        )
        picked_rows = [list(buf.ids).index(p) for p in picked]
        f = FLCG(S_uu, S_up)
        ok &= f.value(picked_rows) >= (1 - 1 / math.e) * best_val - 1e-9
    _report(7, "conditional-gain selection takes at most one copy per duplicate pair", ok)


# ---------------------------------------------------------------------------
# 8 & 9. End-to-end desk-scale experiment and ablations

GRID_METHODS = (
    "streamline",
    "streamline_no_scg",
    "streamline_no_budget",
    "random",
    "entropy",
    "submodular",
    "similar",
    "badge",
)
FIXED_BUDGET_BASELINES = ("random", "entropy", "submodular", "similar", "badge")
RARE_SLICE = 3


@pytest.fixture(scope="module")
def experiment_grid():
    spec_kwargs = dict(
        n_slices=4,
        n_classes=6,
        dim=16,
        class_sep=2.4,
        class_twist=3.2,
        slice_sep=8.0,
        noise_std=1.0,
        imbalance=5,
        common_pool_size=200,
        episode_size=100,
        redundancy=1,
        eval_per_slice=400,
        rare_slice=RARE_SLICE,
        schedule=every_k_schedule(12, 4, RARE_SLICE, k=3),
    )
    cfg = RunConfig(budget=50, rho=0.5, learner=LearnerConfig())
    start = time.time()
    logs = {
        method: [
            run_experiment(StreamSpec(seed=seed, **spec_kwargs), method, cfg)
            for seed in range(4)
        ]
        for method in GRID_METHODS
    }
    return logs, time.time() - start


def _mean_final_rare(logs):
    return float(np.mean([log.final("rare") for log in logs]))


def _mean_final_full(logs):
    return float(np.mean([log.final("full") for log in logs]))


def test_criterion_8_end_to_end(experiment_grid):
    logs, elapsed = experiment_grid
    rare_sl = _mean_final_rare(logs["streamline"])
    rare_rand = _mean_final_rare(logs["random"])
    gap_ok = rare_sl - rare_rand >= 0.03

    pool_ok = True
    for method in FIXED_BUDGET_BASELINES:
        for log_sl, log_b in zip(logs["streamline"], logs[method]):
            pool_ok &= (
                log_sl.records[-1].slice_sizes[RARE_SLICE]
                >= log_b.records[-1].slice_sizes[RARE_SLICE]
            )

    full_sl = _mean_final_full(logs["streamline"])
    best_baseline_full = max(_mean_final_full(logs[m]) for m in FIXED_BUDGET_BASELINES)
    full_ok = full_sl >= best_baseline_full - 0.02

    time_ok = elapsed < 300.0
    _report(
        8,
        "end-to-end: rare gap >= 3pt, largest rare pool, comparable full accuracy",
        gap_ok and pool_ok and full_ok and time_ok,
        f"(rare {rare_sl:.4f} vs random {rare_rand:.4f}, full {full_sl:.4f} vs best {best_baseline_full:.4f}, {elapsed:.0f}s)",
    )


def test_criterion_9_ablation_ordering(experiment_grid):
    logs, _ = experiment_grid
    tol = 0.005  # 0.5 accuracy points
    full = _mean_final_rare(logs["streamline"])
    no_scg = _mean_final_rare(logs["streamline_no_scg"])
    no_budget = _mean_final_rare(logs["streamline_no_budget"])
    submodular = _mean_final_rare(logs["submodular"])
    ok = no_scg <= full + tol and no_budget <= full + tol and full >= submodular - tol
    _report(
        9,
        "ablations: no_scg and no_budget <= full streamline >= submodular",
        ok,
        f"(full {full:.4f}, no_scg {no_scg:.4f}, no_budget {no_budget:.4f}, submodular {submodular:.4f})",
    )


# ---------------------------------------------------------------------------
# 10. Labeling-efficiency oracle


def test_criterion_10_labeling_efficiency():
    method = [(50, 0.2), (100, 0.6)]
    random_curve = [(100, 0.3), (200, 0.6)]
    two_x = labeling_efficiency(method, random_curve, 0.6)

    curve = [(0, 0.0), (100, 0.5), (200, 1.0)]
    identical = labeling_efficiency(curve, curve, 0.8)

    interp = labeling_efficiency(curve, [(0, 0.0), (300, 0.75)], 0.75)  # 300 / 150

    undefined = labeling_efficiency([(100, 0.4)], random_curve, 0.9)

    ok = (
        two_x == pytest.approx(2.0)
        and identical == pytest.approx(1.0)
        and interp == pytest.approx(2.0)
        and undefined is None
    )
    _report(10, "labeling efficiency: 2x worked example, interpolation, undefined", ok)


# ---------------------------------------------------------------------------
# 11. Determinism


def test_criterion_11_byte_identical_rerun(tmp_path):
    cfg = config_from_dict(
        {
            "methods": ["streamline", "random"],
            "seeds": [0, 1],
            "rounds": 4,
            "slices": 3,
            "classes": 3,
            "dim": 8,
            "common_pool_size": 30,
            "episode_size": 30,
            "eval_per_slice": 40,
            "budget": 10,
            "learner": {"epochs": 40},
        }
    )
    cli_run(cfg, tmp_path / "first")
    cli_run(cfg, tmp_path / "second")
    identical = (tmp_path / "first" / "metrics.csv").read_bytes() == (
        tmp_path / "second" / "metrics.csv"
    ).read_bytes()
    summary = json.loads((tmp_path / "first" / "summary.json").read_text())
    self_eff = summary["methods"]["random"]["labeling_efficiency_vs_random"]
    _report(
        11,
        "identical config reruns produce byte-identical metrics.csv",
        identical and self_eff == pytest.approx(1.0),
    )

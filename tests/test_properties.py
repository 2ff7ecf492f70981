"""Property tests for the fused kernel path of identify and select, the round,
and the class-major logistic learner.

row_col_max, smidentify and scg_select never hold a |U| x |P| kernel; the
first three tests check them against the definitional path built from full
kernels. The next two check budget conservation over whole rounds and the
budget law against an integer-only reference. The learner tests check
logistic_loss_and_grad, fit_logistic and whole runs bit for bit against the
row-major softmax they replaced. The tests after them check the transposed
S_uu, the column-contiguous coverage gains and the round's reuse of
identify's row maxima bit for bit, and lazy greedy against naive greedy. The
last one checks that a failing property test still shows its example.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamline.simulator as simulator
from streamline import (
    FLCG,
    FacilityLocation,
    BudgetState,
    LabeledSlice,
    MaximizerConfig,
    SlicedLabeledPool,
    StreamlineConfig,
    UnlabeledBuffer,
    build_kernel,
    maximize,
    row_col_max,
    scg_select,
    slice_aware_budget,
    smidentify,
    streamline_round,
)
from streamline.cli import run
from streamline.config import config_from_dict
from streamline.core import smidentify_scores
from streamline.kernels import _BLOCK, _transposed_self_kernel
from streamline.setfunctions import _ROWS, _CoverageEvaluator
from streamline.simulator import Learner, LearnerConfig, fit_logistic, logistic_loss_and_grad

SETTINGS = settings(max_examples=25, deadline=None)


def _rows(rng, n, dim, grid):
    """n nonzero rows; on a small integer grid when `grid`, so rows repeat and ties are exact."""
    X = rng.integers(-2, 3, size=(n, dim)).astype(float) if grid else rng.normal(size=(n, dim))
    X[~X.any(axis=1), 0] = 1.0
    return X


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n_u=st.integers(1, 6),
    dim=st.integers(1, 5),
    n_p=st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]),
    grid=st.booleans(),
)
def test_row_col_max_equals_full_kernel_maxima(seed, n_u, dim, n_p, grid):
    rng = np.random.default_rng(seed)
    U, P = _rows(rng, n_u, dim, grid), _rows(rng, n_p, dim, grid)
    K = build_kernel(U, P).values
    row, col = row_col_max(U, P)
    np.testing.assert_array_equal(row, K.max(axis=1))
    np.testing.assert_array_equal(col, K.max(axis=0))


def _pool(rng, sizes, dim, grid):
    slices, next_id = [], 0
    for size in sizes:
        X = _rows(rng, size, dim, grid)
        slices.append(LabeledSlice(np.arange(next_id, next_id + size), np.zeros(size, int), X))
        next_id += size
    return SlicedLabeledPool(slices, [False] * len(sizes)), next_id


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=4),
    n_u=st.integers(1, 40),
    dim=st.integers(2, 6),
    grid=st.booleans(),
)
def test_smidentify_scores_equal_full_kernel_scores(seed, sizes, n_u, dim, grid):
    rng = np.random.default_rng(seed)
    pool, next_id = _pool(rng, sizes, dim, grid)
    buf = UnlabeledBuffer(np.arange(next_id, next_id + n_u), _rows(rng, n_u, dim, grid))
    full = smidentify_scores([build_kernel(buf.X, sl.X) for sl in pool.slices])
    result = smidentify(pool, buf)
    np.testing.assert_array_equal(result.scores, full)
    assert result.slice_id == int(np.argmax(full))


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n_u=st.integers(1, 30),
    n_p=st.integers(1, 30),
    dim=st.integers(2, 6),
    b=st.integers(0, 35),
    algorithm=st.sampled_from(["lazy", "naive"]),
)
def test_scg_select_equals_greedy_on_full_kernels(seed, n_u, n_p, dim, b, algorithm):
    rng = np.random.default_rng(seed)
    pool, next_id = _pool(rng, [n_p], dim, grid=False)
    buf = UnlabeledBuffer(np.arange(next_id, next_id + n_u), _rows(rng, n_u, dim, grid=False))
    cfg = MaximizerConfig(budget=0, algorithm=algorithm)
    f = FLCG(build_kernel(buf.X, buf.X), build_kernel(buf.X, pool.slices[0].X))
    trace = maximize(f, MaximizerConfig(budget=min(b, n_u), algorithm=algorithm))
    assert scg_select(pool, buf, 0, b, cfg) == [int(buf.ids[i]) for i in trace.chosen]


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 30), min_size=2, max_size=4),
    B=st.integers(0, 25),
    rho=st.floats(0.0, 1.0),
    rounds=st.lists(st.tuples(st.integers(1, 30), st.floats(0.0, 1.0)), max_size=5),
)
def test_every_round_spends_plus_banks_its_base_budget(seed, sizes, B, rho, rounds):
    """Slice-aware rounds conserve labels even when the selector falls short."""
    rng = np.random.default_rng(seed)
    pool, next_id = _pool(rng, sizes, 3, grid=False)
    pool.rare_flags[-1] = True
    state = BudgetState(B=B, rho=rho)
    for n_u, keep in rounds:
        buf = UnlabeledBuffer(np.arange(next_id, next_id + n_u), _rows(rng, n_u, 3, grid=False))
        next_id += n_u
        short = lambda p, u, t, b: [int(i) for i in u.ids[: int(keep * b)]]  # noqa: E731
        cfg = StreamlineConfig(maximizer=MaximizerConfig(budget=0), selector_fn=short)
        before = pool.total_size
        report, pool, new_state = streamline_round(pool, buf, state, cfg, lambda ids: np.zeros(len(ids), int))
        spent = len(report.selected_ids)
        assert spent + (new_state.gamma - state.gamma) == B
        assert new_state.gamma >= 0.0 and pool.total_size == before + spent
        state = new_state
    ids = np.concatenate([sl.ids for sl in pool.slices])
    assert len(np.unique(ids)) == len(ids)


def _reference_budget(sizes, rare, t, B, rho_num, rho_den, gamma):
    """(b, sigma) of the budget law for rho = rho_num / rho_den, in integers only."""
    common = [s for s, r in zip(sizes, rare) if not r]
    if not rare[t]:
        beta, size = min(sizes), sizes[t]
        return B * (rho_num * size + (rho_den - rho_num) * beta) // (rho_den * size), 0
    if not common:
        return B, 0
    deficit = (sum(common) - (sizes[t] + B) * len(common)) // len(common)  # floor(d - B)
    sigma = max(min(gamma, deficit), 0)
    return B + sigma, sigma


@SETTINGS
@given(
    sizes=st.lists(st.integers(1, 10**4), min_size=1, max_size=4),
    rare=st.lists(st.booleans(), min_size=4, max_size=4),
    t=st.integers(0, 3),
    B=st.integers(0, 10**9),
    rho=st.integers(1, 4).flatmap(lambda m: st.tuples(st.integers(0, 10**m), st.just(10**m))),
    gamma=st.integers(0, 10**13),
)
def test_budget_law_is_exact(sizes, rare, t, B, rho, gamma):
    """b and sigma equal the law's exact floors, up to the configurable budget bound."""
    t, rare = t % len(sizes), rare[: len(sizes)]
    starts = np.cumsum([0, *sizes])
    pool = SlicedLabeledPool(
        [LabeledSlice(np.arange(i, j), np.zeros(j - i, int), np.ones((j - i, 1))) for i, j in zip(starts, starts[1:])],
        rare,
    )
    state = BudgetState(B=B, rho=rho[0] / rho[1], gamma=float(gamma))
    decision, new_state = slice_aware_budget(pool, state, t)
    b, sigma = _reference_budget(sizes, rare, t, B, *rho, gamma)
    assert (decision.b, decision.sigma) == (b, sigma)
    assert new_state.gamma == gamma + B - b


def _reference_loss_and_grad(W, b, X, y, l2: float = 0.0):
    """The row-major softmax that logistic_loss_and_grad replaced, verbatim."""
    n = len(y)
    model = Learner(W=W, b=b)
    P = model.predict_proba(X)
    eps = 1e-12
    loss = -np.log(P[np.arange(n), y] + eps).mean() + 0.5 * l2 * float((W * W).sum())
    R = P.copy()
    R[np.arange(n), y] -= 1.0
    grad_W = R.T @ X / n + l2 * W
    grad_b = R.mean(axis=0)
    return float(loss), grad_W, grad_b


def _reference_fit(X, y, cfg, C):
    """fit_logistic's descent on the reference loss; also counts rejected steps."""
    W, bias = np.zeros((C, X.shape[1])), np.zeros(C)
    step = cfg.step_size / (0.5 * float((X * X).sum(axis=1).mean()) + cfg.l2 + 1.0)
    loss, gW, gb = _reference_loss_and_grad(W, bias, X, y, cfg.l2)
    losses, halvings = [loss], 0
    for _ in range(cfg.epochs):
        stepped = False
        while step >= 1e-12:
            W_try, b_try = W - step * gW, bias - step * gb
            loss_try, gW_try, gb_try = _reference_loss_and_grad(W_try, b_try, X, y, cfg.l2)
            if loss_try <= loss + 1e-12:
                W, bias, loss, gW, gb = W_try, b_try, loss_try, gW_try, gb_try
                stepped = True
                break
            step *= 0.5
            halvings += 1
        if not stepped:
            break
        losses.append(loss)
    return W, bias, np.asarray(losses), halvings


def _learner_problem(seed, n, d, C, n_labels):
    """Features at a random scale and labels from n_labels of the C classes."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 5.0)
    y = rng.choice(rng.permutation(C)[:n_labels], size=n)
    return rng, X, y


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 1500),
    d=st.integers(1, 40),
    C=st.integers(2, 12),
    n_labels=st.integers(1, 12),
    l2=st.sampled_from([0.0, 1e-3, 0.5]),
)
def test_loss_and_grad_equal_the_row_major_softmax(seed, n, d, C, n_labels, l2):
    rng, X, y = _learner_problem(seed, n, d, C, min(n_labels, C))
    W, b = rng.normal(size=(C, d)) * rng.uniform(0.1, 5.0), rng.normal(size=C)
    loss, gW, gb = logistic_loss_and_grad(W, b, X, y, l2)
    ref_loss, ref_gW, ref_gb = _reference_loss_and_grad(W, b, X, y, l2)
    assert loss == ref_loss
    np.testing.assert_array_equal(gW, ref_gW)
    np.testing.assert_array_equal(gb, ref_gb)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    d=st.integers(1, 20),
    C=st.integers(2, 12),
    n_labels=st.integers(1, 12),
    l2=st.sampled_from([0.0, 1e-3, 0.5]),
)
def test_fit_equals_the_row_major_reference_fit(seed, n, d, C, n_labels, l2):
    _, X, y = _learner_problem(seed, n, d, C, min(n_labels, C))
    cfg = LearnerConfig(epochs=15, l2=l2)
    learner = fit_logistic(X, y, cfg, C)
    W, b, losses, _ = _reference_fit(X, y, cfg, C)
    np.testing.assert_array_equal(learner.W, W)
    np.testing.assert_array_equal(learner.b, b)
    np.testing.assert_array_equal(learner.loss_history, losses)


# The hypothesis fit test stops at n 300 and 15 epochs; these reach the desk
# shape (pools of about 1000 rows, dim 16, 6 classes, the default 200 epochs)
# and the pairwise class sum of C >= 8.
@pytest.mark.parametrize(
    "seed, n, d, C, cfg",
    [(11, 1000, 16, 6, LearnerConfig()), (12, 700, 24, 10, LearnerConfig(epochs=120, l2=0.5))],
)
def test_fit_equals_the_reference_fit_at_full_length(seed, n, d, C, cfg):
    _, X, y = _learner_problem(seed, n, d, C, C)
    learner = fit_logistic(X, y, cfg, C)
    W, b, losses, _ = _reference_fit(X, y, cfg, C)
    assert len(losses) == cfg.epochs + 1
    np.testing.assert_array_equal(learner.W, W)
    np.testing.assert_array_equal(learner.b, b)
    np.testing.assert_array_equal(learner.loss_history, losses)


def test_run_writes_the_same_bytes_with_the_reference_learner(tmp_path, monkeypatch):
    """Whole runs, not only single fits, keep their bytes: the criterion-11
    config writes the same files whether every round retrains with
    fit_logistic or with the row-major reference fit."""
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
    run(cfg, tmp_path / "learner")
    fits = []

    def reference_learner(X, y, learner_cfg, n_classes):
        fits.append(len(y))
        W, b, losses, _ = _reference_fit(np.asarray(X, dtype=np.float64), np.asarray(y), learner_cfg, n_classes)
        return Learner(W=W, b=b, loss_history=losses)

    monkeypatch.setattr(simulator, "fit_logistic", reference_learner)
    run(cfg, tmp_path / "reference")
    assert len(fits) == 2 * 2 * 4  # methods x seeds x rounds
    for name in ("metrics.csv", "selections.jsonl", "summary.json"):
        assert (tmp_path / "learner" / name).read_bytes() == (tmp_path / "reference" / name).read_bytes()


def test_fit_equals_the_reference_fit_when_backtracking_fires():
    _, X, y = _learner_problem(7, 200, 16, 6, 6)
    cfg = LearnerConfig(step_size=64.0, epochs=40)
    learner = fit_logistic(X, y, cfg, 6)
    W, b, losses, halvings = _reference_fit(X, y, cfg, 6)
    assert halvings > 0
    np.testing.assert_array_equal(learner.W, W)
    np.testing.assert_array_equal(learner.b, b)
    np.testing.assert_array_equal(learner.loss_history, losses)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(1, 70), st.sampled_from([_BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 3])),
    dim=st.integers(1, 6),
    grid=st.booleans(),
)
def test_transposed_self_kernel_equals_build_kernel(seed, n, dim, grid):
    rng = np.random.default_rng(seed)
    U = _rows(rng, n, dim, grid)
    K = build_kernel(U, U).values
    T = _transposed_self_kernel(U)
    assert T.flags.c_contiguous
    np.testing.assert_array_equal(T.T, K)
    # one array on both sides must not take numpy's SYRK path, whose bits differ
    row, col = row_col_max(U, U)
    np.testing.assert_array_equal(row, K.max(axis=1))
    np.testing.assert_array_equal(col, K.max(axis=0))


def _reference_gains(S, best, c):
    """The gathered-column gains _CoverageEvaluator computed before, verbatim."""
    return np.maximum(S[:, c] - best[:, None], 0.0).sum(axis=0)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 700),
    n=st.integers(1, 2 * _ROWS + 40),
    which=st.sampled_from(["one", "some", "all"]),
    adds=st.integers(0, 3),
    grid=st.booleans(),
)
def test_coverage_gains_equal_gathered_column_sums(seed, n_rows, n, which, adds, grid):
    rng = np.random.default_rng(seed)
    S = rng.integers(0, 4, size=(n_rows, n)) / 3.0 if grid else rng.random((n_rows, n))
    assert S.flags.c_contiguous  # the layout build_kernel returns
    best = rng.random(n_rows) * rng.integers(0, 2, size=n_rows)
    ev = _CoverageEvaluator(S, best)
    for x in rng.integers(0, n, size=adds):
        ev.add(int(x))
        np.maximum(best, S[:, x], out=best)
    np.testing.assert_array_equal(ev.best, best)
    size = {"one": 1, "some": int(rng.integers(1, n + 1)), "all": n}[which]
    c = np.sort(rng.choice(n, size=size, replace=False))
    np.testing.assert_array_equal(ev.gains(c), _reference_gains(S, best, c))


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 40),
    n=st.integers(1, 40),
    b=st.integers(0, 45),
    dups=st.integers(0, 10),
    grid=st.booleans(),
    kind=st.sampled_from(["fl", "flcg"]),
)
def test_lazy_greedy_equals_naive_greedy(seed, n_rows, n, b, dups, grid, kind):
    """Same picks and gains bit for bit, in no more evaluations, ties and duplicates included."""
    rng = np.random.default_rng(seed)
    if kind == "flcg":
        n_rows = n
    S = rng.integers(0, 3, size=(n_rows, n)) / 2.0 if grid else rng.random((n_rows, n))
    for src, dst in rng.integers(0, n, size=(dups, 2)):
        S[:, dst] = S[:, src]  # duplicate columns
    if kind == "flcg":
        private = rng.integers(0, 3, size=(n, 3)) / 2.0 if grid else rng.random((n, 3))
        f = FLCG(S, private * rng.integers(0, 2, size=(n, 1)))
    else:
        f = FacilityLocation(S)
    naive = maximize(f, MaximizerConfig(budget=b, algorithm="naive"))
    lazy = maximize(f, MaximizerConfig(budget=b, algorithm="lazy"))
    assert lazy.chosen == naive.chosen
    assert lazy.gains == naive.gains
    assert lazy.evaluations <= naive.evaluations


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 30), min_size=1, max_size=4),
    n_u=st.integers(1, 40),
    dim=st.integers(2, 6),
    B=st.integers(1, 45),
    grid=st.booleans(),
)
def test_round_selects_what_scg_select_selects(seed, sizes, n_u, dim, B, grid):
    """The round's selection, made from identify's row maxima, equals scg_select's."""
    def stream():
        rng = np.random.default_rng(seed)
        pool, next_id = _pool(rng, sizes, dim, grid)
        buf = UnlabeledBuffer(np.arange(next_id, next_id + n_u), _rows(rng, n_u, dim, grid))
        return pool, buf

    pool, buf = stream()
    ident = smidentify(pool, buf)
    t = ident.slice_id
    full = build_kernel(buf.X, pool.slices[t].X).values
    np.testing.assert_array_equal(ident.row_max, full.max(axis=1))
    maximizer = MaximizerConfig(budget=0)
    cfg = StreamlineConfig(maximizer)
    oracle = lambda ids: np.zeros(len(ids), int)  # noqa: E731
    report, _, _ = streamline_round(pool, buf, BudgetState(B=B, rho=0.5), cfg, oracle)
    pool, buf = stream()
    expected = scg_select(pool, buf, t, report.decision.b, maximizer)
    assert report.selected_ids == expected


def test_a_failing_property_test_reports_its_falsifying_example(tmp_path):
    """Under the repository's warning filters, hypothesis still prints the
    example that makes a property test fail, not an INTERNALERROR."""
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(tmp_path / "test_fails.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example" in result.stdout

"""Property tests for the fused kernel path of identify and select, the round,
and the class-major logistic learner.

_row_col_max, smidentify and scg_select never hold a |U| x |P| kernel; the
first four tests check them against the definitional path built from full
kernels (for identify, the kernel over the buffer's distinct rows, expanded
by copy), the first also at shapes walked in bands on two threads, the
third identify's float32 screen against its error bound; the fifth checks
selection over a buffer's distinct rows, with copies at random positions or
none, by scg_select and by submodular_fl_select (no private
set), against a greedy over the distinct rows built from build_kernel and
FLCG and against the all-rows greedy on the kernels expanded by copy. The
next two check budget conservation over whole rounds and the budget law
against an integer-only reference. The learner tests check
logistic_loss_and_grad, fit_logistic and whole runs bit for bit against the
row-major softmax they replaced. The tests after them check a self
kernel's maxima (walked in bands too), the kernels built on a fresh
thread, the first gains taken from S_uu as it is built and the
greedy traces that start from them, the row norms each slice keeps from ingestion, the
column-contiguous coverage gains, the scalar gain of lazy greedy's
re-evaluations and the round's reuse of identify's row maxima bit for bit,
lazy greedy against naive greedy, and facility location against FLCG with
no private set. The last one checks that a failing
property test still shows its example.
"""

import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import streamline.simulator as simulator
from streamline import (
    FLCG,
    FLQMI,
    FacilityLocation,
    BudgetState,
    LabeledSlice,
    MaximizerConfig,
    SlicedLabeledPool,
    StreamlineConfig,
    UnlabeledBuffer,
    build_kernel,
    maximize,
    scg_select,
    slice_aware_budget,
    smidentify,
    streamline_round,
    submodular_fl_select,
)
from streamline.cli import run
from streamline.config import config_from_dict
from streamline.core import _scored_self_kernel, _screen, _screen_error, smidentify_scores
from streamline.kernels import _kernel, _row_col_max, normalize_rows
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
    shape=st.one_of(
        # one band below the gate; from 1024 x 1024 on two threads, odd n giving the helper one
        # row more, halves of one band or, from 2048 columns (bands of 512 rows), of a band and a few rows
        st.tuples(
            st.one_of(st.integers(1, 6), st.sampled_from([255, 256, 257]), st.integers(1024, 1040)),
            st.one_of(st.sampled_from([511, 512, 513, 1025]), st.integers(1024, 2100)),
        ),
        # a few rows above the gate, in bands of one row: each thread folds the maxima of every column
        st.tuples(st.integers(2, 3), st.just(2**19 + 1)),
    ),
    dim=st.integers(1, 5),
    grid=st.booleans(),
)
def test_row_col_max_equals_full_kernel_maxima(seed, shape, dim, grid):
    n_u, n_p = shape
    rng = np.random.default_rng(seed)
    U, P = _rows(rng, n_u, dim, grid), _rows(rng, n_p, dim, grid)
    K = build_kernel(U, P)
    row, col = _row_col_max(normalize_rows(U), normalize_rows(P))
    np.testing.assert_array_equal(row, K.max(axis=1))
    np.testing.assert_array_equal(col, K.max(axis=0))


def _pool_of(rows):
    """A pool of one common slice per array of rows, ids counting up from 0, and the next id."""
    slices, next_id = [], 0
    for X in rows:
        slices.append(LabeledSlice(np.arange(next_id, next_id + len(X)), np.zeros(len(X), int), X))
        next_id += len(X)
    return SlicedLabeledPool(slices, [False] * len(rows)), next_id


def _pool(rng, sizes, dim, grid):
    return _pool_of([_rows(rng, size, dim, grid) for size in sizes])


def _by_copy(X):
    """X's distinct rows (equal bits, first occurrence first), and each row's index among them."""
    index: dict[bytes, int] = {}
    distinct, copy_of = [], []
    for row in X:
        if row.tobytes() not in index:
            index[row.tobytes()] = len(distinct)
            distinct.append(row)
        copy_of.append(index[row.tobytes()])
    return np.array(distinct), copy_of


def _kernel_by_copy(X, P) -> np.ndarray:
    """build_kernel over X's distinct rows, one kernel row per row of X: the
    buffer x slice kernel identify reads. Without copies it is build_kernel(X, P)."""
    distinct, copy_of = _by_copy(X)
    if len(distinct) == len(X):
        return build_kernel(X, P)
    return build_kernel(distinct, P)[copy_of]


def _self_kernel_by_copy(X) -> np.ndarray:
    """build_kernel over X's distinct rows, expanded by copy on both axes."""
    distinct, copy_of = _by_copy(X)
    return build_kernel(distinct, distinct)[np.ix_(copy_of, copy_of)]


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=4),
    n_u=st.integers(1, 40),
    dim=st.integers(2, 6),
    grid=st.booleans(),
    # a twin of the best slice inserted first: an exact tie, or a tie nearer than the screen's bound
    twin=st.sampled_from([None, "copy", "near"]),
)
def test_smidentify_scores_equal_full_kernel_scores(seed, sizes, n_u, dim, grid, twin):
    """Identify picks the slice the full kernels pick, ties to the smallest
    index. The certified slices, the winner and every slice tied with it
    among them, and the winner's row maxima are those of the kernel over the
    buffer's distinct rows, expanded by copy, bit for bit; that kernel is the
    all-rows one up to rounding. Every other score is the screen's, within
    δ, and no slice more than 4δ below the winner is certified."""
    rng = np.random.default_rng(seed)
    rows = [_rows(rng, size, dim, grid) for size in sizes]
    U = _rows(rng, n_u, dim, grid)
    if twin is not None:
        X = rows[int(np.argmax(smidentify_scores([_kernel_by_copy(U, P) for P in rows])))]
        rows.insert(0, X.copy() if twin == "copy" else X * (1.0 + 1e-9 * rng.normal(size=X.shape)))
    pool, next_id = _pool_of(rows)
    buf = UnlabeledBuffer(np.arange(next_id, next_id + n_u), U)
    kernels = [_kernel_by_copy(buf.X, sl.X) for sl in pool.slices]
    full = smidentify_scores(kernels)
    result = smidentify(pool, buf)
    t, certified = int(np.argmax(full)), result.certified
    assert result.slice_id == t and set(np.flatnonzero(full == full[t])) <= set(certified.tolist())
    np.testing.assert_array_equal(result.scores[certified], full[certified])
    np.testing.assert_array_equal(result.row_max, kernels[t].max(axis=1))
    delta = _screen_error(pool.slices[0].X.shape[1], n_u, int(pool.sizes.max()))
    assert np.all(np.abs(result.scores - full) <= delta)
    assert np.all(full[certified] >= full[t] - 4 * delta)
    all_rows = smidentify_scores([build_kernel(buf.X, sl.X) for sl in pool.slices])
    np.testing.assert_allclose(result.scores, all_rows, rtol=0.0, atol=1e-12 + delta)


def _screen_rows(rng, n, dim, kind):
    """n nonzero rows: normal, on a small grid (rows repeat), with components
    spanning sixty orders of magnitude, or all near one direction, so that
    cosines are near 1 and clipped there."""
    if kind == "grid":
        return _rows(rng, n, dim, grid=True)
    X = rng.normal(size=(n, dim))
    if kind == "magnitudes":
        X *= 10.0 ** rng.uniform(-30, 30, size=(n, dim))
    elif kind == "parallel":
        X = X[:1] * rng.uniform(0.5, 2.0, size=(n, 1)) + 10.0 ** rng.uniform(-12, -3, size=(n, 1)) * X
    X[~X.any(axis=1), 0] = 1.0
    return X


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n_u=st.integers(1, 40),
    n_p=st.integers(1, 40),
    dim=st.integers(1, 512),
    kind=st.sampled_from(["normal", "grid", "magnitudes", "parallel"]),
)
def test_screened_scores_are_within_the_bound_of_the_exact_scores(seed, n_u, n_p, dim, kind):
    """|screen - exact| <= δ for one slice, the exact score being the full
    kernel's over the buffer's distinct rows, expanded by copy."""
    rng = np.random.default_rng(seed)
    U, P = np.split(_screen_rows(rng, n_u + n_p, dim, kind), [n_u])
    pool, next_id = _pool_of([P])
    buf = UnlabeledBuffer(np.arange(next_id, next_id + n_u), U)
    R, _, copy_of = buf._distinct_unit_rows()
    [screen] = _screen(pool, R, copy_of)
    [exact] = smidentify_scores([_kernel_by_copy(U, P)])
    assert abs(screen - exact) <= _screen_error(dim, n_u, n_p)


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


def _greedy_over_distinct_rows(X, private_best, b) -> list[int]:
    """The selection over X's distinct rows, from build_kernel and FLCG alone:
    naive greedy over the distinct rows, each weighted by its copy count and
    starting from its first occurrence's private best, while gains are
    positive; then the remaining rows of X in ascending order."""
    distinct, copy_of = _by_copy(X)
    first = [copy_of.index(k) for k in range(len(distinct))]
    f = FLCG(build_kernel(distinct, distinct), private_best[first, None], np.bincount(copy_of).astype(float))
    greedy = maximize(f, MaximizerConfig(budget=min(b, len(distinct)), algorithm="naive"))
    picked = [first[i] for i, g in zip(greedy.chosen, greedy.gains) if g > 0.0]
    return picked + [i for i in range(len(X)) if i not in picked][: b - len(picked)]


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n_distinct=st.integers(1, 15),
    n_copies=st.integers(0, 30),
    n_p=st.integers(0, 10),
    dim=st.integers(2, 5),
    cover=st.floats(0.0, 1.0),
    b_share=st.floats(0.0, 1.0),
    grid=st.booleans(),
    private=st.booleans(),
)
# rows 0 and 5 tie exactly in real arithmetic (every other row's term is
# clipped to 0): the two sums round the tie apart in opposite ways, and the
# grid puts them back together
@example(seed=101533, n_distinct=4, n_copies=3, n_p=0, dim=5, cover=0.0, b_share=1.0, grid=False, private=True)
def test_scg_select_over_distinct_rows_equals_all_rows_greedy(
    seed, n_distinct, n_copies, n_p, dim, cover, b_share, grid, private
):
    """A buffer with copies at random positions, or with none, is selected
    over its distinct rows, by scg_select against a slice (private) or by
    submodular_fl_select with no private set: unique picks, lazy equal to
    naive, exactly the picks of the greedy over the distinct rows with the
    same weights, and the all-rows greedy's picks on the copy-expanded
    kernels, whose sums are taken in another order. The slice copies some
    buffer rows, so their gains can reach 0 and the fill runs; without it
    the fill runs once every distinct row is picked."""
    rng = np.random.default_rng(seed)
    D = _rows(rng, n_distinct, dim, grid)
    X = D[rng.permutation(np.concatenate([np.arange(n_distinct), rng.integers(0, n_distinct, n_copies)]))]
    P = np.vstack([X[rng.random(len(X)) < cover], _rows(rng, n_p, dim, grid)])
    if len(P) == 0:
        P = _rows(rng, 1, dim, grid)
    buf = UnlabeledBuffer(np.arange(len(P), len(P) + len(X)), X)
    b = int(round(b_share * len(X)))
    if private:
        pool = SlicedLabeledPool([LabeledSlice(np.arange(len(P)), np.zeros(len(P), int), P)], [False])
        private_best = _kernel_by_copy(X, P).max(axis=1)
        f, all_rows = (FLCG(K, private_best[:, None]) for K in (_self_kernel_by_copy(X), build_kernel(X, X)))
        select = lambda cfg: scg_select(pool, buf, 0, b, cfg)  # noqa: E731
    else:
        private_best = np.zeros(len(X))
        f, all_rows = (FacilityLocation(K) for K in (_self_kernel_by_copy(X), build_kernel(X, X)))
        select = lambda cfg: submodular_fl_select(buf, b, cfg)  # noqa: E731
    expected = maximize(f, MaximizerConfig(budget=b, algorithm="naive")).chosen
    picks = {alg: select(MaximizerConfig(budget=0, algorithm=alg)) for alg in ("naive", "lazy")}
    assert picks["lazy"] == picks["naive"]
    rows = [i - len(P) for i in picks["lazy"]]
    assert len(set(rows)) == len(rows) == b and all(0 <= i < len(X) for i in rows)
    assert rows == _greedy_over_distinct_rows(X, private_best, b)
    assert rows == expected
    stochastic = MaximizerConfig(budget=b, algorithm="stochastic", epsilon=0.3, seed=seed)
    assert select(stochastic) == [int(buf.ids[i]) for i in maximize(all_rows, stochastic).chosen]


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
# shape (pools of about 1000 rows, dim 16, 6 classes, the default 200 epochs),
# the pairwise class sum of C >= 8, and rows squared for their norms in three
# chunks, the last of one row.
@pytest.mark.parametrize(
    "seed, n, d, C, cfg",
    [
        (11, 1000, 16, 6, LearnerConfig()),
        (12, 700, 24, 10, LearnerConfig(epochs=120, l2=0.5)),
        (13, 2 * simulator._NORM_ROWS + 1, 64, 4, LearnerConfig(epochs=10)),
    ],
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
    # one band below the gate; from 1024 x 1024 on two threads, odd n giving the helper one row
    # more; from 1449 rows (2**20 // 1449 = 723) halves of several bands, the last partial
    n=st.one_of(st.integers(1, 70), st.integers(1024, 1100), st.sampled_from([1449, 1501, 2048, 2049])),
    dim=st.integers(1, 6),
    grid=st.booleans(),
)
def test_self_row_col_max_equals_build_kernel(seed, n, dim, grid):
    rng = np.random.default_rng(seed)
    U = _rows(rng, n, dim, grid)
    K = build_kernel(U, U)
    row, col = _row_col_max(normalize_rows(U), normalize_rows(U))
    np.testing.assert_array_equal(row, K.max(axis=1))
    np.testing.assert_array_equal(col, K.max(axis=0))


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    # 1031 or 2048 rows against 2048 to 3073 columns are above the gate: each half is whole
    # bands of 512 to 341 rows, or bands and a few rows, odd n too
    n_u=st.one_of(st.integers(1, 40), st.sampled_from([257, 1031, 2048])),
    n_p=st.one_of(st.integers(1, 70), st.sampled_from([513, 2048, 2051, 3073])),
    dim=st.integers(1, 6),
    grid=st.booleans(),
)
def test_workspace_kernels_equal_build_kernel(seed, n_u, n_p, dim, grid):
    """The row and column maxima a fresh worker thread builds have
    build_kernel's bits, and the self kernel it builds the main thread's."""
    rng = np.random.default_rng(seed)
    U, P = _rows(rng, n_u, dim, grid), _rows(rng, n_p, dim, grid)
    K_up, R = build_kernel(U, P), normalize_rows(U)
    K_uu = _kernel(R, R)

    def on_a_new_thread():
        row, col = _row_col_max(normalize_rows(U), normalize_rows(P))
        return row, col, _kernel(R, R)

    with ThreadPoolExecutor(max_workers=1) as executor:
        row, col, S = executor.submit(on_a_new_thread).result(timeout=60)
    np.testing.assert_array_equal(row, K_up.max(axis=1))
    np.testing.assert_array_equal(col, K_up.max(axis=0))
    np.testing.assert_array_equal(S, K_uu)
    np.testing.assert_allclose(S, build_kernel(U, U), rtol=0.0, atol=1e-15)


# S_uu shapes about the panel height (64 rows), about the gate (1024 x 1024), above which two threads
# split its rows, odd n, and 1501 rows, whose halves are a band of 698 rows and one of 52
_SELF_SIZES = st.sampled_from([63, 64, 65, 1023, 1024, 1025, 1031, 1100, 1501])


def _scored_inputs(seed, n, dim, weighted, grid):
    """Unit rows, private bests (some 0) and copy weights (or None) for one S_uu."""
    rng = np.random.default_rng(seed)
    R = normalize_rows(_rows(rng, n, dim, grid))
    best = (rng.integers(0, 4, size=n) / 3.0 if grid else rng.random(n)) * rng.integers(0, 2, size=n)
    return R, best, rng.integers(1, 5, size=n).astype(float) if weighted else None


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=_SELF_SIZES, dim=st.integers(1, 6), weighted=st.booleans(), grid=st.booleans())
def test_the_band_visits_first_gains_equal_the_evaluators(seed, n, dim, weighted, grid):
    """S_uu built band by band has _kernel's bits, and the gains taken from
    its bands have those of FLCG's evaluator on it, before any add."""
    R, best, weights = _scored_inputs(seed, n, dim, weighted, grid)
    S, first = _scored_self_kernel(R, best, weights)
    np.testing.assert_array_equal(S, _kernel(R, R))
    gains = FLCG(S.T, best[:, None], weights).evaluator().gains(np.arange(n))
    np.testing.assert_array_equal(first.view(np.int64), gains.view(np.int64))


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(1, 9), _SELF_SIZES),
    dim=st.integers(1, 6),
    weighted=st.booleans(),
    grid=st.booleans(),
    b=st.integers(0, 12),
    algorithm=st.sampled_from(["lazy", "naive", "stochastic"]),
)
def test_greedy_from_the_band_visits_gains_equals_the_unfused_greedy(seed, n, dim, weighted, grid, b, algorithm):
    """Lazy, naive and stochastic greedy take their first gains from the band
    visit and every later one from the evaluator: the same trace as on the
    same kernel with every gain from the evaluator."""
    R, best, weights = _scored_inputs(seed, n, dim, weighted, grid)
    S, first = _scored_self_kernel(R, best, weights)
    cfg = MaximizerConfig(budget=b, algorithm=algorithm, epsilon=0.2 if algorithm == "stochastic" else None, seed=seed)
    unfused = maximize(FLCG(S.T, best[:, None], weights), cfg)
    assert maximize(FLCG._built(S.T, best, weights, first), cfg) == unfused


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 30), min_size=1, max_size=3),
    dim=st.integers(1, 40),
    grid=st.booleans(),
    steps=st.lists(st.sampled_from(["add", "add_f", "add_selected", "reassign", "bad"]), max_size=8),
)
def test_unit_rows_equal_normalize_rows_through_appends(seed, sizes, dim, grid, steps):
    """Each slice's kept norms follow add, add_selected and a reassigned X
    bit for bit, and identification equals a freshly built pool's."""
    rng = np.random.default_rng(seed)
    pool, next_id = _pool(rng, sizes, dim, grid)
    for step in steps:
        t, n = int(rng.integers(pool.num_slices)), int(rng.integers(1, 6))
        ids, X = np.arange(next_id, next_id + n), _rows(rng, n, dim, grid)
        next_id += n
        sl = pool.slices[t]
        if step in ("add", "add_f"):  # an F-ordered X has the same row norms once ingested
            pool.add(t, ids, np.zeros(n, int), X if step == "add" else np.asfortranarray(X))
        elif step == "add_selected":
            buf = UnlabeledBuffer(ids, X)
            picked = rng.choice(ids, size=int(rng.integers(1, n + 1)), replace=False)
            pool.add_selected(t, buf, picked, lambda p: np.zeros(len(p), int))
        elif step == "reassign":  # as perfbench's replay grows a slice, labels left behind
            sl.ids, sl.X = np.concatenate([sl.ids, ids]), np.vstack([sl.X, X])
        else:
            k = int(rng.integers(n))
            X[k] = [np.nan, 0.0, 1e200, 1e-200][int(rng.integers(4))]
            before = [(s.ids.copy(), s.labels.copy(), s.X, s.unit_rows()) for s in pool.slices]
            with pytest.raises(ValueError, match=f"labeled embedding row {k} is "):
                pool.add(t, ids, np.zeros(n, int), X)
            for s, (ids0, labels0, X0, unit0) in zip(pool.slices, before):
                assert s.X is X0
                np.testing.assert_array_equal(s.ids, ids0)
                np.testing.assert_array_equal(s.labels, labels0)
                np.testing.assert_array_equal(s.unit_rows(), unit0)
            pool.check_new(ids)  # the failed add labeled nothing
    for sl in pool.slices:
        np.testing.assert_array_equal(sl.unit_rows(), normalize_rows(sl.X))
    fresh = SlicedLabeledPool(
        [LabeledSlice(sl.ids, np.zeros(len(sl.ids), int), sl.X.copy()) for sl in pool.slices],
        [False] * pool.num_slices,
    )
    n_u = int(rng.integers(1, 30))
    buf = UnlabeledBuffer(np.arange(next_id, next_id + n_u), _rows(rng, n_u, dim, grid))
    ours, theirs = smidentify(pool, buf), smidentify(fresh, buf)
    np.testing.assert_array_equal(ours.scores, theirs.scores)
    np.testing.assert_array_equal(ours.row_max, theirs.row_max)


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
    n_rows=st.integers(1, 300),
    n=st.integers(1, 2 * _ROWS + 10),
    adds=st.integers(0, 3),
    grid=st.booleans(),
    kind=st.sampled_from(["fl", "flcg", "flcg_weighted", "flqmi"]),
)
def test_scalar_gain_equals_one_candidate_gains(seed, n_rows, n, adds, grid, kind):
    """gain(x), lazy greedy's re-evaluation, is gains([x])[0] bit for bit, as a float."""
    rng = np.random.default_rng(seed)
    draw = lambda *shape: rng.integers(0, 4, size=shape) / 3.0 if grid else rng.random(shape)  # noqa: E731
    if kind == "fl":
        f = FacilityLocation(draw(n_rows, n))
    elif kind.startswith("flcg"):
        weights = rng.integers(1, 5, size=n).astype(float) if kind == "flcg_weighted" else None
        f = FLCG(draw(n, n), draw(n, 3) * rng.integers(0, 2, size=(n, 1)), weights)
    else:
        f = FLQMI(draw(n, n_rows))
    ev = f.evaluator()
    for x in rng.integers(0, n, size=adds):
        ev.add(int(x))
    for x in range(n):
        g = ev.gain(x)
        assert type(g) is float
        assert g == ev.gains(np.array([x]))[0]


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
    n_rows=st.integers(1, 40),
    n=st.integers(1, 40),
    square=st.booleans(),
    b=st.integers(0, 45),
    grid=st.booleans(),
)
def test_facility_location_is_flcg_with_no_private_set(seed, n_rows, n, square, b, grid):
    """On a nonnegative kernel, FacilityLocation(S) and FLCG(S) have equal
    value bits and equal naive and lazy traces. Only facility location takes
    a rectangular S, and its value there is still the plain sum of row maxima."""
    rng = np.random.default_rng(seed)
    if square:
        n_rows = n
    S = rng.integers(0, 3, size=(n_rows, n)) / 2.0 if grid else rng.random((n_rows, n))
    fl = FacilityLocation(S)
    subsets = [rng.choice(n, size=rng.integers(0, n + 1), replace=False) for _ in range(5)]
    for A in subsets:
        assert fl.value(A).hex() == float(S[:, A].max(axis=1).sum() if len(A) else 0.0).hex()
    traces = {alg: maximize(fl, MaximizerConfig(budget=b, algorithm=alg)) for alg in ("naive", "lazy")}
    if not square:
        return
    cg = FLCG(S)
    for A in subsets:
        assert cg.value(A).hex() == fl.value(A).hex()
    for alg, trace in traces.items():
        assert maximize(cg, MaximizerConfig(budget=b, algorithm=alg)) == trace


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
    full = _kernel_by_copy(buf.X, pool.slices[t].X)
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

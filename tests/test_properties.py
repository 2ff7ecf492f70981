"""Property tests for the fused kernel path of identify and select, and the round.

row_col_max, smidentify and scg_select never hold a |U| x |P| kernel; the
first three tests check them against the definitional path built from full
kernels. The last checks budget conservation over whole rounds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from streamline import (
    FLCG,
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
    smidentify,
    smidentify_scores,
    streamline_round,
)
from streamline.kernels import _BLOCK

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
    metric=st.sampled_from(["cosine", "rbf"]),
    bandwidth=st.floats(0.1, 10.0),
    grid=st.booleans(),
)
def test_row_col_max_equals_full_kernel_maxima(seed, n_u, dim, n_p, metric, bandwidth, grid):
    rng = np.random.default_rng(seed)
    U, P = _rows(rng, n_u, dim, grid), _rows(rng, n_p, dim, grid)
    K = build_kernel(U, P, metric=metric, bandwidth=bandwidth).values
    row, col = row_col_max(U, P, metric, bandwidth)
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

import numpy as np
import pytest

from streamline.core import (
    BudgetDecision,
    BudgetState,
    EmptySliceError,
    LabeledSlice,
    SlicedLabeledPool,
    StreamlineConfig,
    UnlabeledBuffer,
    scg_select,
    slice_aware_budget,
    smidentify,
    smidentify_scores,
    streamline_round,
)
from streamline.maximize import MaximizerConfig, naive_greedy
from streamline.setfunctions import FacilityLocation


def make_pool(sizes, rare_flags, dim=4, seed=0, spread=0.0):
    """Pool with the requested slice sizes; embeddings near distinct axes."""
    rng = np.random.default_rng(seed)
    slices = []
    next_id = 0
    for s, size in enumerate(sizes):
        X = np.zeros((size, dim))
        X[:, s % dim] = 1.0
        X += spread * rng.normal(size=(size, dim))
        ids = np.arange(next_id, next_id + size)
        next_id += size
        slices.append(LabeledSlice(ids, np.zeros(size, dtype=int), X))
    return SlicedLabeledPool(slices, rare_flags), next_id


def make_buffer(size, axis, next_id, dim=4, seed=1, spread=0.05, true_slice=-1):
    rng = np.random.default_rng(seed)
    X = np.zeros((size, dim))
    X[:, axis] = 1.0
    X += spread * rng.normal(size=(size, dim))
    return UnlabeledBuffer(
        ids=np.arange(next_id, next_id + size), X=X, true_slice=true_slice,
        true_labels=np.zeros(size, dtype=int),
    )


# ---------------------------------------------------------------- identification


def test_identification_on_separated_clusters():
    correct = 0
    trials = 100
    for trial in range(trials):
        rng = np.random.default_rng(1000 + trial)
        dim, T = 8, 4
        centroids = 6.0 * np.eye(dim)[:T]  # pairwise distance 6*sqrt(2), noise std 1
        slices = []
        next_id = 0
        for s in range(T):
            X = centroids[s] + rng.normal(size=(12, dim))
            slices.append(LabeledSlice(np.arange(next_id, next_id + 12), np.zeros(12, int), X))
            next_id += 12
        pool = SlicedLabeledPool(slices, [False] * T)
        target = int(rng.integers(T))
        buf = UnlabeledBuffer(
            ids=np.arange(next_id, next_id + 15),
            X=centroids[target] + rng.normal(size=(15, dim)),
            true_slice=target,
        )
        if smidentify(pool, buf).slice_id == target:
            correct += 1
    assert correct >= 95


def test_identification_single_slice():
    pool, next_id = make_pool([10], [False])
    buf = make_buffer(5, axis=2, next_id=next_id)
    assert smidentify(pool, buf).slice_id == 0


def test_identification_tie_breaks_to_first_slice():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(8, 4))
    slices = [
        LabeledSlice(np.arange(0, 8), np.zeros(8, int), X),
        LabeledSlice(np.arange(8, 16), np.zeros(8, int), X.copy()),  # identical exemplars
    ]
    pool = SlicedLabeledPool(slices, [False, False])
    buf = make_buffer(6, axis=1, next_id=100)
    result = smidentify(pool, buf)
    assert result.scores[0] == result.scores[1]
    assert result.slice_id == 0


def test_identification_empty_slice_error_names_slice():
    pool, next_id = make_pool([5, 5], [False, False])
    pool.slices[1] = LabeledSlice(np.empty(0, int), np.empty(0, int), np.empty((0, 4)))
    buf = make_buffer(4, axis=0, next_id=next_id)
    with pytest.raises(EmptySliceError, match="slice 1"):
        smidentify(pool, buf)


def test_identification_scores_scale_invariant():
    rng = np.random.default_rng(3)
    for trial in range(10):
        kernels = [rng.random((12, rng.integers(3, 20))) for _ in range(4)]
        base = int(np.argmax(smidentify_scores(kernels)))
        for c in (0.25, 3.0, 17.0):
            scaled = int(np.argmax(smidentify_scores([c * K for K in kernels])))
            assert scaled == base


def test_identification_returns_full_score_vector():
    pool, next_id = make_pool([6, 6, 6], [False, False, False])
    buf = make_buffer(5, axis=1, next_id=next_id)
    result = smidentify(pool, buf)
    assert result.scores.shape == (3,)
    assert result.slice_id == 1  # buffer drawn around axis 1


# --------------------------------------------------------------------- budgeting


def test_budget_common_at_minimum_size_gets_full_budget():
    pool, _ = make_pool([30, 80], [False, False])
    state = BudgetState(B=20, rho=0.5)
    decision, new_state = slice_aware_budget(pool, state, 0)  # slice 0 is the smallest
    assert decision.branch == "common"
    assert decision.b == 20
    assert new_state.gamma == 0.0


def test_budget_rare_with_no_savings():
    pool, _ = make_pool([80, 10], [False, True])
    state = BudgetState(B=20, rho=0.5)
    decision, new_state = slice_aware_budget(pool, state, 1)
    assert decision.branch == "rare"
    assert decision.sigma == 0.0
    assert decision.b == 20
    assert new_state.gamma == 0.0


def test_budget_common_poverty_scale_example():
    # B=500, rho=0.825, beta=500, |P_t|=2500: b = floor(412.5 + 87.5*0.2) = 430
    pool, _ = make_pool([2500, 500, 600], [False, False, True], dim=4)
    state = BudgetState(B=500, rho=0.825)
    decision, new_state = slice_aware_budget(pool, state, 0)
    assert decision.beta == 500
    assert decision.b == 430
    assert new_state.gamma == 70.0


def test_budget_three_round_hand_trace():
    # rounds: common (slice 0), common (slice 0), rare (slice 1); B=20, rho=0.5
    pool, _ = make_pool([80, 10], [False, True])
    state = BudgetState(B=20, rho=0.5)

    d1, state = slice_aware_budget(pool, state, 0)
    assert (d1.b, state.gamma) == (11, 9.0)  # floor(10 + 10*10/80) = 11
    pool.add(0, np.arange(1000, 1000 + 11), np.zeros(11, int), np.ones((11, 4)))

    d2, state = slice_aware_budget(pool, state, 0)
    assert (d2.b, state.gamma) == (11, 18.0)  # floor(10 + 10*10/91) = 11
    pool.add(0, np.arange(2000, 2000 + 11), np.zeros(11, int), np.ones((11, 4)))

    d3, state = slice_aware_budget(pool, state, 1)
    assert d3.branch == "rare"
    assert d3.d == pytest.approx(102.0 - 10.0)
    assert d3.sigma == 18.0  # min(gamma=18, d-B=72)
    assert (d3.b, state.gamma) == (38, 0.0)


def test_budget_all_rare_pool_degenerates_to_base_budget():
    pool, _ = make_pool([5, 7], [True, True])
    state = BudgetState(B=10, rho=0.5, gamma=30.0)
    decision, new_state = slice_aware_budget(pool, state, 0)
    assert decision.branch == "rare"
    assert decision.sigma == 0.0  # no common slices to average against
    assert decision.b == 10
    assert new_state.gamma == 30.0


def test_budget_fuzz_conservation():
    rng = np.random.default_rng(4)
    for schedule_idx in range(300):
        T = int(rng.integers(2, 5))
        sizes = [int(rng.integers(1, 60)) for _ in range(T)]
        rare_flags = [bool(rng.random() < 0.3) for _ in range(T)]
        pool, next_id = make_pool(sizes, rare_flags)
        B = int(rng.integers(1, 40))
        rho = float(rng.random())
        state = BudgetState(B=B, rho=rho)
        rounds = int(rng.integers(1, 7))
        total_granted = 0
        for _ in range(rounds):
            t = int(rng.integers(T))
            gamma_before = state.gamma
            decision, state = slice_aware_budget(pool, state, t)
            assert state.gamma >= 0.0
            assert decision.b >= 0
            if decision.branch == "rare":
                assert decision.sigma <= gamma_before + 1e-12
                assert decision.sigma <= max(decision.d - B, 0.0) + 1e-12
            else:
                assert np.floor(rho * B) <= decision.b <= B
            total_granted += decision.b
            if decision.b:
                pool.add(
                    t,
                    np.arange(next_id, next_id + decision.b),
                    np.zeros(decision.b, int),
                    np.ones((decision.b, 4)),
                )
                next_id += decision.b
        assert total_granted <= rounds * B


def test_budget_state_validation():
    with pytest.raises(ValueError):
        BudgetState(B=-1, rho=0.5)
    with pytest.raises(ValueError):
        BudgetState(B=10, rho=1.5)
    with pytest.raises(ValueError):
        BudgetState(B=10, rho=0.5, gamma=-0.1)


# --------------------------------------------------------------------- selection


def _maximizer(b=0):
    return MaximizerConfig(budget=b, algorithm="lazy")


def test_scg_with_unrelated_slice_matches_plain_fl():
    rng = np.random.default_rng(5)
    dim = 6
    # buffer occupies axes 0-2, the slice axes 3-5: all cross-cosines clamp to 0
    buf_X = np.abs(rng.normal(size=(10, 3)))
    buf_full = np.hstack([buf_X, np.zeros((10, 3))])
    slice_X = np.hstack([np.zeros((8, 3)), np.abs(rng.normal(size=(8, 3)))])
    pool = SlicedLabeledPool(
        [LabeledSlice(np.arange(8), np.zeros(8, int), slice_X)], [False]
    )
    buf = UnlabeledBuffer(ids=np.arange(100, 110), X=buf_full, true_slice=0)
    picked = scg_select(pool, buf, 0, 4, _maximizer())

    from streamline.kernels import build_kernel

    S = build_kernel(buf_full, buf_full)
    fl_trace = naive_greedy(FacilityLocation(S), MaximizerConfig(budget=4, algorithm="naive"))
    assert picked == [int(buf.ids[i]) for i in fl_trace.chosen]


def test_scg_skips_duplicates_while_novel_items_remain():
    rng = np.random.default_rng(6)
    uniq = np.abs(rng.normal(size=(2, 5))) + 0.1
    X = np.vstack([uniq, uniq])  # items 0,1 duplicated as 2,3
    pool, _ = make_pool([4], [False], dim=5)
    buf = UnlabeledBuffer(ids=np.array([50, 51, 52, 53]), X=X, true_slice=0)
    picked = scg_select(pool, buf, 0, 2, _maximizer())
    picked_rows = [list(buf.ids).index(p) for p in picked]
    assert {r % 2 for r in picked_rows} == {0, 1}  # one from each duplicate pair


def test_scg_with_identify_row_maxima_picks_the_same_items():
    rng = np.random.default_rng(7)
    pool, _ = make_pool([6, 9], [False, False], dim=5, seed=3)
    buf = UnlabeledBuffer(
        ids=np.arange(100, 112), X=np.abs(rng.normal(size=(12, 5))) + 0.1, true_slice=0
    )
    ident = smidentify(pool, buf)
    t = ident.slice_id
    given = scg_select(pool, buf, t, 5, _maximizer(), row_max=ident.row_max)
    assert given == scg_select(pool, buf, t, 5, _maximizer())
    with pytest.raises(ValueError, match="ground size"):
        scg_select(pool, buf, t, 5, _maximizer(), row_max=ident.row_max[:-1])


def test_scg_budget_edges():
    pool, next_id = make_pool([5], [False])
    buf = make_buffer(6, axis=0, next_id=next_id)
    assert scg_select(pool, buf, 0, 0, _maximizer()) == []
    everything = scg_select(pool, buf, 0, 99, _maximizer())  # clamped, not an error
    assert sorted(everything) == [int(i) for i in buf.ids]
    exact = scg_select(pool, buf, 0, len(buf), _maximizer())
    assert sorted(exact) == [int(i) for i in buf.ids]


# -------------------------------------------------------------------- round loop


def _oracle(buf):
    table = {int(i): int(l) for i, l in zip(buf.ids, buf.true_labels)}
    return lambda ids: np.array([table[int(i)] for i in ids], dtype=np.int64)


def test_round_single_slice_pool():
    pool, next_id = make_pool([12], [False], spread=0.05)
    buf = make_buffer(10, axis=0, next_id=next_id, true_slice=0)
    state = BudgetState(B=6, rho=0.5)
    cfg = StreamlineConfig(maximizer=_maximizer())
    report, pool, state = streamline_round(pool, buf, state, cfg, _oracle(buf))
    assert report.identified_slice == 0
    assert report.decision.branch == "common"
    assert pool.sizes[0] == 12 + len(report.selected_ids)
    assert len(report.selected_ids) == report.decision.b


def test_round_scripted_three_round_stream():
    # same arithmetic as the hand trace, driven through the full round loop
    pool, next_id = make_pool([80, 10], [False, True], spread=0.02)
    state = BudgetState(B=20, rho=0.5)
    cfg = StreamlineConfig(maximizer=_maximizer())
    script = [0, 0, 1]
    expected = [(11, 9.0), (11, 18.0), (38, 0.0)]
    for axis, (want_b, want_gamma) in zip(script, expected):
        buf = make_buffer(60, axis=axis, next_id=next_id, seed=axis + 7, true_slice=axis)
        next_id += 60
        report, pool, state = streamline_round(pool, buf, state, cfg, _oracle(buf))
        assert report.identified_slice == axis
        assert len(report.selected_ids) == want_b
        assert state.gamma == want_gamma
    assert pool.sizes[1] == 10 + 38


def test_round_buffer_cap_credits_gamma():
    pool, next_id = make_pool([80, 10], [False, True], spread=0.02)
    state = BudgetState(B=20, rho=0.5, gamma=50.0)
    cfg = StreamlineConfig(maximizer=_maximizer())
    buf = make_buffer(25, axis=1, next_id=next_id, true_slice=1)  # rare round wants 20+50
    report, pool, state = streamline_round(pool, buf, state, cfg, _oracle(buf))
    assert report.decision.branch == "rare"
    assert report.decision.b == 70
    assert len(report.selected_ids) == 25  # capped at |U|
    assert state.gamma == 45.0  # 0 left after sigma, plus 45 credited back from the cap


def test_round_misidentification_still_augments_identified_slice():
    pool, next_id = make_pool([10, 10], [False, False], spread=0.02)
    buf = make_buffer(8, axis=0, next_id=next_id, true_slice=1)  # drawn near slice 0
    state = BudgetState(B=4, rho=0.5)
    cfg = StreamlineConfig(maximizer=_maximizer())
    report, pool, state = streamline_round(pool, buf, state, cfg, _oracle(buf))
    assert report.identified_slice == 0
    assert report.identified_slice != buf.true_slice
    assert pool.sizes[0] == 10 + len(report.selected_ids)  # wrong slice still grows
    assert pool.sizes[1] == 10


def test_round_respects_selector_override():
    pool, next_id = make_pool([10], [False], spread=0.02)
    buf = make_buffer(9, axis=0, next_id=next_id, true_slice=0)
    state = BudgetState(B=3, rho=0.5)
    forced = [int(buf.ids[2]), int(buf.ids[4]), int(buf.ids[6])]
    cfg = StreamlineConfig(maximizer=_maximizer(), selector_fn=lambda p, u, t, b: forced)
    report, pool, state = streamline_round(pool, buf, state, cfg, _oracle(buf))
    assert report.selected_ids == forced


def test_pool_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        SlicedLabeledPool(
            [
                LabeledSlice(np.array([0, 1]), np.zeros(2, int), np.ones((2, 3))),
                LabeledSlice(np.array([1, 2]), np.zeros(2, int), np.ones((2, 3))),
            ],
            [False, False],
        )
    pool, _ = make_pool([4], [False])
    with pytest.raises(ValueError):
        pool.add(0, np.array([0]), np.array([0]), np.ones((1, 4)))


def test_pool_rejects_mixed_embedding_dims():
    with pytest.raises(ValueError, match="slice 1: embedding dim 3 differs from the pool's 4"):
        SlicedLabeledPool(
            [
                LabeledSlice(np.array([0, 1]), np.zeros(2, int), np.ones((2, 4))),
                LabeledSlice(np.array([2, 3]), np.zeros(2, int), np.ones((2, 3))),
            ],
            [False, False],
        )


def test_budget_conservation_over_streamed_rounds():
    pool, next_id = make_pool([40, 40, 8], [False, False, True], spread=0.02)
    state = BudgetState(B=15, rho=0.5)
    cfg = StreamlineConfig(maximizer=_maximizer())
    total = 0
    rounds = [0, 1, 2, 0, 1, 2, 0, 1]
    for r, axis in enumerate(rounds):
        buf = make_buffer(30, axis=axis, next_id=next_id, seed=50 + r, true_slice=axis)
        next_id += 30
        report, pool, state = streamline_round(pool, buf, state, cfg, _oracle(buf))
        assert state.gamma >= 0.0
        total += len(report.selected_ids)
    assert total <= len(rounds) * 15
    assert total == pool.total_size - (40 + 40 + 8)


# ------------------------------------------------------- ingestion and selection


@pytest.mark.parametrize(
    "bad_row, why",
    [
        ([np.nan, 1, 0, 0], "not finite"),
        ([0, -np.inf, 0, 1], "not finite"),
        ([0, 0, 0, 0], "all zero"),
        ([1e200, 1e200, 0, 0], "out of float64's range when squared"),  # the norm overflows
        ([1e-200, 1e-200, 0, 0], "out of float64's range when squared"),  # the norm underflows to 0
    ],
)
def test_ingestion_rejects_bad_embedding_rows(bad_row, why):
    X = np.array([[1.0, 2.0, 3.0, 4.0], bad_row])
    with pytest.raises(ValueError, match=f"buffer embedding row 1 is {why}"):
        UnlabeledBuffer(ids=[0, 1], X=X)
    with pytest.raises(ValueError, match=f"labeled embedding row 1 is {why}"):
        LabeledSlice([0, 1], [0, 0], X)
    pool, _ = make_pool([3], [False])
    with pytest.raises(ValueError, match=f"row 1 is {why}"):
        pool.add(0, [100, 101], [0, 0], X)
    assert pool.sizes[0] == 3
    pool.add(0, [100], [0], X[:1])  # the failed add left id 100 unlabeled


def test_pool_add_changes_nothing_when_it_fails():
    pool, _ = make_pool([3], [False])
    with pytest.raises(ValueError, match="slice 0: embedding dim 2 differs from the pool's 4"):
        pool.add(0, [100, 101], [0, 0], np.ones((2, 2)))
    with pytest.raises(ValueError, match="item id 102 is repeated"):
        pool.add(0, [102, 102], [0, 0], np.ones((2, 4)))
    pool.add(0, [100, 101, 102], [0, 0, 0], np.ones((3, 4)))
    assert pool.sizes[0] == 6


def test_pool_check_new_names_the_first_bad_id():
    pool, _ = make_pool([3], [False])
    pool.check_new([100, 101])  # new ids pass and are not recorded
    pool.check_new([100])
    with pytest.raises(ValueError, match="item id 2 is already labeled"):
        pool.check_new([100, 2, 101, 101])
    with pytest.raises(ValueError, match="item id 101 is repeated"):
        pool.check_new([100, 101, 101, 2])


def test_pool_add_selected_appends_buffer_rows_after_its_checks():
    pool, next_id = make_pool([3], [False])
    buf = make_buffer(5, axis=1, next_id=next_id, true_slice=0)
    buf.ids[2] = 1  # one buffer id that the pool has already labeled
    asked = []
    oracle = lambda ids: asked.append(ids.tolist()) or np.full(len(ids), 2)  # noqa: E731
    for bad, message in (([int(buf.ids[0]), 99], "selected id 99 is not in the buffer"),
                         ([1], "item id 1 is already labeled")):
        with pytest.raises(ValueError, match=message):
            pool.add_selected(0, buf, bad, oracle)
    pool.add_selected(0, buf, [], oracle)
    assert asked == [] and pool.sizes[0] == 3
    picked = [int(buf.ids[4]), int(buf.ids[1])]
    pool.add_selected(0, buf, picked, oracle)
    assert asked == [picked] and pool.slices[0].ids[3:].tolist() == picked
    np.testing.assert_array_equal(pool.slices[0].X[3:], buf.X[[4, 1]])
    assert pool.slices[0].labels[3:].tolist() == [2, 2]


def _round_with_selector(selector):
    pool, next_id = make_pool([10], [False], spread=0.02)
    buf = make_buffer(9, axis=0, next_id=next_id, true_slice=0)
    state = BudgetState(B=3, rho=0.5)
    cfg = StreamlineConfig(maximizer=_maximizer(), selector_fn=selector)
    return pool, buf, state, cfg


@pytest.mark.parametrize(
    "pick, message",
    [
        (lambda ids: [int(ids[0]), 99], "selected id 99 is not in the buffer"),
        (lambda ids: [int(ids[0]), int(ids[0])], r"item id \d+ is repeated"),
        (lambda ids: [int(ids[0]), 3], "item id 3 is already labeled"),
        (lambda ids: [int(i) for i in ids[:4]], "selection of 4 ids exceeds the granted 3"),
    ],
)
def test_round_rejects_bad_selections_before_labeling(pick, message):
    pool, buf, state, cfg = _round_with_selector(lambda p, u, t, b: pick(u.ids))
    buf.ids[1] = 3  # one buffer id that the pool has already labeled
    labeled = []
    with pytest.raises(ValueError, match=message):
        streamline_round(pool, buf, state, cfg, lambda ids: labeled.append(ids) or np.zeros(len(ids), int))
    assert labeled == [] and pool.sizes[0] == 10


def test_round_credits_a_short_selection_to_gamma():
    # B=3, |P|=10 = beta: the common branch grants all 3 and banks nothing.
    pool, buf, state, cfg = _round_with_selector(lambda p, u, t, b: [int(u.ids[0])])
    report, pool, new_state = streamline_round(pool, buf, state, cfg, _oracle(buf))
    assert report.decision.b == 3 and len(report.selected_ids) == 1
    assert new_state.gamma == 2.0  # spent 1 + banked 2 = B
    fixed = StreamlineConfig(maximizer=_maximizer(), fixed_budget=True, selector_fn=cfg.selector_fn)
    pool, buf, state, _ = _round_with_selector(None)
    report, _, new_state = streamline_round(pool, buf, state, fixed, _oracle(buf))
    assert len(report.selected_ids) == 1 and new_state.gamma == 0.0  # a fixed budget banks nothing


def test_round_takes_row_maxima_once_per_slice(monkeypatch):
    """Selection reuses identify's row maxima instead of taking them again."""
    import streamline.core as core

    calls = []
    real = core._row_col_max

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(core, "_row_col_max", counted)
    pool, next_id = make_pool([20, 25, 30], [False, False, True], spread=0.3)
    state = BudgetState(B=6, rho=0.5)
    cfg = StreamlineConfig(maximizer=MaximizerConfig(budget=0))
    oracle = lambda ids: np.zeros(len(ids), int)  # noqa: E731
    for r in range(3):
        buf = make_buffer(15, r, next_id + 15 * r, seed=r, spread=0.3)
        calls.clear()
        report, pool, state = streamline_round(pool, buf, state, cfg, oracle)
        assert report.selected_ids and len(calls) == pool.num_slices


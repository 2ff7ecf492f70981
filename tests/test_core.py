import threading

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


def test_budget_common_branch_is_exact_at_a_large_budget():
    # beta = |P_0|, so b = B * (rho + (1 - rho)) = B exactly; float arithmetic floored it to B - 1
    pool, _ = make_pool([356, 400, 356], [False, False, True])
    decision, new_state = slice_aware_budget(pool, BudgetState(B=7_227_632, rho=0.05), 0)
    assert decision.branch == "common"
    assert decision.b == 7_227_632
    assert new_state.gamma == 0.0


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
    # a rare round grants B + sigma labels, so B must be a whole count and
    # gamma a finite one: math.floor(inf) raises OverflowError in the rare branch
    for B in (2.5, True, "3", None):
        with pytest.raises(ValueError, match="base budget B must be a nonnegative integer"):
            BudgetState(B=B, rho=0.5)
    for gamma in (np.nan, np.inf):
        with pytest.raises(ValueError, match="gamma must be finite and nonnegative"):
            BudgetState(B=10, rho=0.5, gamma=gamma)
    assert BudgetState(B=np.int64(10), rho=0.5).B == 10
    # rho is read as Fraction(str(rho)) in a common round: a bool or a string must fail here
    for rho in (True, "0.5", None, np.nan, 1.5, -0.1):
        with pytest.raises(ValueError, match=r"rho must be a real number in \[0, 1\]"):
            BudgetState(B=10, rho=rho)
    assert BudgetState(B=10, rho=np.float64(0.5)).rho == 0.5


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
    pool, _ = make_pool([6, 9], [False, False], dim=5, seed=3)
    for copies in (1, 3):  # a buffer of 12 distinct rows, then of each copied 3 times
        rng = np.random.default_rng(7)
        X = np.tile(np.abs(rng.normal(size=(12, 5))) + 0.1, (copies, 1))
        buf = UnlabeledBuffer(ids=np.arange(100, 100 + len(X)), X=X, true_slice=0)
        ident = smidentify(pool, buf)
        t = ident.slice_id
        given = scg_select(pool, buf, t, 5, _maximizer(), row_max=ident.row_max)
        assert given == scg_select(pool, buf, t, 5, _maximizer())
        with pytest.raises(ValueError, match="ground size"):
            scg_select(pool, buf, t, 5, _maximizer(), row_max=ident.row_max[:-1])


def test_scg_select_takes_row_maxima_given_as_a_list():
    """A list failed three layers down, indexed as an array (list indices must be integers)."""
    pool, next_id = make_pool([20, 25], [False, False], spread=0.3)
    buf = make_buffer(15, 0, next_id, spread=0.3)
    ident = smidentify(pool, buf)
    t = ident.slice_id
    given = scg_select(pool, buf, t, 5, _maximizer(), row_max=ident.row_max.tolist())
    assert given == scg_select(pool, buf, t, 5, _maximizer(), row_max=ident.row_max)


@pytest.mark.parametrize(
    "bad, message",
    [
        (lambda r: np.stack([r, r], axis=1), r"row_max must be 1-D, got shape \(15, 2\)"),  # was: kernel must be 2-D
        (lambda r: np.where(np.arange(len(r)) == 0, np.nan, r), "row_max row 0 is not finite"),  # was: kernel entry
        (lambda r: np.where(np.arange(len(r)) == 3, -1.0, r), "row_max row 3 is negative"),  # was: kernel entry
        (lambda r: np.where(np.arange(len(r)) == 4, np.inf, r), "row_max row 4 is not finite"),
        (lambda r: ["a"] * len(r), "row_max must be a 1-D array of numbers"),
    ],
    ids=["2-D", "nan", "negative", "inf", "strings"],
)
def test_scg_select_rejects_bad_row_maxima_at_the_door_naming_the_row(bad, message):
    pool, next_id = make_pool([20, 25], [False, False], spread=0.3)
    buf = make_buffer(15, 0, next_id, spread=0.3)
    ident = smidentify(pool, buf)
    with pytest.raises(ValueError, match=message):
        scg_select(pool, buf, ident.slice_id, 5, _maximizer(), row_max=bad(ident.row_max))


def test_exact_copies_get_bitwise_equal_row_maxima():
    """Two copies of 101 rows: BLAS rounds some cells of a row by where the
    row sits in the product, so the copies' maxima could differ in the last bit."""
    for seed in range(8):
        rng = np.random.default_rng(seed)
        P = rng.normal(size=(300, 16))
        pool = SlicedLabeledPool([LabeledSlice(np.arange(300), np.zeros(300, int), P)], [False])
        buf = UnlabeledBuffer(ids=np.arange(300, 502), X=np.tile(rng.normal(size=(101, 16)), (2, 1)))
        row_max = smidentify(pool, buf).row_max.reshape(2, 101).view(np.int64)
        np.testing.assert_array_equal(row_max[1], row_max[0])


def test_only_rows_with_equal_bits_are_copies():
    x = np.array([3.0, 1.0, 2.0, 0.0])
    near = x.copy()
    near[1] = np.nextafter(1.0, 2.0)  # one ulp away
    negzero = x.copy()
    negzero[3] = -0.0  # equal values, other bits
    X = np.array([x, x[[1, 0, 3, 2]], near, x, negzero, x[[1, 0, 3, 2]]])  # row 1: equal norm, permuted
    buf = UnlabeledBuffer(ids=np.arange(100, 106), X=X)
    R, first, copy_of = buf._distinct_unit_rows()
    assert first.tolist() == [0, 1, 2, 4] and copy_of.tolist() == [0, 1, 2, 0, 3, 1]
    np.testing.assert_array_equal(R, buf.unit_rows()[[0, 1, 2, 4]])
    pool, _ = make_pool([5], [False])
    row_max = smidentify(pool, buf).row_max
    assert row_max[3] == row_max[0] and row_max[5] == row_max[1]
    no_copies = UnlabeledBuffer(ids=np.arange(100, 103), X=X[:3])
    assert no_copies._distinct_unit_rows()[2].tolist() == [0, 1, 2]
    buf.X = X[[0, 1, 2, 2, 3, 4]]  # a reassigned X has its copies found anew
    R, _, copy_of = buf._distinct_unit_rows()
    assert copy_of.tolist() == [0, 1, 2, 2, 0, 3]
    np.testing.assert_array_equal(R, buf.unit_rows()[[0, 1, 2, 5]])


def _churn_stream(**kw):
    """A churn-shaped stream: 12 slices, buffers of 100 rows copied 4 times."""
    from streamline.simulator import StreamSpec, generate_stream

    spec = StreamSpec(**{
        "n_slices": 12, "dim": 32, "common_pool_size": 30, "episode_size": 400, "redundancy": 4,
        "schedule": (0, 11), "seed": 5, **kw,
    })
    return generate_stream(spec)


def _without_copies(buf, id_offset=0):
    """buf with every row moved apart, so no two rows are copies."""
    return UnlabeledBuffer(buf.ids + id_offset, buf.X + np.arange(len(buf))[:, None], true_labels=buf.true_labels)


def test_identify_multiplies_each_distinct_buffer_row_once(monkeypatch):
    """On churn-shaped buffers (12 slices, 100 rows copied 4 times), each
    buffer x slice product has 100 rows, in identify and in scg_select."""
    import streamline.core as core

    pool, buffers, _ = _churn_stream()
    rows = []
    real = core._row_col_max
    monkeypatch.setattr(core, "_row_col_max", lambda R, C: rows.append(len(R)) or real(R, C))
    for buf, distinct in [(buffers[0], 100), (buffers[1], 100), (_without_copies(buffers[0]), 400)]:
        rows.clear()
        t = smidentify(pool, buf).slice_id
        scg_select(pool, buf, t, 10, _maximizer())
        assert rows == [distinct] * (pool.num_slices + 1)


def test_select_builds_s_uu_over_distinct_rows_once(monkeypatch):
    """A round's S_uu is 100 x 100 on churn-shaped buffers (400 x 400 on one
    without copies). A buffer's copies are found once, when its X is set,
    and never inside the round."""
    import streamline.core as core

    shapes, finds = [], []
    scored, copies = core._scored_self_kernel, core._copies
    monkeypatch.setattr(
        core, "_scored_self_kernel", lambda R, best, w: shapes.append(len(R) ** 2) or scored(R, best, w)
    )
    monkeypatch.setattr(core, "_copies", lambda X, norms: finds.append(len(X)) or copies(X, norms))
    pool, buffers, _ = _churn_stream()
    rounds = [(buffers[0], 100), (buffers[1], 100), (_without_copies(buffers[0], 10**6), 400)]
    assert finds == [400] * (len(buffers) + 1)  # once per buffer, slices never
    finds.clear()
    cfg = StreamlineConfig(maximizer=_maximizer())
    for buf, distinct in rounds:
        shapes.clear()
        report, pool, _ = streamline_round(pool, buf, BudgetState(B=10, rho=0.5), cfg, _oracle(buf))
        assert report.selected_ids and shapes == [distinct * distinct]
    assert finds == []


def _tiles_built(monkeypatch):
    """(built on this thread, shape) of every tile np.matmul computes, in order."""
    caller, made, matmul = threading.get_ident(), [], np.matmul
    monkeypatch.setattr(np, "matmul", lambda *a, out: made.append((threading.get_ident() == caller, out.shape))
                        or matmul(*a, out=out))
    return made


@pytest.mark.parametrize("r", [5, 1050])  # a row of the caller's share, and of the helper's
def test_a_nan_row_of_s_uu_on_either_share_is_named_once_the_helper_is_done(r, monkeypatch):
    """Row r's NaNs fill row r and column r, so each thread's first panel
    fails; the caller's error, at entry (0, r), is raised once the helper's
    share has stopped at its own."""
    import streamline.core as core
    from streamline.kernels import _bands, normalize_rows

    R = normalize_rows(np.random.default_rng(2).normal(size=(1100, 4)))
    R[r] = np.nan
    made = _tiles_built(monkeypatch)
    with pytest.raises(ValueError, match=rf"^kernel entry \(0, {r}\) is not finite$"):
        core._scored_self_kernel(R, np.zeros(1100), None)
    second = _bands(1100, 1100)[1]
    assert [shape for mine, shape in made if not mine] == [
        (i.stop - i.start, j.stop - j.start) for i, j in second if i == second[0][0]
    ]


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
def test_a_nan_entry_on_the_helpers_share_is_named_by_its_place_in_s_uu(monkeypatch):
    """Rows 600 and 700, both in the helper's half, meet only in inf * 0:
    the helper's error names the entry of S_uu, not of its band, and the
    caller's share, whose cells of column 600 are infinite and clip to 0
    or 1, has run to its end."""
    import streamline.core as core
    from streamline.kernels import _bands, normalize_rows

    R = normalize_rows(np.random.default_rng(3).normal(size=(1100, 2)))
    R[600], R[700] = [np.inf, 0.0], [0.0, 1.0]
    first, second = _bands(1100, 1100)
    assert first[-1][0].stop <= 600
    made = _tiles_built(monkeypatch)
    with pytest.raises(ValueError, match=r"^kernel entry \(600, 700\) is not finite$"):
        core._scored_self_kernel(R, np.zeros(1100), np.ones(1100))
    assert [shape for mine, shape in made if mine] == [(i.stop - i.start, j.stop - j.start) for i, j in first]


def test_every_cell_of_s_uu_is_checked_once(monkeypatch):
    """S_uu is scanned once, as it is built: the panels checked cover each of its cells once."""
    import streamline.core as core
    from streamline.kernels import normalize_rows

    check = core._checked
    for m in (257, 1100):  # on the calling thread, and on both
        checked = np.zeros((m, m), int)

        def spy(a, entry, first_row=0):
            checked[first_row : first_row + len(a)] += 1
            assert a.shape[1] == m and a.flags.c_contiguous
            return check(a, entry, first_row)

        monkeypatch.setattr(core, "_checked", spy)
        R = normalize_rows(np.random.default_rng(m).normal(size=(m, 3)))
        core._scored_self_kernel(R, np.zeros(m), None)
        assert (checked == 1).all()


def test_scg_budget_edges():
    pool, next_id = make_pool([5], [False])
    buf = make_buffer(6, axis=0, next_id=next_id)
    assert scg_select(pool, buf, 0, 0, _maximizer()) == []
    for budget in (2.7, np.float64(2.9), "3", True, -4, None):
        with pytest.raises(ValueError, match="budget must be a nonnegative integer"):
            scg_select(pool, buf, 0, budget, _maximizer())
    assert len(scg_select(pool, buf, 0, np.int64(2), _maximizer())) == 2
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


def test_ingestion_errors_name_the_offender():
    with pytest.raises(ValueError, match="buffer id 3 is repeated"):
        UnlabeledBuffer(ids=[5, 3, 3, 5], X=np.ones((4, 2)))
    with pytest.raises(ValueError, match="ids and embeddings must have equal length, got 2 and 3"):
        UnlabeledBuffer(ids=[0, 1], X=np.ones((3, 2)))
    with pytest.raises(ValueError, match="ids, labels and embeddings .* got 3, 2 and 3"):
        LabeledSlice([0, 1, 2], [0, 0], np.ones((3, 2)))
    with pytest.raises(ValueError, match="must have equal length, got 2, 2 and 1"):
        LabeledSlice([0, 1], [0, 0], np.ones(2))  # one row of dim 2


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


@pytest.mark.parametrize(
    "slice_ids, message",
    [
        ([[1, 1]], "slice 0: item id 1 is repeated"),  # within the slice
        ([[0, 1], [1, 2]], "slice 1: item id 1 is already labeled"),  # in an earlier slice
    ],
)
def test_pool_names_a_repeated_id_and_its_slice(slice_ids, message):
    slices = [LabeledSlice(ids, [0, 0], np.ones((2, 3))) for ids in slice_ids]
    with pytest.raises(ValueError, match=message):
        SlicedLabeledPool(slices, [False] * len(slices))


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


@pytest.mark.parametrize(
    "t, shown", [(-1, "-1"), (np.int64(-1), "-1"), (3, "3"), (5, "5"), (1.5, "1.5"), (True, "True")]
)
def test_every_slice_index_is_checked_before_use(t, shown):
    """Unchecked, -1 targeted the last slice, 5 raised a bare IndexError and 1.5 a TypeError."""
    from streamline.baselines import similar_select

    pool, next_id = make_pool([2, 3, 4], [False, False, True])
    buf = make_buffer(5, axis=1, next_id=next_id)
    asked = []
    oracle = lambda ids: asked.append(ids) or np.zeros(len(ids), int)  # noqa: E731
    cfg = MaximizerConfig(budget=0)
    calls = [
        lambda: pool.add(t, [100], [0], np.ones((1, 4))),
        lambda: pool.add_selected(t, buf, [int(buf.ids[0])], oracle),
        lambda: slice_aware_budget(pool, BudgetState(B=2, rho=0.5), t),
        lambda: scg_select(pool, buf, t, 2, cfg),
        lambda: similar_select(buf, pool, t, 2, cfg),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=rf"^slice {shown} is not in \[0, 3\)$"):
            call()
    assert asked == [] and pool.sizes.tolist() == [2, 3, 4]


def test_a_buffer_with_no_true_slice_cannot_be_appended_by_it():
    pool, next_id = make_pool([2, 3], [False, True])
    buf = make_buffer(4, axis=1, next_id=next_id)  # true_slice left at its default, -1
    with pytest.raises(ValueError, match=r"slice -1 is not in \[0, 2\)"):
        pool.add_selected(buf.true_slice, buf, [int(buf.ids[0])], lambda ids: np.zeros(len(ids), int))
    pool.add_selected(np.int64(1), buf, [int(buf.ids[0])], lambda ids: np.zeros(len(ids), int))
    assert pool.sizes.tolist() == [2, 4]


def test_pool_add_selected_appends_buffer_rows_after_its_checks():
    pool, next_id = make_pool([3], [False])
    buf = make_buffer(5, axis=1, next_id=next_id, true_slice=0)
    buf.ids[2] = 1  # one buffer id that the pool has already labeled
    asked = []
    # it writes an id the pool holds into the ids it is asked; the checked ids are appended
    oracle = lambda ids: asked.append(ids.tolist()) or ids.fill(1) or np.full(len(ids), 2)  # noqa: E731
    for bad, message in (([int(buf.ids[0]), 99], "selected id 99 is not in the buffer"),
                         ([1], "item id 1 is already labeled"),
                         ([buf.ids[0] + 0.9, np.float64(buf.ids[3] + 0.5)], "selected id row 0 is not integral")):
        with pytest.raises(ValueError, match=message):
            pool.add_selected(0, buf, bad, oracle)
    pool.add_selected(0, buf, [], oracle)
    assert asked == [] and pool.sizes[0] == 3
    picked = [int(buf.ids[4]), int(buf.ids[1])]
    pool.add_selected(0, buf, picked, oracle)
    assert asked == [picked] and pool.slices[0].ids[3:].tolist() == picked
    np.testing.assert_array_equal(pool.slices[0].X[3:], buf.X[[4, 1]])
    assert pool.slices[0].labels[3:].tolist() == [2, 2]


def test_pool_add_selected_norms_only_the_picked_rows(monkeypatch):
    """The append norms the picked rows, to the bits the buffer kept for them,
    and keeps the slice's norms for the rows it had; a reassigned buffer X
    is normed when it is set, not at the append."""
    import streamline.core as core
    from streamline.kernels import normalize_rows

    pool, next_id = make_pool([3], [False])
    buf = make_buffer(5, axis=1, next_id=next_id, true_slice=0)
    norms = []
    real_norms = core.row_norms
    monkeypatch.setattr(core, "row_norms", lambda X: norms.append(len(X)) or real_norms(X))
    picked = [int(buf.ids[3]), int(buf.ids[0])]
    pool.add_selected(0, buf, picked, lambda ids: np.zeros(len(ids), int))
    assert norms == [2]
    np.testing.assert_array_equal(pool.slices[0].unit_rows(), normalize_rows(pool.slices[0].X))
    np.testing.assert_array_equal(pool.slices[0].unit_rows()[3:], buf.unit_rows()[[3, 0]])
    buf.X = buf.X + 0.0
    assert norms == [2, 5]
    pool.add_selected(0, buf, [int(buf.ids[1])], lambda ids: np.zeros(len(ids), int))
    assert norms == [2, 5, 1]
    np.testing.assert_array_equal(pool.slices[0].unit_rows(), normalize_rows(pool.slices[0].X))


@pytest.mark.parametrize(
    "bad_row, why",
    [
        ([0, 0, 0, 0], "all zero"),
        ([np.nan, 1, 0, 0], "not finite"),
        ([1e200, 1e200, 0, 0], "out of float64's range when squared"),
    ],
)
def test_assigning_x_checks_its_rows(bad_row, why):
    """A slice or buffer X set after construction is checked when it is set,
    naming the row, and a rejected X leaves the rows and norms as they were."""
    pool, next_id = make_pool([3], [False], spread=0.02)
    buf = make_buffer(4, axis=0, next_id=next_id)
    for rows, what in ((pool.slices[0], "labeled"), (buf, "buffer")):
        X0, unit0 = rows.X, rows.unit_rows()
        with pytest.raises(ValueError, match=f"{what} embedding row 2 is {why}"):
            rows.X = np.vstack([X0[:2], bad_row, X0[2:]])
        assert rows.X is X0
        np.testing.assert_array_equal(rows.unit_rows(), unit0)
    cfg = StreamlineConfig(maximizer=_maximizer())
    report, pool, _ = streamline_round(pool, buf, BudgetState(B=2, rho=0.5), cfg, _oracle(buf))
    assert len(report.selected_ids) == 2 and pool.sizes[0] == 5


def test_setting_x_of_more_than_two_dims_names_the_rows():
    with pytest.raises(ValueError, match=r"buffer embeddings must be 2-D, got shape \(1, 2, 2\)"):
        UnlabeledBuffer(ids=[1], X=np.ones((1, 2, 2)))
    with pytest.raises(ValueError, match=r"labeled embeddings must be 2-D, got shape \(1, 2, 2\)"):
        LabeledSlice([1], [0], np.ones((1, 2, 2)))
    pool, next_id = make_pool([3], [False])
    with pytest.raises(ValueError, match=r"labeled embeddings must be 2-D, got shape \(3, 4, 1\)"):
        pool.slices[0].X = pool.slices[0].X[:, :, None]
    assert pool.slices[0].X.shape == (3, 4)


def test_round_rejects_a_buffer_whose_dim_differs_from_the_pool():
    """The round fails before any kernel product, naming the buffer and both
    dims, and leaves the pool, its seen ids and the budget state as they were."""
    pool, next_id = make_pool([6, 6], [False, True])
    buf = make_buffer(5, axis=0, next_id=next_id, dim=5)
    state = BudgetState(B=3, rho=0.5, gamma=2.0)
    seen = set(pool._seen_ids)
    asked = []
    cfg = StreamlineConfig(maximizer=_maximizer())
    with pytest.raises(ValueError, match="buffer: embedding dim 5 differs from the pool's 4"):
        streamline_round(pool, buf, state, cfg, lambda ids: asked.append(ids) or np.zeros(len(ids), int))
    assert pool.sizes.tolist() == [6, 6] and pool._seen_ids == seen and not asked
    assert state == BudgetState(B=3, rho=0.5, gamma=2.0)


@pytest.mark.parametrize(
    "bad, why",
    [
        (0.7, "not integral"),
        (-1, "negative"),
        (np.nan, "not finite"),
        (1.5, "not integral"),
        (2**70, "out of int64's range"),
    ],
)
def test_ingestion_rejects_labels_that_are_not_class_indices(bad, why):
    X = np.ones((3, 2))
    with pytest.raises(ValueError, match=f"label row 2 is {why}"):
        LabeledSlice([0, 1, 2], [0, 1, bad], X)
    pool, next_id = make_pool([3], [False], dim=2)
    buf = UnlabeledBuffer(ids=np.arange(next_id, next_id + 3), X=X)
    with pytest.raises(ValueError, match=f"label row 1 is {why}"):
        pool.add_selected(0, buf, buf.ids[:2], lambda ids: np.array([1, bad]))
    assert pool.sizes[0] == 3
    pool.check_new(buf.ids)  # the failed append labeled nothing


@pytest.mark.parametrize(
    "bad, why",
    [
        (1.5, "not integral"),
        (np.nan, "not finite"),
        (np.inf, "not finite"),
        (2.0**63, "out of int64's range"),
        (2**64 - 1, "out of int64's range"),  # a uint64, whose cast would give -1
        (2**70, "out of int64's range"),
        (-(2**70), "out of int64's range"),
        ("1", "not an integer"),
        (None, "not an integer"),
        (1 + 0j, "not an integer"),
    ],
)
def test_ingestion_rejects_ids_that_are_not_integers(bad, why):
    X = np.ones((2, 2))
    with pytest.raises(ValueError, match=f"labeled id row 1 is {why}"):
        LabeledSlice([0, bad], [0, 0], X)
    with pytest.raises(ValueError, match=f"buffer id row 1 is {why}"):
        UnlabeledBuffer(ids=[0, bad], X=X)
    with pytest.raises(ValueError, match=f"buffer id row 1 is {why}"):
        UnlabeledBuffer(ids=np.array([0, bad], dtype=object), X=X)
    assert UnlabeledBuffer(ids=[-4.0, 2.0], X=X).ids.tolist() == [-4, 2]  # integral floats and negative ids pass


def test_ingestion_rejects_ids_and_labels_that_are_not_1d():
    X = np.ones((2, 2))
    with pytest.raises(ValueError, match=r"labeled ids must be 1-D, got shape \(2, 2\)"):
        LabeledSlice([[1, 2], [3, 4]], [0, 1], X)
    with pytest.raises(ValueError, match=r"labels must be 1-D, got shape \(2, 1\)"):
        LabeledSlice([1, 2], [[0], [1]], X)
    with pytest.raises(ValueError, match=r"buffer ids must be 1-D, got shape \(2, 1\)"):
        UnlabeledBuffer(ids=[[1], [3]], X=X)
    with pytest.raises(ValueError, match=r"buffer ids must be 1-D, got shape \(2, 2\)"):
        UnlabeledBuffer(ids=[[1, 2], [3, 4]], X=X)
    with pytest.raises(ValueError, match="buffer ids must be 1-D, got a ragged sequence"):
        UnlabeledBuffer(ids=[[1], [2, 3]], X=X)
    with pytest.raises(ValueError, match=r"buffer ids must be 1-D, got shape \(\)"):
        UnlabeledBuffer(ids=5, X=X[:1])
    with pytest.raises(ValueError, match="unlabeled buffer must be nonempty"):
        UnlabeledBuffer(ids=[], X=[])
    with pytest.raises(ValueError, match="must have equal length, got 1, 1 and 0"):
        LabeledSlice([1], [0], [])


@pytest.mark.parametrize("given", [list, lambda v: np.array(v, dtype=object)])
def test_ingestion_keeps_integers_that_float64_would_round(given):
    """An int above 2**53 that comes with a float is kept exactly, not made float64."""
    X, big = np.ones((2, 2)), 2**62 + 1
    assert UnlabeledBuffer(ids=given([big, 1.0]), X=X).ids.tolist() == [big, 1]
    assert LabeledSlice(given([big, 1.0]), given([big, 1.0]), X).ids.tolist() == [big, 1]
    assert LabeledSlice([0, 1], given([big, 1.0]), X).labels.tolist() == [big, 1]
    with pytest.raises(ValueError, match="buffer id row 1 is not integral"):
        UnlabeledBuffer(ids=given([big, 1.5]), X=X)
    with pytest.raises(ValueError, match="label row 0 is negative"):
        LabeledSlice([0, 1], given([-big, 1.0]), X)


@pytest.mark.parametrize("given", [list, np.array, lambda v: np.array(v, dtype=object)])
@pytest.mark.parametrize(
    "values, why",
    [
        ([1.5, np.nan], "row 0 is not integral"),
        ([np.nan, 1.5], "row 0 is not finite"),
        ([3.0, 2.0**63, np.inf], "row 1 is out of int64's range"),
    ],
)
def test_ingestion_names_the_same_first_bad_row_for_a_list_and_an_array(given, values, why):
    """The first bad row, whatever its reason, is named for every input kind."""
    with pytest.raises(ValueError, match=f"buffer id {why}"):
        UnlabeledBuffer(ids=given(values), X=np.ones((len(values), 2)))
    # int64's least value is in range as a float too
    assert UnlabeledBuffer(ids=given([-(2.0**63), 1.0]), X=np.ones((2, 2))).ids.tolist() == [-(2**63), 1]


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
        (lambda ids: [ids[0] + 0.7, str(ids[2])], "selected id row 0 is not integral"),
        (lambda ids: [int(ids[0]), str(ids[2])], "selected id row 1 is not an integer"),
        (lambda ids: [[int(ids[0]), int(ids[2])]], r"selected ids must be 1-D, got shape \(1, 2\)"),
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


def test_round_reports_its_margin_and_greedy_evaluations():
    """The evaluation count of a fixed churn-shaped stream is pinned: lazy
    greedy over the buffers' distinct rows makes 2,880 evaluations, where
    naive greedy makes 60,194, so a lazy greedy that loses its laziness fails."""
    from streamline.simulator import every_k_schedule

    picks, schedule = {}, every_k_schedule(12, 12, k=2)
    for algorithm, expected in (("lazy", 2880), ("naive", 60194)):
        pool, buffers, _ = _churn_stream(common_pool_size=150, schedule=schedule, rare_slices=(11,))
        state = BudgetState(B=120, rho=0.5)
        cfg = StreamlineConfig(maximizer=MaximizerConfig(budget=0, algorithm=algorithm))
        evaluations, picks[algorithm] = 0, []
        for buf in buffers:
            report, pool, state = streamline_round(pool, buf, state, cfg, _oracle(buf))
            top = np.sort(report.scores)
            assert report.margin == top[-1] - top[-2] > 0
            evaluations += report.select_evaluations
            picks[algorithm].append(report.selected_ids)
        assert evaluations == expected
    assert picks["lazy"] == picks["naive"]
    pool, buf, state, cfg = _round_with_selector(lambda p, u, t, b: [int(u.ids[0])])
    report, _, _ = streamline_round(pool, buf, state, cfg, _oracle(buf))
    assert report.select_evaluations == 0 and report.margin == 0.0  # a one-slice pool has no runner-up


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


import itertools

import numpy as np
import pytest

from streamline.baselines import (
    badge_gradient_embeddings,
    badge_select,
    random_select,
    similar_select,
    submodular_fl_select,
    uncertainty_scores,
    uncertainty_select,
)
from streamline.core import LabeledSlice, SlicedLabeledPool, UnlabeledBuffer
from streamline.maximize import MaximizerConfig


def make_buffer(X, start_id=0):
    X = np.atleast_2d(X)
    return UnlabeledBuffer(ids=np.arange(start_id, start_id + len(X)), X=X, true_slice=0)


def lazy_cfg():
    return MaximizerConfig(budget=0, algorithm="lazy")


# ----------------------------------------------------------------------- random


def test_random_select_edges():
    buf = make_buffer(np.eye(5))
    assert sorted(random_select(buf, 99, seed=0)) == list(range(5))
    assert random_select(buf, 0, seed=0) == []


def test_random_select_deterministic():
    buf = make_buffer(np.eye(8))
    assert random_select(buf, 3, seed=42) == random_select(buf, 3, seed=42)
    # unique ids, drawn from the buffer
    picked = random_select(buf, 5, seed=7)
    assert len(set(picked)) == 5
    assert set(picked) <= set(range(8))


# ------------------------------------------------------------------ uncertainty


def test_uncertainty_uniform_prediction():
    C = 4
    p = np.full((1, C), 1.0 / C)
    assert uncertainty_scores(p, "entropy")[0] == pytest.approx(np.log(C), abs=1e-9)
    assert uncertainty_scores(p, "least_conf")[0] == pytest.approx(1 - 1 / C, abs=1e-9)
    assert uncertainty_scores(p, "margin")[0] == pytest.approx(0.0, abs=1e-9)


def test_uncertainty_one_hot_prediction():
    p = np.array([[0.0, 1.0, 0.0]])
    assert uncertainty_scores(p, "entropy")[0] == pytest.approx(0.0, abs=1e-12)
    assert uncertainty_scores(p, "least_conf")[0] == pytest.approx(0.0, abs=1e-12)
    assert uncertainty_scores(p, "margin")[0] == pytest.approx(1.0, abs=1e-12)


def test_uncertainty_matches_definitional_recomputation():
    rng = np.random.default_rng(0)
    P = rng.dirichlet(np.ones(5), size=30)
    for mode in ("entropy", "least_conf", "margin"):
        scores = uncertainty_scores(P, mode)
        for i, p in enumerate(P):
            if mode == "entropy":
                want = -sum(x * np.log(x) for x in p if x > 0)
            elif mode == "least_conf":
                want = 1.0 - max(p)
            else:
                a, b = sorted(p)[-2:]
                want = b - a
            assert scores[i] == pytest.approx(want, abs=1e-9)


def test_uncertainty_selection_order():
    P = np.array(
        [
            [0.98, 0.02],  # confident
            [0.55, 0.45],  # uncertain
            [0.75, 0.25],  # middling
        ]
    )
    buf = make_buffer(np.eye(3))
    assert uncertainty_select(buf, P, "entropy", 2) == [1, 2]  # descending entropy
    assert uncertainty_select(buf, P, "least_conf", 2) == [1, 2]
    assert uncertainty_select(buf, P, "margin", 2) == [1, 2]  # ascending margin
    assert uncertainty_select(buf, P, "entropy", 0) == []


def test_selectors_reject_predictions_that_do_not_match_the_buffer():
    buf = make_buffer(np.eye(5))
    for n in (3, 7):
        probs = np.full((n, 2), 0.5)
        with pytest.raises(ValueError, match=f"got {n} prediction rows for a buffer of 5 items"):
            uncertainty_select(buf, probs, "entropy", 2)
        with pytest.raises(ValueError, match=f"got {n} probability rows, 5 feature rows for a buffer of 5"):
            badge_select(buf, probs, buf.X, 2, seed=0)
    with pytest.raises(ValueError, match="got 5 probability rows, 3 feature rows for a buffer of 5"):
        badge_select(buf, np.full((5, 2), 0.5), buf.X[:3], 2, seed=0)


def test_selectors_reject_a_budget_that_is_not_a_nonnegative_integer():
    buf = make_buffer(np.eye(5))
    pool = SlicedLabeledPool([LabeledSlice(np.arange(10, 12), np.zeros(2, int), np.eye(5)[:2])], [False])
    probs = np.full((5, 2), 0.5)
    selectors = [
        lambda b: random_select(buf, b, seed=0),
        lambda b: uncertainty_select(buf, probs, "entropy", b),
        lambda b: submodular_fl_select(buf, b, lazy_cfg()),
        lambda b: similar_select(buf, pool, 0, b, lazy_cfg()),
        lambda b: badge_select(buf, probs, buf.X, b, seed=0),
    ]
    for select in selectors:
        for budget in (2.7, np.float64(2.9), "3", True, -4, None):
            with pytest.raises(ValueError, match="^budget: must be a nonnegative integer"):
                select(budget)
        assert len(select(np.int64(2))) == 2


def test_invalid_probabilities_rejected():
    with pytest.raises(ValueError):
        uncertainty_scores(np.array([[0.5, 0.6]]), "entropy")
    with pytest.raises(ValueError):
        uncertainty_scores(np.array([[1.2, -0.2]]), "entropy")
    with pytest.raises(ValueError):
        uncertainty_scores(np.array([[0.5, 0.5]]), "other")
    with pytest.raises(ValueError, match=r"an \(n, C\) array, got shape \(2,\)"):
        uncertainty_scores(np.array([0.5, 0.5]), "entropy")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_probabilities_are_rejected_naming_the_first_bad_row(bad):
    buf = make_buffer(np.eye(4))
    probs = np.full((4, 2), 0.5)
    probs[2, 1] = probs[3, 0] = bad
    for mode in ("entropy", "least_conf", "margin"):
        with pytest.raises(ValueError, match="class probabilities must be finite: row 2 is not"):
            uncertainty_select(buf, probs, mode, 2)
    with pytest.raises(ValueError, match="class probabilities must be finite: row 2 is not"):
        badge_select(buf, probs, buf.X, 2, seed=0)


# ------------------------------------------------------------------- submodular


def test_submodular_fl_covers_uniques_before_duplicates():
    rng = np.random.default_rng(1)
    uniq = np.abs(rng.normal(size=(3, 6))) + 0.1
    X = np.vstack([uniq, uniq])  # duplicated pairs: (0,3), (1,4), (2,5)
    buf = make_buffer(X)
    picked = submodular_fl_select(buf, 3, lazy_cfg())
    assert sorted(p % 3 for p in picked) == [0, 1, 2]


def test_submodular_fl_edges():
    buf = make_buffer(np.ones((1, 3)))
    assert submodular_fl_select(buf, 0, lazy_cfg()) == []
    assert submodular_fl_select(buf, 1, lazy_cfg()) == [0]


# ---------------------------------------------------------------------- similar


def _slice_pool(X, rare=False):
    return SlicedLabeledPool(
        [LabeledSlice(np.arange(1000, 1000 + len(X)), np.zeros(len(X), int), X)], [rare]
    )


def brute_flqmi(S, A):
    if not A:
        return 0.0
    first = sum(max(S[i, j] for j in range(S.shape[1])) for i in A)
    second = sum(max(S[i, j] for i in A) for j in range(S.shape[1]))
    return first + second


def test_similar_targets_on_slice_cluster():
    rng = np.random.default_rng(2)
    dim = 6
    on = np.abs(rng.normal(size=(4, 3))) + 0.5
    on_slice = np.hstack([on, 0.02 * np.abs(rng.normal(size=(4, 3)))])
    off_slice = np.hstack([0.02 * np.abs(rng.normal(size=(4, 3))), np.abs(rng.normal(size=(4, 3))) + 0.5])
    X = np.vstack([on_slice, off_slice])
    buf = make_buffer(X)
    query = np.hstack([np.abs(rng.normal(size=(5, 3))) + 0.5, 0.02 * np.ones((5, 3))])
    pool = _slice_pool(query)

    picked = similar_select(buf, pool, 0, 3, lazy_cfg())
    assert set(picked) <= {0, 1, 2, 3}

    # brute-force oracle: the optimal FLQMI subset also sits on-slice
    from streamline.kernels import build_kernel

    S = build_kernel(X, query)
    best = max(itertools.combinations(range(8), 3), key=lambda A: brute_flqmi(S, list(A)))
    assert set(best) <= {0, 1, 2, 3}


def test_similar_picks_exact_query_match_first():
    rng = np.random.default_rng(3)
    X = np.abs(rng.normal(size=(6, 4))) + 0.1
    buf = make_buffer(X)
    pool = _slice_pool(X[4:5].copy())  # query equals buffer item 4
    picked = similar_select(buf, pool, 0, 1, lazy_cfg())
    assert picked == [4]


def test_similar_edges_and_errors():
    buf = make_buffer(np.ones((2, 3)))
    pool = _slice_pool(np.ones((2, 3)))
    assert similar_select(buf, pool, 0, 0, lazy_cfg()) == []
    pool.slices[0] = LabeledSlice(np.empty(0, int), np.empty(0, int), np.empty((0, 3)))
    with pytest.raises(ValueError):
        similar_select(buf, pool, 0, 1, lazy_cfg())


# ------------------------------------------------------------------------ badge


def test_badge_gradient_embedding_block_structure():
    probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]])
    feats = np.array([[1.0, 2.0], [3.0, 1.0]])
    emb = badge_gradient_embeddings(probs, feats)
    assert emb.shape == (2, 6)
    # item 0 predicts class 0: its block is (0.7 - 1) * feats[0]
    assert emb[0, :2] == pytest.approx((0.7 - 1.0) * feats[0])
    assert emb[0, 2:4] == pytest.approx(0.2 * feats[0])
    assert emb[0, 4:6] == pytest.approx(0.1 * feats[0])
    # item 1 predicts class 2
    assert emb[1, 4:6] == pytest.approx((0.8 - 1.0) * feats[1])


def test_badge_gradient_norm_grows_with_uncertainty():
    feats = np.tile([[1.0, 1.0]], (3, 1))
    probs = np.array([[1.0, 0.0], [0.8, 0.2], [0.55, 0.45]])
    norms = np.linalg.norm(badge_gradient_embeddings(probs, feats), axis=1)
    assert norms[0] < norms[1] < norms[2]
    assert norms[0] == pytest.approx(0.0, abs=1e-12)


def test_badge_first_pick_is_uniform():
    X = np.eye(5)
    buf = make_buffer(X)
    probs = np.full((5, 2), 0.5)
    counts = np.zeros(5)
    for seed in range(200):
        picked = badge_select(buf, probs, X, 1, seed)
        counts[picked[0]] += 1
    assert np.all(counts > 0)
    assert counts.max() <= 0.5 * counts.sum()


def test_badge_second_pick_lands_in_other_cluster():
    rng = np.random.default_rng(4)
    n_per = 5
    feats_a = rng.normal(size=(n_per, 3)) * 0.05
    feats_b = rng.normal(size=(n_per, 3)) * 0.05 + 10.0
    feats = np.vstack([feats_a, feats_b])
    probs = np.tile([[0.9, 0.1]], (2 * n_per, 1))
    emb = badge_gradient_embeddings(probs, feats)

    # analytic check: for every possible first pick, the sampling mass of the
    # other cluster dominates
    for first in range(2 * n_per):
        d2 = np.sum((emb - emb[first]) ** 2, axis=1)
        same = range(n_per) if first < n_per else range(n_per, 2 * n_per)
        mass_other = d2.sum() - d2[list(same)].sum()
        assert mass_other / d2.sum() >= 0.99

    buf = make_buffer(feats)
    hits = 0
    for seed in range(300):
        picked = badge_select(buf, probs, feats, 2, seed)
        first, second = picked
        if (first < n_per) != (second < n_per):
            hits += 1
    assert hits >= 0.97 * 300


def test_badge_identical_embeddings_fall_back_to_uniform():
    X = np.ones((6, 3))
    buf = make_buffer(X)
    probs = np.tile([[0.6, 0.4]], (6, 1))
    picked = badge_select(buf, probs, X, 4, seed=0)
    assert len(picked) == 4
    assert len(set(picked)) == 4


def test_badge_edges():
    X = np.eye(3)
    buf = make_buffer(X)
    probs = np.full((3, 2), 0.5)
    assert badge_select(buf, probs, X, 0, seed=0) == []
    assert sorted(badge_select(buf, probs, X, 99, seed=0)) == [0, 1, 2]


def test_badge_gradient_embeddings_need_one_probability_row_per_feature_row():
    with pytest.raises(ValueError, match="need one probability vector per feature row"):
        badge_gradient_embeddings(np.full((3, 2), 0.5), np.eye(2))


def test_all_selectors_return_subsets_of_buffer():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(10, 4))
    buf = make_buffer(X, start_id=500)
    probs = rng.dirichlet(np.ones(3), size=10)
    pool = _slice_pool(np.abs(rng.normal(size=(4, 4))))
    ids = set(int(i) for i in buf.ids)
    for picked in (
        random_select(buf, 4, seed=1),
        uncertainty_select(buf, probs, "entropy", 4),
        submodular_fl_select(buf, 4, lazy_cfg()),
        similar_select(buf, pool, 0, 4, lazy_cfg()),
        badge_select(buf, probs, X, 4, seed=1),
    ):
        assert len(picked) == 4
        assert len(set(picked)) == 4
        assert set(picked) <= ids

import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamline.baselines as baselines
import streamline.core as core
import streamline.simulator as simulator
from streamline.core import BudgetState, LabeledSlice, SlicedLabeledPool
from streamline.maximize import MaximizerConfig, maximize
from streamline.setfunctions import FacilityLocation
from streamline.simulator import (
    METHODS,
    EvalSet,
    Learner,
    LearnerConfig,
    RunConfig,
    StreamSpec,
    evaluate,
    every_k_schedule,
    fit_logistic,
    generate_stream,
    labeling_efficiency,
    logistic_loss_and_grad,
    run_experiment,
    sequential_schedule,
    train_learner,
)


def small_spec(**overrides):
    params = dict(
        n_slices=3,
        n_classes=3,
        dim=8,
        common_pool_size=30,
        episode_size=30,
        eval_per_slice=60,
        schedule=every_k_schedule(6, 3, 2),
        seed=0,
    )
    params.update(overrides)
    return StreamSpec(**params)


def small_run_cfg(**overrides):
    params = dict(budget=10, rho=0.5, learner=LearnerConfig(epochs=60))
    params.update(overrides)
    return RunConfig(**params)


# -------------------------------------------------------------------- schedules


def test_every_k_schedule_places_rare_every_kth_round():
    sched = every_k_schedule(12, 4, 3, k=3)
    assert sched == (0, 1, 3, 2, 0, 3, 1, 2, 3, 0, 1, 3)
    assert [i for i, s in enumerate(sched) if s == 3] == [2, 5, 8, 11]


def test_sequential_schedule_cycles():
    assert sequential_schedule(6, 4) == (0, 1, 2, 3, 0, 1)


@pytest.mark.parametrize("make, args, message", [
    (every_k_schedule, (6, 1, 0, 3), "n_slices: must be >= 2 when k > 1, got 1"),  # no common slice
    (every_k_schedule, (6, 4, 0, 0), "k: must be >= 1, got 0"),
    (every_k_schedule, (6, 4, 0, -2), "k: must be >= 1, got -2"),
    (every_k_schedule, (6, 4, 0, True), "k: must be an integer, got True"),
    (every_k_schedule, (6, 4, 9, 3), "rare_slice: must be an integer in [0, 4), got 9"),
    (every_k_schedule, (6.0, 4, 0, 3), "n_rounds: must be an integer, got 6.0"),
    (sequential_schedule, (6, 0), "n_slices: must be >= 1, got 0"),
    (sequential_schedule, (-1, 4), "n_rounds: must be >= 0, got -1"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_schedule_helpers_name_an_argument_out_of_range(make, args, message):
    """Each raised ZeroDivisionError, or returned a schedule, before."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(*args)
    assert every_k_schedule(3, 1, 0, 1) == (0, 0, 0)  # every round rare needs no common slice


# ----------------------------------------------------------------------- stream


def test_stream_is_deterministic():
    pool1, bufs1, ev1 = generate_stream(small_spec())
    pool2, bufs2, ev2 = generate_stream(small_spec())
    for s1, s2 in zip(pool1.slices, pool2.slices):
        assert np.array_equal(s1.X, s2.X) and np.array_equal(s1.ids, s2.ids)
    for b1, b2 in zip(bufs1, bufs2):
        assert np.array_equal(b1.X, b2.X) and np.array_equal(b1.ids, b2.ids)
    assert np.array_equal(ev1.X, ev2.X) and np.array_equal(ev1.y, ev2.y)


def test_stream_redundancy_duplicates_embeddings():
    spec = small_spec(episode_size=10, redundancy=2)
    _, bufs, _ = generate_stream(spec)
    buf = bufs[0]
    assert len(buf) == 10
    assert len(np.unique(buf.ids)) == 10  # ids stay distinct
    first, second = buf.X[:5], buf.X[5:]
    assert np.array_equal(first, second)  # embeddings are exact copies
    assert np.array_equal(buf.true_labels[:5], buf.true_labels[5:])


def test_stream_imbalance():
    spec = small_spec(common_pool_size=500, imbalance=5)
    pool, _, _ = generate_stream(spec)
    assert pool.sizes[0] == 500 and pool.sizes[1] == 500
    assert pool.sizes[2] == 100  # rare slice (last by default)
    assert list(pool.rare_flags) == [False, False, True]


def test_stream_eval_set_balanced():
    _, _, ev = generate_stream(small_spec())
    for s in range(3):
        assert (ev.slice_ids == s).sum() == 60


def test_stream_ids_disjoint_between_pool_and_buffers():
    pool, bufs, _ = generate_stream(small_spec())
    seen = set()
    for sl in pool.slices:
        seen.update(int(i) for i in sl.ids)
    for buf in bufs:
        ids = set(int(i) for i in buf.ids)
        assert not (ids & seen)
        seen.update(ids)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(schedule=())
    with pytest.raises(ValueError):
        small_spec(redundancy=0)
    with pytest.raises(ValueError):
        small_spec(episode_size=9, redundancy=2)
    with pytest.raises(ValueError):
        small_spec(schedule=(0, 7))
    with pytest.raises(ValueError):
        small_spec(imbalance=0)
    with pytest.raises(ValueError, match="seed: must be >= 0, got -1"):
        small_spec(seed=-1)
    with pytest.raises(ValueError, match="dim: must be >= n_slices 3"):
        small_spec(dim=2)
    for bad in (3, -1, True, 1.0):
        with pytest.raises(ValueError, match=rf"rare_slice: must be an integer in \[0, 3\), got {bad!r}"):
            small_spec(rare_slice=bad)
    # every bound is the spec's, so a direct build fails here, not inside numpy
    for override, message in (
        ({"n_classes": 0}, "n_classes: must be >= 2, got 0"),
        ({"common_pool_size": -5}, "common_pool_size: must be >= imbalance 5, got -5"),
        ({"common_pool_size": 4}, "common_pool_size: must be >= imbalance 5, got 4"),
        ({"episode_size": 0}, "episode_size: must be >= 1, got 0"),
        ({"n_slices": 0}, "n_slices: must be >= 1, got 0"),
        ({"eval_per_slice": 0}, "eval_per_slice: must be >= 1, got 0"),
        ({"class_sep": "x"}, "class_sep: must be a finite number > 0, got 'x'"),
        ({"noise_std": 0.0}, "noise_std: must be a finite number > 0, got 0.0"),
        ({"slice_sep": 10**400}, f"slice_sep: must be a finite number > 0, got {10**400}"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_spec(**override)


_INTEGER_FIELDS = ("n_slices", "n_classes", "dim", "imbalance", "common_pool_size", "redundancy", "episode_size",
                   "eval_per_slice", "seed", "rare_slice", "schedule")


@pytest.mark.parametrize("name, bad", [
    (name, bad) for name in _INTEGER_FIELDS for bad in (10.0, True, "3", None)
    if (name, bad) != ("rare_slice", None)  # None is rare_slice's default, the last slice
])
def test_spec_rejects_a_field_that_is_not_an_integer_naming_it(name, bad):
    """Each count, the seed, the rare slice and a schedule entry must be an
    integer, not a bool: a float, bool, string or None is refused when the
    spec is built, not later inside numpy, and the message names the field."""
    override = {"schedule": (0, bad, 2)} if name == "schedule" else {name: bad}
    with pytest.raises(ValueError, match=rf"^{name}: must be"):
        small_spec(**override)


def test_spec_resolves_no_rare_slice_to_the_last():
    assert small_spec().rare_slice == small_spec(rare_slice=None).rare_slice == 2
    pool, _, _ = generate_stream(small_spec(rare_slice=0))
    assert pool.rare_flags.tolist() == [True, False, False] and pool.sizes.tolist() == [6, 30, 30]


# ---------------------------------------------------------------------- learner


def test_learner_fits_separable_data():
    rng = np.random.default_rng(0)
    X0 = rng.normal(size=(60, 4)) + np.array([6.0, 0, 0, 0])
    X1 = rng.normal(size=(60, 4)) - np.array([6.0, 0, 0, 0])
    X = np.vstack([X0, X1])
    y = np.array([0] * 60 + [1] * 60)
    learner = fit_logistic(X, y, LearnerConfig(epochs=150))
    assert (learner.predict(X) == y).mean() >= 0.99


def test_learner_single_class_pool():
    pool = SlicedLabeledPool(
        [LabeledSlice(np.arange(10), np.full(10, 2), np.random.default_rng(1).normal(size=(10, 3)))],
        [False],
    )
    learner = train_learner(pool, LearnerConfig(epochs=50), n_classes=4)
    preds = learner.predict(np.random.default_rng(2).normal(size=(20, 3)))
    assert np.all(preds == 2)


def test_learner_loss_history_nonincreasing():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 5))
    y = rng.integers(0, 3, size=50)
    learner = fit_logistic(X, y, LearnerConfig(epochs=100))
    diffs = np.diff(learner.loss_history)
    assert np.all(diffs <= 1e-12)


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(12, 3))
    y = rng.integers(0, 3, size=12)
    W = rng.normal(size=(3, 3)) * 0.5
    b = rng.normal(size=3) * 0.5
    l2 = 0.01
    _, gW, gb = logistic_loss_and_grad(W, b, X, y, l2)
    h = 1e-6
    for idx in np.ndindex(W.shape):
        Wp, Wm = W.copy(), W.copy()
        Wp[idx] += h
        Wm[idx] -= h
        num = (logistic_loss_and_grad(Wp, b, X, y, l2)[0] - logistic_loss_and_grad(Wm, b, X, y, l2)[0]) / (2 * h)
        assert gW[idx] == pytest.approx(num, rel=1e-4, abs=1e-7)
    for k in range(3):
        bp, bm = b.copy(), b.copy()
        bp[k] += h
        bm[k] -= h
        num = (logistic_loss_and_grad(W, bp, X, y, l2)[0] - logistic_loss_and_grad(W, bm, X, y, l2)[0]) / (2 * h)
        assert gb[k] == pytest.approx(num, rel=1e-4, abs=1e-7)


@pytest.mark.parametrize("bad, row", [(-1, 4), (3, 7)])
def test_fit_rejects_a_label_outside_the_classes(bad, row):
    rng = np.random.default_rng(6)
    X, y = rng.normal(size=(10, 2)), np.zeros(10, dtype=int)
    y[row] = bad
    with pytest.raises(ValueError, match=rf"label {bad} at row {row} is outside \[0, 3\)"):
        fit_logistic(X, y, LearnerConfig(epochs=5), n_classes=3)
    if bad < 0:  # the pool rejects a negative label at ingestion, before any fit
        with pytest.raises(ValueError, match=f"label row {row} is negative"):
            LabeledSlice(np.arange(10), y, X)
        return
    pool = SlicedLabeledPool([LabeledSlice(np.arange(10), y, X)], [False])
    with pytest.raises(ValueError, match=f"label {bad} at row {row}"):
        train_learner(pool, LearnerConfig(epochs=5), n_classes=3)


# An infinite step would halve forever, so no LearnerConfig holds one.
@pytest.mark.parametrize("step", [0.0, -1.0, float("nan"), float("inf")])
def test_learner_config_rejects_a_step_size_that_is_not_positive_and_finite(step):
    with pytest.raises(ValueError, match=f"^step_size: must be a finite number > 0, got {step!r}$"):
        LearnerConfig(step_size=step, epochs=3)


@pytest.mark.parametrize("cls, override, message", [
    (LearnerConfig, {"epochs": -1}, "epochs: must be an integer >= 1, got -1"),
    (LearnerConfig, {"epochs": True}, "epochs: must be an integer >= 1, got True"),
    (LearnerConfig, {"epochs": 2.0}, "epochs: must be an integer >= 1, got 2.0"),
    (LearnerConfig, {"l2": -1.0}, "l2: must be a finite number >= 0, got -1.0"),
    (RunConfig, {"budget": -1}, "budget: must be a nonnegative integer, got -1"),
    (RunConfig, {"rho": 2.0}, "rho: must be a finite number in [0, 1], got 2.0"),
    (RunConfig, {"rho": "0.5"}, "rho: must be a finite number in [0, 1], got '0.5'"),
    (LearnerConfig, {"step_size": 2.0**65}, "step_size: must be at most 2**64, got 3.6893488147419103e+19"),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_run_settings_reject_a_value_out_of_range_naming_it(cls, override, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(**override)


def test_a_budget_gamma_cannot_hold_exactly_is_refused_before_any_round():
    """gamma, a float, banks what a round does not spend, and holds every
    integer up to 2**53 exactly; a round banking a budget of 10**400 raised
    OverflowError. A selector's own budget is capped at the buffer and keeps
    no such bound."""
    spec = StreamSpec(n_slices=2, n_classes=2, dim=4, common_pool_size=10, episode_size=10, eval_per_slice=10,
                      schedule=(0, 1))
    for budget in (2**53 + 1, 10**400):
        with pytest.raises(ValueError, match=r"^budget: must be at most 2\*\*53"):
            run_experiment(spec, "streamline", RunConfig(budget=budget))
        with pytest.raises(ValueError, match=r"^B: must be at most 2\*\*53"):
            BudgetState(B=budget, rho=0.5)
        assert MaximizerConfig(budget=budget).budget == budget
    assert len(run_experiment(spec, "streamline", RunConfig(budget=2**53)).records) == 2


# Off-by-one values for every bound (0, 1, 2, n_slices 3, imbalance 5),
# values of the wrong type and values beyond the float range.
_HOSTILE = st.one_of(
    st.integers(-2, 6),
    st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 1e-300, 1e300, math.nan, math.inf, -math.inf]),
    st.sampled_from([10**400, -(10**400), True, False, None, "3", "x", ""]),
)
_BASE = {
    StreamSpec: dict(n_slices=3, n_classes=3, dim=8, common_pool_size=30, episode_size=30, eval_per_slice=20,
                     schedule=(0, 1, 2)),
    LearnerConfig: dict(epochs=5),
    RunConfig: dict(budget=5, learner=LearnerConfig(epochs=3)),
    MaximizerConfig: dict(budget=5, algorithm="stochastic", epsilon=0.5),
}


@pytest.mark.parametrize("cls", list(_BASE), ids=lambda cls: cls.__name__)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_dataclasses_built_from_hostile_values_raise_a_named_value_error_or_work(cls, data):
    """StreamSpec, LearnerConfig, RunConfig and MaximizerConfig (stochastic)
    check every value they hold when they are built: a hostile value either
    raises a ValueError whose message starts with a field of that type, or
    is one the stream, the fit, the greedy or the run then uses without
    error (at small sizes; a config caps the large ones)."""
    names = [f.name for f in fields(cls) if f.name not in ("schedule", "maximizer", "learner")]
    changed = data.draw(st.dictionaries(st.sampled_from(names), _HOSTILE, min_size=1, max_size=2))
    try:
        built = cls(**{**_BASE[cls], **changed})
    except ValueError as exc:
        assert str(exc).partition(":")[0] in [f.name for f in fields(cls)], str(exc)
        return
    if cls is StreamSpec:
        if max(built.n_classes, built.dim, built.common_pool_size, built.episode_size, built.eval_per_slice) <= 1000:
            pool, buffers, eval_set = generate_stream(built)
            assert len(buffers) == 3 and len(eval_set.y) == built.n_slices * built.eval_per_slice
    elif cls is LearnerConfig:
        if built.epochs <= 100:
            X, y = np.arange(12.0).reshape(6, 2), np.array([0, 1, 2, 0, 1, 2])
            assert np.isfinite(fit_logistic(X, y, built).W).all()
    elif cls is MaximizerConfig:
        assert len(maximize(FacilityLocation(np.eye(4)), built).chosen) == min(built.budget, 4)
    elif built.budget <= 100:
        spec = StreamSpec(n_slices=2, n_classes=2, dim=4, common_pool_size=10, episode_size=10, eval_per_slice=10,
                          schedule=(0, 1))
        assert len(run_experiment(spec, "streamline", built).records) == 2


@pytest.mark.parametrize("n_labels, n_rows", [(0, 0), (4, 5), (5, 4)])
def test_fit_rejects_labels_that_do_not_match_the_rows(n_labels, n_rows):
    with pytest.raises(ValueError, match=f"got {n_labels} labels for {n_rows} rows"):
        fit_logistic(np.ones((n_rows, 3)), np.zeros(n_labels, dtype=int), LearnerConfig(epochs=3), 3)


@pytest.mark.parametrize(
    "bad_row, why",
    [
        ([np.nan, 1.0, 0.0], "not finite"),
        ([1.0, -np.inf, 0.0], "not finite"),
        ([1e200, 0.0, 0.0], "out of float64's range when squared"),
    ],
)
def test_fit_rejects_a_row_that_is_not_finite_or_overflows_when_squared(bad_row, why):
    rng = np.random.default_rng(8)
    X, y = rng.normal(size=(6, 3)), np.array([0, 1, 2, 0, 1, 2])
    X[2] = X[4] = bad_row
    with pytest.raises(ValueError, match=f"cannot fit row 2: it is {why}"):
        fit_logistic(X, y, LearnerConfig(epochs=5), n_classes=3)


def test_fit_rejects_rows_whose_mean_squared_norm_overflows():
    X, y = np.full((4, 1), 1e154), np.array([0, 1, 0, 1])
    with pytest.raises(ValueError, match="mean squared row norm is out of float64's range"):
        fit_logistic(X, y, LearnerConfig(epochs=5), n_classes=2)


def test_fit_accepts_all_zero_and_tiny_rows():
    rng = np.random.default_rng(9)
    X, y = rng.normal(size=(6, 3)), np.array([0, 1, 2, 0, 1, 2])
    X[1], X[3] = 0.0, 1e-200
    learner = fit_logistic(X, y, LearnerConfig(epochs=20), n_classes=3)
    assert np.isfinite(learner.W).all() and np.abs(learner.W).sum() > 0
    assert learner.loss_history[-1] < learner.loss_history[0]


def test_learner_predictions_are_simplex():
    rng = np.random.default_rng(5)
    learner = fit_logistic(rng.normal(size=(30, 4)), rng.integers(0, 3, 30), LearnerConfig(epochs=30))
    P = learner.predict_proba(rng.normal(size=(10, 4)))
    assert np.all(P >= 0)
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-9)


# ------------------------------------------------------------------- evaluation


def test_evaluate_perfect_predictor():
    X = np.vstack([np.tile([5.0, 0.0], (4, 1)), np.tile([0.0, 5.0], (4, 1))])
    ev = EvalSet(X=X, y=np.array([0] * 4 + [1] * 4), slice_ids=np.array([0] * 4 + [1] * 4))
    learner = Learner(W=np.eye(2), b=np.zeros(2))
    full, per_slice = evaluate(learner, ev)
    assert full == 1.0
    assert np.all(per_slice == 1.0)


def test_evaluate_constant_predictor_on_balanced_binary():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 2))
    y = np.array([0, 1] * 20)
    ev = EvalSet(X=X, y=y, slice_ids=np.zeros(40, dtype=int))
    learner = Learner(W=np.zeros((2, 2)), b=np.array([5.0, 0.0]))  # always class 0
    full, per_slice = evaluate(learner, ev)
    assert full == 0.5


def test_evaluate_hand_computed_confusion():
    # identity learner predicts argmax of the raw coordinates
    learner = Learner(W=np.eye(2), b=np.zeros(2))
    X = np.array([[1, 0], [1, 0], [0, 1], [0, 1], [1, 0]], dtype=float)
    y = np.array([0, 0, 0, 1, 1])
    slice_ids = np.array([0, 0, 0, 1, 1])
    full, per_slice = evaluate(learner, EvalSet(X=X, y=y, slice_ids=slice_ids))
    assert per_slice[0] == pytest.approx(2 / 3)
    assert per_slice[1] == pytest.approx(1 / 2)
    assert full == pytest.approx(3 / 5)


# ---------------------------------------------------------------- efficiency


def test_labeling_efficiency_identical_curves():
    curve = [(0, 0.1), (100, 0.5), (200, 0.8)]
    assert labeling_efficiency(curve, curve, 0.5) == pytest.approx(1.0)
    assert labeling_efficiency(curve, curve, 0.65) == pytest.approx(1.0)


def test_labeling_efficiency_two_x_example():
    method = [(50, 0.2), (100, 0.6)]
    random_curve = [(100, 0.3), (200, 0.6)]
    assert labeling_efficiency(method, random_curve, 0.6) == pytest.approx(2.0)


def test_labeling_efficiency_interpolates():
    method = [(0, 0.0), (100, 0.5), (200, 1.0)]
    random_curve = [(0, 0.0), (300, 0.75)]
    # method reaches 0.75 at 150 labels, random at 300
    assert labeling_efficiency(method, random_curve, 0.75) == pytest.approx(2.0)


def test_labeling_efficiency_undefined_when_unattained():
    method = [(100, 0.9)]
    random_curve = [(100, 0.4), (200, 0.5)]
    assert labeling_efficiency(method, random_curve, 0.8) is None
    assert labeling_efficiency(random_curve, method, 0.8) is None


# ------------------------------------------------------------------ experiments


def test_run_random_grows_pool_by_budget_every_round():
    log = run_experiment(small_spec(), "random", small_run_cfg())
    assert [r.granted_b for r in log.records] == [10] * 6
    assert log.labels_spent == 60
    assert log.records[-1].labels_total == 60


def test_run_streamline_all_common_gamma_nondecreasing():
    spec = small_spec(schedule=(0, 1, 0, 1, 0, 1), rare_slice=2)
    log = run_experiment(spec, "streamline", small_run_cfg())
    gammas = [r.gamma for r in log.records]
    assert all(g1 >= g0 for g0, g1 in zip(gammas, gammas[1:]))
    assert gammas[-1] > 0.0


def test_run_conservation_and_pool_growth():
    spec = small_spec()
    log = run_experiment(spec, "streamline", small_run_cfg())
    assert log.labels_spent <= 6 * 10
    growth = sum(log.records[-1].slice_sizes) - (30 + 30 + 6)
    assert growth == log.labels_spent
    assert all(r.gamma >= 0 for r in log.records)


def test_run_is_deterministic():
    for method in ("streamline", "random", "badge"):
        a = run_experiment(small_spec(), method, small_run_cfg())
        b = run_experiment(small_spec(), method, small_run_cfg())
        assert [r.selected_ids for r in a.records] == [r.selected_ids for r in b.records]
        assert [r.rare_metric for r in a.records] == [r.rare_metric for r in b.records]


def test_run_rare_pool_streamline_at_least_random():
    for seed in (0, 1):
        spec = small_spec(seed=seed)
        sl = run_experiment(spec, "streamline", small_run_cfg())
        rn = run_experiment(spec, "random", small_run_cfg())
        assert sl.records[-1].slice_sizes[2] >= rn.records[-1].slice_sizes[2]


def test_run_variants_execute():
    spec = small_spec()
    for method in ("streamline_no_scg", "streamline_repl_scg", "streamline_no_budget"):
        log = run_experiment(spec, method, small_run_cfg())
        assert len(log.records) == 6
    fixed = run_experiment(spec, "streamline_no_budget", small_run_cfg())
    assert [r.granted_b for r in fixed.records] == [10] * 6
    assert all(r.gamma == 0.0 for r in fixed.records)


def test_run_fits_the_initial_model_only_for_methods_that_read_it(monkeypatch):
    calls = []
    fit = simulator.fit_logistic
    monkeypatch.setattr(simulator, "fit_logistic", lambda *a, **k: calls.append(1) or fit(*a, **k))
    reads_model = {"entropy", "margin", "least_conf", "badge", "streamline_repl_scg"}
    rounds = len(small_spec().schedule)
    for method in METHODS:
        calls.clear()
        run_experiment(small_spec(), method, small_run_cfg(learner=LearnerConfig(epochs=5)))
        assert len(calls) == rounds + (method in reads_model), method


def test_stochastic_greedy_samples_a_stream_of_its_own_per_round(monkeypatch):
    seeds = []
    for module in (core, baselines):
        maximize = module.maximize
        monkeypatch.setattr(module, "maximize", lambda f, cfg, m=maximize: seeds.append(cfg.seed) or m(f, cfg))
    cfg = small_run_cfg(maximizer=MaximizerConfig(budget=0, algorithm="stochastic", epsilon=0.1))
    for method in ("streamline", "submodular", "similar"):
        seeds.clear()
        for seed in (0, 1):
            run_experiment(small_spec(seed=seed), method, cfg)
        assert len(seeds) == 2 * 6 and len(set(seeds)) == len(seeds), (method, seeds)


def test_run_unknown_method_rejected():
    with pytest.raises(ValueError):
        run_experiment(small_spec(), "oracle", small_run_cfg())


def test_run_identification_logged():
    log = run_experiment(small_spec(), "streamline", small_run_cfg())
    # well-separated defaults: identification should match the schedule
    assert [r.identified_slice for r in log.records] == list(small_spec().schedule)
    assert [r.true_slice for r in log.records] == list(small_spec().schedule)

import itertools

import numpy as np
import pytest

from conftest import random_instance, random_self_kernel
from streamline.maximize import (
    _GRID,
    MaximizerConfig,
    _on_grid,
    lazy_greedy,
    maximize,
    naive_greedy,
    stochastic_greedy,
)
from streamline.setfunctions import FacilityLocation


def brute_force_optimum(f, b):
    best = 0.0
    for A in itertools.combinations(range(f.ground_size), b):
        best = max(best, f.value(list(A)))
    return best


def test_naive_zero_budget():
    f = FacilityLocation(np.ones((4, 4)))
    trace = naive_greedy(f, MaximizerConfig(budget=0))
    assert trace.chosen == [] and trace.gains == [] and trace.evaluations == 0


def test_naive_tie_breaks_to_smallest_id():
    S = np.array([[1.0, 0.2], [0.2, 1.0]])
    f = FacilityLocation(S)
    assert f.value([0]) == f.value([1])  # genuine tie
    trace = naive_greedy(f, MaximizerConfig(budget=1, algorithm="naive"))
    assert trace.chosen == [0]
    assert trace.gains[0] == pytest.approx(1.2)


def test_gains_a_rounding_apart_tie_to_the_smallest_id():
    """Column gains 2 - 2**-52 and 2 are one tie on the grid: every greedy
    takes index 0, though its float gain is the smaller one."""
    f = FacilityLocation(np.array([[1.0, 1.0], [1.0 - 2**-52, 1.0]]))
    assert f.value([0]) < f.value([1])
    full_sample = MaximizerConfig(budget=1, algorithm="stochastic", epsilon=1e-9)
    one = MaximizerConfig(budget=1)
    traces = [naive_greedy(f, one), lazy_greedy(f, one), stochastic_greedy(f, full_sample)]
    for trace in traces:
        assert trace.chosen == [0] and trace.gains == [2.0]
    assert traces[1].evaluations <= traces[0].evaluations


class _ScriptedGains:
    """A stand-in set function: gains(candidates) reads `first`, and gain(x),
    lazy greedy's re-evaluation, returns fresh[x]."""

    def __init__(self, first, fresh):
        self.first, self.fresh, self.ground_size = np.asarray(first), fresh, len(first)

    def evaluator(self):
        return self

    def gains(self, candidates):
        return self.first[candidates]

    def gain(self, x):
        return self.fresh[x]

    def add(self, x):
        pass


def test_lazy_rounds_a_fresh_gain_as_the_batched_gains_are_rounded():
    """Halfway values (k + 1/2) * 2**-30 round half to even in lazy greedy's
    scalar path exactly as _on_grid rounds them."""
    halfway = [(k + 0.5) * _GRID for k in (14 * 2**30 + 1, 14 * 2**30, 2**32 + 1, 2**32, 3, 2, 1, 0)]
    f = _ScriptedGains([20.0] * (len(halfway) + 1), [20.0] + halfway)
    trace = lazy_greedy(f, MaximizerConfig(budget=len(halfway) + 1))
    assert trace.chosen == list(range(len(halfway) + 1))  # descending, ties to the smallest id
    assert trace.gains == [20.0] + _on_grid(np.array(halfway)).tolist()
    assert trace.gains[-4:] == [4 * _GRID, 2 * _GRID, 2 * _GRID, 0.0]  # half to even


def test_naive_greedy_approximation_ratio():
    rng = np.random.default_rng(0)
    ratio = 1.0 - 1.0 / np.e
    for _ in range(20):
        f = FacilityLocation(random_self_kernel(rng, 10))
        trace = naive_greedy(f, MaximizerConfig(budget=3, algorithm="naive"))
        assert f.value(trace.chosen) >= ratio * brute_force_optimum(f, 3) - 1e-12


@pytest.mark.parametrize("kind", ["fl", "flqmi", "flcg"])
def test_lazy_equals_naive(kind):
    rng = np.random.default_rng(1)
    for _ in range(35):
        n = int(rng.integers(5, 14))
        inst = random_instance(rng, kind, n=n, p=int(rng.integers(2, 5)))
        b = int(rng.integers(1, n + 1))
        t_naive = naive_greedy(inst, MaximizerConfig(budget=b, algorithm="naive"))
        t_lazy = lazy_greedy(inst, MaximizerConfig(budget=b, algorithm="lazy"))
        assert t_lazy.chosen == t_naive.chosen
        assert np.allclose(t_lazy.gains, t_naive.gains, atol=1e-9)
        assert t_lazy.evaluations <= t_naive.evaluations


def test_lazy_with_duplicate_items_matches_naive():
    rng = np.random.default_rng(2)
    S = random_self_kernel(rng, 8)
    S[:, 4] = S[:, 1]
    S[4, :] = S[1, :]
    f = FacilityLocation(S)
    t_naive = naive_greedy(f, MaximizerConfig(budget=5, algorithm="naive"))
    t_lazy = lazy_greedy(f, MaximizerConfig(budget=5, algorithm="lazy"))
    assert t_lazy.chosen == t_naive.chosen


def test_lazy_dominant_element_cheap_first_pick():
    rng = np.random.default_rng(3)
    S = random_self_kernel(rng, 12) * 0.6
    S[:, 7] = 1.0  # element 7 covers every row perfectly
    f = FacilityLocation(S)
    trace = lazy_greedy(f, MaximizerConfig(budget=1, algorithm="lazy"))
    assert trace.chosen == [7]
    # initialization computes all 12 gains; the dominant element's bound
    # stays at the front, so the pick costs at most one re-evaluation
    assert trace.evaluations <= 12 + 1


def test_lazy_far_fewer_evaluations_than_naive():
    rng = np.random.default_rng(4)
    f = FacilityLocation(random_self_kernel(rng, 50, dim=8))
    naive_evals = sum(range(41, 51))  # 50 + 49 + ... + 41
    t_naive = naive_greedy(f, MaximizerConfig(budget=10, algorithm="naive"))
    assert t_naive.evaluations == naive_evals
    t_lazy = lazy_greedy(f, MaximizerConfig(budget=10, algorithm="lazy"))
    assert t_lazy.evaluations < naive_evals


def test_stochastic_full_coverage_equals_naive():
    rng = np.random.default_rng(5)
    f = FacilityLocation(random_self_kernel(rng, 20))
    # sample size ceil((20/5) * ln(1/0.001)) = 28 >= 20, so every round sees
    # all remaining candidates
    cfg = MaximizerConfig(budget=5, algorithm="stochastic", epsilon=0.001, seed=11)
    t_naive = naive_greedy(f, MaximizerConfig(budget=5, algorithm="naive"))
    t_stoch = stochastic_greedy(f, cfg)
    assert t_stoch.chosen == t_naive.chosen


def test_stochastic_deterministic_given_seed():
    rng = np.random.default_rng(6)
    f = FacilityLocation(random_self_kernel(rng, 30))
    cfg = MaximizerConfig(budget=6, algorithm="stochastic", epsilon=0.2, seed=123)
    t1 = stochastic_greedy(f, cfg)
    t2 = stochastic_greedy(f, cfg)
    assert t1.chosen == t2.chosen and t1.gains == t2.gains


def test_stochastic_close_to_naive_on_average():
    rng = np.random.default_rng(7)
    stoch_values, naive_values = [], []
    for k in range(100):
        f = FacilityLocation(random_self_kernel(rng, 20))
        cfg = MaximizerConfig(budget=5, algorithm="stochastic", epsilon=0.05, seed=k)
        stoch_values.append(f.value(stochastic_greedy(f, cfg).chosen))
        naive_values.append(f.value(naive_greedy(f, MaximizerConfig(budget=5)).chosen))
    assert np.mean(stoch_values) >= 0.9 * np.mean(naive_values)


@pytest.mark.parametrize("kind", ["fl", "flqmi", "flcg"])
@pytest.mark.parametrize("algorithm", ["naive", "lazy"])
def test_gains_nonincreasing(kind, algorithm):
    rng = np.random.default_rng(8)
    for _ in range(10):
        inst = random_instance(rng, kind, n=9)
        cfg = MaximizerConfig(budget=6, algorithm=algorithm)
        trace = maximize(inst, cfg)
        gains = trace.gains
        assert all(g1 <= g0 + 1e-9 for g0, g1 in zip(gains, gains[1:]))


def test_config_validation():
    for budget in (-1, 2.5, np.float64(2.0), "2", True, None):
        with pytest.raises(ValueError, match="^budget: must be a nonnegative integer"):
            MaximizerConfig(budget=budget)
    assert MaximizerConfig(budget=np.int64(2)).budget == 2
    with pytest.raises(ValueError):
        MaximizerConfig(budget=1, algorithm="other")
    with pytest.raises(ValueError):
        MaximizerConfig(budget=1, algorithm="stochastic")  # epsilon missing
    with pytest.raises(ValueError):
        MaximizerConfig(budget=1, algorithm="stochastic", epsilon=1.5)
    with pytest.raises(ValueError):
        MaximizerConfig(budget=1, algorithm="lazy", epsilon=0.1)


@pytest.mark.parametrize("algorithm, epsilon", [("lazy", None), ("naive", None), ("stochastic", 0.1)])
def test_config_rejects_a_seed_that_is_not_a_nonnegative_integer(algorithm, epsilon):
    for seed in (-1, 1.5, "x", True, None, np.float64(3.0)):
        with pytest.raises(ValueError, match=r"seed: must be a nonnegative integer, got"):
            MaximizerConfig(budget=1, algorithm=algorithm, epsilon=epsilon, seed=seed)
    for seed in (0, 2**32 - 1, np.uint32(7)):
        assert MaximizerConfig(budget=1, algorithm=algorithm, epsilon=epsilon, seed=seed).seed == seed

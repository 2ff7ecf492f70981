"""Cardinality-constrained greedy maximization of monotone submodular functions.

Three interchangeable algorithms (naive, lazy, stochastic), each one greedy
pass over the whole ground set. Gains are compared and recorded on _GRID,
with ties breaking toward the smallest item id, so all algorithms are
mutually reproducible; lazy greedy must return the exact trace naive greedy
would, in no more function evaluations.
"""

from __future__ import annotations

import heapq
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class MaximizerConfig:
    """Settings for one maximization run.

    epsilon is the stochastic-greedy accuracy knob (required there, unused
    elsewhere); seed drives stochastic greedy's candidate samples.
    """

    budget: int
    algorithm: str = "lazy"
    epsilon: float | None = None
    seed: int = 0

    def __post_init__(self):
        _check_budget(self.budget)
        if not isinstance(self.algorithm, str) or self.algorithm not in _ALGORITHMS:
            raise ValueError(f"algorithm: must be one of {', '.join(_ALGORITHMS)}, got {self.algorithm!r}")
        if self.algorithm == "stochastic":
            if not isinstance(self.epsilon, numbers.Real) or not 0.0 < self.epsilon < 1.0:
                raise ValueError(f"epsilon: must be in (0, 1), got {self.epsilon!r}")
        elif self.epsilon is not None:
            raise ValueError(f"epsilon: must be absent unless stochastic, got {self.epsilon!r}")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed: must be a nonnegative integer, got {self.seed!r}")


def _is_integer(v) -> bool:
    """Whether v is a Python or numpy integer and not a bool (np.bool_ is neither)."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_budget(budget, name: str = "budget", *, banked: bool = False) -> int:
    """budget as an int; ValueError naming it unless it is a non-bool integer >= 0,
    and, if banked, at most 2**53, so that gamma, a float, banks it exactly."""
    if not _is_integer(budget) or budget < 0:
        raise ValueError(f"{name}: must be a nonnegative integer, got {budget!r}")
    if banked and budget > 2**53:
        raise ValueError(f"{name}: must be at most 2**53, got an integer of {int(budget).bit_length()} bits")
    return int(budget)


def _check_real(value, name: str, low: float, high: float = math.inf, *, above: bool = False) -> None:
    """ValueError naming the field unless value is a real number, not a bool,
    that is finite and within [low, high], or above low when above is set."""
    finite = isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    if not (finite and (low < value if above else low <= value) and value <= high):
        bound = f"in [{low}, {high}]" if high < math.inf else f"{'>' if above else '>='} {low}"
        raise ValueError(f"{name}: must be a finite number {bound}, got {value!r}")


# Gains are compared on this grid: rounded to the nearest multiple, half to
# even, so a pick never rests on the last bits of a sum. Equal sums taken in
# two orders land on one grid point unless they straddle a half-grid edge;
# rounding is monotone, so lazy greedy's stale bounds stay bounds.
_GRID = 2.0**-30


def _on_grid(gains: np.ndarray) -> np.ndarray:
    return np.rint(gains / _GRID) * _GRID


@dataclass
class SelectionTrace:
    """Greedy pick sequence with per-pick marginal gains, on the grid, and query count."""

    chosen: list[int] = field(default_factory=list)
    gains: list[float] = field(default_factory=list)
    evaluations: int = 0


def _sweep(f, cfg: MaximizerConfig, sample_size) -> SelectionTrace:
    """Greedy that scores a set of candidates each round and takes the best.

    The candidates are the remaining items, or a seeded sorted sample of
    sample_size(n, b) of them, drawn without replacement, when that is fewer.
    """
    n = f.ground_size
    b = min(cfg.budget, n)
    trace = SelectionTrace()
    if b == 0:
        return trace
    rng, size = np.random.default_rng(cfg.seed), sample_size(n, b)
    ev, remaining = f.evaluator(), np.arange(n)
    for _ in range(b):
        sampled = size < len(remaining)
        cand = np.sort(rng.choice(remaining, size=size, replace=False)) if sampled else remaining
        gains = _on_grid(ev.gains(cand))
        trace.evaluations += len(cand)
        k = int(np.argmax(gains))  # first max = smallest id on grid ties
        x = int(cand[k])
        trace.chosen.append(x)
        trace.gains.append(float(gains[k]))
        ev.add(x)
        remaining = remaining[remaining != x]
    return trace


def naive_greedy(f, cfg: MaximizerConfig) -> SelectionTrace:
    """Plain greedy: re-evaluate every remaining candidate each round."""
    return _sweep(f, cfg, lambda n, b: n)


def lazy_greedy(f, cfg: MaximizerConfig) -> SelectionTrace:
    """Priority-queue greedy with stale upper bounds on marginal gains.

    Heap entries are (-gain, id, round_stamp); a popped entry whose stamp is
    current needs no re-evaluation; a stale one is re-evaluated alone,
    through the evaluator's scalar gain(x), and put on the grid by Python's
    round, with _on_grid's bits (both round half to even) at a fraction of
    a numpy scalar's cost. A refreshed entry is accepted only if it still
    beats the best remaining bound, with the id as tiebreaker, which
    reproduces naive greedy's choices exactly.
    """
    n = f.ground_size
    b = min(cfg.budget, n)
    trace = SelectionTrace()
    if b == 0:
        return trace
    ev = f.evaluator()
    heap = [(-g, i, 0) for i, g in enumerate(_on_grid(ev.gains(np.arange(n))).tolist())]
    trace.evaluations += n
    heapq.heapify(heap)
    while heap and len(trace.chosen) < b:
        neg_gain, x, stamp = heapq.heappop(heap)
        if stamp != len(trace.chosen):
            fresh = round(ev.gain(x) / _GRID) * _GRID
            trace.evaluations += 1
            entry = (-fresh, x, len(trace.chosen))
            if heap and entry > heap[0]:
                heapq.heappush(heap, entry)
                continue
            neg_gain = -fresh
        trace.chosen.append(x)
        trace.gains.append(-neg_gain)
        ev.add(x)
    return trace


def stochastic_greedy(f, cfg: MaximizerConfig) -> SelectionTrace:
    """Greedy over a fresh uniform sample of candidates each round.

    Sample size is ceil((n / b) * ln(1 / epsilon)), capped at the remaining
    candidate count; sampling is without replacement and seeded.
    """
    return _sweep(f, cfg, lambda n, b: math.ceil((n / b) * math.log(1.0 / cfg.epsilon)))


_ALGORITHMS = {
    "naive": naive_greedy,
    "lazy": lazy_greedy,
    "stochastic": stochastic_greedy,
}


def maximize(f, cfg: MaximizerConfig) -> SelectionTrace:
    """Run the configured algorithm on f."""
    return _ALGORITHMS[cfg.algorithm](f, cfg)

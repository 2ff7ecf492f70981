"""Cardinality-constrained greedy maximization of monotone submodular functions.

Three interchangeable algorithms (naive, lazy, stochastic), each one greedy
pass over the whole ground set. Ties in every argmax break toward the
smallest item id so that all algorithms are mutually reproducible; lazy
greedy must return the exact trace naive greedy would, in no more function
evaluations.
"""

from __future__ import annotations

import heapq
import math
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
        if self.budget < 0:
            raise ValueError(f"budget must be nonnegative, got {self.budget}")
        if self.algorithm not in ("naive", "lazy", "stochastic"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == "stochastic":
            if self.epsilon is None or not (0.0 < self.epsilon < 1.0):
                raise ValueError("stochastic greedy needs epsilon in (0, 1)")
        elif self.epsilon is not None:
            raise ValueError("epsilon is only meaningful for stochastic greedy")


@dataclass
class SelectionTrace:
    """Greedy pick sequence with per-pick marginal gains and query count."""

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
        gains = ev.gains(cand)
        trace.evaluations += len(cand)
        k = int(np.argmax(gains))  # first max = smallest id on ties
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
    current needs no re-evaluation. A refreshed entry is accepted only if it
    still beats the best remaining bound, with the id as tiebreaker, which
    reproduces naive greedy's choices exactly.
    """
    n = f.ground_size
    b = min(cfg.budget, n)
    trace = SelectionTrace()
    if b == 0:
        return trace
    ev = f.evaluator()
    init_gains = ev.gains(np.arange(n))
    trace.evaluations += n
    heap = [(-init_gains[i], i, 0) for i in range(n)]
    heapq.heapify(heap)
    while heap and len(trace.chosen) < b:
        neg_gain, x, stamp = heapq.heappop(heap)
        if stamp != len(trace.chosen):
            fresh = float(ev.gains(np.array([x]))[0])
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

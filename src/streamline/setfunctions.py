"""Facility-location set functions and their information-measure variants.

Three monotone submodular objectives over similarity kernels:

* ``FacilityLocation``  F(A)   = sum_i max_{j in A} S[i, j]
* ``FLQMI``             I(A;P) = sum_{i in A} max_{j in P} S[i, j]
                                 + sum_{j in P} max_{i in A} S[i, j]
* ``FLCG``              H(A|P) = sum_i max(max_{j in A} S_uu[i, j]
                                           - max_{j in P} S_up[i, j], 0)

The max over an empty set is 0 everywhere, so every function vanishes on the
empty set and stays monotone on nonnegative kernels. Each instance exposes a
definitional ``value``/``marginal_gain`` pair plus an incremental evaluator
used by the greedy maximizers; the two paths must agree to 1e-9.
"""

from __future__ import annotations

import numpy as np

from .kernels import SimilarityMatrix


class GroundIndexError(IndexError):
    """Raised when a subset refers to an item outside the ground set."""


def _kernel_values(kernel) -> np.ndarray:
    if isinstance(kernel, SimilarityMatrix):
        return kernel.values
    arr = np.asarray(kernel, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"kernel must be 2-D, got shape {arr.shape}")
    return arr


def _check_range(lo: int, hi: int, n: int) -> None:
    """Raise GroundIndexError unless lo and hi lie in the ground set [0, n)."""
    if lo < 0 or hi >= n:
        raise GroundIndexError(f"index {lo if lo < 0 else hi} outside ground set of size {n}")


def _indices(A, n: int) -> np.ndarray:
    arr = np.unique(np.asarray(list(A), dtype=np.intp))
    if arr.size:
        _check_range(arr[0], arr[-1], n)
    return arr


# Candidates per gains block: the reused scratch holds this many kernel columns.
_ROWS = 64


class _CoverageEvaluator:
    """Per-row best-match cache for FL/FLCG style gains.

    Single-owner mutable state: gains(x) = sum_i max(S[i, x] - best_i, 0),
    add(x) folds column x into the cache.

    The kernel is held as T = S.T in C order, free when S is F-ordered and
    one copy otherwise, so column x of S is the contiguous row T[x]. Every
    gain sums one contiguous column in numpy's pairwise order, which is
    also how the gathered columns S[:, c] (F-ordered) were summed, so the
    gains do not depend on the layout of S or on how candidates are
    blocked. Candidates are gathered _ROWS at a time into one reused
    scratch array; an index outside the ground set raises GroundIndexError.
    """

    def __init__(self, S: np.ndarray, baseline: np.ndarray):
        self.T = np.ascontiguousarray(S.T)
        self.best = baseline.copy()
        self._scratch = np.empty((min(_ROWS, self.T.shape[0]), self.T.shape[1]))

    def gains(self, candidates: np.ndarray) -> np.ndarray:
        n = self.T.shape[0]
        if len(candidates) == 1:
            # Lazy greedy's re-evaluations: the blocked path's bits at half
            # its per-call cost, 14% of churn throughput (see CHANGES.md).
            x = int(candidates[0])
            _check_range(x, x, n)
            d = self.T[x] - self.best
            return np.array([np.maximum(d, 0.0, out=d).sum()])
        if len(candidates):
            _check_range(candidates.min(), candidates.max(), n)
        out = np.empty(len(candidates))
        for k in range(0, len(candidates), _ROWS):
            c = candidates[k : k + _ROWS]
            block = np.take(self.T, c, axis=0, out=self._scratch[: len(c)], mode="clip")
            np.subtract(block, self.best, out=block)
            np.maximum(block, 0.0, out=block)
            block.sum(axis=1, out=out[k : k + len(c)])
        return out

    def add(self, x: int) -> None:
        np.maximum(self.best, self.T[x], out=self.best)


class _FlqmiEvaluator(_CoverageEvaluator):
    """FLQMI gains: max_j S[x, j] plus the coverage gains of S.T, whose T is S itself."""

    def __init__(self, S: np.ndarray):
        super().__init__(S.T, np.zeros(S.shape[1]))
        self.row_best = S.max(axis=1)  # max_{j in P} S[x, j], fixed

    def gains(self, candidates: np.ndarray) -> np.ndarray:
        return super().gains(candidates) + self.row_best[candidates]  # the range is checked first


class _SetFunction:
    """Shared definitional machinery; subclasses provide value()/evaluator()."""

    ground_size: int

    def value(self, A) -> float:
        raise NotImplementedError

    def evaluator(self):
        raise NotImplementedError

    def marginal_gain(self, A, x: int) -> float:
        """value(A + {x}) - value(A); x must not already be in A."""
        A = _indices(A, self.ground_size)
        x = int(x)
        _check_range(x, x, self.ground_size)
        if x in A:
            raise ValueError(f"item {x} is already in the subset")
        return self.value(np.append(A, x)) - self.value(A)


class FacilityLocation(_SetFunction):
    """F(A) = sum over kernel rows of the best similarity to any item of A."""

    def __init__(self, kernel):
        self.S = _kernel_values(kernel)
        self.ground_size = self.S.shape[1]

    def value(self, A) -> float:
        A = _indices(A, self.ground_size)
        if A.size == 0:
            return 0.0
        return float(self.S[:, A].max(axis=1).sum())

    def evaluator(self) -> _CoverageEvaluator:
        return _CoverageEvaluator(self.S, np.zeros(self.S.shape[0]))


class FLQMI(_SetFunction):
    """Mutual-information variant against a fixed query set P.

    The kernel is |ground| x |P|; subsets A are drawn from the row axis.
    """

    def __init__(self, kernel):
        self.S = _kernel_values(kernel)
        self.ground_size = self.S.shape[0]

    def value(self, A) -> float:
        A = _indices(A, self.ground_size)
        if A.size == 0:
            return 0.0
        sub = self.S[A, :]
        return float(sub.max(axis=1).sum() + sub.max(axis=0).sum())

    def evaluator(self) -> _FlqmiEvaluator:
        return _FlqmiEvaluator(self.S)


class FLCG(_SetFunction):
    """Conditional gain of A over a private set P.

    Needs two kernels sharing the same row ordering: ground x ground
    similarities and ground x P similarities. Rows already covered by P
    contribute nothing until A covers them better.
    """

    def __init__(self, kernel_uu, kernel_up=None):
        self.S = _kernel_values(kernel_uu)
        if self.S.shape[0] != self.S.shape[1]:
            raise ValueError(f"ground kernel must be square, got {self.S.shape}")
        self.ground_size = self.S.shape[1]
        if kernel_up is None:
            self.private_best = np.zeros(self.S.shape[0])
        else:
            S_up = _kernel_values(kernel_up)
            if S_up.shape[0] != self.S.shape[0]:
                raise ValueError(
                    f"kernels disagree on ground size: {self.S.shape[0]} vs {S_up.shape[0]}"
                )
            self.private_best = S_up.max(axis=1) if S_up.shape[1] else np.zeros(S_up.shape[0])

    def value(self, A) -> float:
        A = _indices(A, self.ground_size)
        if A.size == 0:
            return 0.0
        covered = self.S[:, A].max(axis=1)
        return float(np.maximum(covered - self.private_best, 0.0).sum())

    def evaluator(self) -> _CoverageEvaluator:
        return _CoverageEvaluator(self.S, self.private_best)


def smi_value(F: _SetFunction, A, B) -> float:
    """Mutual information under F: F(A) + F(B) - F(A | B joined)."""
    A = _indices(A, F.ground_size)
    B = _indices(B, F.ground_size)
    return F.value(A) + F.value(B) - F.value(np.union1d(A, B))


def scg_value(F: _SetFunction, A, B) -> float:
    """Conditional gain under F: F(A | B joined) - F(B)."""
    A = _indices(A, F.ground_size)
    B = _indices(B, F.ground_size)
    return F.value(np.union1d(A, B)) - F.value(B)


def flqmi_normalizer(u_size: int, p_size: int) -> int:
    """Size normalizer for mutual-information scores: |U| + |P|."""
    return int(u_size) + int(p_size)

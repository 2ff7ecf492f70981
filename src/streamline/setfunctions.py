"""Facility-location set functions and their information-measure variants.

Three monotone submodular objectives over similarity kernels:

* ``FacilityLocation``  F(A)   = sum_i max_{j in A} S[i, j]
* ``FLQMI``             I(A;P) = sum_{i in A} max_{j in P} S[i, j]
                                 + sum_{j in P} max_{i in A} S[i, j]
* ``FLCG``              H(A|P) = sum_i w_i max(max_{j in A} S_uu[i, j]
                                               - max_{j in P} S_up[i, j], 0)

FLCG's row weights w_i default to 1; a weight counts the copies a row
stands for, so a multiset's gain is summed over its distinct rows.

The max over an empty set is 0 everywhere, so every function vanishes on the
empty set and stays monotone on nonnegative kernels. Each function checks
its kernels once, when it is made (FLCG._built takes a self kernel that is
in [0, 1] by construction): they must be 2-D, finite and nonnegative, and
so must FLCG's weights. Each instance exposes a
definitional ``value``/``marginal_gain`` pair plus an incremental evaluator
used by the greedy maximizers; the two paths must agree to 1e-9.
"""

from __future__ import annotations

import numpy as np


class GroundIndexError(IndexError):
    """Raised when a subset refers to an item outside the ground set."""


def _checked(a: np.ndarray, entry: str) -> np.ndarray:
    """a, or ValueError naming its first entry that is negative or not finite,
    as entry formatted with its indices. A min and a max pass decide, as NaN
    fails both."""
    if a.size and not (a.min() >= 0.0 and a.max() < np.inf):
        at = tuple(np.argwhere(~((a >= 0.0) & (a < np.inf)))[0].tolist())
        why = "negative" if np.isfinite(a[at]) else "not finite"
        raise ValueError(f"{entry.format(*at)} is {why}")
    return a


def _kernel_values(kernel) -> np.ndarray:
    """kernel as a float64 array; ValueError unless it is 2-D, finite and nonnegative."""
    S = np.asarray(kernel, dtype=np.float64)
    if S.ndim != 2:
        raise ValueError(f"kernel must be 2-D, got shape {S.shape}")
    return _checked(S, "kernel entry ({}, {})")


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


def _coverage_gains(rows: np.ndarray, best: np.ndarray, weights, scratch: np.ndarray, out: np.ndarray) -> None:
    """out[k] = sum_i w_i max(rows[k, i] - best_i, 0) for each row k of rows, worked in scratch.

    scratch has the shape of rows and may be rows itself. Each row is summed
    whole, in numpy's pairwise order, so a row's gain does not depend on
    the rows around it.
    """
    d = np.subtract(rows, best, out=scratch)
    np.maximum(d, 0.0, out=d)
    if weights is not None:
        np.multiply(d, weights, out=d)
    d.sum(axis=1, out=out)


class _CoverageEvaluator:
    """Per-row best-match cache for FL/FLCG style gains.

    Single-owner mutable state: gains(x) = sum_i w_i max(S[i, x] - best_i, 0),
    add(x) folds column x into the cache. Without weights every w_i is 1
    and no multiply is made; with them each row's term is multiplied by its
    weight before the same sum.

    The kernel is held as T = S.T in C order, free when S is F-ordered and
    one copy otherwise, so column x of S is the contiguous row T[x]. Every
    gain sums one contiguous column in numpy's pairwise order, which is
    also how the gathered columns S[:, c] (F-ordered) were summed, so the
    gains do not depend on the layout of S or on how candidates are
    blocked. gains gathers its candidates _ROWS at a time into one reused
    scratch array; an index outside the ground set raises GroundIndexError.
    gain(x) is gains of the one candidate x, the same bits as a float, for
    lazy greedy, which re-evaluates each stale candidate alone: it skips
    the range check, the gather and the output array, which are most of
    the cost of a one-candidate gains call, and works in a reused row of
    its own.

    first, if given, holds every candidate's gain before any add, as
    _coverage_gains took them from T's rows while they were built (the band
    visit of core._scored_self_kernel); every gains call before the first
    add is answered from it, with the same bits: lazy greedy's heap, naive
    greedy's first sweep and stochastic greedy's first sample.
    """

    def __init__(self, S: np.ndarray, baseline: np.ndarray, weights: np.ndarray | None = None, first=None):
        self.T = np.ascontiguousarray(S.T)
        self.best = baseline.copy()
        self.weights = weights
        self.first = first
        self._scratch = np.empty((min(_ROWS, self.T.shape[0]), self.T.shape[1]))
        self._row = np.empty(self.T.shape[1])  # gain's scratch

    def gains(self, candidates: np.ndarray) -> np.ndarray:
        if len(candidates):
            _check_range(candidates.min(), candidates.max(), self.T.shape[0])
        if self.first is not None:
            return self.first[candidates]
        out = np.empty(len(candidates))
        for k in range(0, len(candidates), _ROWS):
            c = candidates[k : k + _ROWS]
            block = np.take(self.T, c, axis=0, out=self._scratch[: len(c)], mode="clip")
            _coverage_gains(block, self.best, self.weights, block, out[k : k + len(c)])
        return out

    def gain(self, x: int) -> float:
        """gains(np.array([x]))[0] as a float, for an x in the ground set."""
        d = np.subtract(self.T[x], self.best, out=self._row)
        np.maximum(d, 0.0, out=d)
        if self.weights is not None:
            np.multiply(d, self.weights, out=d)
        return float(d.sum())

    def add(self, x: int) -> None:
        self.first = None
        np.maximum(self.best, self.T[x], out=self.best)


class _FlqmiEvaluator(_CoverageEvaluator):
    """FLQMI gains: max_j S[x, j] plus the coverage gains of S.T, whose T is S itself."""

    def __init__(self, S: np.ndarray):
        super().__init__(S.T, np.zeros(S.shape[1]))
        self.row_best = S.max(axis=1, initial=0.0)  # max_{j in P} S[x, j], fixed; 0 for an empty P

    def gains(self, candidates: np.ndarray) -> np.ndarray:
        return super().gains(candidates) + self.row_best[candidates]  # the range is checked first

    def gain(self, x: int) -> float:
        return super().gain(x) + float(self.row_best[x])


class _SetFunction:
    """Shared definitional machinery; subclasses provide value()/evaluator()."""

    ground_size: int

    def marginal_gain(self, A, x: int) -> float:
        """value(A + {x}) - value(A); x must not already be in A."""
        A = _indices(A, self.ground_size)
        x = int(x)
        _check_range(x, x, self.ground_size)
        if x in A:
            raise ValueError(f"item {x} is already in the subset")
        return self.value(np.append(A, x)) - self.value(A)


class FacilityLocation(_SetFunction):
    """F(A) = sum over kernel rows of the best similarity to any item of A.

    On a nonnegative kernel this is FLCG with every private best 0 and no
    weights, so the two share one value and one evaluator.
    """

    first_gains = None  # see FLCG._built

    def __init__(self, kernel):
        self.S = _kernel_values(kernel)
        self.ground_size = self.S.shape[1]
        self.private_best = np.zeros(self.S.shape[0])
        self.weights = None

    def value(self, A) -> float:
        A = _indices(A, self.ground_size)
        if A.size == 0:
            return 0.0
        terms = np.maximum(self.S[:, A].max(axis=1) - self.private_best, 0.0)
        return float((terms if self.weights is None else terms * self.weights).sum())

    def evaluator(self) -> _CoverageEvaluator:
        return _CoverageEvaluator(self.S, self.private_best, self.weights, self.first_gains)


class FLQMI(_SetFunction):
    """Mutual-information variant against a fixed query set P.

    The kernel is |ground| x |P|; subsets A are drawn from the row axis.
    An empty P gives I(A; P) = 0.
    """

    def __init__(self, kernel):
        self.S = _kernel_values(kernel)
        self.ground_size = self.S.shape[0]

    def value(self, A) -> float:
        A = _indices(A, self.ground_size)
        if A.size == 0:
            return 0.0
        sub = self.S[A, :]
        return float(sub.max(axis=1, initial=0.0).sum() + sub.max(axis=0).sum())

    def evaluator(self) -> _FlqmiEvaluator:
        return _FlqmiEvaluator(self.S)


class FLCG(FacilityLocation):
    """Conditional gain of A over a private set P.

    Needs two kernels sharing the same row ordering: ground x ground
    similarities and ground x P similarities. Rows already covered by P
    contribute nothing until A covers them better. weights, one finite,
    nonnegative weight per row, multiply each row's term in value and in the evaluator alike; None
    weighs every row 1 and computes exactly the unweighted sum.
    """

    def __init__(self, kernel_uu, kernel_up=None, weights=None):
        super().__init__(kernel_uu)
        n = self.S.shape[0]
        if n != self.S.shape[1]:
            raise ValueError(f"ground kernel must be square, got {self.S.shape}")
        if kernel_up is not None:
            S_up = _kernel_values(kernel_up)
            if S_up.shape[0] != n:
                raise ValueError(f"kernels disagree on ground size: {n} vs {S_up.shape[0]}")
            self.private_best = S_up.max(axis=1, initial=0.0)
        if weights is not None:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (n,):
                raise ValueError(f"weights disagree on ground size: {n} vs {w.shape}")
            self.weights = _checked(w, "weight row {}")

    @classmethod
    def _built(cls, kernel_uu: np.ndarray, private_best: np.ndarray, weights, first_gains: np.ndarray) -> FLCG:
        """FLCG(kernel_uu, private_best[:, None], weights) without its checks.

        For a caller that checked the private best and the weights already,
        and took each column's gain over private_best with _coverage_gains:
        its evaluators answer from first_gains until their first add.
        kernel_uu is taken unchecked, as core builds it: the clipped cosines
        of unit rows whose embeddings were checked finite and nonzero when
        they were set, so every entry lies in [0, 1] by construction.
        """
        f = cls.__new__(cls)
        f.S, f.ground_size, f.private_best, f.weights = kernel_uu, kernel_uu.shape[1], private_best, weights
        f.first_gains = first_gains
        return f


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

"""Slice-aware streaming selection: identify, budget, select.

One streaming round takes an unlabeled episode buffer, matches it to the
labeled slice it most plausibly came from (normalized mutual-information
score), grants a budget that withholds labels on well-covered common slices
and releases the accumulated excess on rare ones, then picks the items that
add the most coverage beyond what the identified slice already has.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .kernels import _PANEL, _kernel, _row_col_max, _workspace, first_bad_row, row_norms
from .kernels import build_kernel  # noqa: F401  perfbench/spans.py traces core.build_kernel
from .maximize import MaximizerConfig, SelectionTrace, _check_budget, maximize
from .setfunctions import FLCG, FLQMI, _checked, _coverage_gains, flqmi_normalizer


class EmptySliceError(ValueError):
    """Raised when a labeled slice has no exemplars."""

    def __init__(self, slice_id: int):
        self.slice_id = slice_id
        super().__init__(f"slice {slice_id} is empty; identification needs at least one exemplar")


def _integer(v, what: str, row: int) -> int:
    """One id or label as a Python int; ValueError names its row."""
    if isinstance(v, (float, np.floating)):
        if not math.isfinite(v):
            raise ValueError(f"{what} row {row} is not finite")
        if v != math.trunc(v):
            raise ValueError(f"{what} row {row} is not integral")
    elif not isinstance(v, (int, np.integer)):
        raise ValueError(f"{what} row {row} is not an integer")
    if not -(2**63) <= int(v) < 2**63:
        raise ValueError(f"{what} row {row} is out of int64's range")
    return int(v)


def _integers(values, what: str, *, nonnegative: bool = False) -> np.ndarray:
    """values as a 1-D int64 array. ValueError names the field when values is
    not 1-D, and the first row that is not an integer, not finite, not
    integral, out of int64's range or (with nonnegative) negative."""
    try:
        a = np.asarray(values)
    except ValueError:  # a ragged nest of sequences
        raise ValueError(f"{what}s must be 1-D, got a ragged sequence") from None
    if a.ndim != 1:
        raise ValueError(f"{what}s must be 1-D, got shape {a.shape}")
    if a.dtype.kind not in "biuf" or (a.dtype.kind == "f" and not isinstance(values, np.ndarray)):
        # Objects, strings and complex values are judged one by one, as given,
        # and so is a sequence numpy made float, which rounds an int above 2**53.
        a = np.array([_integer(v, what, row) for row, v in enumerate(values)], dtype=np.int64)
    bad = None
    if a.dtype.kind == "f":  # the rows _integer rejects
        with np.errstate(invalid="ignore"):
            bad = ~np.isfinite(a) | (a != np.trunc(a)) | (a < -(2.0**63)) | (a >= 2.0**63)
    elif a.dtype.kind == "u":  # whose cast would wrap 2**64 - 1 to -1
        bad = a > np.iinfo(np.int64).max
    if bad is not None and bad.any():
        row = int(np.argmax(bad))
        _integer(a[row], what, row)  # raises, naming why
    ints = a.astype(np.int64, copy=False)
    if nonnegative and (neg := ints < 0).any():
        raise ValueError(f"{what} row {int(np.argmax(neg))} is negative")
    return ints


class _EmbeddedRows:
    """Items with ids and embedding rows X, checked and normed whenever X is set.

    Setting X, at construction or later, makes it a C-contiguous 2-D float64
    array (whose row norms do not depend on the layout given), raises
    ValueError naming its first row whose norm is 0 or not finite, and keeps
    the norms. X is never written in place, so every reader trusts them.
    """

    _what = ""  # the rows' name in errors

    @property
    def X(self) -> np.ndarray:
        return self._X

    @X.setter
    def X(self, X) -> None:
        X = np.ascontiguousarray(X, dtype=np.float64)
        X = X.reshape(0, 0) if X.ndim == 1 and not X.size else np.atleast_2d(X)  # [] has no rows
        if X.ndim != 2:
            raise ValueError(f"{self._what} embeddings must be 2-D, got shape {X.shape}")
        norms = row_norms(X)
        if bad := first_bad_row(X, norms):
            raise ValueError(f"{self._what} embedding row %d is %s" % bad)
        self._keep(X, norms)

    def _keep(self, X: np.ndarray, norms: np.ndarray) -> None:
        """Keep rows X, already checked, and their norms."""
        self._X, self._norms = X, norms

    def unit_rows(self) -> np.ndarray:
        """normalize_rows(X), bit for bit, from the kept norms; each call returns a fresh array."""
        return self.X / self._norms[:, None]

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class LabeledSlice(_EmbeddedRows):
    """One labeled partition: parallel arrays of item id, label, embedding."""

    ids: np.ndarray
    labels: np.ndarray
    X: np.ndarray = field()  # without a default, __init__ sets X through _EmbeddedRows.X
    _what = "labeled"

    def __post_init__(self):
        self.ids = _integers(self.ids, "labeled id")
        self.labels = _integers(self.labels, "label", nonnegative=True)
        if not (len(self.ids) == len(self.labels) == self.X.shape[0]):
            raise ValueError(
                "ids, labels and embeddings must have equal length, got "
                f"{len(self.ids)}, {len(self.labels)} and {self.X.shape[0]}"
            )


class SlicedLabeledPool:
    """Labeled buffer partitioned into slices, disjoint by item id."""

    def __init__(self, slices: Sequence[LabeledSlice], rare_flags: Sequence[bool]):
        if len(slices) < 1:
            raise ValueError("pool needs at least one slice")
        if len(rare_flags) != len(slices):
            raise ValueError("rare_flags must have one entry per slice")
        self.slices = list(slices)
        self.rare_flags = np.asarray(rare_flags, dtype=bool)
        self._seen_ids: set[int] = set()
        for t, sl in enumerate(self.slices):
            if len(sl) == 0:
                raise EmptySliceError(t)
            self._check_dim(f"slice {t}", sl.X, self.slices[0].X.shape[1])
            ids = sl.ids.tolist()
            try:
                self.check_new(ids)
            except ValueError as exc:
                raise ValueError(f"slice {t}: {exc}") from None
            self._seen_ids.update(ids)

    @staticmethod
    def _check_dim(what: str, X: np.ndarray, dim: int) -> None:
        if X.shape[1] != dim:
            raise ValueError(f"{what}: embedding dim {X.shape[1]} differs from the pool's {dim}")

    @property
    def num_slices(self) -> int:
        return len(self.slices)

    @property
    def sizes(self) -> np.ndarray:
        return np.array([len(sl) for sl in self.slices], dtype=np.int64)

    @property
    def total_size(self) -> int:
        return int(self.sizes.sum())

    def check_slice(self, t) -> int:
        """t as an int; ValueError unless it is a non-bool integer in [0, num_slices)."""
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or not 0 <= t < self.num_slices:
            raise ValueError(f"slice {t} is not in [0, {self.num_slices})")
        return int(t)

    def check_new(self, ids) -> None:
        """Raise ValueError naming the first id that is repeated or already labeled."""
        fresh: set[int] = set()
        for i in ids:
            i = int(i)
            if i in fresh or i in self._seen_ids:
                raise ValueError(f"item id {i} is {'repeated' if i in fresh else 'already labeled'}")
            fresh.add(i)

    def add(self, t: int, ids, labels, X) -> None:
        """Append newly labeled items to slice t; ids must be globally new.

        The new items are checked as LabeledSlice checks them, so only the new
        rows are normed; the slice keeps the norms of the rows it had.
        """
        t = self.check_slice(t)
        new = LabeledSlice(ids, labels, X)
        sl = self.slices[t]
        self._check_dim(f"slice {t}", new.X, sl.X.shape[1])
        self.check_new(new.ids)
        self._seen_ids.update(new.ids.tolist())
        sl.ids = np.concatenate([sl.ids, new.ids])
        sl.labels = np.concatenate([sl.labels, new.labels])
        sl._keep(np.vstack([sl.X, new.X]), np.concatenate([sl._norms, new._norms]))

    def add_selected(self, t: int, buffer: UnlabeledBuffer, ids, label_oracle) -> None:
        """Label the selected buffer ids and append their rows to slice t.

        ValueError names a bad slice t, or the first id that is not an
        integer, outside the buffer, repeated or already labeled, before
        label_oracle is asked for anything; it is asked with a copy of the
        ids. The picked rows and their labels are then appended through add.
        """
        self.check_slice(t)
        ids = _integers(ids, "selected id").tolist()
        if not ids:
            return
        pos = {i: k for k, i in enumerate(buffer.ids.tolist())}
        if outside := [i for i in ids if i not in pos]:
            raise ValueError(f"selected id {outside[0]} is not in the buffer")
        self.check_new(ids)
        sel = np.asarray(ids, dtype=np.int64)
        self.add(t, sel, label_oracle(sel.copy()), buffer.X[[pos[i] for i in ids]])

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """All labeled data as (X, labels), slices concatenated in order."""
        X = np.vstack([sl.X for sl in self.slices])
        y = np.concatenate([sl.labels for sl in self.slices])
        return X, y


def _copies(X: np.ndarray, norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each group of copies in X, ascending, and each row's group.

    X is C-contiguous float64 and norms are its row norms. Rows are copies
    when their bits are equal. Copies have equal norms, so a buffer whose
    norms are all distinct has none; where norms repeat, each row is
    compared with the first row of its norm, and only if two unequal rows
    share a norm are the rows grouped by their bytes.
    """
    _, first, group = np.unique(norms, return_index=True, return_inverse=True)
    if len(first) < len(norms):
        bits = X.view(np.int64)
        if not np.array_equal(bits, bits[first[group]]):
            rows = bits.view(np.dtype((np.void, bits.strides[0]))).ravel()
            _, first, group = np.unique(rows, return_index=True, return_inverse=True)
    rep = first[group]  # each row's first copy
    distinct = np.flatnonzero(rep == np.arange(len(rep)))
    return distinct, np.searchsorted(distinct, rep)


@dataclass
class UnlabeledBuffer(_EmbeddedRows):
    """One arriving episode. true_slice/true_labels are harness-side ground
    truth, invisible to identification and selection.

    Setting X also finds its copies (_copies), which identification and
    selection read through _distinct_unit_rows.
    """

    ids: np.ndarray
    X: np.ndarray = field()  # without a default, __init__ sets X through _EmbeddedRows.X
    true_slice: int = -1
    true_labels: np.ndarray | None = None
    _what = "buffer"

    def __post_init__(self):
        self.ids = _integers(self.ids, "buffer id")
        if len(self.ids) == 0:
            raise ValueError("unlabeled buffer must be nonempty")
        if len(self.ids) != self.X.shape[0]:
            raise ValueError(
                "ids and embeddings must have equal length, got "
                f"{len(self.ids)} and {self.X.shape[0]}"
            )
        if len(first := np.unique(self.ids, return_index=True)[1]) != len(self.ids):
            repeat = np.setdiff1d(np.arange(len(self.ids)), first)[0]  # the first row that repeats an id
            raise ValueError(f"buffer id {self.ids[repeat]} is repeated")

    def _keep(self, X: np.ndarray, norms: np.ndarray) -> None:
        super()._keep(X, norms)
        self._distinct, self._copy_of = _copies(X, norms)

    def _distinct_unit_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The unit rows of the distinct rows, their first occurrences in order, and each row's index among them."""
        return self.X[self._distinct] / self._norms[self._distinct, None], self._distinct, self._copy_of


@dataclass(frozen=True)
class BudgetState:
    """Per-run budget parameters plus the accumulated excess."""

    B: int
    rho: float
    gamma: float = 0.0

    def __post_init__(self):
        if isinstance(self.B, bool) or not isinstance(self.B, (int, np.integer)) or self.B < 0:
            raise ValueError(f"base budget B must be a nonnegative integer, got {self.B!r}")
        if isinstance(self.rho, bool) or not isinstance(self.rho, numbers.Real) or not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be a real number in [0, 1], got {self.rho!r}")
        if not (0.0 <= self.gamma < math.inf):
            raise ValueError(f"gamma must be finite and nonnegative, got {self.gamma}")


@dataclass(frozen=True)
class BudgetDecision:
    """Internals of one budgeting step.

    branch "rare": b = B + sigma with sigma drawn from gamma, at most the
    amount needed to lift the slice to the common-slice average.
    branch "common": b = floor(B*rho + (1-rho)*B*beta/|P_t|); the withheld
    remainder B - b accrues to gamma.
    """

    b: int
    d: float
    beta: int
    sigma: float
    branch: str


@dataclass
class IdentificationResult:
    """The identified slice, every slice's score, and the buffer's row maxima.

    row_max[i] is max_j S[i, j] over the buffer x identified-slice kernel,
    the private best that FLCG selection over that slice starts from.
    """

    slice_id: int
    scores: np.ndarray
    row_max: np.ndarray

    @property
    def margin(self) -> float:
        """The winning score minus the runner-up's; 0.0 for a one-slice pool."""
        if len(self.scores) < 2:
            return 0.0
        top = np.sort(self.scores)
        return float(top[-1] - top[-2])


def smidentify_scores(kernels) -> np.ndarray:
    """Normalized mutual-information score per candidate slice.

    Each kernel is |U| x |P_i|; the score is the full-buffer FLQMI value
    divided by |U| + |P_i| so that slice size does not dominate.
    """
    scores = np.empty(len(kernels))
    for i, K in enumerate(kernels):
        f = FLQMI(K)
        n_u, n_p = f.S.shape
        scores[i] = f.value(np.arange(n_u)) / flqmi_normalizer(n_u, n_p)
    return scores


def smidentify(pool: SlicedLabeledPool, buffer: UnlabeledBuffer) -> IdentificationResult:
    """Identify the labeled slice the buffer most plausibly belongs to.

    Each slice's score is smidentify_scores of the cosine buffer x slice
    kernel on raw embeddings, from its row and column maxima alone. That
    kernel is the one over the buffer's distinct rows, expanded by copy:
    exact copies cost one kernel row and share its maximum. It can differ
    from the all-rows kernel in the last bit, as BLAS may round a row's
    cells by where the row sits in the product. Both sides are divided by
    the norms kept when X was set, so no row is checked or normed again.
    A buffer whose dim differs from the pool's raises ValueError before any
    product. Ties break toward the smallest slice index.
    Returns the winning index, the full score vector for diagnostics, and
    the buffer's row maxima against the winner.
    """
    for t, sl in enumerate(pool.slices):
        if len(sl) == 0:
            raise EmptySliceError(t)
    pool._check_dim("buffer", buffer.X, pool.slices[0].X.shape[1])
    R, _, copy_of = buffer._distinct_unit_rows()  # once, for every slice
    scores, row_maxima = np.empty(pool.num_slices), []
    for t, sl in enumerate(pool.slices):
        # smidentify_scores on that kernel, from its row and column maxima
        row, col = _row_col_max(R, sl.unit_rows())
        row = row[copy_of]  # col needs no expansion: a max over copies is a max over the distinct rows
        scores[t] = (row.sum() + col.sum()) / flqmi_normalizer(len(row), len(col))
        row_maxima.append(row)
    t = int(np.argmax(scores))
    return IdentificationResult(slice_id=t, scores=scores, row_max=row_maxima[t])


def slice_aware_budget(
    pool: SlicedLabeledPool, state: BudgetState, t: int
) -> tuple[BudgetDecision, BudgetState]:
    """Grant this round's labeling budget for identified slice t.

    Common slices get a floored fraction of the base budget, scaled down by
    how much larger the slice is than the smallest one; the rest accrues to
    gamma. Rare slices spend gamma, up to the deficit against the average
    common-slice size. All granted budgets are integers and gamma never goes
    negative.
    """
    t = pool.check_slice(t)
    sizes = pool.sizes
    B, gamma = state.B, state.gamma
    beta = int(sizes.min())
    # Exact rational arithmetic on the decimal rho and the integer sizes: a
    # float law lands one under an intended integer at large budgets.
    if pool.rare_flags[t]:
        common = sizes[~pool.rare_flags]
        d = (Fraction(int(common.sum()), len(common)) if len(common) else Fraction(0)) - int(sizes[t])
        sigma = max(min(math.floor(gamma), math.floor(d - B)), 0)
        decision = BudgetDecision(b=B + sigma, d=float(d), beta=beta, sigma=float(sigma), branch="rare")
    else:
        rho = Fraction(str(state.rho))
        b = math.floor(B * (rho + (1 - rho) * Fraction(beta, int(sizes[t]))))
        decision = BudgetDecision(b=b, d=0.0, beta=beta, sigma=0.0, branch="common")
    return decision, replace(state, gamma=gamma + (B - decision.b))


def _capped_budget(b, buffer: UnlabeledBuffer) -> int:
    """b capped at the buffer size; ValueError naming budget unless b is a non-bool integer >= 0."""
    return min(_check_budget(b), len(buffer))


def _scored_self_kernel(R: np.ndarray, best: np.ndarray, weights) -> tuple[np.ndarray, np.ndarray]:
    """S_uu, the clipped cosine kernel of unit rows R, in the thread's kernel
    workspace, and each row x's gain sum_i w_i max(S_uu[x, i] - best_i, 0).

    S_uu is built band by band (kernels._kernel). Each panel of a band is,
    while still in cache, checked by _kernel_values' rule, naming its entry
    of S_uu (kernel entry (i, j) is not finite), and scored by
    _coverage_gains, the evaluator's own gains, in the panel scratch of the
    thread that built it. That scratch is fresh per call, as the
    evaluator's is: carved from the workspace, it stayed resident and
    raised peak RSS at the scaled shape by 2 MB. So S_uu is read once, and
    FLCG._built takes it as checked. Above the gate the helper thread
    builds, checks and scores the second half of the bands; an error is
    raised once both halves are done.
    """
    m = len(R)
    S, scratch, gains = _workspace(m, m), np.empty((2, min(_PANEL, m), m)), np.empty(m)

    def visit(k: int, rows: slice) -> None:
        panel = _checked(S[rows], "kernel entry ({}, {})", rows.start)
        _coverage_gains(panel, best, weights, scratch[k, : len(panel)], gains[rows])

    return _kernel(R, R, S, visit), gains


def _distinct_row_greedy(
    buffer: UnlabeledBuffer, b: int, maximizer_cfg: MaximizerConfig, private_best: np.ndarray
) -> SelectionTrace:
    """The FLCG greedy's trace of b buffer indices, 0 < b <= len(buffer),
    from each buffer row's private best (all 0 for facility location).

    Each distinct row of the buffer is one candidate: it stands for its
    first occurrence, starts from that occurrence's private best and has
    its gain weighted by its copy count, the all-rows gain summed by copy,
    so a copy of a picked row adds exactly 0. Picks stop at the first gain
    that rounds to 0, and the budget is filled with the unpicked indices in
    ascending order: the all-rows greedy takes the same items, since gains
    never rise again, ties break to the smallest index and the 2**-30 grid
    hides the weighted sums' last bits. Stochastic greedy, whose seeded
    draws are over buffer indices, runs over every row with no fill. S_uu
    and each candidate's first gain come from _scored_self_kernel, and no
    kernel call is made while the greedy holds S_uu; FLCG gets its
    transpose view, whose rows the evaluator reads contiguously.
    """
    n = len(buffer)
    R, first, copy_of = buffer._distinct_unit_rows()
    if stochastic := maximizer_cfg.algorithm == "stochastic":
        R, first = buffer.unit_rows(), np.arange(n)
    best, weights = private_best[first], None if len(R) == n else np.bincount(copy_of).astype(np.float64)
    S, gains = _scored_self_kernel(R, best, weights)
    f = FLCG._built(S.T, best, weights, gains)
    greedy = maximize(f, replace(maximizer_cfg, budget=min(b, len(R))))
    k = len(greedy.gains) if stochastic or 0.0 not in greedy.gains else greedy.gains.index(0.0)
    picked = first[greedy.chosen[:k]].tolist()
    rest = np.setdiff1d(np.arange(n), picked)[: b - k].tolist()  # ascending
    return SelectionTrace(picked + rest, greedy.gains[:k] + [0.0] * len(rest), greedy.evaluations)


def scg_select(
    pool: SlicedLabeledPool,
    buffer: UnlabeledBuffer,
    t: int,
    b: int,
    maximizer_cfg: MaximizerConfig,
    *,
    row_max: np.ndarray | None = None,
    return_trace: bool = False,
):
    """Pick up to b buffer items maximizing conditional gain over slice t.

    Kernels are cosine on raw embeddings; _capped_budget checks and caps b.
    Returns global item ids in selection order, and with return_trace also
    the SelectionTrace over buffer indices. The greedy is
    _distinct_row_greedy's, from row_max[i] = max_j S_up[i, j] taken over the
    buffer's distinct rows as smidentify takes it; pass smidentify's row_max
    against slice t to skip that pass. A row_max given must be 1-D, with
    one finite, nonnegative entry per buffer row; ValueError names it and
    its first bad row (row_max row 0 is not finite) before any product.
    """
    t, n = pool.check_slice(t), len(buffer)
    if not (b := _capped_budget(b, buffer)):
        return ([], SelectionTrace()) if return_trace else []
    if row_max is None:
        R, _, copy_of = buffer._distinct_unit_rows()
        row_max = _row_col_max(R, pool.slices[t].unit_rows())[0][copy_of]
    try:
        row_max = np.asarray(row_max, dtype=np.float64)
    except (TypeError, ValueError):  # ragged, or not numbers
        raise ValueError("row_max must be a 1-D array of numbers") from None
    if row_max.ndim != 1:
        raise ValueError(f"row_max must be 1-D, got shape {row_max.shape}")
    if len(row_max) != n:
        raise ValueError(f"row maxima disagree with the buffer on ground size: {len(row_max)} vs {n}")
    _checked(row_max, "row_max row {}")
    trace = _distinct_row_greedy(buffer, b, maximizer_cfg, row_max)
    ids = [int(buffer.ids[i]) for i in trace.chosen]
    return (ids, trace) if return_trace else ids


@dataclass
class StreamlineConfig:
    """Knobs for one streaming round.

    Identification and selection both see the raw embeddings through cosine
    similarity. fixed_budget disables accumulation and always grants the
    base budget; selector_fn, when given, replaces the conditional-gain
    selection with callable(pool, buffer, t, b) -> ids.
    """

    maximizer: MaximizerConfig = field(default_factory=lambda: MaximizerConfig(budget=0))
    fixed_budget: bool = False
    selector_fn: Callable | None = None


@dataclass
class RoundReport:
    """What one round did: identification, budget internals, selections.

    margin is identification's top-2 score gap (IdentificationResult.margin);
    select_evaluations is the greedy's evaluation count, 0 under selector_fn.
    """

    identified_slice: int
    decision: BudgetDecision
    selected_ids: list[int]
    scores: np.ndarray
    gamma_after: float
    margin: float
    select_evaluations: int


def streamline_round(
    pool: SlicedLabeledPool,
    buffer: UnlabeledBuffer,
    state: BudgetState,
    cfg: StreamlineConfig,
    label_oracle: Callable[[np.ndarray], np.ndarray],
) -> tuple[RoundReport, SlicedLabeledPool, BudgetState]:
    """Run identify -> budget -> select -> label -> augment for one episode.

    Selected items are appended to the identified slice even when the
    identification was wrong; the caller retrains afterwards. The granted
    budget is capped at the buffer size. The selection (from scg_select or
    selector_fn) must hold at most that many distinct, unlabeled buffer
    ids; otherwise ValueError names the offending id before anything is
    labeled.

    Conservation: with slice-aware budgeting every round banks B minus the
    labels it spent, gamma_after = gamma_before + B - len(selected_ids)
    (negative banking when a rare round draws on gamma), so labels granted
    but not spent, whether capped by the buffer size or left over by a short
    selection, stay in gamma. A fixed budget leaves the state unchanged.
    """
    ident = smidentify(pool, buffer)
    t = ident.slice_id

    if cfg.fixed_budget:
        decision = BudgetDecision(
            b=state.B, d=0.0, beta=int(pool.sizes.min()), sigma=0.0, branch="fixed"
        )
    else:
        decision, _ = slice_aware_budget(pool, state, t)

    granted = min(decision.b, len(buffer))
    evaluations = 0
    if cfg.selector_fn is not None:
        selected = cfg.selector_fn(pool, buffer, t, granted)
    else:  # identify already took the buffer's row maxima against slice t
        selected, trace = scg_select(pool, buffer, t, granted, cfg.maximizer, row_max=ident.row_max, return_trace=True)
        evaluations = trace.evaluations

    selected = _integers(selected, "selected id").tolist()
    if len(selected) > granted:
        raise ValueError(f"selection of {len(selected)} ids exceeds the granted {granted}")
    pool.add_selected(t, buffer, selected, label_oracle)
    new_state = state if cfg.fixed_budget else replace(state, gamma=state.gamma + (state.B - len(selected)))

    report = RoundReport(
        identified_slice=t,
        decision=decision,
        selected_ids=selected,
        scores=ident.scores,
        gamma_after=new_state.gamma,
        margin=ident.margin,
        select_evaluations=evaluations,
    )
    return report, pool, new_state

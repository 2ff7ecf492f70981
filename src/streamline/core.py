"""Slice-aware streaming selection: identify, budget, select.

One streaming round takes an unlabeled episode buffer, matches it to the
labeled slice it most plausibly came from (normalized mutual-information
score), grants a budget that withholds labels on well-covered common slices
and releases the accumulated excess on rare ones, then picks the items that
add the most coverage beyond what the identified slice already has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .kernels import _row_col_max, _transposed_self_kernel, first_bad_row, normalize_rows
from .kernels import build_kernel  # noqa: F401  perfbench/spans.py traces core.build_kernel
from .maximize import MaximizerConfig, maximize
from .setfunctions import FLCG, FLQMI, flqmi_normalizer


class EmptySliceError(ValueError):
    """Raised when a labeled slice has no exemplars."""

    def __init__(self, slice_id: int):
        self.slice_id = slice_id
        super().__init__(f"slice {slice_id} is empty; identification needs at least one exemplar")


@dataclass
class LabeledSlice:
    """One labeled partition: parallel arrays of item id, label, embedding."""

    ids: np.ndarray
    labels: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.X = np.atleast_2d(np.asarray(self.X, dtype=np.float64))
        if not (len(self.ids) == len(self.labels) == self.X.shape[0]):
            raise ValueError("ids, labels, and embeddings must have equal length")
        if bad := first_bad_row(self.X):
            raise ValueError("labeled embedding row %d is %s" % bad)

    def __len__(self) -> int:
        return len(self.ids)


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
            self._check_dim(t, sl.X, self.slices[0].X.shape[1])
            for i in sl.ids:
                i = int(i)
                if i in self._seen_ids:
                    raise ValueError(f"item id {i} appears in more than one slice")
                self._seen_ids.add(i)

    @staticmethod
    def _check_dim(t: int, X: np.ndarray, dim: int) -> None:
        if X.shape[1] != dim:
            raise ValueError(f"slice {t}: embedding dim {X.shape[1]} differs from the pool's {dim}")

    @property
    def num_slices(self) -> int:
        return len(self.slices)

    @property
    def sizes(self) -> np.ndarray:
        return np.array([len(sl) for sl in self.slices], dtype=np.int64)

    @property
    def total_size(self) -> int:
        return int(self.sizes.sum())

    def check_new(self, ids) -> None:
        """Raise ValueError naming the first id that is repeated or already labeled."""
        fresh: set[int] = set()
        for i in ids:
            i = int(i)
            if i in fresh or i in self._seen_ids:
                raise ValueError(f"item id {i} is {'repeated' if i in fresh else 'already labeled'}")
            fresh.add(i)

    def add(self, t: int, ids, labels, X) -> None:
        """Append newly labeled items to slice t; ids must be globally new."""
        new = LabeledSlice(ids, labels, X)
        sl = self.slices[t]
        self._check_dim(t, new.X, sl.X.shape[1])
        self.check_new(new.ids)
        self._seen_ids.update(new.ids.tolist())
        sl.ids = np.concatenate([sl.ids, new.ids])
        sl.labels = np.concatenate([sl.labels, new.labels])
        sl.X = np.vstack([sl.X, new.X])

    def add_selected(self, t: int, buffer: UnlabeledBuffer, ids, label_oracle) -> None:
        """Label the selected buffer ids and append their rows to slice t.

        ValueError names the first id outside the buffer, repeated or already
        labeled, before label_oracle is asked for anything.
        """
        ids = [int(i) for i in ids]
        if not ids:
            return
        pos = {i: k for k, i in enumerate(buffer.ids.tolist())}
        if outside := [i for i in ids if i not in pos]:
            raise ValueError(f"selected id {outside[0]} is not in the buffer")
        self.check_new(ids)
        sel = np.asarray(ids, dtype=np.int64)
        rows = np.array([pos[i] for i in ids], dtype=np.intp)
        self.add(t, sel, label_oracle(sel), buffer.X[rows])

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """All labeled data as (X, labels), slices concatenated in order."""
        X = np.vstack([sl.X for sl in self.slices])
        y = np.concatenate([sl.labels for sl in self.slices])
        return X, y


@dataclass
class UnlabeledBuffer:
    """One arriving episode. true_slice/true_labels are harness-side ground
    truth, invisible to identification and selection."""

    ids: np.ndarray
    X: np.ndarray
    true_slice: int = -1
    true_labels: np.ndarray | None = None

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.X = np.atleast_2d(np.asarray(self.X, dtype=np.float64))
        if len(self.ids) == 0:
            raise ValueError("unlabeled buffer must be nonempty")
        if len(self.ids) != self.X.shape[0]:
            raise ValueError("ids and embeddings must have equal length")
        if bad := first_bad_row(self.X):
            raise ValueError("buffer embedding row %d is %s" % bad)
        if len(np.unique(self.ids)) != len(self.ids):
            raise ValueError("buffer ids must be unique")

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class BudgetState:
    """Per-run budget parameters plus the accumulated excess."""

    B: int
    rho: float
    gamma: float = 0.0

    def __post_init__(self):
        if self.B < 0:
            raise ValueError(f"base budget must be nonnegative, got {self.B}")
        if not (0.0 <= self.rho <= 1.0):
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")


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
    kernel on raw embeddings, from its row and column maxima alone; the
    buffer is normalized once for all slices. Ties break toward the smallest
    slice index. Returns the winning index, the full score vector for
    diagnostics, and the buffer's row maxima against the winner.
    """
    for t, sl in enumerate(pool.slices):
        if len(sl) == 0:
            raise EmptySliceError(t)
    U = normalize_rows(buffer.X)  # once, for every slice
    scores, row_maxima = np.empty(pool.num_slices), []
    for t, sl in enumerate(pool.slices):
        # smidentify_scores on the full kernel, from its row and column maxima
        row, col = _row_col_max(U, normalize_rows(sl.X))
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
    sizes = pool.sizes
    B, rho, gamma = state.B, state.rho, state.gamma
    beta = int(sizes.min())
    # The 1e-9 inside the floors guards decimal rho/size arithmetic landing
    # one ulp under an intended integer (e.g. 41*0.3 + 0.7*41).
    if pool.rare_flags[t]:
        common_sizes = sizes[~pool.rare_flags]
        mean_common = float(common_sizes.mean()) if common_sizes.size else 0.0
        d = mean_common - float(sizes[t])
        sigma = float(math.floor(max(min(gamma, d - B), 0.0) + 1e-9))
        decision = BudgetDecision(b=B + int(sigma), d=d, beta=beta, sigma=sigma, branch="rare")
    else:
        b = int(math.floor(B * rho + (1.0 - rho) * B * beta / float(sizes[t]) + 1e-9))
        decision = BudgetDecision(b=b, d=0.0, beta=beta, sigma=0.0, branch="common")
    return decision, replace(state, gamma=gamma + (B - decision.b))


def scg_select(
    pool: SlicedLabeledPool,
    buffer: UnlabeledBuffer,
    t: int,
    b: int,
    maximizer_cfg: MaximizerConfig,
    *,
    row_max: np.ndarray | None = None,
) -> list[int]:
    """Pick up to b buffer items maximizing conditional gain over slice t.

    Both kernels are cosine on raw embeddings; b is clamped to the buffer
    size. Returns global item ids in selection order. FLCG reads only
    row_max[i] = max_j S_up[i, j], never S_up; pass the buffer's row maxima
    against slice t (as smidentify returns them) to skip that pass. S_uu is
    built transposed, so the evaluators read its columns as contiguous rows.
    """
    b = min(int(b), len(buffer))
    if b <= 0:
        return []
    if row_max is None:
        row_max, _ = _row_col_max(normalize_rows(buffer.X), normalize_rows(pool.slices[t].X))
    T = _transposed_self_kernel(buffer.X)  # T.T is S_uu
    f = FLCG(T.T, row_max[:, None])  # a one-column private kernel
    trace = maximize(f, replace(maximizer_cfg, budget=b))
    return [int(buffer.ids[i]) for i in trace.chosen]


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
    """What one round did: identification, budget internals, selections."""

    identified_slice: int
    decision: BudgetDecision
    selected_ids: list[int]
    scores: np.ndarray
    gamma_after: float


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
    if cfg.selector_fn is not None:
        selected = cfg.selector_fn(pool, buffer, t, granted)
    else:  # identify already took the buffer's row maxima against slice t
        selected = scg_select(pool, buffer, t, granted, cfg.maximizer, row_max=ident.row_max)

    selected = [int(i) for i in selected]
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
    )
    return report, pool, new_state

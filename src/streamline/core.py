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

from .kernels import build_kernel, first_bad_row, row_col_max
from .maximize import MaximizerConfig, maximize, partitioned_maximize
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
            for i in sl.ids:
                i = int(i)
                if i in self._seen_ids:
                    raise ValueError(f"item id {i} appears in more than one slice")
                self._seen_ids.add(i)

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
        X = np.vstack([sl.X, new.X])  # a dim mismatch fails before anything changes
        self.check_new(new.ids)
        self._seen_ids.update(new.ids.tolist())
        sl.ids = np.concatenate([sl.ids, new.ids])
        sl.labels = np.concatenate([sl.labels, new.labels])
        sl.X = X

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
    slice_id: int
    scores: np.ndarray


Featurizer = Callable[[np.ndarray], np.ndarray]


def _featurize(featurizer: Featurizer | None, X: np.ndarray):
    return X if featurizer is None else featurizer(X)


def infer_rare_flags(sizes) -> np.ndarray:
    """Size heuristic for rarity when no designation is configured.

    A slice counts as rare when it holds fewer than half the mean size of
    the other slices. With a single slice nothing is rare.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    flags = np.zeros(len(sizes), dtype=bool)
    for t in range(len(sizes)):
        others = np.delete(sizes, t)
        if others.size:
            flags[t] = sizes[t] < 0.5 * others.mean()
    return flags


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


def smidentify(
    pool: SlicedLabeledPool,
    buffer: UnlabeledBuffer,
    featurizer: Featurizer | None = None,
    metric: str = "cosine",
    bandwidth: float = 1.0,
) -> IdentificationResult:
    """Identify the labeled slice the buffer most plausibly belongs to.

    Each slice's score is smidentify_scores of its buffer x slice kernel,
    computed from that kernel's row and column maxima without holding it.
    Ties break toward the smallest slice index. Returns the winning index and
    the full score vector for diagnostics.
    """
    for t, sl in enumerate(pool.slices):
        if len(sl) == 0:
            raise EmptySliceError(t)
    feats_u = _featurize(featurizer, buffer.X)
    scores = np.empty(pool.num_slices)
    for t, sl in enumerate(pool.slices):
        # smidentify_scores on the full kernel, from its row and column maxima
        row, col = row_col_max(feats_u, _featurize(featurizer, sl.X), metric, bandwidth)
        scores[t] = (row.sum() + col.sum()) / flqmi_normalizer(len(row), len(col))
    return IdentificationResult(slice_id=int(np.argmax(scores)), scores=scores)


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
        new_state = replace(state, gamma=gamma - sigma)
    else:
        b = int(math.floor(B * rho + (1.0 - rho) * B * beta / float(sizes[t]) + 1e-9))
        decision = BudgetDecision(b=b, d=0.0, beta=beta, sigma=0.0, branch="common")
        new_state = replace(state, gamma=gamma + (B - b))
    return decision, new_state


def scg_select(
    pool: SlicedLabeledPool,
    buffer: UnlabeledBuffer,
    t: int,
    b: int,
    maximizer_cfg: MaximizerConfig,
    featurizer: Featurizer | None = None,
    metric: str = "cosine",
    bandwidth: float = 1.0,
) -> list[int]:
    """Pick up to b buffer items maximizing conditional gain over slice t.

    Budgets beyond the buffer size are clamped, not an error. Returns global
    item ids in selection order.
    """
    b = min(int(b), len(buffer))
    if b <= 0:
        return []
    feats_u = _featurize(featurizer, buffer.X)
    S_uu = build_kernel(feats_u, feats_u, metric=metric, bandwidth=bandwidth).values
    # FLCG reads only max_j S_up[i, j]; a one-column private kernel carries it.
    best, _ = row_col_max(feats_u, _featurize(featurizer, pool.slices[t].X), metric, bandwidth)
    best = best[:, None]
    p = min(maximizer_cfg.partitions, len(buffer))
    if p > 1:
        cfg = replace(maximizer_cfg, budget=b, partitions=p)
        trace = partitioned_maximize(
            lambda ids: FLCG(S_uu[np.ix_(ids, ids)], best[ids]), len(buffer), cfg
        )
    else:
        trace = maximize(FLCG(S_uu, best), replace(maximizer_cfg, budget=b, partitions=1))
    return [int(buffer.ids[i]) for i in trace.chosen]


@dataclass
class StreamlineConfig:
    """Knobs for one streaming round.

    Separate featurizers are supported for identification and selection
    (None means raw embeddings). fixed_budget disables accumulation and
    always grants the base budget; selector_fn, when given, replaces the
    conditional-gain selection with callable(pool, buffer, t, b) -> ids.
    """

    maximizer: MaximizerConfig = field(default_factory=lambda: MaximizerConfig(budget=0))
    identify_featurizer: Featurizer | None = None
    select_featurizer: Featurizer | None = None
    identify_metric: str = "cosine"
    select_metric: str = "cosine"
    bandwidth: float = 1.0
    fixed_budget: bool = False
    selector_fn: Callable | None = None


@dataclass
class RoundReport:
    """What one round did: identification, budget internals, selections."""

    identified_slice: int
    true_slice: int
    identification_correct: bool
    decision: BudgetDecision
    granted: int
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

    Conservation: with slice-aware budgeting every round spends plus banks
    exactly B, where banked = gamma_after - gamma_before (negative when a
    rare round draws on gamma). Labels granted but not spent, whether capped
    by the buffer size or left over by a short selection, go back to gamma.
    A fixed budget leaves gamma alone.
    """
    ident = smidentify(
        pool, buffer, cfg.identify_featurizer, cfg.identify_metric, cfg.bandwidth
    )
    t = ident.slice_id

    if cfg.fixed_budget:
        decision = BudgetDecision(
            b=state.B, d=0.0, beta=int(pool.sizes.min()), sigma=0.0, branch="fixed"
        )
        new_state = state
    else:
        decision, new_state = slice_aware_budget(pool, state, t)

    granted = min(decision.b, len(buffer))
    if cfg.selector_fn is not None:
        selected = cfg.selector_fn(pool, buffer, t, granted)
    else:
        selected = scg_select(
            pool, buffer, t, granted, cfg.maximizer,
            cfg.select_featurizer, cfg.select_metric, cfg.bandwidth,
        )

    selected = [int(i) for i in selected]
    if len(selected) > granted:
        raise ValueError(f"selection of {len(selected)} ids exceeds the granted {granted}")
    pos = {int(i): k for k, i in enumerate(buffer.ids)}
    if outside := [i for i in selected if i not in pos]:
        raise ValueError(f"selected id {outside[0]} is not in the buffer")
    pool.check_new(selected)
    if not cfg.fixed_budget:
        new_state = replace(new_state, gamma=new_state.gamma + (decision.b - len(selected)))

    if selected:
        sel = np.asarray(selected, dtype=np.int64)
        rows = np.array([pos[i] for i in selected], dtype=np.intp)
        labels = label_oracle(sel)
        pool.add(t, sel, labels, buffer.X[rows])

    report = RoundReport(
        identified_slice=t,
        true_slice=buffer.true_slice,
        identification_correct=(t == buffer.true_slice),
        decision=decision,
        granted=len(selected),
        selected_ids=selected,
        scores=ident.scores,
        gamma_after=new_state.gamma,
    )
    return report, pool, new_state

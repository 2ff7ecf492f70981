"""Desk-scale streaming lab: synthetic episodic streams, a logistic learner,
and the evaluation metrics for comparing selection methods.

Slices are Gaussian class mixtures sharing class structure: every slice uses
the same base class directions plus a per-slice twist, so a model trained on
common slices transfers imperfectly to the rare slice until it gets labeled
rare-slice data. Streams are pure functions of their spec (seed included).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import (
    badge_select,
    random_select,
    similar_select,
    submodular_fl_select,
    uncertainty_select,
)
from .core import (
    BudgetState,
    LabeledSlice,
    SlicedLabeledPool,
    StreamlineConfig,
    UnlabeledBuffer,
    streamline_round,
)
from .maximize import MaximizerConfig, _check_budget, _check_real, _is_integer

METHODS = (
    "streamline",
    "streamline_no_scg",
    "streamline_repl_scg",
    "streamline_no_budget",
    "random",
    "entropy",
    "margin",
    "least_conf",
    "submodular",
    "similar",
    "badge",
)

# Methods whose selection reads the current model, the initial pool's in round 0.
_READS_MODEL = ("streamline_repl_scg", "entropy", "margin", "least_conf", "badge")


def every_k_schedule(n_rounds: int, n_slices: int, rare_slice: int, k: int = 3):
    """Rare slice every k-th round; common slices cycle through the rest."""
    commons = [s for s in range(n_slices) if s != rare_slice]
    schedule, c = [], 0
    for r in range(1, n_rounds + 1):
        if r % k == 0:
            schedule.append(rare_slice)
        else:
            schedule.append(commons[c % len(commons)])
            c += 1
    return tuple(schedule)


def sequential_schedule(n_rounds: int, n_slices: int):
    """Slices arrive in index order, wrapping around."""
    return tuple(r % n_slices for r in range(n_rounds))


@dataclass(frozen=True)
class StreamSpec:
    """Everything that determines a synthetic stream.

    slice_sep is the exact pairwise distance between slice offsets in units
    of noise_std; class_sep/class_twist control how far apart classes sit and
    how much their directions differ between slices. rare_slice, None for
    the last slice, is the one the initial pool holds imbalance times fewer of.
    """

    n_slices: int = 4
    n_classes: int = 6
    dim: int = 16
    class_sep: float = 2.4
    class_twist: float = 3.2
    slice_sep: float = 8.0
    noise_std: float = 1.0
    imbalance: int = 5
    common_pool_size: int = 200
    schedule: tuple = ()
    redundancy: int = 1
    episode_size: int = 100
    eval_per_slice: int = 400
    rare_slice: int | None = None
    seed: int = 0

    def __post_init__(self):
        # (count, least value, the count that sets it): dim holds one offset axis
        # per slice, and the rare slice gets common_pool_size // imbalance >= 1
        # rows; each is checked after the count it reads.
        for name, least, of in (("n_slices", 1, ""), ("n_classes", 2, ""), ("imbalance", 1, ""),
                                ("redundancy", 1, ""), ("episode_size", 1, ""), ("eval_per_slice", 1, ""),
                                ("seed", 0, ""), ("dim", self.n_slices, "n_slices "),
                                ("common_pool_size", self.imbalance, "imbalance ")):
            if not _is_integer(value := getattr(self, name)):
                raise ValueError(f"{name}: must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name}: must be >= {of}{least}, got {value}")
        for name in ("class_sep", "class_twist", "slice_sep", "noise_std"):
            _check_real(getattr(self, name), name, 0, above=True)
        if self.episode_size % self.redundancy != 0:
            raise ValueError(f"episode_size: must be divisible by redundancy, got {self.episode_size}")
        rare = self.n_slices - 1 if self.rare_slice is None else self.rare_slice
        if not _is_integer(rare) or not 0 <= rare < self.n_slices:
            raise ValueError(f"rare_slice: must be an integer in [0, {self.n_slices}), got {rare!r}")
        object.__setattr__(self, "rare_slice", int(rare))
        if len(self.schedule) == 0:
            raise ValueError(f"schedule: must be nonempty, got {self.schedule!r}")
        for s in self.schedule:
            if not _is_integer(s) or not 0 <= s < self.n_slices:
                raise ValueError(f"schedule: must be a slice id in [0, {self.n_slices}), got {s!r}")

    @property
    def n_rounds(self) -> int:
        return len(self.schedule)


@dataclass
class EvalSet:
    X: np.ndarray
    y: np.ndarray
    slice_ids: np.ndarray


def generate_stream(spec: StreamSpec):
    """Build (initial pool, episode buffers, balanced eval set) from a spec.

    The initial pool holds common_pool_size items per common slice and
    common_pool_size // imbalance of the rare slice. Episode buffers hold
    episode_size // redundancy unique draws, each copied redundancy times
    under the next fresh ids with identical embeddings.
    """
    rng = np.random.default_rng(spec.seed)
    scale = spec.noise_std
    # Slice offsets on orthogonal axes: pairwise distance is exactly
    # slice_sep * noise_std.
    offsets = np.zeros((spec.n_slices, spec.dim))
    for s in range(spec.n_slices):
        offsets[s, s] = spec.slice_sep * scale / np.sqrt(2.0)
    base = rng.normal(size=(spec.n_classes, spec.dim))
    base *= (spec.class_sep * scale) / np.linalg.norm(base, axis=1, keepdims=True)
    twist = rng.normal(size=(spec.n_slices, spec.n_classes, spec.dim))
    twist *= (spec.class_twist * scale) / np.linalg.norm(twist, axis=2, keepdims=True)
    centroids = offsets[:, None, :] + base[None, :, :] + twist
    next_id = 0

    def draw(slice_id: int, count: int, copies: int = 1):
        """count fresh rows of a slice with their labels, and the next count * copies ids."""
        nonlocal next_id
        labels = rng.integers(0, spec.n_classes, size=count)
        X = centroids[slice_id, labels] + rng.normal(0.0, scale, size=(count, spec.dim))
        next_id += count * copies
        return np.arange(next_id - count * copies, next_id, dtype=np.int64), labels.astype(np.int64), X

    rare_size = spec.common_pool_size // spec.imbalance
    slices = [LabeledSlice(*draw(s, rare_size if s == spec.rare_slice else spec.common_pool_size))
              for s in range(spec.n_slices)]
    pool = SlicedLabeledPool(slices, [s == spec.rare_slice for s in range(spec.n_slices)])

    buffers = []
    for s in spec.schedule:
        ids, labels, X = draw(s, spec.episode_size // spec.redundancy, spec.redundancy)
        buffers.append(UnlabeledBuffer(
            ids=ids, X=np.tile(X, (spec.redundancy, 1)),
            true_slice=s, true_labels=np.tile(labels, spec.redundancy),
        ))

    eval_X, eval_y, eval_slices = [], [], []
    for s in range(spec.n_slices):
        _, labels, X = draw(s, spec.eval_per_slice)
        eval_X.append(X)
        eval_y.append(labels)
        eval_slices.append(np.full(spec.eval_per_slice, s, dtype=np.int64))
    eval_set = EvalSet(np.vstack(eval_X), np.concatenate(eval_y), np.concatenate(eval_slices))
    return pool, buffers, eval_set


@dataclass(frozen=True)
class LearnerConfig:
    step_size: float = 1.0
    epochs: int = 200
    l2: float = 1e-3

    def __post_init__(self):
        _check_real(self.step_size, "step_size", 0, above=True)  # an infinite step would halve forever
        if not _is_integer(self.epochs) or self.epochs < 1:
            raise ValueError(f"epochs: must be an integer >= 1, got {self.epochs!r}")
        _check_real(self.l2, "l2", 0)


@dataclass
class Learner:
    """Multinomial logistic model over raw embeddings."""

    W: np.ndarray
    b: np.ndarray
    loss_history: np.ndarray = field(default_factory=lambda: np.empty(0))

    def logits(self, X: np.ndarray) -> np.ndarray:
        return np.atleast_2d(X) @ self.W.T + self.b

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        z = self.logits(X)
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.logits(X).argmax(axis=1)


def logistic_loss_and_grad(W, b, X, y, l2: float = 0.0, *, at_y=None):
    """Mean cross-entropy (+ L2 on W) and its analytic gradients.

    The softmax runs class-major, on a C-contiguous (C, n) copy of the
    logits X @ W.T, so each reduction over the C classes is one pass over
    all n rows instead of n short ones. The bits equal those of the
    row-major softmax: max, subtract, exp and divide are elementwise; for
    C < 8 the class sum adds left to right, as numpy does on a short row,
    and for C >= 8 it sums a row-major copy, which numpy sums pairwise.
    The residual R is an (n, C) row-major copy, so R.T @ X is the same BLAS
    call; grad_W is divided by n and given its L2 term in place, which
    rounds as the out-of-place expression does. grad_b is einsum's column
    sum of R over n, which equals R.sum(axis=0) / n and so R.mean(axis=0):
    both add the rows one by one in order, and einsum has less overhead
    per call. Likewise the loss divides the sum of the log-likelihoods by
    n, which is what mean computes.
    at_y holds the flat positions y * n + arange(n) of P[i, y_i] in the
    (C, n) softmax; fit_logistic computes them once per fit, not per epoch.
    """
    n = len(y)
    if at_y is None:
        at_y = np.asarray(y) * n + np.arange(n)
    zt = (np.atleast_2d(X) @ W.T).T.copy()
    zt += b[:, None]
    zt -= np.maximum.reduce(zt, axis=0)
    np.exp(zt, out=zt)
    zt /= zt.sum(axis=0) if len(b) < 8 else zt.T.copy().sum(axis=1)
    flat = zt.reshape(-1)
    p_y = flat[at_y]
    loss = -np.log(p_y + 1e-12).sum() / n + 0.5 * l2 * float((W * W).sum())
    p_y -= 1.0
    flat[at_y] = p_y
    R = zt.T.copy()
    grad_W = R.T @ X
    grad_W /= n
    grad_W += l2 * W
    grad_b = np.einsum("ij->j", R)
    grad_b /= n
    return float(loss), grad_W, grad_b


# Rows fit_logistic squares at once for their norms: X * X of one chunk is a
# temporary of 2 MB at dim 64, where X * X of the whole of X was as large as
# X. Each row's sum does not depend on the chunk it sits in.
_NORM_ROWS = 4096


def fit_logistic(X, y, cfg: LearnerConfig, n_classes: int | None = None) -> Learner:
    """Full-batch gradient descent with a scale-adaptive, backtracking step.

    The base step is divided by a curvature estimate from the feature norms,
    then halved whenever a step would increase the loss, so the recorded loss
    history is nonincreasing. y must hold one label per row of X, each in
    [0, n_classes), or ValueError says what is wrong, naming the first row
    whose label is outside; so does a row of X that is not finite or whose
    squared norm leaves float64's range (all-zero rows are fine), and rows
    whose mean squared norm does. Every loss and gradient comes from
    logistic_loss_and_grad, so fits equal those of the row-major softmax.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64)
    if len(y) == 0 or len(y) != X.shape[0]:
        raise ValueError(
            f"need one label per row and at least one row, got {len(y)} labels for {X.shape[0]} rows"
        )
    C = int(n_classes if n_classes is not None else y.max() + 1)
    outside = np.flatnonzero((y < 0) | (y >= C))
    if outside.size:
        i = int(outside[0])
        raise ValueError(f"label {int(y[i])} at row {i} is outside [0, {C})")
    sq_norms = np.empty(len(X))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(X), _NORM_ROWS):
            chunk = X[lo : lo + _NORM_ROWS]
            np.sum(chunk * chunk, axis=1, out=sq_norms[lo : lo + _NORM_ROWS])
        mean_sq = float(sq_norms.mean())
    bad = np.flatnonzero(~np.isfinite(sq_norms))
    if bad.size:
        i = int(bad[0])
        why = "not finite" if not np.isfinite(X[i]).all() else "out of float64's range when squared"
        raise ValueError(f"cannot fit row {i}: it is {why}")
    if mean_sq == np.inf:
        raise ValueError("cannot fit: the mean squared row norm is out of float64's range")
    n = len(y)
    at_y = y * n + np.arange(n)
    W = np.zeros((C, X.shape[1]))
    bias = np.zeros(C)
    step = cfg.step_size / (0.5 * mean_sq + cfg.l2 + 1.0)
    loss, gW, gb = logistic_loss_and_grad(W, bias, X, y, cfg.l2, at_y=at_y)
    losses = [loss]
    for _ in range(cfg.epochs):
        stepped = False
        while step >= 1e-12:
            W_try = W - step * gW
            b_try = bias - step * gb
            loss_try, gW_try, gb_try = logistic_loss_and_grad(W_try, b_try, X, y, cfg.l2, at_y=at_y)
            if loss_try <= loss + 1e-12:
                W, bias, loss, gW, gb = W_try, b_try, loss_try, gW_try, gb_try
                stepped = True
                break
            step *= 0.5
        if not stepped:
            break
        losses.append(loss)
    return Learner(W=W, b=bias, loss_history=np.asarray(losses))


def train_learner(pool: SlicedLabeledPool, cfg: LearnerConfig, n_classes: int | None = None) -> Learner:
    """Fit the logistic learner on everything labeled so far."""
    X, y = pool.stacked()
    return fit_logistic(X, y, cfg, n_classes)


def evaluate(learner: Learner, eval_set: EvalSet):
    """(overall accuracy, per-slice accuracy array) on the balanced eval set."""
    pred = learner.predict(eval_set.X)
    correct = pred == eval_set.y
    n_slices = int(eval_set.slice_ids.max()) + 1
    per_slice = np.array(
        [correct[eval_set.slice_ids == s].mean() for s in range(n_slices)]
    )
    return float(correct.mean()), per_slice


def _labels_to_reach(curve, target: float) -> float | None:
    points = sorted((float(l), float(m)) for l, m in curve)
    for k, (labels, metric) in enumerate(points):
        if metric >= target:
            if k == 0:
                return labels
            l0, m0 = points[k - 1]
            return l0 + (target - m0) * (labels - l0) / (metric - m0)
    return None


def labeling_efficiency(curve_method, curve_random, target: float) -> float | None:
    """How many fewer labels the method needs than random for a target metric.

    Both curves are (labels, metric) sequences; the label count to first
    reach the target is linearly interpolated. Returns None (undefined) when
    either curve never attains the target.
    """
    labels_m = _labels_to_reach(curve_method, target)
    labels_r = _labels_to_reach(curve_random, target)
    if labels_m is None or labels_r is None or labels_m <= 0.0:
        return None
    return labels_r / labels_m


@dataclass
class RoundRecord:
    """One round of one (method, seed) run; granted_b is the labels the round spent."""

    method: str
    seed: int
    round: int
    labels_total: int
    full_metric: float
    rare_metric: float
    identified_slice: int
    true_slice: int
    granted_b: int
    gamma: float
    slice_sizes: tuple
    selected_ids: tuple


@dataclass
class MetricsLog:
    method: str
    seed: int
    records: list

    @property
    def labels_spent(self) -> int:
        return sum(r.granted_b for r in self.records)

    def curve(self, metric: str = "rare"):
        return [(r.labels_total, getattr(r, f"{metric}_metric")) for r in self.records]

    def final(self, metric: str = "rare") -> float:
        return getattr(self.records[-1], f"{metric}_metric")


@dataclass(frozen=True)
class RunConfig:
    """Selection-side settings shared by every method in a run."""

    budget: int = 50
    rho: float = 0.5
    maximizer: MaximizerConfig = field(default_factory=lambda: MaximizerConfig(budget=0))
    learner: LearnerConfig = field(default_factory=LearnerConfig)

    def __post_init__(self):
        _check_budget(self.budget, banked=True)
        _check_real(self.rho, "rho", 0, 1)


def run_experiment(spec: StreamSpec, method: str, cfg: RunConfig) -> MetricsLog:
    """Play the full stream with one selection method and log every round.

    Each method is one selector (pool, buffer, t, b) -> ids; streamline and
    streamline_no_budget have none and select by conditional gain. The
    slice-aware variants run streamline_round and append to the slice they
    identified; fixed-budget baselines take b = budget, which each selector
    caps at |buffer|, and append to the episode's true slice. similar
    queries spec.rare_slice, whose accuracy is rare_metric. The learner is
    retrained from zero weights on the grown pool after every round. A model
    of the initial pool is trained only for the methods whose first
    selection reads it (_READS_MODEL); the others fit once per round.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r} (expected one of {METHODS})")
    pool, buffers, eval_set = generate_stream(spec)
    rng = np.random.default_rng([METHODS.index(method), spec.seed])
    state = BudgetState(B=cfg.budget, rho=cfg.rho)
    learner = train_learner(pool, cfg.learner, spec.n_classes) if method in _READS_MODEL else None
    # The selectors, learner and maximizer are looked up when a selector runs,
    # so each call sees the latest fit and this round's maximizer (and any
    # rebinding of the module's selectors).
    uncertain = lambda pool_, buf, t, b: uncertainty_select(buf, learner.predict_proba(buf.X), method, b)
    selectors = {
        "random": lambda pool_, buf, t, b: random_select(buf, b, rng),
        **dict.fromkeys(("entropy", "margin", "least_conf"), uncertain),
        "submodular": lambda pool_, buf, t, b: submodular_fl_select(buf, b, maximizer),
        "similar": lambda pool_, buf, t, b: similar_select(buf, pool_, spec.rare_slice, b, maximizer),
        "badge": lambda pool_, buf, t, b: badge_select(buf, learner.predict_proba(buf.X), buf.X, b, rng),
    }
    # The two ablations swap conditional-gain selection for random's or badge's selector.
    select = selectors.get({"streamline_no_scg": "random", "streamline_repl_scg": "badge"}.get(method, method))
    sl_cfg = StreamlineConfig(cfg.maximizer, fixed_budget=method == "streamline_no_budget", selector_fn=select)
    records = []
    labels_total = 0

    for r, buf in enumerate(buffers):
        # Stochastic greedy samples from a stream of its own per (method, seed, round).
        seed = np.random.SeedSequence([METHODS.index(method), spec.seed, r]).generate_state(1)[0]
        maximizer = replace(cfg.maximizer, seed=int(seed))
        oracle_map = {int(i): int(l) for i, l in zip(buf.ids, buf.true_labels)}
        label_oracle = lambda ids: np.array([oracle_map[int(i)] for i in ids], dtype=np.int64)
        if method.startswith("streamline"):
            round_cfg = replace(sl_cfg, maximizer=maximizer)
            report, pool, state = streamline_round(pool, buf, state, round_cfg, label_oracle)
            t, selected = report.identified_slice, report.selected_ids
        else:
            t = buf.true_slice
            selected = select(pool, buf, t, cfg.budget)
            pool.add_selected(t, buf, selected, label_oracle)

        labels_total += len(selected)
        learner = train_learner(pool, cfg.learner, spec.n_classes)
        full_acc, per_slice = evaluate(learner, eval_set)
        records.append(RoundRecord(
            method, spec.seed, r, labels_total, full_acc, float(per_slice[spec.rare_slice]), int(t),
            int(buf.true_slice), len(selected), float(state.gamma),
            tuple(int(s) for s in pool.sizes), tuple(int(i) for i in selected),
        ))
    return MetricsLog(method=method, seed=spec.seed, records=records)

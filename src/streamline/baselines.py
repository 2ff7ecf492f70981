"""Fixed-budget comparison selectors.

All selectors take the episode buffer and a budget and return item ids; none
of them touch the accumulated-budget machinery, so per round they spend at
most the base budget, which core._capped_budget checks and caps.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .core import SlicedLabeledPool, UnlabeledBuffer, _capped_budget, _distinct_row_greedy
from .kernels import _kernel
from .kernels import build_kernel  # noqa: F401  perfbench/spans.py getattrs baselines.build_kernel
from .maximize import MaximizerConfig, maximize
from .setfunctions import FLQMI

UNCERTAINTY_MODES = ("entropy", "least_conf", "margin")


def random_select(buffer: UnlabeledBuffer, b: int, seed) -> list[int]:
    """Uniform sample without replacement; deterministic for a given seed."""
    if not (b := _capped_budget(b, buffer)):
        return []
    rng = np.random.default_rng(seed)
    picked = rng.choice(buffer.ids, size=b, replace=False)
    return [int(i) for i in picked]


def _check_simplex(p: np.ndarray) -> None:
    if (bad := np.argwhere(~np.isfinite(p))).size:
        raise ValueError(f"class probabilities must be finite: row {bad[0][0]} is not")
    if np.any(p < 0.0):
        raise ValueError("class probabilities must be nonnegative")
    if np.any(np.abs(p.sum(axis=-1) - 1.0) > 1e-6):
        raise ValueError("class probabilities must sum to 1")


def uncertainty_scores(preds, mode: str) -> np.ndarray:
    """Uncertainty score per row of an (n, C) array of class probabilities.

    mode is "entropy", "least_conf", or "margin".
    """
    if mode not in UNCERTAINTY_MODES:
        raise ValueError(f"unknown uncertainty mode {mode!r}")
    P = np.asarray(preds, dtype=np.float64)
    if P.ndim != 2:
        raise ValueError(f"class probabilities must be an (n, C) array, got shape {P.shape}")
    _check_simplex(P)
    if mode == "entropy":
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(P > 0.0, P * np.log(P), 0.0)
        return -terms.sum(axis=-1)
    top = np.sort(P, axis=-1)[:, ::-1]
    if mode == "least_conf":
        return 1.0 - top[:, 0]
    second = top[:, 1] if P.shape[-1] > 1 else np.zeros(len(P))
    return top[:, 0] - second


def _check_row_counts(buffer: UnlabeledBuffer, **rows) -> None:
    """ValueError naming every count unless each array has one row per buffer item."""
    if any(len(v) != len(buffer) for v in rows.values()):
        counts = ", ".join(f"{len(v)} {name} rows" for name, v in rows.items())
        raise ValueError(f"got {counts} for a buffer of {len(buffer)} items")


def uncertainty_select(buffer: UnlabeledBuffer, preds, mode: str, b: int) -> list[int]:
    """Top-b most-uncertain items.

    Entropy and least-confidence rank descending by score; margin ranks
    ascending (a small gap between the top two classes means uncertain).
    Ties keep buffer order. preds holds one entry per buffer item.
    """
    _check_row_counts(buffer, prediction=preds)
    if not (b := _capped_budget(b, buffer)):
        return []
    scores = uncertainty_scores(preds, mode)
    keys = scores if mode == "margin" else -scores
    order = np.argsort(keys, kind="stable")
    return [int(buffer.ids[i]) for i in order[:b]]


def submodular_fl_select(buffer: UnlabeledBuffer, b: int, maximizer_cfg: MaximizerConfig) -> list[int]:
    """Coverage-only selection: maximize facility location over the buffer's cosine kernel.
    That is FLCG with no private set, so it is scg_select's greedy with every private best 0."""
    if not (b := _capped_budget(b, buffer)):
        return []
    trace = _distinct_row_greedy(buffer, b, maximizer_cfg, np.zeros(len(buffer)))
    return [int(buffer.ids[i]) for i in trace.chosen]


def similar_select(
    buffer: UnlabeledBuffer,
    pool: SlicedLabeledPool,
    t: int,
    b: int,
    maximizer_cfg: MaximizerConfig,
) -> list[int]:
    """Query-targeted selection: maximize mutual information with slice t (cosine kernel).

    Deliberately uses the fixed budget b regardless of slice balance, which
    is the behavior the slice-aware budgeting is designed to improve on.
    """
    query = pool.slices[pool.check_slice(t)]
    if len(query) == 0:
        raise ValueError(f"query slice {t} is empty")
    if not (b := _capped_budget(b, buffer)):
        return []
    S_up = _kernel(buffer.unit_rows(), query.unit_rows())
    trace = maximize(FLQMI(S_up), replace(maximizer_cfg, budget=b))
    return [int(buffer.ids[i]) for i in trace.chosen]


def badge_gradient_embeddings(probs: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Hypothesized last-layer loss gradients, one flattened vector per item.

    The gradient of cross-entropy at the predicted label is the outer product
    of (p - onehot(argmax p)) with the penultimate features, so the block for
    the predicted class carries a nonpositive factor and all other blocks a
    nonnegative one.
    """
    probs = np.asarray(probs, dtype=np.float64)
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    _check_simplex(probs)
    if probs.shape[0] != features.shape[0]:
        raise ValueError("need one probability vector per feature row")
    coef = probs.copy()
    coef[np.arange(len(coef)), probs.argmax(axis=1)] -= 1.0
    return (coef[:, :, None] * features[:, None, :]).reshape(len(coef), -1)


def badge_select(
    buffer: UnlabeledBuffer,
    probs: np.ndarray,
    features: np.ndarray,
    b: int,
    seed,
) -> list[int]:
    """k-means++ seeding over gradient embeddings.

    First pick is uniform; each later pick is drawn with probability
    proportional to the squared distance to the nearest already-picked
    embedding. If every remaining distance is zero (duplicate embeddings),
    falls back to a uniform draw over the unpicked items. probs and features
    hold one row per buffer item.
    """
    _check_row_counts(buffer, probability=probs, feature=features)
    if not (b := _capped_budget(b, buffer)):
        return []
    rng = np.random.default_rng(seed)
    emb = badge_gradient_embeddings(probs, features)
    n = len(emb)

    first = int(rng.integers(n))
    chosen = [first]
    min_d2 = np.sum((emb - emb[first]) ** 2, axis=1)
    min_d2[first] = 0.0
    while len(chosen) < b:
        total = float(min_d2.sum())
        if total <= 0.0:
            unpicked = np.setdiff1d(np.arange(n), np.array(chosen, dtype=int))
            nxt = int(rng.choice(unpicked))
        else:
            nxt = int(rng.choice(n, p=min_d2 / total))
        chosen.append(nxt)
        np.minimum(min_d2, np.sum((emb - emb[nxt]) ** 2, axis=1), out=min_d2)
        min_d2[nxt] = 0.0
    return [int(buffer.ids[i]) for i in chosen]

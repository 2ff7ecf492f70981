"""Similarity kernel construction between embedding collections.

Flat embeddings are 1-D float vectors; object-set embeddings are 2-D arrays
holding one normalized feature vector per detected object in an image. All
kernels produced here are nonnegative with entries in [0, 1], which the set
functions downstream rely on for monotonicity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class KernelError(ValueError):
    """Raised for malformed kernel inputs (shape/dim mismatch, zero vectors)."""


def normalize(v: np.ndarray) -> np.ndarray:
    """L2-normalize a single vector. Idempotent; zero vectors are rejected."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise KernelError(f"expected a 1-D vector, got shape {v.shape}")
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise KernelError("cannot normalize an all-zero vector")
    return v / norm


def normalize_rows(X: np.ndarray) -> np.ndarray:
    """L2-normalize each row of a 2-D array. Rejects any all-zero row."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise KernelError(f"expected a 2-D array, got shape {X.shape}")
    norms = np.linalg.norm(X, axis=1)
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise KernelError(f"cannot normalize all-zero row {bad}")
    return X / norms[:, None]


def first_bad_row(X: np.ndarray) -> tuple[int, str] | None:
    """The first row of a 2-D array that is not finite or is all zero, and why."""
    finite = np.isfinite(X).all(axis=1)
    bad = ~finite | ~X.any(axis=1)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return i, "all zero" if finite[i] else "not finite"


def _check_dims(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[-1] != b.shape[-1]:
        raise KernelError(
            f"embedding dims differ: {a.shape[-1]} vs {b.shape[-1]}"
        )


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity clamped to [0, 1].

    Negative cosines map to 0 so facility-location style set functions stay
    monotone on the resulting kernels.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_dims(a, b)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise KernelError("cosine similarity is undefined for zero vectors")
    score = float(np.dot(a, b) / (na * nb))
    return min(max(score, 0.0), 1.0)


def rbf_similarity(a: np.ndarray, b: np.ndarray, bandwidth: float) -> float:
    """Gaussian similarity exp(-||a-b||^2 / (2*bandwidth^2)), in (0, 1]."""
    if bandwidth <= 0.0:
        raise KernelError(f"bandwidth must be positive, got {bandwidth}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_dims(a, b)
    sq_dist = float(np.sum((a - b) ** 2))
    return float(np.exp(-sq_dist / (2.0 * bandwidth**2)))


def object_set_similarity(x1: np.ndarray, x2: np.ndarray) -> float:
    """Image-to-image similarity from two sets of per-object embeddings.

    Each pairwise dot product is clamped to [0, 1], then the best match for
    every object is averaged in both directions and the two coverage averages
    are averaged again. Identical sets score exactly 1. Inputs are
    row-normalized first (idempotent for already-normalized features).

    Args:
        x1: (n1, d) array, one embedding per object; n1 >= 1.
        x2: (n2, d) array.
    """
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    x2 = np.atleast_2d(np.asarray(x2, dtype=np.float64))
    if x1.shape[0] == 0 or x2.shape[0] == 0:
        raise KernelError("object sets must contain at least one object")
    _check_dims(x1, x2)
    dots = np.clip(normalize_rows(x1) @ normalize_rows(x2).T, 0.0, 1.0)
    cover_1 = dots.max(axis=1).mean()  # x1's objects covered by x2
    cover_2 = dots.max(axis=0).mean()  # x2's objects covered by x1
    return float(0.5 * (cover_1 + cover_2))


@dataclass(frozen=True)
class SimilarityMatrix:
    """Rectangular nonnegative similarity kernel with stable item ids."""

    values: np.ndarray
    row_ids: tuple = field(default=())
    col_ids: tuple = field(default=())

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise KernelError(f"kernel must be 2-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise KernelError("kernel contains non-finite entries")
        if np.any(values < 0.0):
            raise KernelError("kernel contains negative entries")
        object.__setattr__(self, "values", values)
        row_ids = self.row_ids or tuple(range(values.shape[0]))
        col_ids = self.col_ids or tuple(range(values.shape[1]))
        if len(row_ids) != values.shape[0] or len(col_ids) != values.shape[1]:
            raise KernelError("id lists do not match kernel shape")
        object.__setattr__(self, "row_ids", tuple(row_ids))
        object.__setattr__(self, "col_ids", tuple(col_ids))

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


def _as_item_list(items) -> list:
    if isinstance(items, np.ndarray):
        return [items[i] for i in range(items.shape[0])]
    return list(items)


def _is_object_collection(items) -> bool:
    arrs = [np.asarray(x) for x in items]
    dims = {a.shape[-1] for a in arrs}
    if len(dims) > 1:
        raise KernelError(f"embeddings in one collection must share dim, got {sorted(dims)}")
    if all(a.ndim == 1 for a in arrs):
        return False
    if all(a.ndim == 2 for a in arrs):
        return True
    raise KernelError("collection mixes flat embeddings and object sets")


# Columns per flat-kernel block. The last block takes the remainder, so no
# block is narrow and a kernel with fewer than 2 * _BLOCK columns is one
# matrix product.
_BLOCK = 1024


def _flat_side(X, metric: str) -> tuple[np.ndarray, np.ndarray | None]:
    """One collection as every kernel block reads it, prepared once.

    Cosine reads the normalized rows (zero rows are rejected there), rbf the
    rows and their squared norms. Non-finite rows are rejected.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise KernelError(f"flat collections must be nonempty 2-D arrays, got shape {X.shape}")
    X, sq = (normalize_rows(X), None) if metric == "cosine" else (X, np.sum(X * X, axis=1))
    finite = np.isfinite(X).all(axis=1) if sq is None else np.isfinite(sq)
    if not finite.all():
        raise KernelError(f"embedding row {int(np.argmin(finite))} has non-finite entries")
    return X, sq


def _flat_prepare(rows, cols, metric: str, bandwidth: float):
    """Both sides of a flat kernel, prepared once, and its column blocks as slices."""
    if metric == "rbf" and bandwidth <= 0.0:
        raise KernelError(f"bandwidth must be positive, got {bandwidth}")
    R, C = _flat_side(rows, metric), _flat_side(cols, metric)
    _check_dims(R[0], C[0])
    m = C[0].shape[0]
    starts = [k * _BLOCK for k in range(max(m // _BLOCK, 1))] + [m]
    return R, C, [slice(j0, j1) for j0, j1 in zip(starts, starts[1:])]


def _flat_block(R, C, j: slice, metric: str, bandwidth: float, out: np.ndarray) -> np.ndarray:
    """Columns j of the flat kernel between prepared sides R and C, written into out.

    Cosine entries are left unclipped; rbf entries already lie in [0, 1].
    """
    (R, r_sq), (C, c_sq) = R, C
    np.matmul(R, C[j].T, out=out)
    if metric == "rbf":
        sq = r_sq[:, None] + c_sq[None, j] - 2.0 * out
        np.exp(-np.maximum(sq, 0.0) / (2.0 * bandwidth**2), out=out)
    return out


def build_kernel(
    rows,
    cols,
    metric: str | None = None,
    bandwidth: float = 1.0,
    row_ids=None,
    col_ids=None,
) -> SimilarityMatrix:
    """Build the pairwise similarity kernel between two collections.

    Args:
        rows: collection of flat embeddings (or a 2-D array), or a list of
            object-set arrays when metric == "object_set".
        cols: same kind as rows.
        metric: "cosine", "rbf", or "object_set"; None picks cosine for flat
            embeddings and object_set for object collections.
        bandwidth: RBF bandwidth (ignored otherwise).
        row_ids/col_ids: optional stable item identifiers.

    Entries are metric(rows[i], cols[j]) computed vectorized but equal to the
    scalar ops entrywise. Flat kernels are computed in the column blocks
    row_col_max reads, so the two agree bit for bit; with 2 * _BLOCK columns
    or more, a multi-threaded BLAS may differ in the last bit from one whole
    matrix product, which can move near-tie selections.
    """
    if metric not in ("cosine", "rbf", "object_set", None):
        raise KernelError(f"unknown metric {metric!r}")
    rows = _as_item_list(rows)
    cols = _as_item_list(cols)
    if len(rows) == 0 or len(cols) == 0:
        raise KernelError("kernel collections must be nonempty")

    rows_are_objects = _is_object_collection(rows)
    cols_are_objects = _is_object_collection(cols)
    if metric is None:
        metric = "object_set" if rows_are_objects else "cosine"
    if rows_are_objects != cols_are_objects:
        raise KernelError("rows and cols mix flat embeddings and object sets")
    if rows_are_objects and metric != "object_set":
        raise KernelError(f"object-set collections require the object_set metric, not {metric!r}")
    if not rows_are_objects and metric == "object_set":
        raise KernelError("object_set metric requires object-set collections")

    values = np.empty((len(rows), len(cols)))
    if metric == "object_set":
        for i, x1 in enumerate(rows):
            for j, x2 in enumerate(cols):
                values[i, j] = object_set_similarity(x1, x2)
    else:
        R, C, blocks = _flat_prepare(rows, cols, metric, bandwidth)
        for j in blocks:
            _flat_block(R, C, j, metric, bandwidth, out=values[:, j])
        np.clip(values, 0.0, 1.0, out=values)

    return SimilarityMatrix(values, tuple(row_ids or ()), tuple(col_ids or ()))


def row_col_max(rows, cols, metric: str = "cosine", bandwidth: float = 1.0):
    """Row and column maxima of build_kernel(rows, cols, metric, bandwidth).

    A flat kernel is never held whole: its column blocks are the ones
    build_kernel computes, each folded into a running row max and its own
    column max in one reused scratch block, and only those two vectors are
    clipped, since clipping commutes with max. The maxima equal the full
    kernel's exactly. Object-set collections go through build_kernel.
    """
    if metric not in ("cosine", "rbf"):
        values = build_kernel(rows, cols, metric=metric, bandwidth=bandwidth).values
        return values.max(axis=1), values.max(axis=0)
    R, C, blocks = _flat_prepare(rows, cols, metric, bandwidth)
    scratch = np.empty((R[0].shape[0], blocks[-1].stop - blocks[-1].start))  # the widest block
    row_max, col_max = np.full(R[0].shape[0], -np.inf), []
    for j in blocks:
        block = _flat_block(R, C, j, metric, bandwidth, out=scratch[:, : j.stop - j.start])
        np.maximum(row_max, block.max(axis=1), out=row_max)
        col_max.append(block.max(axis=0))
    return np.clip(row_max, 0.0, 1.0), np.clip(np.concatenate(col_max), 0.0, 1.0)

"""Similarity kernel construction between embedding collections.

Flat embeddings are 1-D float vectors and their kernels are cosine;
object-set embeddings are 2-D arrays holding one normalized feature vector
per detected object in an image. All kernels produced here are nonnegative
with entries in [0, 1], which the set functions downstream rely on for
monotonicity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class KernelError(ValueError):
    """Raised for malformed kernel inputs (shape/dim mismatch, zero vectors)."""


def normalize_rows(X) -> np.ndarray:
    """L2-normalize each row of a nonempty 2-D array into a fresh array.

    A ragged list, an empty or non-2-D array, and a row whose norm is 0 or
    not finite raise KernelError. Each call returns a buffer of its own:
    numpy multiplies one buffer by its own transpose through SYRK, whose
    last bits differ from the general product, so a self kernel normalizes
    its input once per side.
    """
    try:
        X = np.asarray(X, dtype=np.float64)
    except ValueError:  # a ragged list, such as object sets of different sizes
        raise KernelError("flat collections must be nonempty 2-D arrays, got a ragged one") from None
    if X.ndim != 2 or X.shape[0] == 0:
        raise KernelError(f"flat collections must be nonempty 2-D arrays, got shape {X.shape}")
    if bad := first_bad_row(X):
        raise KernelError("cannot normalize row %d: it is %s" % bad)
    return X / np.linalg.norm(X, axis=1)[:, None]


def first_bad_row(X: np.ndarray) -> tuple[int, str] | None:
    """The first row of a 2-D array whose float64 L2 norm is 0 or not finite, and why.

    That norm is the one normalize_rows divides by, computed quietly: a
    finite row that is not all zero fails when its squared sum leaves
    float64's range, as [1e200, 1e200] and [1e-200, 1e-200] do.
    """
    with np.errstate(all="ignore"):
        norms = np.linalg.norm(np.asarray(X, dtype=np.float64), axis=1)
    bad = ~np.isfinite(norms) | (norms == 0.0)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if not np.isfinite(X[i]).all():
        return i, "not finite"
    return i, "out of float64's range when squared" if X[i].any() else "all zero"


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
    """Rectangular nonnegative similarity kernel with finite entries."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise KernelError(f"kernel must be 2-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise KernelError("kernel contains non-finite entries")
        if np.any(values < 0.0):
            raise KernelError("kernel contains negative entries")
        object.__setattr__(self, "values", values)


# Columns per flat-kernel block. The last block takes the remainder, so no
# block is narrow and a kernel with fewer than 2 * _BLOCK columns is one
# matrix product.
_BLOCK = 1024


def _blocks(R: np.ndarray, C: np.ndarray) -> list[slice]:
    """The column blocks of the kernel between prepared sides R and C, whose dims must agree."""
    _check_dims(R, C)
    m = C.shape[0]
    starts = [k * _BLOCK for k in range(max(m // _BLOCK, 1))] + [m]
    return [slice(j0, j1) for j0, j1 in zip(starts, starts[1:])]


def _flat_kernel(rows, cols) -> np.ndarray:
    """The clipped cosine kernel, its column blocks written in place."""
    R, C = normalize_rows(rows), normalize_rows(cols)
    values = np.empty((R.shape[0], C.shape[0]))
    for j in _blocks(R, C):
        np.matmul(R, C[j].T, out=values[:, j])
    return np.clip(values, 0.0, 1.0, out=values)


def build_kernel(rows, cols) -> SimilarityMatrix:
    """Build the pairwise similarity kernel between two collections.

    The first item of each collection decides its kernel. A 1-D first item
    makes a flat collection (a 2-D array or a list of vectors) and the
    kernel is cosine; a 2-D first item makes a collection of object sets (a
    list of 2-D arrays or a 3-D array) and the kernel is
    object_set_similarity. Both collections must be of one kind, and a flat
    collection must stack into one 2-D array; otherwise KernelError.

    Entries equal the pairwise scores entrywise. Flat kernels are computed
    in the column blocks row_col_max reads, so the two agree bit for bit;
    with 2 * _BLOCK columns or more, a multi-threaded BLAS may differ in the
    last bit from one whole matrix product, which can move near-tie
    selections.
    """
    if len(rows) == 0 or len(cols) == 0:
        raise KernelError("kernel collections must be nonempty")
    objects = np.ndim(rows[0]) == 2
    if objects != (np.ndim(cols[0]) == 2):
        raise KernelError("rows and cols mix flat embeddings and object sets")
    if not objects:
        return SimilarityMatrix(_flat_kernel(rows, cols))
    if any(np.ndim(x) != 2 for side in (rows, cols) for x in side):
        raise KernelError("collection mixes flat embeddings and object sets")
    values = np.empty((len(rows), len(cols)))
    for i, x1 in enumerate(rows):
        for j, x2 in enumerate(cols):
            values[i, j] = object_set_similarity(x1, x2)
    return SimilarityMatrix(values)


def row_col_max(rows, cols):
    """Row and column maxima of the cosine kernel build_kernel(rows, cols).

    rows and cols are 2-D arrays of flat embeddings; anything else, object
    sets included, raises KernelError. A flat kernel is never held whole:
    its column blocks are the ones build_kernel computes, each folded into
    a running row max and its own column max in one reused scratch block,
    and only those two vectors are clipped, since clipping commutes with
    max. The maxima equal the full kernel's exactly.
    """
    return _row_col_max(normalize_rows(rows), normalize_rows(cols))


def _row_col_max(R: np.ndarray, C: np.ndarray):
    """row_col_max over sides normalize_rows has already prepared."""
    blocks = _blocks(R, C)
    scratch = np.empty((R.shape[0], blocks[-1].stop - blocks[-1].start))  # the widest block
    row_max, col_max = np.full(R.shape[0], -np.inf), []
    for j in blocks:
        block = np.matmul(R, C[j].T, out=scratch[:, : j.stop - j.start])
        np.maximum(row_max, block.max(axis=1), out=row_max)
        col_max.append(block.max(axis=0))
    return np.clip(row_max, 0.0, 1.0), np.clip(np.concatenate(col_max), 0.0, 1.0)


# Side of the square tiles a kernel is transposed in: two tiles and their
# transposes stay in cache, which a whole-kernel transposed copy does not.
_TILE = 64


def _transposed_self_kernel(X) -> np.ndarray:
    """build_kernel(X, X).values.T, as a C-contiguous array.

    The kernel is computed as build_kernel computes it, so every entry is
    the same product bit for bit (a product of the transposed operands is
    not: BLAS may order its sums differently), and then transposed in place,
    tile by tile. Column j of the kernel is the contiguous row j of the
    result. X is a 2-D array of flat embeddings and the kernel is cosine.
    Entries are clipped here and no SimilarityMatrix checks them again.
    """
    S = _flat_kernel(X, X)
    n, scratch = S.shape[0], np.empty((_TILE, _TILE))
    for i in range(0, n, _TILE):
        diag = S[i : i + _TILE, i : i + _TILE]
        diag[...] = diag.T.copy()
        for j in range(i + _TILE, n, _TILE):
            upper, lower = S[i : i + _TILE, j : j + _TILE], S[j : j + _TILE, i : i + _TILE]
            tile = scratch[: upper.shape[0], : upper.shape[1]]
            np.copyto(tile, upper)
            upper[...] = lower.T
            lower[...] = tile.T
    return S

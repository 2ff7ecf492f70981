"""Cosine similarity kernels between collections of embeddings.

A collection is a 2-D array holding one embedding per row. Kernel entries
are cosines clipped to [0, 1]: the set functions downstream rely on
nonnegative kernels for monotonicity.
"""

from __future__ import annotations

import os
import threading

import numpy as np


class KernelError(ValueError):
    """Raised for malformed kernel inputs (shape/dim mismatch, zero vectors)."""


def normalize_rows(X) -> np.ndarray:
    """L2-normalize each row of a nonempty 2-D array into a fresh array.

    A ragged list, an empty or non-2-D array, and a row whose norm is 0 or
    not finite raise KernelError. Each row's norm is computed once, by
    row_norms, and the check reads those norms.
    """
    try:
        X = np.asarray(X, dtype=np.float64)
    except ValueError:  # a ragged list
        raise KernelError("flat collections must be nonempty 2-D arrays, got a ragged one") from None
    if X.ndim != 2 or X.shape[0] == 0:
        raise KernelError(f"flat collections must be nonempty 2-D arrays, got shape {X.shape}")
    norms = row_norms(X)
    if bad := first_bad_row(X, norms):
        raise KernelError("cannot normalize row %d: it is %s" % bad)
    return X / norms[:, None]


def row_norms(X) -> np.ndarray:
    """The float64 L2 norm of each row of a 2-D array, computed quietly.

    These are the norms normalize_rows divides by. A finite row that is not
    all zero gets norm 0 or inf when its squared sum leaves float64's range,
    as [1e-200, 1e-200] and [1e200, 1e200] do; first_bad_row names it.
    """
    with np.errstate(all="ignore"):
        return np.linalg.norm(np.asarray(X, dtype=np.float64), axis=1)


def first_bad_row(X: np.ndarray, norms: np.ndarray) -> tuple[int, str] | None:
    """The first row of a 2-D array whose norm is 0 or not finite, and why.

    norms is row_norms(X): a caller that keeps the norms computes them once.
    """
    bad = ~np.isfinite(norms) | (norms == 0.0)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if not np.isfinite(X[i]).all():
        return i, "not finite"
    return i, "out of float64's range when squared" if X[i].any() else "all zero"


# Columns per kernel block. The last block takes the remainder, so no
# block is narrow and a kernel with fewer than 2 * _BLOCK columns is one
# matrix product.
_BLOCK = 1024


def _blocks(R: np.ndarray, C: np.ndarray) -> list[slice]:
    """The column blocks of the kernel between prepared sides R and C, whose dims must agree."""
    if R.shape[1] != C.shape[1]:
        raise KernelError(f"embedding dims differ: {R.shape[1]} vs {C.shape[1]}")
    m = C.shape[0]
    starts = [k * _BLOCK for k in range(max(m // _BLOCK, 1))] + [m]
    return [slice(j0, j1) for j0, j1 in zip(starts, starts[1:])]


# A block product of at least _SPLIT_CELLS cells (rows x block columns) is
# computed as two column parts, the second on a helper thread, cut at a
# multiple of _SPLIT_ALIGN columns near the middle. A cut can move a cell's
# last bit, since BLAS may round a cell by where its column sits in the
# product: on OpenBLAS's SkylakeX kernels it did at the churn and desk
# benchmark shapes, so smaller blocks stay one product, and it did not at
# the ROADMAP's scaled shape (|U| 2000, dim 64).
_SPLIT_CELLS = 2**20
_SPLIT_ALIGN = 64

# The helper thread's executor, made at the first split and shared by every
# thread. A forked child (cli.run's workers) has no helper thread, and the
# lock may have been held at the fork, so the child drops both and makes
# its own.
_helper, _helper_lock = None, threading.Lock()


def _drop_helper():
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_drop_helper)


def _start_helper():
    global _helper
    with _helper_lock:
        if _helper is None:
            from concurrent.futures import ThreadPoolExecutor

            _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="kernels")
        return _helper


def _product(R: np.ndarray, C: np.ndarray, out: np.ndarray, fold) -> list:
    """Write R @ C.T into out and return [fold(part) for each column part of out].

    out is a (len(R), len(C)) float64 view each of whose rows is
    contiguous. A product of _SPLIT_CELLS cells or more is two column
    parts, cut at a multiple of _SPLIT_ALIGN columns near the middle; the
    second part and its fold run on the helper thread, and both write into
    out, so no memory is added. The cut depends only on out's shape, so the
    bits do too, whichever thread computes a part. An exception in either
    part is raised here, once both parts are done with out.
    """
    n, w = out.shape
    cut = w // (2 * _SPLIT_ALIGN) * _SPLIT_ALIGN
    if n * w < _SPLIT_CELLS or cut == 0:
        return [fold(np.matmul(R, C.T, out=out))]

    def part(j: slice):
        return fold(np.matmul(R, C[j].T, out=out[:, j]))

    second = (_helper or _start_helper()).submit(part, slice(cut, w))
    try:
        first = part(slice(0, cut))
    finally:
        second.exception()  # waits until the helper's part is done with out
    return [first, second.result()]


def _clip(part: np.ndarray) -> np.ndarray:
    return np.clip(part, 0.0, 1.0, out=part)


def _maxima(part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return part.max(axis=1), part.max(axis=0)


def _kernel(R: np.ndarray, C: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The clipped cosine kernel of two sides normalize_rows prepared, into out.

    out is a C-contiguous (len(R), len(C)) float64 array. Its column blocks
    are written and clipped in place, one _product each.
    """
    for j in _blocks(R, C):
        _product(R, C[j], out[:, j], _clip)
    return out


# Each thread's kernel workspace: one flat float64 buffer, in attribute "buf".
_local = threading.local()


def _workspace(rows: int, cols: int) -> np.ndarray:
    """A C-contiguous (rows, cols) float64 view of the head of this thread's workspace.

    The workspace is one flat buffer per thread. It grows to the largest
    request so far, dropping the old buffer before the new one is allocated,
    never shrinks, and lives as long as its thread, so a round's |U| x
    widest-block scratch and its |U| x |U| buffer kernel reuse memory that
    was faulted in once. A view starts with whatever an earlier call left in
    it, and it stays valid until the next _workspace call on the same
    thread: core._distinct_row_greedy, the only holder, keeps its S_uu for
    the greedy and makes no kernel call meanwhile. Nothing returned by
    build_kernel or _row_col_max is a view of it. The helper thread of a
    split block product writes its part into the caller's view and has no
    workspace of its own.
    """
    size = rows * cols
    if getattr(_local, "buf", None) is None or _local.buf.size < size:
        _local.buf = None  # freed before its successor is allocated
        _local.buf = np.empty(size)
    return _local.buf[:size].reshape(rows, cols)


def build_kernel(rows, cols) -> np.ndarray:
    """The clipped cosine kernel between two 2-D arrays of embeddings, as a fresh array.

    Entries are computed in the column blocks _row_col_max reads, and in
    the same parts, so the two agree bit for bit. A block of 2**20 cells or
    more (rows x block columns) is two column parts, cut at a multiple of 64
    columns near the middle and computed on two threads (see _product).
    Which blocks and parts a kernel has depends only on its shape, so its
    bits depend only on the inputs and their shapes, never on which thread
    finishes first.
    """
    R, C = normalize_rows(rows), normalize_rows(cols)
    return _kernel(R, C, np.empty((len(R), len(C))))


def _row_col_max(R: np.ndarray, C: np.ndarray):
    """build_kernel's row and column maxima, exactly, from sides normalize_rows prepared.

    The kernel is never held whole: each of its column blocks is written
    into the thread's kernel workspace and folded into a running row max and
    its own column max. A block build_kernel splits is split here too, and
    each part's row max is folded in, first part first, and its column max
    appended; max is exact, so the folds equal one block's. Only the two max
    vectors are clipped, since clipping commutes with max; both are fresh
    arrays.
    """
    blocks = _blocks(R, C)
    scratch = _workspace(R.shape[0], blocks[-1].stop - blocks[-1].start)  # the widest block
    row_max, col_max = np.full(R.shape[0], -np.inf), []
    for j in blocks:
        for part_row, part_col in _product(R, C[j], scratch[:, : j.stop - j.start], _maxima):
            np.maximum(row_max, part_row, out=row_max)
            col_max.append(part_col)
    return np.clip(row_max, 0.0, 1.0), np.clip(np.concatenate(col_max), 0.0, 1.0)

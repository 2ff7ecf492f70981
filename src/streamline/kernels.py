"""Cosine similarity kernels between collections of embeddings.

A collection is a 2-D array holding one embedding per row. Kernel entries
are cosines clipped to [0, 1]: the set functions downstream rely on
nonnegative kernels for monotonicity.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

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


# A kernel, or any (n, m) array _walk visits, of at least _SPLIT_CELLS
# cells and more than one row is walked on two threads: its rows are cut
# once, at n // 2, and the helper thread takes the second half. Each half is
# walked in bands of whole rows, each of at most _SPLIT_CELLS cells (8 MB of
# float64) or of one row, so a kernel below the gate is one product. Where
# a band ends may move a cell's last bits, but no output: greedy gains are
# compared on a 2**-30 grid.
_SPLIT_CELLS = 2**20


def _spans(lo: int, hi: int, step: int) -> list[slice]:
    """[lo, hi) cut every step, the last span taking what is left."""
    return [slice(a, min(a + step, hi)) for a in range(lo, hi, step)]


def _bands(n: int, m: int) -> tuple[tuple[slice, ...], ...]:
    """The row bands of an (n, m) kernel, one tuple per thread.

    Below the gate, or for one row, there is one tuple, for the calling
    thread; at or above it, the calling thread's rows [0, n // 2), then the
    helper thread's [n // 2, n). Each is cut top to bottom into bands of
    max(1, _SPLIT_CELLS // m) whole rows (2**20 for m = 0), and depends
    on n and m alone.
    """
    halves = ((0, n),) if n * m < _SPLIT_CELLS or n == 1 else ((0, n // 2), (n // 2, n))
    return tuple(tuple(_spans(lo, hi, max(1, _SPLIT_CELLS // max(m, 1)))) for lo, hi in halves)


def _plan(R: np.ndarray, C: np.ndarray) -> tuple[tuple[slice, ...], ...]:
    """_bands of the kernel between prepared sides R and C, whose dims must agree."""
    if R.shape[1] != C.shape[1]:
        raise KernelError(f"embedding dims differ: {R.shape[1]} vs {C.shape[1]}")
    return _bands(len(R), len(C))


def _new_helper() -> None:
    """Make the helper thread's executor, shared by every thread.

    It starts its one thread at the first hand-off and keeps it: with a
    multi-threaded OpenBLAS (2 cores), a thread started and joined per call
    made a 2000 x 4000 _row_col_max take about 30 ms against 14 ms. A forked
    child (cli.run's workers) has no helper thread, so it makes its own.
    """
    global _helper
    _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="kernels")


_new_helper()
os.register_at_fork(after_in_child=_new_helper)


def _walk(shares, work) -> None:
    """Call work(k, i) on each band i of each share k, the package's one two-thread runner.

    shares is _bands' tuple of row bands per thread. Share 1, if any, runs
    on the helper thread, handed off once per call. An exception in either
    share is raised here, once both are done; the caller's wins when both
    raise. No work may call _walk: the helper would wait on itself.
    """

    def walk(k: int) -> None:
        for i in shares[k]:
            work(k, i)

    if len(shares) == 1:
        return walk(0)
    second = _helper.submit(walk, 1)
    try:
        walk(0)
    finally:
        second.exception()  # waits until the helper's share is done with its views
    second.result()


def _kernel(R: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The clipped cosine kernel of two sides normalize_rows prepared, as a fresh array.

    Each band (_bands) is computed straight into its rows of the result, a
    contiguous block, and clipped there in one call.
    """
    out = np.empty((len(R), len(C)))

    def work(k, i):
        np.clip(np.matmul(R[i], C.T, out=out[i]), 0.0, 1.0, out=out[i])

    _walk(_plan(R, C), work)
    return out


def build_kernel(rows, cols) -> np.ndarray:
    """The clipped cosine kernel between two 2-D arrays of embeddings, as a fresh array.

    Each cell is computed by the product _row_col_max computes it in, so
    the two agree bit for bit (see _bands for how a kernel is cut). Which
    products a kernel has depends only on its shape, so its bits depend
    only on the inputs and their shapes, never on which thread finishes
    first.
    """
    R, C = normalize_rows(rows), normalize_rows(cols)
    return _kernel(R, C)


def _row_col_max(R: np.ndarray, C: np.ndarray):
    """The clipped kernel's row and column maxima, from sides normalize_rows prepared.

    The two sides share a dtype, and the products and maxima are in it.
    From float64 sides the maxima are build_kernel's, exactly; from float32
    copies of them, within core._screen_error of those.

    The kernel is never held whole: each band is computed into its thread's
    band scratch, allocated per call and as tall as the tallest band of
    either share. A band spans every column, so its row maxima are written
    directly; each share folds its columns' maxima into its own vector,
    from 0, the kernel's floor, reduced by max at the end.
    Both vectors end clipped to [0, 1], which is clipping every cell; max is
    exact, so the result is the whole kernel's. Both are fresh arrays.
    """
    shares, m = _plan(R, C), len(C)
    height = max(i.stop - i.start for share in shares for i in share)
    scratch = np.empty((len(shares), height * m), R.dtype)
    row_max, col_max = np.empty(len(R), R.dtype), np.zeros((len(shares), m), R.dtype)

    def work(k, i):
        product = np.matmul(R[i], C.T, out=scratch[k, : (i.stop - i.start) * m].reshape(-1, m))
        product.max(axis=1, out=row_max[i])
        np.maximum(col_max[k], product.max(axis=0), out=col_max[k])

    _walk(shares, work)
    return np.clip(row_max, 0.0, 1.0, out=row_max), np.clip(np.maximum.reduce(col_max), 0.0, 1.0)

"""Cosine similarity kernels between collections of embeddings.

A collection is a 2-D array holding one embedding per row. Kernel entries
are cosines clipped to [0, 1]: the set functions downstream rely on
nonnegative kernels for monotonicity.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

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


# A kernel of at least _SPLIT_CELLS cells and 2 * _SPLIT_ALIGN columns is
# walked on two threads: its columns are cut once, at a multiple of
# _SPLIT_ALIGN near the middle. Every kernel, below the gate too, is walked
# in tiles of at most _TILE_ROWS rows and _TILE_ROWS * _TILE_COLS cells
# (1 MB of float64, half a core's 2 MB L2), as wide as that allows in whole
# multiples of _SPLIT_ALIGN: a kernel of fewer rows gets wider tiles, and
# so fewer products. Where a cell sits in a tile may move its last bits,
# but no output: greedy gains are compared on a 2**-30 grid.
_SPLIT_CELLS = 2**20
_SPLIT_ALIGN = 64
_TILE_ROWS, _TILE_COLS = 256, 512


def _spans(lo: int, hi: int, step: int) -> list[slice]:
    """[lo, hi) cut every step, the last span taking what is left."""
    return [slice(a, min(a + step, hi)) for a in range(lo, hi, step)]


# Cached for the shapes of a round or two: rebuilding the tiles took about
# 1 us of a 36 us kernel at the churn benchmark's shapes, and 256 entries
# kept about 1 MB more resident there than 32.
@lru_cache(maxsize=32)
def _tiles(n: int, m: int) -> tuple[tuple[tuple[slice, slice], ...], ...]:
    """The (rows, columns) tiles of an (n, m) kernel, one tuple per thread.

    Below the gate there is one tuple, for the calling thread. At or above
    it there are two, the calling thread's columns and then the helper
    thread's. Each is walked column tile by column tile, down the rows of
    each. Every cell is in exactly one tile, and the tiles depend on n and
    m alone.
    """
    cut = m // (2 * _SPLIT_ALIGN) * _SPLIT_ALIGN
    halves = ((0, m),) if n * m < _SPLIT_CELLS or cut == 0 else ((0, cut), (cut, m))
    width = _TILE_ROWS * _TILE_COLS // min(n, _TILE_ROWS) // _SPLIT_ALIGN * _SPLIT_ALIGN
    return tuple(
        tuple((i, j) for j in _spans(lo, hi, width) for i in _spans(0, n, _TILE_ROWS))
        for lo, hi in halves
    )


@lru_cache(maxsize=32)
def _bands(n: int, m: int) -> tuple[tuple[tuple[slice, slice], ...], ...]:
    """The tiles of _tiles(n, m), one tuple per thread, walked band by band.

    A band is one row span of the tiles, across every column tile of its
    share, left to right. A kernel above the gate with at least 4 *
    _TILE_ROWS rows, S_uu among them, is cut between bands instead of
    between columns, at the band edge nearest its middle, so each thread's
    bands are whole rows. A kernel of fewer rows keeps _tiles' column
    halves, which split its work more evenly than a band edge can.
    """
    shares = _tiles(n, m)
    if len(shares) == 2 and n >= 4 * _TILE_ROWS:
        cut = round(n / (2 * _TILE_ROWS)) * _TILE_ROWS
        tiles = shares[0] + shares[1]
        shares = tuple(t for t in tiles if t[0].start < cut), tuple(t for t in tiles if t[0].start >= cut)
    return tuple(tuple(sorted(share, key=lambda t: (t[0].start, t[1].start))) for share in shares)


def _plan(R: np.ndarray, C: np.ndarray, cut=_tiles) -> tuple[tuple[tuple[slice, slice], ...], ...]:
    """cut (_tiles or _bands) of the kernel between prepared sides R and C, whose dims must agree."""
    if R.shape[1] != C.shape[1]:
        raise KernelError(f"embedding dims differ: {R.shape[1]} vs {C.shape[1]}")
    return cut(len(R), len(C))


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


def _walk(R, C, shares, tile, fold) -> None:
    """Compute R @ C.T tile by tile and call fold(k, i, j, product) on each tile.

    shares is _plan's list of tiles per thread, in the order walked:
    _tiles' column by column for _row_col_max, _bands' band by band for
    _kernel, whose fold clips and visits a band after its last tile. Share
    k computes tile (i, j) into tile(k, i, j), a C-contiguous or
    row-contiguous float64 view of its shape. Share 1, if any, runs on the
    helper thread, handed off once per call; it allocates nothing. An
    exception in either share is raised here, once both are done with
    their views; the caller's wins when both raise.
    """

    def walk(k: int) -> None:
        for i, j in shares[k]:
            fold(k, i, j, np.matmul(R[i], C[j].T, out=tile(k, i, j)))

    if len(shares) == 1:
        return walk(0)
    second = _helper.submit(walk, 1)
    try:
        walk(0)
    finally:
        second.exception()  # waits until the helper's share is done with its views
    second.result()


# Rows of a band clipped and visited at once: 64 rows of a 2000-column S_uu
# are 1 MB, so a panel and its gains scratch stay in a core's 2 MB L2 from
# its clip through the set function's check and first gains (65 rows took
# 9% longer there).
_PANEL = 64


def _kernel(R: np.ndarray, C: np.ndarray, out: np.ndarray, visit=None) -> np.ndarray:
    """The clipped cosine kernel of two sides normalize_rows prepared, into out.

    out is a C-contiguous (len(R), len(C)) float64 array. The kernel is
    walked band by band (_bands), each tile computed straight into out.
    Once a band's last tile is in, the band is clipped as one block of its
    share's columns: contiguous where a share has every column, which numpy
    clips about twice as fast as a tile of a wider array. Given a visit,
    the band is clipped _PANEL rows at a time instead, and visit(k, rows)
    is called on each panel, on the thread k that built it, while it is
    still in cache. A visit reads whole rows, so it is for kernels whose
    shares have every column: those below the gate, and S_uu above it. An
    exception from visit is raised as _walk raises one.
    """
    shares = _plan(R, C, _bands)
    cols = [slice(share[0][1].start, share[-1][1].stop) for share in shares]
    step = _TILE_ROWS if visit is None else _PANEL

    def clip(k, i, j, product):
        if j.stop == cols[k].stop:  # the band's last tile
            for rows in _spans(i.start, i.stop, step):
                panel = out[rows, cols[k]]
                np.clip(panel, 0.0, 1.0, out=panel)
                if visit is not None:
                    visit(k, rows)

    _walk(R, C, shares, lambda k, i, j: out[i, j], clip)
    return out


# Each thread's kernel workspace: one flat float64 buffer, in attribute "buf".
_local = threading.local()


def _workspace(rows: int, cols: int) -> np.ndarray:
    """A C-contiguous (rows, cols) float64 view of the head of this thread's workspace.

    The workspace is one flat buffer per thread. It grows to the largest
    request so far, dropping the old buffer before the new one is allocated,
    never shrinks, and lives as long as its thread, so a round's tile
    scratch and its |U| x |U| buffer kernel reuse memory that was faulted in
    once. A view starts with whatever an earlier call left in it, and it
    stays valid until the next _workspace call on the same thread, which
    every _row_col_max makes: core._distinct_row_greedy keeps its S_uu for
    the greedy and makes no kernel call meanwhile. Nothing build_kernel or
    _row_col_max returns is a view of it. The helper thread computes its
    share of a walk into the calling thread's views and has no workspace
    of its own.
    """
    size = rows * cols
    if getattr(_local, "buf", None) is None or _local.buf.size < size:
        _local.buf = None  # freed before its successor is allocated
        _local.buf = np.empty(size)
    return _local.buf[:size].reshape(rows, cols)


def build_kernel(rows, cols) -> np.ndarray:
    """The clipped cosine kernel between two 2-D arrays of embeddings, as a fresh array.

    Each cell is computed by the product _row_col_max computes it in, so
    the two agree bit for bit (see _tiles for how a kernel is cut). Which
    products a kernel has depends only on its shape, so its bits depend
    only on the inputs and their shapes, never on which thread finishes
    first.
    """
    R, C = normalize_rows(rows), normalize_rows(cols)
    return _kernel(R, C, np.empty((len(R), len(C))))


def _row_col_max(R: np.ndarray, C: np.ndarray):
    """build_kernel's row and column maxima, exactly, from sides normalize_rows prepared.

    The kernel is never held whole: each tile is computed into its thread's
    tile scratch, carved from the calling thread's workspace, and folded
    into that thread's running row maxima and the running maxima of its
    columns while it is still in cache. The maxima start at 0, the kernel's
    floor, and end capped at 1, so clipping the two vectors is clipping
    every cell; max is exact, so the two threads' folded row maxima equal
    the whole kernel's. Both vectors are fresh arrays.
    """
    shares = _plan(R, C)
    cells = max((i.stop - i.start) * (j.stop - j.start) for share in shares for i, j in share)
    scratch = _workspace(len(shares), cells)
    row_max, col_max = np.zeros((len(shares), len(R))), np.zeros(len(C))

    def tile(k, i, j):
        h, w = i.stop - i.start, j.stop - j.start
        return scratch[k, : h * w].reshape(h, w)

    def fold(k, i, j, product):
        np.maximum(row_max[k, i], product.max(axis=1), out=row_max[k, i])
        np.maximum(col_max[j], product.max(axis=0), out=col_max[j])

    _walk(R, C, shares, tile, fold)
    return np.minimum(np.maximum.reduce(row_max), 1.0), np.minimum(col_max, 1.0, out=col_max)

import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import streamline.kernels as kernels
from streamline.kernels import (
    _SPLIT_ALIGN,
    _SPLIT_CELLS,
    _TILE_COLS,
    _TILE_ROWS,
    KernelError,
    _bands,
    _kernel,
    _plan,
    _row_col_max,
    _tiles,
    _walk,
    _workspace,
    build_kernel,
    normalize_rows,
)
from streamline.setfunctions import FLCG, FLQMI, FacilityLocation


def _cosine(a, b) -> float:
    """Reference: the cosine of two vectors, clamped to [0, 1]."""
    score = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
    return min(max(score, 0.0), 1.0)


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([0.6, 0.8], [0.6, 0.8], 1.0),  # identical unit vectors
        ([1.0, 0.0], [0.0, 1.0], 0.0),  # orthogonal
        ([1.0, 0.0], [1.0, 1.0], np.sqrt(0.5)),  # 45 degrees
        ([1.0, 0.0], [-1.0, 0.0], 0.0),  # a negative cosine clamps to 0
    ],
    ids=["identical", "orthogonal", "45_degrees", "negative_clamps_to_zero"],
)
def test_build_kernel_1x1_is_the_clamped_cosine(a, b, expected):
    K = build_kernel(np.array([a]), np.array([b]))
    assert K.shape == (1, 1)
    assert K[0, 0] == pytest.approx(expected, abs=1e-12)


def test_build_kernel_rejects_different_dims():
    with pytest.raises(KernelError, match="embedding dims differ: 2 vs 3"):
        build_kernel(np.ones((2, 2)), np.ones((4, 3)))


def test_build_kernel_matches_bruteforce_cosine():
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(5, 6))
    cols = rng.normal(size=(7, 6))
    K = build_kernel(rows, cols)
    for i in range(5):
        for j in range(7):
            assert K[i, j] == pytest.approx(_cosine(rows[i], cols[j]), abs=1e-9)


def test_self_kernel_symmetric_unit_diagonal():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(6, 4))
    K = build_kernel(X, X)
    assert np.allclose(K, K.T, atol=1e-6)
    assert np.allclose(np.diag(K), 1.0, atol=1e-6)


def test_kernel_entries_in_unit_range():
    rng = np.random.default_rng(9)
    K = build_kernel(rng.normal(size=(8, 5)), rng.normal(size=(9, 5)))
    assert np.all(K >= 0.0)
    assert np.all(K <= 1.0 + 1e-9)


def test_single_identical_item_kernel():
    x = np.array([[2.0, 1.0]])
    K = build_kernel(x, x)
    assert K.shape == (1, 1)
    assert K[0, 0] == pytest.approx(1.0)


def test_flat_kernels_are_cosine_only():
    ragged = [[1.0, 2.0, 3.0], [1.0]]
    with pytest.raises(KernelError, match="ragged"):
        normalize_rows(ragged)
    with pytest.raises(KernelError, match=r"shape \(2, 2, 3\)"):
        normalize_rows([np.ones((2, 3)), np.ones((2, 3))])


@pytest.mark.parametrize("row", [[1e200, 1e200], [1e-200, 1e-200], [0.0, 0.0]])
def test_build_kernel_rejects_a_row_whose_norm_leaves_float64(row):
    X = np.array([[1.0, 1.0], row])
    why = "out of float64's range" if any(row) else "all zero"
    with pytest.raises(KernelError, match=f"cannot normalize row 1: it is {why}"):
        build_kernel(X, X)
    with pytest.raises(KernelError, match="cannot normalize row 1"):
        normalize_rows(X)


def test_build_kernel_empty_rejected():
    with pytest.raises(KernelError):
        build_kernel(np.empty((0, 3)), np.ones((2, 3)))


def test_build_kernel_of_a_list_of_vectors_equals_the_stacked_array():
    rng = np.random.default_rng(11)
    rows, cols = rng.normal(size=(5, 4)), rng.normal(size=(7, 4))
    stacked = build_kernel(rows, cols)
    assert np.array_equal(build_kernel(list(rows), list(cols)), stacked)
    assert np.array_equal(build_kernel(list(rows), cols), stacked)


def test_empty_or_ragged_rows_cannot_be_normalized():
    with pytest.raises(KernelError, match=r"got shape \(0, 3\)"):
        normalize_rows(np.empty((0, 3)))
    with pytest.raises(KernelError, match="ragged"):
        normalize_rows([[1.0, 2.0], [1.0]])


_SET_FUNCTIONS = {
    "FacilityLocation": FacilityLocation,
    "FLQMI": FLQMI,
    "FLCG_kernel_uu": FLCG,
    "FLCG_kernel_up": lambda K: FLCG(np.ones((len(K), len(K))), K),
}


@pytest.mark.parametrize("make", _SET_FUNCTIONS.values(), ids=_SET_FUNCTIONS.keys())
@pytest.mark.parametrize(
    "bad, why",
    [(np.nan, "not finite"), (np.inf, "not finite"), (-np.inf, "not finite"), (-0.5, "negative")],
    ids=["nan", "inf", "-inf", "negative"],
)
def test_set_functions_reject_a_kernel_entry_and_name_it(make, bad, why):
    K = np.full((2, 2), 0.5)
    K[1, 1] = np.nan  # a later bad entry is not the one named
    K[1, 0] = bad
    with pytest.raises(ValueError, match=rf"^kernel entry \(1, 0\) is {why}$"):
        make(K)


@pytest.mark.parametrize("make", _SET_FUNCTIONS.values(), ids=_SET_FUNCTIONS.keys())
def test_set_functions_reject_a_3d_kernel(make):
    with pytest.raises(ValueError, match=r"kernel must be 2-D, got shape \(2, 2, 2\)"):
        make(np.ones((2, 2, 2)))


def test_a_nan_kernel_is_rejected_before_any_greedy_runs():
    """Unchecked, naive greedy recorded nan gains and lazy greedy raised an unnamed float error."""
    with pytest.raises(ValueError, match=r"kernel entry \(0, 0\) is not finite"):
        FacilityLocation(np.array([[np.nan, 1.0], [1.0, -1.0]]))


# ------------------------------------------------------------------ workspace


def _in_threads(*fns):
    """Run each fn on a thread of its own, all at once, and return their results in order."""
    results, errors = [None] * len(fns), []
    barrier = threading.Barrier(len(fns))

    def call(k):
        try:
            barrier.wait(timeout=30)
            results[k] = fns[k]()
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=call, args=(k,)) for k in range(len(fns))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]
    return results


def test_kernel_results_share_no_memory_with_the_workspace():
    rng = np.random.default_rng(0)
    U, P = rng.normal(size=(30, 4)), rng.normal(size=(5000, 4))
    K = build_kernel(U, P)
    row, col = _row_col_max(normalize_rows(U), normalize_rows(P))
    kept = [a.copy() for a in (K, row, col)]
    for a in (K, row, col):
        assert not np.shares_memory(a, kernels._local.buf)
    # later kernel calls overwrite the workspace, not the results
    _row_col_max(normalize_rows(-U), normalize_rows(P))
    V = normalize_rows(-U)
    _kernel(V, V, _workspace(len(V), len(V)))
    build_kernel(P[:40], U)
    for a, b in zip((K, row, col), kept):
        np.testing.assert_array_equal(a, b)


def test_threads_building_different_kernels_at_once_each_get_the_serial_result():
    rng = np.random.default_rng(1)
    # more threads than 2 cores; the last shape is above the gate, so its threads share the helper
    shapes = [(40, 4000), (70, 300), (_TILE_ROWS + 3, 2 * _TILE_COLS), (90, 5), (1030, 1100)]
    sides = [(normalize_rows(rng.normal(size=(n_u, 6))), normalize_rows(rng.normal(size=(n_p, 6))))
             for n_u, n_p in shapes]

    def kernels_of(U, P):
        row, col = _row_col_max(U, P)
        return row, col, _kernel(U, U, _workspace(len(U), len(U))).copy()

    serial = [kernels_of(U, P) for U, P in sides]

    def repeatedly(U, P):
        return [kernels_of(U, P) for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        concurrent = _in_threads(*[lambda U=U, P=P: repeatedly(U, P) for U, P in sides])
    finally:
        sys.setswitchinterval(interval)
    for expected, runs in zip(serial, concurrent):
        for got in runs:
            for a, b in zip(got, expected):
                np.testing.assert_array_equal(a, b)


def test_a_grown_workspace_leaves_one_buffer_on_its_thread():
    def grow():
        tracemalloc.start()  # before the first buffer, so that its bytes count
        try:
            _workspace(1000, 100)  # 0.8 MB
            old = weakref.ref(kernels._local.buf)
            tracemalloc.reset_peak()
            _workspace(1000, 1000)  # 8 MB
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return old() is None, kernels._local.buf.size, peak

    [(old_freed, size, peak)] = _in_threads(grow)
    assert old_freed and size == 1000 * 1000
    assert peak < 8_000_000 + 100_000  # the old buffer was freed before the new one was allocated


# ------------------------------------------------------------------ the tile walk

_SHAPES = [  # (n, w, threads): the gate's edges, and partial last tiles in both axes on either side
    (1, 1, 1), (1023, 1024, 1), (2**14, 127, 1), (_TILE_ROWS + 1, 2 * _TILE_COLS + 1, 1), (100, 3000, 1),
    (3, 2**18, 1),
    (1024, 1024, 2), (600, 3000, 2), (2**13, 128, 2), (1030, 1030, 2), (2000, 4000, 2), (2000, 2000, 2),
    (1100, 2100, 2), (1037, 2099, 2),
]


@pytest.mark.parametrize("n, w, threads", _SHAPES)
def test_the_tiles_cover_every_cell_once_and_depend_on_the_shape_alone(n, w, threads):
    shares = _tiles(n, w)
    assert len(shares) == threads == (1 if n * w < _SPLIT_CELLS or w < 2 * _SPLIT_ALIGN else 2)
    covered = np.zeros((n, w), dtype=int)
    for share in shares:
        for i, j in share:
            covered[i, j] += 1
    assert (covered == 1).all()
    rng = np.random.default_rng(n + w)
    for dim in (1, 7):  # _plan reads the shapes, not the data
        R, C = rng.normal(size=(n, dim)), rng.normal(size=(w, dim))
        assert _plan(R, C) == shares
    # either side of the gate: tiles of at most 1 MB
    height, cells = min(n, _TILE_ROWS), _TILE_ROWS * _TILE_COLS
    for share in shares:
        widths = [stop - start for start, stop in dict.fromkeys((j.start, j.stop) for _, j in share)]
        assert all(i.stop - i.start <= height for i, _ in share) and height * widths[0] <= cells
        if len(widths) > 1:  # as wide as 1 MB allows in multiples of _SPLIT_ALIGN, the last taking what is left
            assert widths[0] % _SPLIT_ALIGN == 0 and height * (widths[0] + _SPLIT_ALIGN) > cells
            assert widths[:-1] == [widths[0]] * (len(widths) - 1) and widths[-1] <= widths[0]
    if threads == 2:  # two halves cut at a multiple of _SPLIT_ALIGN near the middle
        first, second = shares
        cut = first[-1][1].stop
        assert cut == second[0][1].start and cut % _SPLIT_ALIGN == 0 and abs(w - 2 * cut) < 2 * _SPLIT_ALIGN
    # _bands: the same tiles on as many threads, each share walked band by band
    bands = _bands(n, w)
    assert len(bands) == threads and sorted(sum(bands, ()), key=_start) == sorted(sum(shares, ()), key=_start)
    assert all(list(share) == sorted(share, key=_start) for share in bands)
    if threads == 2 and n >= 4 * _TILE_ROWS:  # whole rows, cut between bands near the middle row
        cut = bands[1][0][0].start
        assert cut % _TILE_ROWS == 0 and abs(n - 2 * cut) <= _TILE_ROWS
        assert {i.start < cut for i, _ in bands[0]} == {True} and {i.start < cut for i, _ in bands[1]} == {False}
    else:
        assert [sorted(share, key=_start) for share in bands] == [sorted(share, key=_start) for share in shares]


def _start(tile):
    """A tile's place in band order: its first row, then its first column."""
    i, j = tile
    return i.start, j.start


@pytest.fixture
def products(monkeypatch):
    """(thread, out) of every np.matmul call, in the order made."""
    made, matmul = [], np.matmul

    def spy(*args, out):
        made.append((threading.get_ident(), out))
        return matmul(*args, out=out)

    monkeypatch.setattr(np, "matmul", spy)
    return made


@pytest.fixture
def handoffs(monkeypatch):
    """The shares submitted to the helper thread."""
    submitted, helper = [], kernels._helper

    class Spy:
        def submit(self, fn, *args):
            submitted.append(args)
            return helper.submit(fn, *args)

    monkeypatch.setattr(kernels, "_helper", Spy())
    return submitted


@pytest.mark.parametrize("n, w", [(1023, 1024), (2**14, 127), (100, 3000), (_TILE_ROWS + 1, 700)])
def test_a_kernel_below_the_gate_is_walked_in_tiles_on_the_calling_thread(n, w, products, handoffs):
    rng = np.random.default_rng(5)
    R, C = normalize_rows(rng.normal(size=(n, 3))), normalize_rows(rng.normal(size=(w, 3)))
    [share], [bands] = _tiles(n, w), _bands(n, w)
    caller = threading.get_ident()
    expected = [(caller, (i.stop - i.start, j.stop - j.start)) for i, j in share]
    assert all(h <= _TILE_ROWS and h * c <= _TILE_ROWS * _TILE_COLS for _, (h, c) in expected)
    assert len(expected) > 1
    out = np.empty((n, w))
    _kernel(R, C, out)  # band by band
    in_bands = [(caller, (i.stop - i.start, j.stop - j.start)) for i, j in bands]
    assert [(thread, tile.shape) for thread, tile in products] == in_bands
    for (_, tile), (i, j) in zip(products, bands):  # straight into its place in out
        assert tile.base is out and tile.__array_interface__["data"][0] == out[i, j].__array_interface__["data"][0]
    products.clear()
    _row_col_max(R, C)  # column tile by column tile
    assert [(thread, tile.shape) for thread, tile in products] == expected
    assert handoffs == []


@pytest.mark.parametrize("n, w", [(2000, 4000), (1030, 1030), (1100, 2100)])
def test_a_kernel_above_the_gate_is_handed_to_the_helper_once(n, w, products, handoffs):
    rng = np.random.default_rng(6)
    X, Y = rng.normal(size=(n, 8)), rng.normal(size=(w, 8))
    R, C = normalize_rows(X), normalize_rows(Y)
    caller = threading.get_ident()
    out = np.empty((n, w))
    for run, (first, second) in (
        (lambda: _row_col_max(R, C), _tiles(n, w)),  # column halves
        (lambda: _kernel(R, C, out), _bands(n, w)),  # row halves
        (lambda: build_kernel(X, Y), _bands(n, w)),
    ):
        products.clear()
        handoffs.clear()
        run()
        assert handoffs == [(1,)]
        mine = [tile.shape for thread, tile in products if thread == caller]
        theirs = [tile.shape for thread, tile in products if thread != caller]
        assert mine == [(i.stop - i.start, j.stop - j.start) for i, j in first]
        assert theirs == [(i.stop - i.start, j.stop - j.start) for i, j in second]
    # _kernel computes each tile straight into its place in out
    products.clear()
    _kernel(R, C, out)
    assert all(tile.base is out for _, tile in products)


def test_an_error_in_the_helpers_share_is_raised_in_the_caller():
    caller = threading.get_ident()
    rng = np.random.default_rng(3)
    X, Y = rng.normal(size=(1030, 4)), rng.normal(size=(1100, 4))
    U, P = normalize_rows(X), normalize_rows(Y)
    shares = _plan(U, P)
    out, folded = np.empty((len(U), len(P))), []

    def fold(k, i, j, tile):
        if threading.get_ident() != caller:
            raise ArithmeticError("in the helper's share")
        folded.append((i, j))

    with pytest.raises(ArithmeticError, match="in the helper's share"):
        _walk(U, P, shares, lambda k, i, j: out[i, j], fold)
    assert folded == list(shares[0])  # the caller's share ran to its end
    # the helper is still there, and the next call gets the whole kernel's maxima
    K = build_kernel(X, Y)
    row, col = _row_col_max(U, P)
    np.testing.assert_array_equal(row, K.max(axis=1))
    np.testing.assert_array_equal(col, K.max(axis=0))


def test_an_error_in_the_callers_share_is_raised_once_the_helper_is_done():
    caller = threading.get_ident()
    rng = np.random.default_rng(4)
    U, P = normalize_rows(rng.normal(size=(1030, 4))), normalize_rows(rng.normal(size=(1100, 4)))
    shares = _plan(U, P)
    out, folded = np.empty((len(U), len(P))), []

    def fold(k, i, j, tile):
        if threading.get_ident() == caller:
            raise ArithmeticError("in the caller's share")
        time.sleep(0.01)
        folded.append((i, j))

    with pytest.raises(ArithmeticError, match="in the caller's share"):
        _walk(U, P, shares, lambda k, i, j: out[i, j], fold)
    assert folded == list(shares[1])  # the helper was done with its views before the raise


def test_kernel_calls_that_return_or_raise_reuse_one_helper_and_the_callers_error_wins():
    rng = np.random.default_rng(9)
    X, Y = rng.normal(size=(1030, 4)), rng.normal(size=(1100, 4))
    R, C = normalize_rows(X), normalize_rows(Y)
    shares = _plan(R, C)
    assert len(shares) == 2
    out = np.empty((len(R), len(C)))
    build_kernel(X, Y)  # the helper's thread runs from here on
    before = threading.enumerate()
    assert len([t for t in before if t.name.startswith("kernels")]) == 1
    for run in (lambda: _row_col_max(R, C), lambda: _kernel(R, C, out), lambda: build_kernel(X, Y)):
        run()
        assert threading.enumerate() == before

    def raising_in(*ks):
        def fold(k, i, j, tile):
            if k in ks:
                if k == 0:
                    time.sleep(0.05)  # so that the helper's error comes first
                raise ArithmeticError(f"in share {k}")

        return fold

    for ks, raised in (((1,), "in share 1"), ((0,), "in share 0"), ((0, 1), "in share 0")):
        with pytest.raises(ArithmeticError, match=raised):
            _walk(R, C, shares, lambda k, i, j: out[i, j], raising_in(*ks))
        assert threading.enumerate() == before


def test_kernels_above_the_gate_allocate_no_tile_on_either_thread():
    """Each thread's tile scratch comes from the caller's workspace, so a
    warmed _row_col_max allocates only its maxima, and S_uu built in the
    workspace allocates nothing: less than one tile's bytes either way."""
    rng = np.random.default_rng(8)
    n, w = 2000, 4000
    R, C = normalize_rows(rng.normal(size=(n, 16))), normalize_rows(rng.normal(size=(w, 16)))
    assert len(_tiles(n, w)) == len(_tiles(n, n)) == 2
    _kernel(R, R, _workspace(n, n))  # grows the workspace and starts the helper
    expected = _row_col_max(R, C)
    tracemalloc.start()
    try:
        row, col = _row_col_max(R, C)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        S = _kernel(R, R, _workspace(n, n))
        _, self_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(row, expected[0])
    np.testing.assert_array_equal(col, expected[1])
    np.testing.assert_array_equal(S, _kernel(R, R, np.empty((n, n))))
    tile = _TILE_ROWS * _TILE_COLS * 8
    assert peak < tile + (n + w) * 8 and self_peak < tile

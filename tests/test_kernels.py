import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import streamline.kernels as kernels
from conftest import band_scratch
from streamline.kernels import (
    _SPLIT_CELLS,
    KernelError,
    _bands,
    _kernel,
    _plan,
    _row_col_max,
    _walk,
    build_kernel,
    normalize_rows,
)
from streamline.setfunctions import _ROWS, FLCG, FLQMI, FacilityLocation


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


# ------------------------------------------------------------------ memory and threads


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


def test_later_kernel_calls_never_overwrite_an_earlier_result():
    rng = np.random.default_rng(0)
    U, P = rng.normal(size=(30, 4)), rng.normal(size=(5000, 4))
    K = build_kernel(U, P)
    row, col = _row_col_max(normalize_rows(U), normalize_rows(P))
    U32, P32 = (normalize_rows(A).astype(np.float32) for A in (U, P))
    row32, col32 = _row_col_max(U32, P32)  # the float32 sides core's screen passes
    assert row32.dtype == col32.dtype == np.float32
    kept = [a.copy() for a in (K, row, col, row32, col32)]
    _row_col_max(normalize_rows(-U), normalize_rows(P))
    _row_col_max(-U32, P32)
    V = normalize_rows(-U)
    _kernel(V, V)
    build_kernel(P[:40], U)
    for a, b in zip((K, row, col, row32, col32), kept):
        np.testing.assert_array_equal(a, b)


def test_threads_building_different_kernels_at_once_each_get_the_serial_result():
    rng = np.random.default_rng(1)
    # more threads than 2 cores; the last shape is above the gate, so its threads share the helper
    shapes = [(40, 4000), (70, 300), (259, 1024), (90, 5), (1030, 1100)]
    sides = [(normalize_rows(rng.normal(size=(n_u, 6))), normalize_rows(rng.normal(size=(n_p, 6))))
             for n_u, n_p in shapes]

    def kernels_of(U, P):
        row, col = _row_col_max(U, P)
        return row, col, _kernel(U, U)

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


# ------------------------------------------------------------------ the band walk

_SHAPES = [  # (n, w, threads): the gate's edges, and partial last bands on either side, odd n too
    (1, 1, 1), (1023, 1024, 1), (257, 1025, 1), (100, 3000, 1), (3, 2**18, 1), (1, 2**20, 1),
    (1024, 1024, 2), (600, 3000, 2), (2**13, 128, 2), (2**14, 127, 2), (2, 2**19, 2), (1030, 1030, 2),
    (1031, 1031, 2), (2000, 4000, 2), (2000, 2000, 2), (1100, 2100, 2), (1037, 2099, 2),
]


@pytest.mark.parametrize("n, w, threads", _SHAPES)
def test_the_bands_cover_every_row_once_and_depend_on_the_shape_alone(n, w, threads):
    shares = _bands(n, w)
    assert len(shares) == threads == (1 if n * w < _SPLIT_CELLS or n == 1 else 2)
    covered = np.zeros(n, dtype=int)
    for share in shares:
        for i in share:
            covered[i] += 1
    assert (covered == 1).all()
    rng = np.random.default_rng(n + w)
    for dim in (1, 7):  # _plan reads the shapes, not the data
        R, C = rng.normal(size=(n, dim)), rng.normal(size=(w, dim))
        assert _plan(R, C) == shares
    # the rows cut once, at n // 2, the helper taking the second half
    halves = [(0, n)] if threads == 1 else [(0, n // 2), (n // 2, n)]
    # each half cut top to bottom into bands of whole rows, at most 2**20 cells or one row
    height = max(1, 2**20 // w)
    for share, (lo, hi) in zip(shares, halves, strict=True):
        assert [(i.start, i.stop) for i in share] == [(a, min(a + height, hi)) for a in range(lo, hi, height)]
    if threads == 1:  # below the gate a kernel is one product
        assert shares == ((slice(0, n),),)


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


@pytest.mark.parametrize("n, w", [(1023, 1024), (1, 2**20), (100, 3000), (257, 700)])
def test_a_kernel_below_the_gate_is_one_product_on_the_calling_thread(n, w, products, handoffs):
    rng = np.random.default_rng(5)
    R, C = normalize_rows(rng.normal(size=(n, 3))), normalize_rows(rng.normal(size=(w, 3)))
    caller = threading.get_ident()
    out = _kernel(R, C)
    [(thread, band)] = products  # straight into the result
    assert thread == caller and band.shape == (n, w)
    assert band.base is out and band.__array_interface__["data"][0] == out.__array_interface__["data"][0]
    products.clear()
    _row_col_max(R, C)  # the same product
    assert [(thread, band.shape) for thread, band in products] == [(caller, (n, w))]
    assert handoffs == []


@pytest.mark.parametrize("n, w", [(2000, 4000), (1030, 1030), (1031, 1031), (1100, 2100), (2**14, 127)])
def test_a_kernel_above_the_gate_is_handed_to_the_helper_once(n, w, products, handoffs):
    rng = np.random.default_rng(6)
    X, Y = rng.normal(size=(n, 8)), rng.normal(size=(w, 8))
    R, C = normalize_rows(X), normalize_rows(Y)
    caller = threading.get_ident()
    first, second = _bands(n, w)  # the rows cut at n // 2, for every call
    for run in (lambda: _row_col_max(R, C), lambda: _kernel(R, C), lambda: build_kernel(X, Y)):
        products.clear()
        handoffs.clear()
        run()
        assert handoffs == [(1,)]
        mine = [band.shape for thread, band in products if thread == caller]
        theirs = [band.shape for thread, band in products if thread != caller]
        assert mine == [(i.stop - i.start, w) for i in first]
        assert theirs == [(i.stop - i.start, w) for i in second]
    # _kernel computes each band straight into its rows of the result
    products.clear()
    out = _kernel(R, C)
    assert all(band.base is out for _, band in products)


@pytest.mark.parametrize("n, m, shares", [(1023, 1024, 1), (1024, 1024, 2), (1, 2**20, 1), (2**11, 2**10, 2)])
def test_an_evaluator_walks_its_first_gains_on_two_threads_above_the_gate(n, m, shares, handoffs):
    """T, n candidates by m kernel rows, is walked as a kernel of its shape is."""
    FacilityLocation(np.random.default_rng(7).random((m, n))).evaluator()
    assert handoffs == [(1,)] * (shares - 1)


def test_an_error_in_the_helpers_share_is_raised_in_the_caller():
    caller = threading.get_ident()
    rng = np.random.default_rng(3)
    X, Y = rng.normal(size=(1030, 4)), rng.normal(size=(1100, 4))
    U, P = normalize_rows(X), normalize_rows(Y)
    shares, folded = _plan(U, P), []

    def work(k, i):
        if threading.get_ident() != caller:
            raise ArithmeticError("in the helper's share")
        folded.append(i)

    with pytest.raises(ArithmeticError, match="in the helper's share"):
        _walk(shares, work)
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
    shares, folded = _plan(U, P), []

    def work(k, i):
        if threading.get_ident() == caller:
            raise ArithmeticError("in the caller's share")
        time.sleep(0.01)
        folded.append(i)

    with pytest.raises(ArithmeticError, match="in the caller's share"):
        _walk(shares, work)
    assert folded == list(shares[1])  # the helper was done before the raise


def test_kernel_calls_that_return_or_raise_reuse_one_helper_and_the_callers_error_wins():
    rng = np.random.default_rng(9)
    X, Y = rng.normal(size=(1030, 4)), rng.normal(size=(1100, 4))
    R, C = normalize_rows(X), normalize_rows(Y)
    shares = _plan(R, C)
    assert len(shares) == 2
    build_kernel(X, Y)  # the helper's thread runs from here on
    before = threading.enumerate()
    assert len([t for t in before if t.name.startswith("kernels")]) == 1
    for run in (lambda: _row_col_max(R, C), lambda: _kernel(R, C), lambda: build_kernel(X, Y)):
        run()
        assert threading.enumerate() == before

    def raising_in(*ks):
        def work(k, i):
            if k in ks:
                if k == 0:
                    time.sleep(0.05)  # so that the helper's error comes first
                raise ArithmeticError(f"in share {k}")

        return work

    for ks, raised in (((1,), "in share 1"), ((0,), "in share 0"), ((0, 1), "in share 0")):
        with pytest.raises(ArithmeticError, match=raised):
            _walk(shares, raising_in(*ks))
        assert threading.enumerate() == before


def traced_peak(fn):
    """fn()'s result, and the peak bytes tracemalloc saw allocated during the call."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_kernel_calls_traced_peak_is_a_formula_of_its_shapes():
    """Every kernel call allocates its scratch and frees it on return, so its
    traced peak follows from its shapes. _row_col_max, from float64 sides or
    the float32 ones core's screen passes, holds its band scratch
    (band_scratch) and its maxima: the row maxima, each share's column
    maxima and its band's, and the reduced columns. S_uu alone is 8·n²
    bytes. The greedy's evaluator on it holds its scratch, one _ROWS-row
    block of float64 per share, its first gains, its copy of the private
    best and gain's row, and one of numpy's 64 KiB ufunc buffers per share.
    Each bound leaves 64 KiB for Python objects."""
    rng = np.random.default_rng(8)
    n, w, kib64 = 2000, 4000, 64 * 1024
    R, C = normalize_rows(rng.normal(size=(n, 16))), normalize_rows(rng.normal(size=(w, 16)))
    shares = len(_bands(n, w))
    assert shares == len(_bands(n, n)) == 2
    for r, c in ((R, C), (R.astype(np.float32), C.astype(np.float32))):
        expected = _row_col_max(r, c)  # the helper is running from here on
        maxima, peak = traced_peak(lambda: _row_col_max(r, c))
        scratch = band_scratch(n, w, r.itemsize)
        assert scratch <= peak <= scratch + (n + (2 * shares + 1) * w) * r.itemsize + kib64
        for got, want in zip(maxima, expected):
            assert got.dtype == want.dtype == r.dtype
            np.testing.assert_array_equal(got, want)
    S, peak = traced_peak(lambda: _kernel(R, R))
    assert 8 * n * n <= peak <= 8 * n * n + kib64
    ev, peak = traced_peak(FLCG._built(S.T, np.zeros(n), None).evaluator)
    least = shares * min(_ROWS, n) * n * 8 + 3 * 8 * n
    assert least <= peak <= least + shares * kib64 + kib64
    assert ev.T.base is S  # the evaluator reads S_uu in place
    np.testing.assert_array_equal(ev.first, S.sum(axis=1))

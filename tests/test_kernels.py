import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import streamline.kernels as kernels
from streamline.kernels import (
    _BLOCK,
    _SPLIT_ALIGN,
    _SPLIT_CELLS,
    KernelError,
    _kernel,
    _product,
    _row_col_max,
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
    U, P = rng.normal(size=(30, 4)), rng.normal(size=(2 * _BLOCK + 5, 4))
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
    # more threads than 2 cores; the last shape's blocks are split, so its threads share the helper
    shapes = [(40, 2 * _BLOCK + 7), (70, 300), (25, 2 * _BLOCK), (90, 5), (1030, 1100)]
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


# ------------------------------------------------------------------ split blocks


def _parts(n, w):
    """(thread, columns) of each part _product computes a (n, w) block in."""
    rng = np.random.default_rng(2)
    R, C = normalize_rows(rng.normal(size=(n, 3))), normalize_rows(rng.normal(size=(w, 3)))
    out = np.empty((n, w))
    parts = _product(R, C, out, lambda part: (threading.get_ident(), part.shape[1]))
    np.testing.assert_allclose(out, R @ C.T, rtol=0, atol=1e-12)  # a cut may move last bits
    return parts


def test_a_block_product_of_2_20_cells_or_more_is_split_in_two():
    caller = threading.get_ident()
    assert _SPLIT_CELLS == 2**20
    # below the gate, and too narrow to cut: one product on the calling thread
    assert _parts(1023, 1024) == [(caller, 1024)]
    assert _parts(2**14, 127) == [(caller, 127)]
    # at the gate: two parts, cut at a multiple of _SPLIT_ALIGN columns, the second on the helper
    for n, w, cut in [(1024, 1024, 512), (1030, 1030, 512), (2**13, 128, 64), (700, 2000, 960)]:
        (first, first_w), (second, second_w) = _parts(n, w)
        assert first == caller and second != caller
        assert first_w == cut and cut % _SPLIT_ALIGN == 0 and first_w + second_w == w


def test_an_error_in_the_helpers_part_is_raised_in_the_caller():
    caller = threading.get_ident()
    rng = np.random.default_rng(3)
    X, Y = rng.normal(size=(1030, 4)), rng.normal(size=(1100, 4))
    U, P = normalize_rows(X), normalize_rows(Y)

    def fold(part):
        if threading.get_ident() != caller:
            raise ArithmeticError("in the helper's part")
        return part.max(axis=1), part.max(axis=0)

    with pytest.raises(ArithmeticError, match="in the helper's part"):
        _product(U, P, _workspace(len(U), len(P)), fold)
    # the helper is still there, and the next call gets the whole kernel's maxima
    K = build_kernel(X, Y)
    row, col = _row_col_max(U, P)
    np.testing.assert_array_equal(row, K.max(axis=1))
    np.testing.assert_array_equal(col, K.max(axis=0))

import numpy as np
import pytest

from streamline.kernels import (
    KernelError,
    SimilarityMatrix,
    build_kernel,
    normalize_rows,
    row_col_max,
)


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
    K = build_kernel(np.array([a]), np.array([b])).values
    assert K.shape == (1, 1)
    assert K[0, 0] == pytest.approx(expected, abs=1e-12)


def test_build_kernel_rejects_different_dims():
    with pytest.raises(KernelError, match="embedding dims differ: 2 vs 3"):
        build_kernel(np.ones((2, 2)), np.ones((4, 3)))


def test_build_kernel_matches_bruteforce_cosine():
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(5, 6))
    cols = rng.normal(size=(7, 6))
    K = build_kernel(rows, cols).values
    for i in range(5):
        for j in range(7):
            assert K[i, j] == pytest.approx(_cosine(rows[i], cols[j]), abs=1e-9)


def test_self_kernel_symmetric_unit_diagonal():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(6, 4))
    K = build_kernel(X, X).values
    assert np.allclose(K, K.T, atol=1e-6)
    assert np.allclose(np.diag(K), 1.0, atol=1e-6)


def test_kernel_entries_in_unit_range():
    rng = np.random.default_rng(9)
    K = build_kernel(rng.normal(size=(8, 5)), rng.normal(size=(9, 5))).values
    assert np.all(K >= 0.0)
    assert np.all(K <= 1.0 + 1e-9)


def test_single_identical_item_kernel():
    x = np.array([[2.0, 1.0]])
    K = build_kernel(x, x).values
    assert K.shape == (1, 1)
    assert K[0, 0] == pytest.approx(1.0)


def test_flat_kernels_are_cosine_only():
    ragged = [[1.0, 2.0, 3.0], [1.0]]
    with pytest.raises(KernelError, match="ragged"):
        row_col_max(ragged, ragged)
    with pytest.raises(KernelError, match=r"shape \(2, 2, 3\)"):
        row_col_max([np.ones((2, 3)), np.ones((2, 3))], np.ones((4, 3)))


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
    stacked = build_kernel(rows, cols).values
    assert np.array_equal(build_kernel(list(rows), list(cols)).values, stacked)
    assert np.array_equal(build_kernel(list(rows), cols).values, stacked)


def test_empty_or_ragged_rows_cannot_be_normalized():
    with pytest.raises(KernelError, match=r"got shape \(0, 3\)"):
        normalize_rows(np.empty((0, 3)))
    with pytest.raises(KernelError, match="ragged"):
        normalize_rows([[1.0, 2.0], [1.0]])


def test_similarity_matrix_invariants():
    with pytest.raises(KernelError):
        SimilarityMatrix(np.array([[0.5, -0.1]]))
    with pytest.raises(KernelError):
        SimilarityMatrix(np.array([[np.inf, 0.0]]))
    m = SimilarityMatrix(np.ones((2, 3)))
    assert m.values.shape == (2, 3)

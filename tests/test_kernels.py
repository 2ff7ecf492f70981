import numpy as np
import pytest

from streamline.kernels import (
    KernelError,
    SimilarityMatrix,
    build_kernel,
    cosine_similarity,
    normalize_rows,
    object_set_similarity,
    rbf_similarity,
    row_col_max,
)


def test_cosine_identical_unit_vectors():
    a = np.array([0.6, 0.8])
    assert cosine_similarity(a, a) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_45_degrees():
    b = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert cosine_similarity(np.array([1.0, 0.0]), b) == pytest.approx(0.7071, abs=1e-4)


def test_cosine_negative_clamps_to_zero():
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == 0.0


def test_cosine_errors():
    with pytest.raises(KernelError):
        cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(KernelError):
        cosine_similarity(np.zeros(3), np.ones(3))


def test_rbf_identical_is_one():
    a = np.array([0.3, -1.2])
    assert rbf_similarity(a, a, bandwidth=0.7) == pytest.approx(1.0)


def test_rbf_known_value():
    bw = 1.3
    a, b = np.array([0.0]), np.array([bw * np.sqrt(2.0)])
    assert rbf_similarity(a, b, bandwidth=bw) == pytest.approx(np.exp(-1.0), abs=1e-4)


def test_rbf_monotone_in_bandwidth():
    a, b = np.array([0.0, 0.0]), np.array([1.0, 2.0])
    scores = [rbf_similarity(a, b, bw) for bw in (0.5, 1.0, 2.0, 5.0, 50.0, 500.0)]
    assert all(s1 > s0 for s0, s1 in zip(scores, scores[1:]))
    assert scores[-1] == pytest.approx(1.0, abs=1e-4)


def test_rbf_bad_bandwidth():
    with pytest.raises(KernelError):
        rbf_similarity(np.ones(2), np.ones(2), bandwidth=0.0)


def test_object_set_identical_sets_exactly_one():
    rng = np.random.default_rng(0)
    for size in range(1, 9):
        x = normalize_rows(rng.normal(size=(size, 6)))
        assert object_set_similarity(x, x) == 1.0


def test_object_set_singletons_reduce_to_cosine():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = normalize_rows(rng.normal(size=(1, 4)))
        b = normalize_rows(rng.normal(size=(1, 4)))
        assert object_set_similarity(a, b) == pytest.approx(
            cosine_similarity(a[0], b[0]), abs=1e-9
        )


def test_object_set_hand_example():
    x1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    x2 = np.array([[1.0, 0.0]])
    # coverage of x1 by x2: (1 + 0)/2; coverage of x2 by x1: 1/1
    assert object_set_similarity(x1, x2) == pytest.approx(0.75, abs=1e-9)


def test_object_set_empty_rejected():
    with pytest.raises(KernelError):
        object_set_similarity(np.empty((0, 3)), np.ones((2, 3)))


@pytest.mark.parametrize("metric", ["cosine", "rbf"])
def test_pairwise_symmetry(metric):
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = rng.normal(size=4), rng.normal(size=4)
        if metric == "cosine":
            assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a), abs=1e-9)
        else:
            assert rbf_similarity(a, b, 1.1) == pytest.approx(rbf_similarity(b, a, 1.1), abs=1e-9)


def test_object_set_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(30):
        x1 = rng.normal(size=(rng.integers(1, 5), 4))
        x2 = rng.normal(size=(rng.integers(1, 5), 4))
        assert object_set_similarity(x1, x2) == pytest.approx(
            object_set_similarity(x2, x1), abs=1e-9
        )


def test_build_kernel_matches_bruteforce_cosine():
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(5, 6))
    cols = rng.normal(size=(7, 6))
    K = build_kernel(rows, cols).values
    for i in range(5):
        for j in range(7):
            assert K[i, j] == pytest.approx(cosine_similarity(rows[i], cols[j]), abs=1e-9)


def test_build_kernel_matches_bruteforce_object_set():
    rng = np.random.default_rng(6)
    rows = [rng.normal(size=(rng.integers(1, 4), 5)) for _ in range(3)]
    cols = [rng.normal(size=(rng.integers(1, 4), 5)) for _ in range(4)]
    K = build_kernel(rows, cols).values
    for i in range(3):
        for j in range(4):
            assert K[i, j] == pytest.approx(object_set_similarity(rows[i], cols[j]), abs=1e-9)


def test_self_kernel_symmetric_unit_diagonal():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(6, 4))
    K = build_kernel(X, X).values
    assert np.allclose(K, K.T, atol=1e-6)
    assert np.allclose(np.diag(K), 1.0, atol=1e-6)


def test_self_kernel_object_set():
    rng = np.random.default_rng(8)
    items = [rng.normal(size=(rng.integers(1, 4), 5)) for _ in range(4)]
    K = build_kernel(items, items).values
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


def test_build_kernel_mixed_kinds_rejected():
    flat = np.ones((2, 3))
    objs = [np.ones((2, 3)), np.ones((1, 3))]
    with pytest.raises(KernelError):
        build_kernel(objs, flat)


def test_flat_kernels_are_cosine_only():
    objs = [np.ones((2, 3)), np.ones((1, 3))]
    with pytest.raises(KernelError, match="ragged"):
        row_col_max(objs, objs)
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


def test_build_kernel_of_a_3d_array_is_the_kernel_of_its_object_sets():
    rng = np.random.default_rng(10)
    rows, cols = rng.normal(size=(3, 2, 5)), rng.normal(size=(4, 2, 5))
    K = build_kernel(rows, cols).values
    assert np.array_equal(K, build_kernel(list(rows), list(cols)).values)
    assert K[1, 2] == object_set_similarity(rows[1], cols[2])


def test_build_kernel_of_a_list_of_vectors_equals_the_stacked_array():
    rng = np.random.default_rng(11)
    rows, cols = rng.normal(size=(5, 4)), rng.normal(size=(7, 4))
    stacked = build_kernel(rows, cols).values
    assert np.array_equal(build_kernel(list(rows), list(cols)).values, stacked)
    assert np.array_equal(build_kernel(list(rows), cols).values, stacked)


def test_build_kernel_rejects_a_collection_mixing_vectors_and_object_sets():
    vec, objs = np.ones(3), np.ones((2, 3))
    with pytest.raises(KernelError):
        build_kernel([vec, objs], [vec])
    with pytest.raises(KernelError, match="mixes flat embeddings and object sets"):
        build_kernel([objs, vec], [objs])


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

"""Shared generators for randomized instances used across test modules."""

from streamline.kernels import build_kernel, normalize_rows
from streamline.setfunctions import FLCG, FLQMI, FacilityLocation


def unit_vectors(rng, n, dim):
    return normalize_rows(rng.normal(size=(n, dim)))


def random_cosine_kernel(rng, n_rows, n_cols, dim=5):
    """Nonnegative [0,1] kernel from random unit embeddings."""
    return build_kernel(unit_vectors(rng, n_rows, dim), unit_vectors(rng, n_cols, dim))


def random_self_kernel(rng, n, dim=5):
    """Symmetric unit-diagonal kernel of one embedding collection."""
    X = unit_vectors(rng, n, dim)
    return build_kernel(X, X)


def random_instance(rng, kind, n=8, p=3, dim=5):
    """A random FL/FLQMI/FLCG instance with ground size n; "flcg_weighted"
    weighs each row by a copy count in 1..4."""
    if kind == "fl":
        return FacilityLocation(random_self_kernel(rng, n, dim))
    if kind == "flqmi":
        return FLQMI(random_cosine_kernel(rng, n, p, dim))
    if kind == "flcg":
        return FLCG(
            random_self_kernel(rng, n, dim),
            random_cosine_kernel(rng, n, p, dim),
        )
    if kind == "flcg_weighted":
        return FLCG(
            random_self_kernel(rng, n, dim),
            random_cosine_kernel(rng, n, p, dim),
            rng.integers(1, 5, size=n).astype(float),
        )
    raise ValueError(kind)

"""Shared generators for randomized instances used across test modules,
and the band scratch the memory formulas of the kernel tests count."""

from streamline.kernels import _bands, build_kernel, normalize_rows
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


def band_scratch(n, m, itemsize):
    """The bytes of kernels._row_col_max's scratch for an (n, m) kernel: one
    band per share, as tall as the tallest band of either share."""
    shares = _bands(n, m)
    return len(shares) * max(i.stop - i.start for share in shares for i in share) * m * itemsize

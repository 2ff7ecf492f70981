"""Similarity kernels: pairwise scores, the object-set reduction, full kernels.

Every set function in this package runs on a nonnegative similarity kernel
with entries in [0, 1]. This script shows the pairwise scores (cosine, RBF
and the object-set reduction) and the two kernels build_kernel makes from
them. The input decides which: a flat collection (a 2-D array, or a list of
vectors) gets cosine, and a collection of object sets (a list of 2-D arrays)
gets object_set_similarity. RBF is a pairwise score only.
"""

import numpy as np

from streamline import (
    build_kernel,
    cosine_similarity,
    normalize_rows,
    object_set_similarity,
    rbf_similarity,
)

rng = np.random.default_rng(0)

# --- pairwise scores ---------------------------------------------------------

a, b, c = normalize_rows([[1.0, 2.0, 0.5], [0.9, 2.1, 0.4], [-1.0, 0.1, -2.0]])

print("cosine(a, b) =", round(cosine_similarity(a, b), 4), "(near-duplicates)")
print("cosine(a, c) =", round(cosine_similarity(a, c), 4), "(negative cosine clamps to 0)")
print("rbf(a, b)    =", round(rbf_similarity(a, b, bandwidth=0.5), 4))

# --- object-set reduction ----------------------------------------------------
# Detection-style items carry one embedding per detected object. The image
# similarity averages, in both directions, how well each object is covered by
# the other image's best-matching object.

street = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # a car and a person
street_with_dog = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
just_a_dog = np.array([[0.0, 0.0, 1.0]])

print("\nobject-set similarity:")
print("  street vs itself        =", object_set_similarity(street, street))
print("  street vs street+dog    =", round(object_set_similarity(street, street_with_dog), 4))
print("  street vs a lone dog    =", round(object_set_similarity(street, just_a_dog), 4))

# --- full kernels ------------------------------------------------------------

flat_items = rng.normal(size=(6, 8))
K = build_kernel(flat_items, flat_items)  # 1-D items: cosine
print("\nflat 6x6 cosine kernel: symmetric:", np.allclose(K.values, K.values.T),
      "| unit diagonal:", np.allclose(np.diag(K.values), 1.0))

object_items = [rng.normal(size=(rng.integers(1, 5), 8)) for _ in range(4)]
K_obj = build_kernel(object_items, object_items)  # 2-D items: object_set_similarity
print("object-set 4x4 kernel:\n", np.round(K_obj.values, 3))

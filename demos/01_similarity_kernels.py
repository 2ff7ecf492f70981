"""Similarity kernels: the clipped cosine kernel build_kernel makes.

Every set function in this package runs on a nonnegative similarity kernel
with entries in [0, 1]. build_kernel takes two 2-D arrays, one embedding per
row, and returns their cosine kernel with negative cosines clipped to 0.
"""

import numpy as np

from streamline import build_kernel, normalize_rows

rng = np.random.default_rng(0)

# --- pairwise entries --------------------------------------------------------

X = normalize_rows([[1.0, 2.0, 0.5], [0.9, 2.1, 0.4], [-1.0, 0.1, -2.0]])
K = build_kernel(X[:1], X[1:])

print("cosine(a, b) =", round(float(K[0, 0]), 4), "(near-duplicates)")
print("cosine(a, c) =", round(float(K[0, 1]), 4), "(negative cosine clamps to 0)")

# --- full kernels ------------------------------------------------------------

items = rng.normal(size=(6, 8))
K = build_kernel(items, items)
print("\n6x6 cosine kernel: symmetric:", np.allclose(K, K.T),
      "| unit diagonal:", np.allclose(np.diag(K), 1.0))
print("entries in [0, 1]:", bool(((K >= 0.0) & (K <= 1.0)).all()))

"""Set functions and greedy maximization.

Facility location rewards covering the whole buffer; its mutual-information
variant rewards matching a query set in both directions; the conditional-gain
variant rewards only coverage beyond what a private set already provides.
All three are monotone submodular, so greedy selection comes with the
classic (1 - 1/e) guarantee.
"""

import numpy as np

from streamline import (
    FLCG,
    FLQMI,
    FacilityLocation,
    MaximizerConfig,
    build_kernel,
    lazy_greedy,
    naive_greedy,
    normalize_rows,
    scg_value,
    smi_value,
    stochastic_greedy,
)

rng = np.random.default_rng(1)
X = normalize_rows(rng.normal(size=(40, 10)))
S = build_kernel(X, X)

# --- values and identities ---------------------------------------------------

fl = FacilityLocation(S)
A, B = [0, 5, 9], [9, 17]
print("F(A)          =", round(fl.value(A), 4))
print("F(A u {3})    =", round(fl.value(A + [3]), 4), "| marginal gain:", round(fl.marginal_gain(A, 3), 4))
print("SMI(A; B)     =", round(smi_value(fl, A, B), 4), "(shared coverage)")
print("SCG(A | B)    =", round(scg_value(fl, A, B), 4), "(novel coverage beyond B)")

# --- three algorithms, same answer, different cost ---------------------------

cfg = MaximizerConfig(budget=8, algorithm="naive")
t_naive = naive_greedy(fl, cfg)
t_lazy = lazy_greedy(fl, MaximizerConfig(budget=8, algorithm="lazy"))
t_stoch = stochastic_greedy(fl, MaximizerConfig(budget=8, algorithm="stochastic", epsilon=0.05, seed=0))

print("\nnaive : value", round(fl.value(t_naive.chosen), 4), "evaluations", t_naive.evaluations)
print("lazy  : value", round(fl.value(t_lazy.chosen), 4), "evaluations", t_lazy.evaluations,
      "| identical picks:", t_lazy.chosen == t_naive.chosen)
print("stoch : value", round(fl.value(t_stoch.chosen), 4), "evaluations", t_stoch.evaluations)

# --- conditional gain ignores what the private set covers --------------------

private = X[:3] + 0.01 * rng.normal(size=(3, 10))  # near-copies of items 0..2
S_up = build_kernel(X, normalize_rows(private))
flcg = FLCG(S, S_up)
trace = lazy_greedy(flcg, MaximizerConfig(budget=5, algorithm="lazy"))
print("\nconditional-gain picks avoid the privately covered items 0-2:", trace.chosen)

# --- query-targeted selection -------------------------------------------------

query = X[30:]  # pretend the last ten items are the slice we care about
flqmi = FLQMI(build_kernel(X[:30], query))
trace = lazy_greedy(flqmi, MaximizerConfig(budget=4, algorithm="lazy"))
print("query-matched picks from the first 30 items:", trace.chosen)

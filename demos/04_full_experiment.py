"""End-to-end comparison on a synthetic episodic stream.

Four Gaussian slices with a 5:1 labeled imbalance; the rare slice arrives
every third round. The slice-aware method is compared against fixed-budget
baselines on final rare-slice accuracy, rare pool size, and labeling
efficiency versus random sampling.
"""

import numpy as np

from streamline import (
    RunConfig,
    StreamSpec,
    every_k_schedule,
    labeling_efficiency,
    run_experiment,
)

methods = ["streamline", "random", "entropy", "submodular", "badge"]
seeds = [0, 1]
cfg = RunConfig(budget=50, rho=0.5)

logs = {}
for method in methods:
    logs[method] = [
        run_experiment(
            StreamSpec(schedule=every_k_schedule(12, 4, 3, k=3), seed=seed), method, cfg
        )
        for seed in seeds
    ]
    rare = np.mean([log.final("rare") for log in logs[method]])
    full = np.mean([log.final("full") for log in logs[method]])
    pool = np.mean([log.records[-1].slice_sizes[3] for log in logs[method]])
    spent = np.mean([log.labels_spent for log in logs[method]])
    print(f"{method:>11}: rare acc {rare:.3f} | full acc {full:.3f} "
          f"| rare pool {pool:.0f} | labels spent {spent:.0f}")

# --- per-round view of one run -------------------------------------------------

print("\nstreamline, seed 0, round by round:")
print(f"{'round':>5} {'slice':>5} {'b':>4} {'gamma':>6} {'rare acc':>9}")
for r in logs["streamline"][0].records:
    marker = "  <- rare round" if r.true_slice == 3 else ""
    print(f"{r.round:>5} {r.identified_slice:>5} {r.granted_b:>4} {r.gamma:>6.0f} {r.rare_metric:>9.3f}{marker}")

# --- labeling efficiency ---------------------------------------------------------

target = np.mean([log.final("rare") for log in logs["random"]])
random_curve = [
    (np.mean([log.curve()[r][0] for log in logs["random"]]),
     np.mean([log.curve()[r][1] for log in logs["random"]]))
    for r in range(12)
]
print(f"\nlabeling efficiency vs random at rare accuracy {target:.3f}:")
for method in methods:
    curve = [
        (np.mean([log.curve()[r][0] for log in logs[method]]),
         np.mean([log.curve()[r][1] for log in logs[method]]))
        for r in range(12)
    ]
    eff = labeling_efficiency(curve, random_curve, target)
    print(f"{method:>11}: {'undefined' if eff is None else format(eff, '.2f') + 'x'}")

"""Slice-aware streaming active learning on similarity kernels.

The round loop identifies which labeled slice an arriving episode belongs to
(normalized facility-location mutual information), grants a budget that banks
excess on common slices and spends it on rare ones, and selects items by
conditional gain over the identified slice. Baseline selectors, greedy
maximizers, and a synthetic streaming lab round out the package.
"""

from .baselines import (
    badge_gradient_embeddings,
    badge_select,
    random_select,
    similar_select,
    submodular_fl_select,
    uncertainty_scores,
    uncertainty_select,
)
from .core import (
    BudgetDecision,
    BudgetState,
    EmptySliceError,
    LabeledSlice,
    RoundReport,
    SlicedLabeledPool,
    StreamlineConfig,
    UnlabeledBuffer,
    scg_select,
    slice_aware_budget,
    smidentify,
    streamline_round,
)
from .kernels import (
    KernelError,
    build_kernel,
    normalize_rows,
)
from .maximize import (
    MaximizerConfig,
    SelectionTrace,
    lazy_greedy,
    maximize,
    naive_greedy,
    stochastic_greedy,
)
from .setfunctions import (
    FLCG,
    FLQMI,
    FacilityLocation,
    GroundIndexError,
    flqmi_normalizer,
    scg_value,
    smi_value,
)
from .simulator import (
    METHODS,
    EvalSet,
    Learner,
    LearnerConfig,
    MetricsLog,
    RunConfig,
    StreamSpec,
    evaluate,
    every_k_schedule,
    generate_stream,
    labeling_efficiency,
    run_experiment,
    sequential_schedule,
    train_learner,
)

__version__ = "0.1.0"

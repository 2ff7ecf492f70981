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
from .embedio import EmbeddingCollection, EmbeddingFileError, read_embeddings, write_embeddings
from .kernels import (
    KernelError,
    SimilarityMatrix,
    build_kernel,
    cosine_similarity,
    normalize_rows,
    object_set_similarity,
    rbf_similarity,
    row_col_max,
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

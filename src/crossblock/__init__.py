"""crossblock: CCA and PLS-C with resampling-based significance,
reliability, and reproducibility assessment."""

__version__ = "0.1.0"

from .blocks import (
    DataBlock,
    RANK_REL_TOL,
    inverse_sqrt_sym,
)
from .datagen import (
    GeneratedDataset,
    PopulationTruth,
    SimulationSpec,
    generate_null,
    generate_relevant_subspace,
    population_r2,
)
from .decomposition import (
    CCA,
    CrossBlockModel,
    PLS,
    align_reflections,
    fit_cca,
    fit_pls,
)
from .harness import (
    ExperimentConfig,
    FullSampleResult,
    SubsampleReport,
    run_detectability,
    run_false_positive_sweep,
    run_full_sample,
    run_reproducibility_by_n,
    split_half_lv_z,
)
from .inference import (
    BartlettResult,
    BlockIntervals,
    BootstrapResult,
    PermutationResult,
    bartlett_test,
    bootstrap_ci,
    permutation_test,
)
from .pca import (
    PcaModel,
    PcaStabilityResult,
    align_to_reference,
    component_scores,
    fit_pca,
    pca_stability,
)
from .reproducibility import (
    SplitHalfReport,
    TrainTestReport,
    null_calibration,
    split_half,
    train_test,
)

__all__ = [name for name in dir() if not name.startswith("_")]

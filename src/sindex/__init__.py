"""Estimation and coordinate-wise inference for high-dimensional
single-index models: pilot estimation with observable adjustments, a
debiased index, deconvolution link estimation with monotonization,
surrogate-loss coefficient fitting, and inferential-parameter estimation
in the proportional regime."""

from .deconv import (
    DeconvConfig,
    IndexEstimate,
    KernelSpec,
    LinkEstimate,
    TRIWEIGHT_KERNEL,
    build_antiderivative,
    deconv_kernel_eval,
    estimate_link,
    eval_link,
    nw_deconv_grid,
    select_bandwidth,
)
from .errors import (
    BandwidthConstraintError,
    ConfigError,
    DataError,
    DegenerateError,
    EmptyEstimateError,
    GenerationError,
    InvalidDesignError,
    KernelOverflowError,
    NonConvergenceError,
    NonexistenceError,
    NonIdentifiableError,
    NumericalError,
    ObjectiveOverflowError,
    PipelineError,
    RankError,
    SindexError,
    SolverError,
    SplitError,
)
from .inference import (
    InferenceReport,
    OracleParams,
    adjust_inferential,
    effective_variance_estimated,
    effective_variance_oracle,
    joint_transform,
    marginal_inference,
    oracle_params,
)
from .models import (
    Dataset,
    DesignSpec,
    LinkFunction,
    SimModel,
    generate_responses,
    model_lookup,
    sample_coefficients,
    sample_design,
)
from .pilot import (
    Adjustments,
    PilotFit,
    debias_index,
    fit_pilot,
    glm_mle_fit,
    index_zscores,
    least_squares_fit,
    observable_adjustments,
)
from .pipeline import (
    PipelineConfig,
    PipelineReport,
    SplitConfig,
    run_pipeline,
    split_data,
)
from .surrogate import (
    CoefFit,
    fit_coefficients,
    surrogate_objective,
)

__version__ = "0.1.0"

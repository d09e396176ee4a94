"""Mixed-precision post-training quantization with joint weight-activation
subspace selection: calibration statistics, a closed-form weighted-PCA
subspace solver, simulated mixed-precision linear layers, and error analysis
against single-sided baselines."""

from .calib import (
    CalibStats,
    ProjectionGroup,
    accumulate_activations,
    attach_weights,
    fuse_weight_covariance,
)
from .engine import (
    ErrorReport,
    MixedPrecisionPlan,
    analyze_layer,
    build_plan,
    campaign,
    execute_plan,
    measure_plan,
    predict_error,
    stats_from_tensors,
)
from .linalg import (
    EigenResult,
    frobenius_sq,
    gram_input,
    gram_weight,
    hadamard,
    random_orthogonal,
    sym_eig,
)
from .quantizer import (
    QuantResult,
    combined_error_coeff,
    quantize,
    relative_error_coeff,
)
from .solver import (
    SubspacePartition,
    full_objective,
    lambda_weights,
    solve_partition,
    surrogate_objective,
)
from .synth import SyntheticInstanceSpec, generate_instance

__version__ = "0.1.0"

__all__ = [
    "CalibStats", "ProjectionGroup", "accumulate_activations", "attach_weights",
    "fuse_weight_covariance", "ErrorReport", "MixedPrecisionPlan",
    "analyze_layer", "build_plan", "campaign", "execute_plan", "measure_plan",
    "predict_error", "stats_from_tensors", "EigenResult", "frobenius_sq",
    "gram_input", "gram_weight", "hadamard", "random_orthogonal", "sym_eig",
    "QuantResult", "combined_error_coeff", "quantize",
    "relative_error_coeff", "SubspacePartition", "full_objective",
    "lambda_weights", "solve_partition", "surrogate_objective",
    "SyntheticInstanceSpec", "generate_instance",
]

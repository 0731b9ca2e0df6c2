"""weakprobe: time-averaged weak values as a probe of collapse dynamics.

If the collapse during a strong quantum measurement were an objective
continuous process rather than an instantaneous projection at an
unknown time, strong statistics could never tell — but the time average
of weak values measured during the collapse window could.  This package
computes the predictions of both pictures, samples them, models the
Gaussian-pointer readout, and inverts a measured average into a model
verdict.
"""

from .collapse import (
    ContinuousModel,
    InstantaneousModel,
    UniformTiming,
    evolution_superop_objective,
    objective_state_at,
    projective_ensemble_state_at,
    strong_statistics,
)
from .errors import (
    DegenerateScenario,
    DensityValidationError,
    DimensionMismatch,
    HermiticityViolation,
    InvalidProjector,
    NegativeEigenvalue,
    NoExactSolution,
    OrthogonalPostselection,
    RankDeficient,
    TraceViolation,
    VanishingPostselection,
    ZeroProbability,
)
from .hydrogen import (
    HydrogenPredictions,
    HydrogenScenario,
    build_hydrogen,
    hydrogen_predictions,
    hydrogen_traces,
)
from .montecarlo import (
    CHUNK_TRIALS,
    CSV_COLUMNS,
    AveragedResult,
    SimulationSpec,
    analytic_target,
    convergence_report,
    run_simulation,
    to_record,
)
from .operators import (
    DEFAULT_TOLERANCES,
    DensityOperator,
    ObservableSpectral,
    Projector,
    Tolerances,
    density_operator_basis,
    hs_inner,
    selective_projection,
    spectral_decompose,
    validate_density,
)
from .pointer import (
    GaussianPointer,
    SlopeFit,
    postselected_pointer_mean,
    postselected_pointer_momentum_mean,
    weak_limit_slope,
)
from .serialization import (
    config_from_json,
    config_to_json,
    operator_from_json,
    operator_to_json,
    superop_from_json,
    superop_to_json,
)
from .superops import (
    CollapseSuperOp,
    CompletionResult,
    SuperOp,
    apply_superop,
    backward_state,
    collapse_superop,
    compose,
    reconstruct_superop,
    retrograde,
    solve_completion,
    superop_adjoint,
)
from .weakvalues import (
    DiscriminationVerdict,
    ProtocolConfig,
    ProtocolTraces,
    apparent_resolution,
    averaged_weak_value_objective,
    averaged_weak_value_vn,
    discriminate,
    objective_weak_value_adjoint,
    objective_weak_value_at,
    objective_weak_value_forward,
    protocol_traces,
    trial_weak_value_strong_first,
    trial_weak_value_weak_first,
    weak_value,
)

__version__ = "0.1.0"

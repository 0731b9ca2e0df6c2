"""weakprobe: time-averaged weak values as a probe of collapse dynamics.

If the collapse during a strong quantum measurement were an objective
continuous process rather than an instantaneous projection at an
unknown time, strong statistics could never tell — but the time average
of weak values measured during the collapse window could.  This package
computes the predictions of both pictures, samples them, models the
Gaussian-pointer readout, and inverts a measured average into a model
verdict.

``import weakprobe`` loads the analytic core that every command uses:
``errors``, ``operators``, ``weakvalues`` and ``hydrogen``.  The other
modules load on first use, when one of their names is read from the
package (PEP 562), so a cold command compiles only the modules it runs.
"""

from .errors import (
    DegenerateScenario,
    DensityValidationError,
    DimensionMismatch,
    HermiticityViolation,
    InvalidProjector,
    NegativeEigenvalue,
    NoExactSolution,
    OrthogonalPostselection,
    TraceViolation,
    VanishingPostselection,
)
from .hydrogen import (
    HydrogenPredictions,
    HydrogenScenario,
    build_hydrogen,
    hydrogen_predictions,
)
from .operators import (
    DensityOperator,
    ObservableSpectral,
    Projector,
    hs_inner,
    spectral_decompose,
    validate_density,
)
from .weakvalues import (
    DiscriminationVerdict,
    ProtocolConfig,
    ProtocolTraces,
    UniformTiming,
    apparent_resolution,
    averaged_weak_value_objective,
    averaged_weak_value_vn,
    discriminate,
    objective_weak_value_adjoint,
    objective_weak_value_at,
    objective_weak_value_forward,
    protocol_traces,
    weak_value,
)

__version__ = "0.1.0"

# The public names of the modules that load on first use, by module.
_DEFERRED = {
    "collapse": (
        "objective_state_at",
        "projective_ensemble_state_at",
        "strong_statistics",
    ),
    "montecarlo": (
        "CHUNK_TRIALS",
        "CSV_COLUMNS",
        "AveragedResult",
        "SimulationSpec",
        "analytic_target",
        "convergence_report",
        "run_simulation",
        "to_record",
    ),
    "pointer": (
        "GaussianPointer",
        "SlopeFit",
        "postselected_pointer_mean",
        "postselected_pointer_momentum_mean",
        "weak_limit_slope",
    ),
    "serialization": (
        "config_from_json",
        "config_to_json",
        "operator_to_json",
    ),
    "superops": (
        "CompletionResult",
        "SuperOp",
        "apply_superop",
        "backward_state",
        "collapse_superop",
        "compose",
        "solve_completion",
        "superop_adjoint",
    ),
}
# Name -> module; a module's own name maps to itself.
_LAZY = {name: module for module, names in _DEFERRED.items() for name in (module, *names)}

__all__ = sorted({name for name in (*globals(), *_LAZY) if not name.startswith("_")})


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")  # binds the module here
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})

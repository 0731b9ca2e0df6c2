"""weakprobe: time-averaged weak values as a probe of collapse dynamics.

If the collapse during a strong quantum measurement were an objective
continuous process rather than an instantaneous projection at an
unknown time, strong statistics could never tell — but the time average
of weak values measured during the collapse window could.  This package
computes the predictions of both pictures, samples them, models the
Gaussian-pointer readout, and inverts a measured average into a model
verdict.

Every module of the package loads on first use, when one of its names
is read from the package (PEP 562): ``import weakprobe`` loads no
submodule and no numpy, and a cold command compiles only the modules it
runs.
"""

__version__ = "0.1.0"

# The public names of the package, by the module that defines them, written
# only here: each module's __all__ is its row, then the few names that module
# exports and the package does not.
_DEFERRED = {
    "collapse": (
        "objective_state_at",
        "projective_ensemble_state_at",
        "strong_statistics",
    ),
    "errors": (
        "DegenerateScenario",
        "DensityValidationError",
        "DimensionMismatch",
        "HermiticityViolation",
        "InvalidProjector",
        "NegativeEigenvalue",
        "NoExactSolution",
        "OrthogonalPostselection",
        "TraceViolation",
        "VanishingPostselection",
    ),
    "hydrogen": (
        "HydrogenPredictions",
        "HydrogenScenario",
        "build_hydrogen",
        "hydrogen_predictions",
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
    "operators": (
        "DensityOperator",
        "ObservableSpectral",
        "Projector",
        "hs_inner",
        "spectral_decompose",
        "validate_density",
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
    "weakvalues": (
        "DiscriminationVerdict",
        "ProtocolConfig",
        "ProtocolTraces",
        "UniformTiming",
        "apparent_resolution",
        "averaged_weak_value_objective",
        "averaged_weak_value_vn",
        "discriminate",
        "objective_weak_value_adjoint",
        "objective_weak_value_at",
        "objective_weak_value_forward",
        "protocol_traces",
        "weak_value",
    ),
}
# Name -> module; a module's own name maps to itself.
_LAZY = {name: module for module, names in _DEFERRED.items() for name in (module, *names)}

__all__ = sorted(_LAZY)


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

"""loadcouple: cell load coupling fixed points, exact feasibility and linear bounds."""

from .netmodel import (
    NetworkInstance,
    SchemaError,
    SchemaVersionError,
    Violation,
    assign_best_server,
    load_instance,
    save_instance,
    validate,
)
from .coupling import (
    CouplingCoefficients,
    LinearizedSystem,
    asymptotic_linearization,
    coefficients,
    jacobian,
    load_function,
    tangent_linearization,
)
from .linfeas import (
    LinearSolveOutcome,
    feasibility_check,
    solve_linear,
    spectral_radius,
    tangent_bound,
)
from .solver import (
    SolveReport,
    SolverConfig,
    fixed_point_iteration,
    solve,
)
from .scenario import ScenarioSpec, generate, load_scenario_spec, rotate_sector
from .analysis import (
    BoundaryCertificate,
    CellBounds,
    ComparisonReport,
    PreconditionError,
    SweepRow,
    bound_quality,
    compare_configs,
    demand_sweep,
    feasibility_boundary,
)

__version__ = "0.1.0"

__all__ = [
    "NetworkInstance",
    "Violation",
    "SchemaError",
    "SchemaVersionError",
    "validate",
    "assign_best_server",
    "load_instance",
    "save_instance",
    "CouplingCoefficients",
    "LinearizedSystem",
    "coefficients",
    "load_function",
    "jacobian",
    "asymptotic_linearization",
    "tangent_linearization",
    "LinearSolveOutcome",
    "solve_linear",
    "spectral_radius",
    "feasibility_check",
    "tangent_bound",
    "SolverConfig",
    "SolveReport",
    "solve",
    "fixed_point_iteration",
    "ScenarioSpec",
    "generate",
    "load_scenario_spec",
    "rotate_sector",
    "SweepRow",
    "BoundaryCertificate",
    "CellBounds",
    "ComparisonReport",
    "PreconditionError",
    "demand_sweep",
    "feasibility_boundary",
    "compare_configs",
    "bound_quality",
    "__version__",
]

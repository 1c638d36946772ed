"""Optimization of binary decision vectors governing ODE systems.

Pipeline: integrate the system (``system``) and solve the costate backward
(``adjoint``) once at a base point, take payoff derivatives in decision space
from both (``gradient``), solve the linearized 0-1 program (``solvers``), and
certify the result (``certify``).  ``refrigeration`` builds the coupled-fleet
load-control benchmark on top, ``scenario_io``/``cli`` are the batch front end.
"""

from .errors import (
    AdjointDivergedError,
    CombidynError,
    ConstraintError,
    DimensionError,
    EnumerationRefusedError,
    InfeasibleError,
    IntegrationDivergedError,
    NotRelaxableError,
    NumericError,
    ScenarioError,
    TuViolationError,
)
from .system import (
    SystemSpec,
    TimeGrid,
    Trajectory,
    affine_state_model,
    as_binary,
    blended_system,
    evaluate_payoff,
    integrate,
    is_binary,
    matvec,
    payoff_function,
    rowdot,
    trapezoid_weights,
)
from .adjoint import hamiltonian, solve_adjoint
from .gradient import (
    DERIVATIVE_KINDS,
    Gradient,
    Linearization,
    costate_pairing,
    finite_difference_nonstandard,
    finite_difference_standard,
    linearize,
    nonstandard_derivative,
    reformulate,
    standard_derivative,
    variational_quotient,
)
from .simplex import LpProblem, solve_boxed_lp
from .solvers import (
    ConstraintSet,
    Knapsack,
    L0Band,
    TuRows,
    feasible_mask,
    is_feasible,
    is_totally_unimodular,
    solve_bruteforce,
    solve_greedy,
    solve_knapsack,
    solve_l0,
    solve_tu,
)
from .certify import (
    CertifiedSolution,
    SetFunctionReport,
    certify,
    check_concavity_inequality,
    monotonicity_report,
    submodularity_report,
)
from .refrigeration import (
    HORIZON_KINDS,
    HORIZON_SOLVERS,
    LINEARIZED_SOLVERS,
    EtpParams,
    FleetQuadratic,
    QuadraticPayoff,
    Scenario,
    SlotPick,
    StepResult,
    TargetBandCase,
    TransientConfig,
    TuCase,
    build_etp_system,
    build_transient_system,
    default_fleet,
    default_scenario,
    exclusion_budget_rows,
    penalty,
    quadratic_payoff_model,
    run_receding_horizon,
    slot_payoff,
    slot_picks,
    solve_linearized,
    step_constraints,
    step_system,
    transient_members,
)
from .scenario_io import parse_scenario, write_scenario

__version__ = "0.1.0"

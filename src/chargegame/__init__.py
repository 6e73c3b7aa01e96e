"""Charging-game toolkit: atomic and nonatomic scheduling games on a shared grid.

The package models populations of electric-vehicle users who each pick a
charging start slot inside an availability window.  Charging is rectangular
(constant power for a fixed number of consecutive slots), the grid charges a
per-slot cost that depends only on the instantaneous load, and users pay the
sum of the slot costs over their own charging window, possibly filtered
through a personal increasing pricing map.

Modules
-------
model        shared vocabulary: instances, profiles, cost functions, utilities
atomic       finitely many users: best response, Nash enumeration, efficiency
nonatomic    continuum of users: Wardrop equilibria, invariant linear system
experiments  parameter sweeps, counter-example reproductions, data emission
"""

from .model import (
    TimeHorizon,
    GridCostFunction,
    Monomial,
    SquareRoot,
    CostSum,
    PricingFunction,
    Identity,
    PricingMap,
    IDENTITY,
    AtomicInstance,
    StrategyProfile,
    ChargingConfiguration,
    UserClass,
    NonatomicInstance,
    MixedProfile,
    action_set,
    occupancy,
    load,
    grid_total_cost,
    utility_atomic,
    potential_atomic,
    utility_nonatomic,
    potential_nonatomic,
)
from .atomic import (
    BudgetExceededError,
    IterationBudgetError,
    EquilibriumSet,
    EfficiencyReport,
    best_response,
    best_response_dynamics,
    is_nash,
    enumerate_equilibria,
    social_optimum,
    efficiency,
    efficiencies,
    ne_proportion,
)
from .nonatomic import (
    ConvergenceError,
    InvarianceConditionError,
    PositivityCertificateError,
    NonatomicEquilibrium,
    solve_equilibrium,
    is_wardrop_equilibrium,
    wardrop_gap,
    InvarianceCheck,
    check_invariance_condition,
    solve_symmetric_invariant,
    social_optimum_nonatomic,
    efficiency_nonatomic,
)
from .experiments import (
    ATOMIC_COUNTEREXAMPLE,
    NONATOMIC_COUNTEREXAMPLE,
    SweepSpec,
    DataSeries,
    WorkerError,
    run_sweep,
    run_counterexamples,
    emit_data,
)
from .fileio import (
    cost_from_dict,
    cost_label,
    cost_to_dict,
    instance_from_dict,
    instance_to_dict,
    load_instance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

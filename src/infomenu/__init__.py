"""Revenue-optimal menus and mechanisms for selling information.

A buyer's willingness to pay for an experiment (a state-indexed signaling
scheme) depends on how much its signals sharpen his decisions.  This package
computes revenue-optimal priced menus of experiments for explicit markets,
near-optimal menus when the action space is reachable only through a
best-response oracle, and optimal mechanisms when several buyers compete for
a single informative signal.  Verification oracles (closed forms, grid brute
force, statistical replay) ship alongside the solvers.
"""

from .errors import (
    GridTooLarge,
    InfoMenuError,
    InvalidInstance,
    NonConvergence,
    NoPath,
    NumericalFailure,
    PairingMismatch,
    TooLarge,
    ZeroMassSignal,
)
from .market import (
    AuditReport,
    BuyerType,
    Environment,
    Experiment,
    Menu,
    audit_menu,
    base_utility,
    best_action,
    choose_from_menu,
    experiment_value,
    make_responsive,
    posterior,
)
from .explicit import build_menu_lp, solve_explicit
from .implicit import (
    ActionSets,
    SignalGrid,
    build_action_sets,
    compress_menu,
    eps_ic_to_ic,
    merge_signals,
    repair_misspecified,
    round_experiment,
    solve_implicit,
    tv_distance,
)
from .oracles import (
    BROracle,
    CNF,
    IPSATInstance,
    MatrixOracle,
    OracleMarket,
    SATOracle,
    TrafficInstance,
    TrafficOracle,
    build_sat_reduction,
    enumerate_environment,
    parse_dimacs,
    parse_traffic,
)
from .multiagent import (
    MechanismBlueprint,
    MultiBuyer,
    MultiEnvironment,
    ReducedForm,
    VPMWeights,
    audit_reduced_form,
    brute_force_multi,
    mix_reduced_forms,
    run_mechanism,
    rvpm,
    simulate_interim,
    solve_reduced_lp,
    vpm_allocate,
)
from .audit import (
    AnalyticInstance,
    analytic_instances,
    benchmark_experiment,
    benchmark_experiment_value,
    brute_force_menu_search,
    matching_environment,
    sat_reduction_optimum,
    single_type_optimum,
)

__version__ = "0.1.0"

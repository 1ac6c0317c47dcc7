"""Synthesis and verification of probabilistically resilient schedulers for
Markov decision processes with repair.

A model's states are operational (earning payoff), error, or repair (costing
repair effort). The package decides whether a scheduler exists that, after
every error, completes repair almost surely and within cost bound R with
probability at least a threshold, and among such schedulers builds one with
maximal long-run availability. All arithmetic is exact rational arithmetic.
"""

from .analyze import (
    BruteForceResult,
    InducedChain,
    SimulationStats,
    VerificationReport,
    almost_sure_reach,
    long_run_value,
    brute_force_optimum,
    induce_chain,
    simulate,
    stationary_distribution,
    until_probability,
    verify_resilient,
)
from .components import ComponentTriple, compute_E, mec_decomposition
from .docs import (
    DocumentError,
    load_model,
    load_scheduler,
    parse_fraction,
    parse_model,
    parse_scheduler,
    serialize_model,
    serialize_scheduler,
)
from .lp import (INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, LpSolution, SolverError,
                 solve)
from .model import (
    ERROR,
    OPERATIONAL,
    REPAIR,
    MdpWithRepair,
    ValidationReport,
    make_mdp,
    validate_repair_assumption,
    validate_structure,
)
from .sched import MrScheduler
from .synth import (
    ComposedScheduler,
    FiniteMemoryScheduler,
    GoalMdp,
    InvalidModelError,
    SynthesisResult,
    VerificationFailedError,
    build_goal_mdp,
    build_resiliency_lp,
    extract_scheduler,
    synthesize,
)
from .transform import TransformedMdp, transform

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Flow decomposition of continuous-time Markov chains.

A generator splits into three independent pieces — stationary
distribution, symmetric (reversible) flow, and antisymmetric circulation —
and the split exposes the chain's dynamics cleanly: the quadratic
divergence to the stationary state decays monotonically at a rate the
circulation cannot touch, bounded by the spectral gap of the conjugated
symmetric flow.  The package computes the split, rebuilds and perturbs
chains from parts, integrates the master equation, tracks entropy traces,
verifies the decay bound, and discretizes a drift-diffusion equation into
the same framework.
"""

from .core import (
    GeneratorMatrix,
    ProbabilityVector,
    from_offdiagonal_rates,
    generator_from_json,
    generator_to_json,
    probability_from_json,
    probability_vector,
    validate_generator,
)
from .decompose import (
    CycleDecomposition,
    DetailedBalanceReport,
    FlowDecomposition,
    compose,
    cycle_decompose,
    decompose,
    dof_report,
    dual,
    is_detailed_balance,
    recompose,
    superpose_cycles,
)
from .entropy import (
    RELATIVE_GINI,
    RELATIVE_SHANNON,
    SHANNON,
    EntropyKind,
    gini_divergence,
    gini_production,
    kl_divergence,
    production_split,
    relative_f_entropy,
    relative_f_kind,
    shannon_entropy,
    shannon_production_split,
)
from .evolve import Trajectory, default_time_grid, entropy_trace, evolve
from .spectral import (
    BoundReport,
    SpectralBound,
    build_G,
    lambda2,
    spectral_bound,
    symmetric_eigensolve,
    verify_bound,
)
from .stationary import stationary_solve, stationary_tree
from .continuum import (
    FpeProblem,
    discretize_fpe,
    discretize_fpe_detailed,
    fpe_problem,
    gibbs_distribution,
    operator_symmetry_report,
    refinement_study,
)

__version__ = "0.1.0"

__all__ = [
    "GeneratorMatrix",
    "ProbabilityVector",
    "validate_generator",
    "from_offdiagonal_rates",
    "probability_vector",
    "generator_from_json",
    "generator_to_json",
    "probability_from_json",
    "stationary_solve",
    "stationary_tree",
    "FlowDecomposition",
    "CycleDecomposition",
    "DetailedBalanceReport",
    "decompose",
    "recompose",
    "compose",
    "dual",
    "is_detailed_balance",
    "dof_report",
    "cycle_decompose",
    "superpose_cycles",
    "EntropyKind",
    "SHANNON",
    "RELATIVE_SHANNON",
    "RELATIVE_GINI",
    "relative_f_kind",
    "shannon_entropy",
    "kl_divergence",
    "relative_f_entropy",
    "gini_divergence",
    "gini_production",
    "production_split",
    "shannon_production_split",
    "Trajectory",
    "evolve",
    "default_time_grid",
    "entropy_trace",
    "SpectralBound",
    "BoundReport",
    "build_G",
    "symmetric_eigensolve",
    "spectral_bound",
    "lambda2",
    "verify_bound",
    "FpeProblem",
    "fpe_problem",
    "gibbs_distribution",
    "discretize_fpe",
    "discretize_fpe_detailed",
    "operator_symmetry_report",
    "refinement_study",
]

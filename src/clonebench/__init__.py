"""Global cloning fidelities and measure-and-prepare benchmarks.

Exact and asymptotic N-to-M cloning fidelities for equatorial qubit states
and two-qubit maximally entangled states, exact covariant measure-and-prepare
fidelities, the optimal re-prepared state within the covariant-seed class,
and the relative gap between the two protocol families.
"""

__version__ = "0.1.0"

from .errors import ConvergenceError, DomainError
from .spin import (
    IrrepBlock,
    PreparedState,
    binomial_weight,
    central_binomial_weight,
    irrep_spectrum,
    multiplicity,
)
from .equatorial import (
    ansatz_cutoff,
    avg_state_expectation,
    clone_fidelity_exact,
    clone_fidelity_large_m,
    clone_fidelity_large_n,
    mp_fidelity_exact,
    outcome_density_fourier,
    p_true,
    prepared_state_ansatz,
    sqrt_binomial_second_moment,
    sqrt_binomial_sum,
)
from .entangled import (
    CharPolynomial,
    avg_state_expectation_ent,
    cg_overlap_count,
    eco_clone_fidelity_exact,
    eco_clone_fidelity_large_m,
    eco_clone_fidelity_large_n,
    mp_fidelity_exact_ent,
    p_true_ent,
    prepared_state_ansatz_ent,
)
from .optimize import (
    GapRow,
    LambdaSweepResult,
    QuadraticForm,
    build_quadratic_form,
    default_lambda_grid,
    lambda_sweep,
    optimal_prepared_state,
    relative_gap,
)
from .quadrature import (
    QuadratureWarning,
    phase_nodes_required,
    phase_quadrature_fidelity,
    su2_nodes_required,
    su2_quadrature_fidelity_ent,
    weyl_quadrature_char4,
)
from .report import (
    AppendixRow,
    SweepConfig,
    SweepReport,
    SweepRow,
    appendix_check,
    parse_report,
    run_sweep,
    serialize_report,
)

__all__ = [
    "ConvergenceError",
    "DomainError",
    "IrrepBlock",
    "PreparedState",
    "binomial_weight",
    "central_binomial_weight",
    "irrep_spectrum",
    "multiplicity",
    "ansatz_cutoff",
    "avg_state_expectation",
    "clone_fidelity_exact",
    "clone_fidelity_large_m",
    "clone_fidelity_large_n",
    "mp_fidelity_exact",
    "outcome_density_fourier",
    "p_true",
    "prepared_state_ansatz",
    "sqrt_binomial_second_moment",
    "sqrt_binomial_sum",
    "CharPolynomial",
    "avg_state_expectation_ent",
    "cg_overlap_count",
    "eco_clone_fidelity_exact",
    "eco_clone_fidelity_large_m",
    "eco_clone_fidelity_large_n",
    "mp_fidelity_exact_ent",
    "p_true_ent",
    "prepared_state_ansatz_ent",
    "GapRow",
    "LambdaSweepResult",
    "QuadraticForm",
    "build_quadratic_form",
    "default_lambda_grid",
    "lambda_sweep",
    "optimal_prepared_state",
    "relative_gap",
    "QuadratureWarning",
    "phase_nodes_required",
    "phase_quadrature_fidelity",
    "su2_nodes_required",
    "su2_quadrature_fidelity_ent",
    "weyl_quadrature_char4",
    "AppendixRow",
    "SweepConfig",
    "SweepReport",
    "SweepRow",
    "appendix_check",
    "parse_report",
    "run_sweep",
    "serialize_report",
]

"""Global cloning fidelities and measure-and-prepare benchmarks.

Exact and asymptotic N-to-M cloning fidelities for equatorial qubit states
and two-qubit maximally entangled states, exact covariant measure-and-prepare
fidelities, the optimal re-prepared state within the covariant-seed class,
and the relative gap between the two protocol families.

The package exports what the CLI's users and the acceptance suite call;
everything else is imported from its module, e.g. `clonebench.report`.
"""

__version__ = "0.1.0"

from .errors import ConvergenceError, DomainError
from .spin import PreparedState, irrep_spectrum
from .equatorial import (
    clone_fidelity_exact,
    clone_fidelity_large_n,
    mp_fidelity_exact,
    prepared_state_ansatz,
    sqrt_binomial_second_moment,
    sqrt_binomial_sum,
)
from .entangled import (
    cg_overlap_count,
    eco_clone_fidelity_exact,
    eco_clone_fidelity_large_m,
    eco_clone_fidelity_large_n,
    mp_fidelity_exact_ent,
    prepared_state_ansatz_ent,
)
from .optimize import (
    build_quadratic_form,
    default_lambda_grid,
    lambda_sweep,
    optimal_prepared_state,
)
from .quadrature import (
    QuadratureWarning,
    phase_nodes_required,
    phase_quadrature_fidelity,
    su2_nodes_required,
    su2_quadrature_fidelity_ent,
    weyl_quadrature_char4,
)
from .report import appendix_check, relative_gap

__all__ = [
    "ConvergenceError",
    "DomainError",
    "PreparedState",
    "irrep_spectrum",
    "clone_fidelity_exact",
    "clone_fidelity_large_n",
    "mp_fidelity_exact",
    "prepared_state_ansatz",
    "sqrt_binomial_second_moment",
    "sqrt_binomial_sum",
    "cg_overlap_count",
    "eco_clone_fidelity_exact",
    "eco_clone_fidelity_large_m",
    "eco_clone_fidelity_large_n",
    "mp_fidelity_exact_ent",
    "prepared_state_ansatz_ent",
    "build_quadratic_form",
    "default_lambda_grid",
    "lambda_sweep",
    "optimal_prepared_state",
    "QuadratureWarning",
    "phase_nodes_required",
    "phase_quadrature_fidelity",
    "su2_nodes_required",
    "su2_quadrature_fidelity_ent",
    "weyl_quadrature_char4",
    "appendix_check",
    "relative_gap",
]

"""Exact thermodynamics of the K-layer deep Boltzmann machine on the
Nishimori line, with a finite-N disordered simulator for verification.

The library computes the limiting pressure through a K-dimensional
min-max variational principle, locates the zero-field phase transition
through the spectral radius of the odd-odd block of M^2, and checks the
theory against exact enumeration and block-Gibbs sampling at finite N.
"""

from .model import (
    Chain,
    ModelSpec,
    OddEvenSplit,
    build_effective,
    decouple,
    m_squared_oo,
    odd_even_split,
    perron_vector,
    rho_oo,
    spectral_radius_oo,
)
from .phase import (
    InstabilityReport,
    PhasePoint,
    maximizer_conditions,
    optimize_form_factors,
    perron_instability_check,
    scan,
    write_scan_csv,
)
from .simulator import (
    DisorderSample,
    EngineKind,
    GibbsEstimate,
    QuenchedReport,
    SystemSize,
    energy,
    exact_enumerate,
    quenched_run,
    run_block_gibbs,
    sample_disorder,
)
from .special_functions import (
    QuadratureRule,
    big_f,
    big_f_and_prime,
    big_f_inverse,
    big_f_prime,
    default_rule,
    nishimori_residual,
    psi,
)
from .variational import (
    AuxiliaryChain,
    Method,
    Phase,
    VariationalSolution,
    consistency_map,
    grad_p_var,
    grad_pi,
    hessian_pi,
    hessian_pi_symmetrized,
    nested_bisection_chain,
    p_var,
    pi_value,
    scalar_solution,
    solve_fixed_point,
    solve_nested_bisection,
    solve_pi_ascent,
)

__version__ = "0.1.0"

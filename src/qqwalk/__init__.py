"""Quaternionic coined quantum walks on the integer line.

Simulation of the two-chirality walk with quaternion amplitudes, its
equivalent 4-component complex representation, closed-form position
distributions for the coin families that reduce to the complex walk,
spectral analysis of the momentum symbol, and weak-limit densities with
numerical convergence checks.
"""

from .coin import (
    Coin,
    MoveOperators,
    classify,
    coin_from_json,
    coin_to_json,
    hadamard_coin,
    load_coin,
    random_coin,
    split_pq,
    u_theta,
    unitarity_residuals,
    validate_coin,
)
from .errors import (
    DegenerateABError,
    DegenerateError,
    DomainError,
    NormDriftError,
    NotNormalizedError,
    NotUnitaryError,
    QQWalkError,
)
from .exact import (
    PathSum,
    boundary_prob,
    closed_form_distribution,
    closed_form_prob,
    xi_bruteforce,
    xi_closed,
)
from .quaternion import Quaternion, chi, chi_matrix, solve_sylvester, sylvester_residual
from .spectral import (
    CompareResult,
    EigenPair,
    LimitDensity,
    char_poly_coeffs,
    eigen_system,
    eigenvector_closed,
    limit_compare,
    qqw_limit_density,
    qqw_limit_params,
    support_radius,
    weight_constant,
)
from .walk import (
    Distribution,
    WalkState,
    distribution,
    evolve,
    init_state,
    moment,
)

__version__ = "0.1.0"

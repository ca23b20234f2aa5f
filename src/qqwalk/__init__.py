"""Quaternionic coined quantum walks on the integer line.

Simulation of the two-chirality walk with quaternion amplitudes, its
equivalent 4-component complex representation, closed-form position
distributions for the coin families that reduce to the complex walk,
spectral analysis of the momentum symbol, and weak-limit densities with
numerical convergence checks.

Importing the package executes only `errors`.  The layers `quaternion`,
`coin`, `walk`, `exact` and `spectral` are registered in `sys.modules` as
lazy modules: each is compiled and executed on its first attribute access,
so a CLI job runs only the layers it calls.  The names below resolve on
first access to the same objects as in their layer.  Before Python 3.12
that first access is not thread-safe: threaded code should load the layers
it uses (e.g. ``from qqwalk.walk import evolve``) before it starts threads.
"""

import importlib.util
import sys

from . import errors  # eager: every layer raises these

_EXPORTS = {
    "errors": ("DegenerateABError", "DegenerateError", "DomainError", "NormDriftError",
               "NotNormalizedError", "NotUnitaryError", "QQWalkError"),
    "quaternion": ("Quaternion", "chi", "chi_matrix", "solve_sylvester",
                   "sylvester_residual"),
    "coin": ("Coin", "MoveOperators", "classify", "coin_from_json", "coin_to_json",
             "hadamard_coin", "load_coin", "random_coin", "split_pq", "u_theta",
             "unitarity_residuals", "validate_coin"),
    "walk": ("Distribution", "WalkState", "distribution", "evolve", "init_state",
             "moment"),
    "exact": ("PathSum", "boundary_prob", "closed_form_distribution",
              "closed_form_prob", "xi_bruteforce", "xi_closed"),
    "spectral": ("CompareResult", "EigenPair", "LimitDensity", "char_poly_coeffs",
                 "eigen_system", "eigenvector_closed", "limit_compare",
                 "qqw_limit_density", "qqw_limit_params", "support_radius",
                 "weight_constant"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = list(_LAYER_OF)
__version__ = "0.1.0"


def _register_lazy(layer: str):
    """Put `layer` in sys.modules as a module whose body runs on first
    attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Each layer imports only layers before it here; keep it so, since a lazy
# module counts as loaded from the moment its body starts to run.
for _layer in ("quaternion", "coin", "walk", "exact", "spectral"):
    globals()[_layer] = _register_lazy(_layer)


def __getattr__(name: str):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_LAYER_OF[name]], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAYER_OF})

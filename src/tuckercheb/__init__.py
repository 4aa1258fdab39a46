"""Low-rank Chebyshev-Tucker approximation of trivariate black-box functions."""

from .approximator import (
    ConstructorConfig,
    TuckerApproximant,
    build,
    grow_size,
    halton_points,
)
from .catalog import CATALOG
from .chebyshev import (
    cheb_points,
    chop_series,
    coeffs_to_vals,
    eval_series,
    is_resolved,
    refine_size,
    vals_to_coeffs,
)
from .cross import aca, build_oblique, deim
from .funcexpr import parse
from .oracle import InstrumentedOracle
from .serialize import deserialize, serialize
from .tensor import hosvd_ranks, matricize

__all__ = [
    "CATALOG",
    "ConstructorConfig",
    "InstrumentedOracle",
    "TuckerApproximant",
    "aca",
    "build",
    "build_oblique",
    "cheb_points",
    "chop_series",
    "coeffs_to_vals",
    "deim",
    "deserialize",
    "eval_series",
    "grow_size",
    "halton_points",
    "hosvd_ranks",
    "is_resolved",
    "matricize",
    "parse",
    "refine_size",
    "serialize",
    "vals_to_coeffs",
]

__version__ = "0.1.0"

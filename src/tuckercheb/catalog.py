"""Named benchmark functions, each defined by a parseable expression."""

import math
import re

from . import funcexpr

CATALOG = {
    "runge3": "1/(1+25*sqrt(x^2+y^2+z^2))",
    "expdist": "exp(-sqrt((x-1)^2+(y-1)^2+(z-1)^2))",
    "coshinv": "1/cosh(3*(x+y+z))^2",
    "spike": "10^5/(1+10^5*(x^2+y^2+z^2))",
    "logmix": "log(x+y*z+exp(x*y*z)+cos(sin(exp(x*y*z))))",
    "separable-demo": "exp(x)*cos(y)*(z^2+1)",
    "degenerate-tanh": "tanh(5*(x+z))*exp(y)",
}

_SHIFTED_INV = re.compile(r"shifted-inv\(([^)]+)\)$")


class UnknownFunction(KeyError):
    """An unknown catalog name or a bad shifted-inv eps; str() is unquoted."""

    __str__ = Exception.__str__


def expression(name):
    """Expression string for a catalog entry.

    'shifted-inv(eps)' takes a positive finite eps, e.g. shifted-inv(1e-3).
    """
    m = _SHIFTED_INV.match(name)
    if m:
        try:
            eps = float(m.group(1))
        except ValueError:
            eps = math.nan
        if not (math.isfinite(eps) and eps > 0):
            raise UnknownFunction(f"shifted-inv needs a positive finite eps, got {m.group(1)!r}")
        return f"1/(x+y+z+3+{eps!r})"
    if name not in CATALOG:
        known = ", ".join(sorted(CATALOG)) + ", shifted-inv(eps)"
        raise UnknownFunction(f"unknown catalog function {name!r}; known: {known}")
    return CATALOG[name]


def get(name):
    """Vectorized callable f(x, y, z) for a catalog entry."""
    return funcexpr.parse(expression(name))


def shifted_inv(eps):
    """The shifted inverse-distance family 1/(x+y+z+3+eps)."""
    return get(f"shifted-inv({eps!r})")

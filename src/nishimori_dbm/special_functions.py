"""One-body Nishimori-line special functions.

All thermodynamic formulas of this package reduce to Gaussian expectations
of smooth functions of ``y = z*sqrt(x) + x`` with ``z ~ N(0,1)``:

    psi(x)  = E[ log 2 cosh(y) ]          one-body pressure
    F(h)    = E[ tanh(y) ]                magnetization function, F = 2 psi' - 1
    F'(h)   = E[ (1 - tanh(y)^2)^2 ]      = 2 psi''(h)

The mean-equals-variance structure of the argument makes these functions
special: F is strictly increasing and concave, psi is increasing and convex
with psi''' < 0, and the identities

    E[ tanh^{2n-1}(y) ] = E[ tanh^{2n}(y) ],   n = 1, 2, ...

hold exactly.  The residual of the n-th identity under a given quadrature
rule is used here as an accuracy diagnostic for the rule itself.

Expectations are evaluated with a fixed Gauss-Hermite rule (probabilists'
weight).  The integrand tanh(z*sqrt(h)+h) has poles at distance
pi/(2*sqrt(h)) from the real axis, so large h requires a high order: the
default order 1600 keeps the identity residuals below 5e-13 for
h <= 100, comfortably inside the 1e-10 working tolerance.  Every rule is
pruned to the nodes whose weight is at least ``PRUNE_RATIO`` times the
largest: at order 1600 that keeps 232 nodes, all with |z| <= 9.09, and the
1368 dropped ones (662 of them with weight exactly 0) carry 7e-20 of the
mass.

The solvers call the kernels on one scalar at a time, so a float argument
(``np.float64`` included) takes a lean path: one vector of node arguments,
one integrand pass and one dot with the weights, with the same domain
check, asymptotic branch and cap as the array path.  ``big_f_and_prime``
returns F and F' from one tanh pass, for the Newton iterations that need
both at the same argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_hermitenorm

__all__ = [
    "QuadratureRule",
    "default_rule",
    "log2cosh",
    "psi",
    "big_f",
    "big_f_prime",
    "big_f_and_prime",
    "big_f_inverse",
    "nishimori_residual",
]

DEFAULT_ORDER = 1600

# Gauss-Hermite nodes whose weight is below this fraction of the largest
# weight are dropped.
PRUNE_RATIO = 1e-18

# Arguments below this magnitude that come out negative are treated as
# floating-point noise from upstream matrix products and clamped to 0.
NEG_CLAMP = 1e-14

# Above this argument all quadrature nodes sit deep in the saturated
# regime (tanh = 1, log 2 cosh(y) = y to machine precision), so the
# closed-form asymptotics are returned directly.
ASYMPTOTIC_CUTOFF = 1e4

# Largest double strictly below 1; keeps F and the consistency map
# inside [0, 1) even when tanh saturates at every node.
F_MAX = float(np.nextafter(1.0, 0.0))


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights representing E_z for z ~ N(0,1).

    Weights are normalized so the expectation of 1 is exact; the rule must
    also reproduce the first two standard normal moments to 1e-12.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-D arrays of equal length")
        # extreme nodes of high-order rules carry weights that underflow to
        # exactly zero; only genuinely negative weights are invalid
        if np.any(weights < 0):
            raise ValueError("quadrature weights must be nonnegative")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        nodes.flags.writeable = False
        weights.flags.writeable = False
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 (normalized Gaussian measure)")
        if abs(weights @ nodes) > 1e-12 or abs(weights @ nodes**2 - 1.0) > 1e-12:
            raise ValueError("rule does not reproduce the N(0,1) moments E z = 0, E z^2 = 1")

    @classmethod
    def gauss_hermite(cls, order: int = DEFAULT_ORDER) -> "QuadratureRule":
        """Probabilists' Gauss-Hermite rule, pruned, weights normalized to sum 1.

        Only the nodes whose weight is at least ``PRUNE_RATIO`` times the
        largest are kept; ``order`` still names the generating order.
        """
        nodes, weights = roots_hermitenorm(order)
        keep = weights >= PRUNE_RATIO * weights.max()
        return cls(nodes=nodes[keep], weights=weights[keep] / weights[keep].sum(),
                   order=order)


@lru_cache(maxsize=8)
def _cached_rule(order: int) -> QuadratureRule:
    return QuadratureRule.gauss_hermite(order)


def default_rule() -> QuadratureRule:
    return _cached_rule(DEFAULT_ORDER)


def log2cosh(y):
    """log(2 cosh y) = |y| + log1p(exp(-2|y|)), overflow-free."""
    ay = np.abs(y)
    return ay + np.log1p(np.exp(-2.0 * ay))


def _clamped(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(x >= -NEG_CLAMP):  # false for NaN too
        raise ValueError(f"{name} must be >= 0 (got min {np.min(x)})")
    return np.where(x < 0.0, 0.0, x)


def _expect(g, x, rule, name, limit):
    """Expectations E[g(z sqrt(x) + x)] for x >= 0, from one pass over the nodes.

    ``g`` maps the node arguments, shape (..., nodes), to a tuple of
    integrands; the result is the tuple of their expectations, floats for a
    float ``x`` and arrays shaped like ``x`` otherwise.  Arguments above
    ``ASYMPTOTIC_CUTOFF`` take ``limit(x)``, also a tuple, instead.  NaN
    and arguments below -NEG_CLAMP raise ValueError; the rest of
    [-NEG_CLAMP, 0) is taken as 0.
    """
    rule = rule or default_rule()
    if isinstance(x, float):
        # lean path for the solvers' scalar calls: no masks, no array set-up
        if not x >= -NEG_CLAMP:
            raise ValueError(f"{name} must be >= 0 (got {x})")
        x = max(float(x), 0.0)
        if x > ASYMPTOTIC_CUTOFF:
            return limit(x)
        return tuple(float(v @ rule.weights) for v in g(math.sqrt(x) * rule.nodes + x))
    x = _clamped(x, name)
    if x.ndim == 0:
        return _expect(g, float(x), rule, name, limit)
    big = x > ASYMPTOTIC_CUTOFF
    small = x[~big]
    outs = []
    integrands = g(np.sqrt(small)[:, None] * rule.nodes + small[:, None])
    for integrand, lim in zip(integrands, limit(x[big])):
        out = np.empty_like(x)
        out[~big] = integrand @ rule.weights
        out[big] = lim
        outs.append(out)
    return tuple(outs)


def _capped(f):
    """F capped at F_MAX, as a float or as an array like ``f``."""
    return min(f, F_MAX) if isinstance(f, float) else np.minimum(f, F_MAX)


def _sech4(t):
    """(1 - t^2)^2 = 1/cosh^4(y) from t = tanh(y)."""
    s = 1.0 - t * t
    return s * s


def _tanh_and_sech4(y):
    t = np.tanh(y)
    return t, _sech4(t)


def psi(x, rule: QuadratureRule | None = None):
    """One-body pressure psi(x) = E[log 2 cosh(z sqrt(x) + x)], x >= 0.

    Increasing and convex, psi(0) = log 2.  For x above
    ``ASYMPTOTIC_CUTOFF`` returns x, exact to below double precision.
    """
    return _expect(lambda y: (log2cosh(y),), x, rule, "x", lambda x: (x,))[0]


def big_f(h, rule: QuadratureRule | None = None):
    """Magnetization function F(h) = E[tanh(z sqrt(h) + h)], h >= 0.

    Strictly increasing and concave with F(0) = 0 and F -> 1 as h -> inf.
    The return value is capped at the largest double below 1 so that the
    consistency map stays inside [0, 1).
    """
    f, = _expect(lambda y: (np.tanh(y),), h, rule, "h", lambda h: (F_MAX,))
    return _capped(f)


def big_f_prime(h, rule: QuadratureRule | None = None):
    """F'(h) = E[(1 - tanh^2(z sqrt(h) + h))^2] = 2 psi''(h) > 0, decreasing.

    The integrand is computed as (1 - tanh^2)^2, which underflows gracefully
    instead of overflowing like 1/cosh^4.
    """
    return _expect(lambda y: (_sech4(np.tanh(y)),), h, rule, "h", lambda h: (0.0,))[0]


def big_f_and_prime(h, rule: QuadratureRule | None = None):
    """(F(h), F'(h)) from one tanh pass; equal to (big_f(h), big_f_prime(h))."""
    f, f_prime = _expect(_tanh_and_sech4, h, rule, "h", lambda h: (F_MAX, 0.0))
    return _capped(f), f_prime


def big_f_inverse(y, rule: QuadratureRule | None = None):
    """Inverse of F on [0, 1): the h >= 0 with F(h) = y.

    Safeguarded Newton from the right end of a geometrically expanded
    bracket; F concave makes the Newton iterates decrease monotonically
    onto the root, and a bisection fallback guards the remaining cases.
    F^{-1}(y) diverges as y -> 1, so y >= 1 - 1e-12 is rejected, and so
    is NaN.
    """
    rule = rule or default_rule()
    y_arr = np.asarray(y, dtype=float)
    if not np.all((y_arr >= 0.0) & (y_arr < 1.0 - 1e-12)):
        raise ValueError("big_f_inverse requires 0 <= y < 1 - 1e-12")
    out = np.array([_f_inverse_scalar(float(v), rule) for v in y_arr.ravel()])
    return float(out[0]) if y_arr.ndim == 0 else out.reshape(y_arr.shape)


def _f_inverse_scalar(y: float, rule: QuadratureRule) -> float:
    if y <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while big_f(hi, rule) <= y:
        lo = hi
        hi *= 2.0
        if hi > 1e9:  # unreachable for y < 1 - 1e-12
            raise RuntimeError("bracket expansion failed in big_f_inverse")
    h = hi
    for _ in range(200):
        f, f_prime = big_f_and_prime(h, rule)
        fh = f - y
        if fh > 0.0:
            hi = min(hi, h)
        else:
            lo = max(lo, h)
        if abs(fh) < 1e-15:
            return h
        h_new = h - fh / f_prime
        if not (lo < h_new < hi):
            h_new = 0.5 * (lo + hi)
        if abs(h_new - h) < 1e-15 * max(1.0, h):
            return h_new
        h = h_new
    return h


def nishimori_residual(h, n: int, rule: QuadratureRule | None = None) -> float:
    """|E tanh^{2n-1}(y) - E tanh^{2n}(y)|, exactly zero in the continuum.

    Nonzero values measure the quadrature error of the rule at argument h.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    rule = rule or default_rule()
    h = float(_clamped(h, "h"))
    if h == 0.0:
        return 0.0
    t = np.tanh(rule.nodes * np.sqrt(h) + h)
    odd = rule.weights @ t ** (2 * n - 1)
    even = rule.weights @ t ** (2 * n)
    return abs(float(odd) - float(even))

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
default order 1600 keeps the identity residuals below 3e-13 for
h <= 100, comfortably inside the 1e-10 working tolerance.
"""

from __future__ import annotations

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
    "big_f_inverse",
    "nishimori_residual",
]

DEFAULT_ORDER = 1600

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
        """Probabilists' Gauss-Hermite rule, weights normalized to sum 1."""
        nodes, weights = roots_hermitenorm(order)
        return cls(nodes=nodes, weights=weights / weights.sum(), order=order)


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
    if np.any(x < -NEG_CLAMP):
        raise ValueError(f"{name} must be >= 0 (got min {x.min()})")
    return np.where(x < 0.0, 0.0, x)


def _gauss_args(x: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    # y_{i,q} = z_q * sqrt(x_i) + x_i, shape (..., order)
    return np.sqrt(x)[..., None] * rule.nodes + x[..., None]


def _expect(g, x, rule, name, limit, cap=None):
    """E[g(z sqrt(x) + x)] for each x >= 0, scalar in, scalar out.

    Arguments above ``ASYMPTOTIC_CUTOFF`` take ``limit(x)`` instead of the
    quadrature sum; ``cap``, if given, bounds the quadrature sums from above.
    """
    rule = rule or default_rule()
    x = _clamped(x, name)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    big = x > ASYMPTOTIC_CUTOFF
    out[big] = limit(x[big])
    if not np.all(big):
        vals = g(_gauss_args(x[~big], rule)) @ rule.weights
        out[~big] = vals if cap is None else np.minimum(vals, cap)
    return float(out[0]) if scalar else out


def _sech4(y):
    t = np.tanh(y)
    return (1.0 - t * t) ** 2


def psi(x, rule: QuadratureRule | None = None):
    """One-body pressure psi(x) = E[log 2 cosh(z sqrt(x) + x)], x >= 0.

    Increasing and convex, psi(0) = log 2.  For x above
    ``ASYMPTOTIC_CUTOFF`` returns x, exact to below double precision.
    """
    return _expect(log2cosh, x, rule, "x", limit=lambda x: x)


def big_f(h, rule: QuadratureRule | None = None):
    """Magnetization function F(h) = E[tanh(z sqrt(h) + h)], h >= 0.

    Strictly increasing and concave with F(0) = 0 and F -> 1 as h -> inf.
    The return value is capped at the largest double below 1 so that the
    consistency map stays inside [0, 1).
    """
    return _expect(np.tanh, h, rule, "h", limit=lambda h: F_MAX, cap=F_MAX)


def big_f_prime(h, rule: QuadratureRule | None = None):
    """F'(h) = E[(1 - tanh^2(z sqrt(h) + h))^2] = 2 psi''(h) > 0, decreasing.

    The integrand is computed as (1 - tanh^2)^2, which underflows gracefully
    instead of overflowing like 1/cosh^4.
    """
    return _expect(_sech4, h, rule, "h", limit=lambda h: 0.0)


def big_f_inverse(y, rule: QuadratureRule | None = None):
    """Inverse of F on [0, 1): the h >= 0 with F(h) = y.

    Safeguarded Newton from the right end of a geometrically expanded
    bracket; F concave makes the Newton iterates decrease monotonically
    onto the root, and a bisection fallback guards the remaining cases.
    F^{-1}(y) diverges as y -> 1, so y >= 1 - 1e-12 is rejected.
    """
    rule = rule or default_rule()
    y_arr = np.asarray(y, dtype=float)
    scalar = y_arr.ndim == 0
    y_arr = np.atleast_1d(y_arr)
    if np.any(y_arr < 0.0) or np.any(y_arr >= 1.0 - 1e-12):
        raise ValueError("big_f_inverse requires 0 <= y < 1 - 1e-12")
    out = np.array([_f_inverse_scalar(float(v), rule) for v in y_arr])
    return float(out[0]) if scalar else out


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
        fh = big_f(h, rule) - y
        if fh > 0.0:
            hi = min(hi, h)
        else:
            lo = max(lo, h)
        if abs(fh) < 1e-15:
            return h
        step = fh / big_f_prime(h, rule)
        h_new = h - step
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

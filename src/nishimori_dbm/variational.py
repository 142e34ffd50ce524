"""Variational pressure, consistency equations, and the three solvers.

The limiting pressure of the K-layer machine is the min-max value of

    p_var(x) = sum_r alpha_r psi((M x)_r + h_r)
             + sum_r Delta_{r,r+1}/2 [(1 - x_r)(1 - x_{r+1}) - 2 x_r x_{r+1}]

over order parameters x in [0, 1)^K, sup over odd components, inf over even
ones.  Its stationary points satisfy the consistency equation

    x_r = F((M x)_r + h_r),

and the gradient takes the compact form (Delta / 2)(F(Mx + h) - x).
Every solution reports, besides the residual |T(x) - x|, the error
estimate |(I - D M)^{-1}(T(x) - x)| with D = diag F'(Mx + h): the next
Newton correction, which tracks the distance to the fixed point even near
rho = 1, where the residual understates it by orders of magnitude.  All
three solvers report ``converged`` by one rule: their loop stopped and
this estimate is at most ``tol``.

Three mutually checking solvers are provided:

* ``solve_fixed_point`` -- Newton's method on x = T(x) for the monotone,
  concave map T(x) = F(Mx + h), started just below 1 so that the iterates
  decrease monotonically onto the maximal fixed point; it stops once the
  Newton correction is below ``tol``, which from above bounds the error;
* ``solve_pi_ascent`` (K even) -- Newton's method with Armijo backtracking
  on the auxiliary function pi(x_o) = inf_{x_e} p_var, whose inner infimum
  is available in closed form through the triangular block M^(oe), and
  whose gradient and Hessian are closed-form too; it stops on a Newton
  step, lifted to all layers, below ``tol``;
* ``solve_nested_bisection`` (all h_r > 0) -- the constructive uniqueness
  scheme: auxiliary ratio variables a_r with alpha_r x_r a_r =
  alpha_{r+1} x_{r+1} reduce the coupled system to nested scalar root
  problems, one per level, the top level at a_K = 0; each level is solved
  by the secant method in log a_r, warm-started from the last root found
  at that level and guarded by bisection of its sign bracket.

Note on the auxiliary chain: with the ratio convention above, the
consistency equation decouples as x_r = F(Theta_r(a) x_r + h_r) with

    Theta_r(a) = alpha_r ( mu_{r-1,r} / a_{r-1} + mu_{r,r+1} a_r ),

boundary terms dropped at r = 1 and r = K.  This is the unique choice for
which (M x)_r = Theta_r(a) x_r holds identically along the chain relation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .model import Chain, ModelSpec, build_effective, decouple, spectral_radius_oo
from .special_functions import (
    F_MAX,
    NEG_CLAMP,
    QuadratureRule,
    big_f,
    big_f_and_prime,
    big_f_inverse,
    big_f_prime,
    default_rule,
    psi,
)

__all__ = [
    "Phase",
    "Method",
    "VariationalSolution",
    "AuxiliaryChain",
    "p_var",
    "grad_p_var",
    "consistency_map",
    "solve_fixed_point",
    "pi_value",
    "grad_pi",
    "hessian_pi",
    "hessian_pi_symmetrized",
    "solve_pi_ascent",
    "scalar_solution",
    "nested_bisection_chain",
    "solve_nested_bisection",
]

# Iterates are kept strictly below 1; F saturates in double precision long
# before this bound matters physically.
X_UPPER = 1.0 - 1e-9

# |rho - 1| window inside which the h = 0 phase is reported as unresolved.
CRITICAL_WINDOW = 1e-6

# Components below this threshold count as zero for phase classification.
ZERO_X_TOL = 1e-6

# Largest K the nested solver accepts; its cost grows exponentially in K.
NESTED_MAX_K = 6

# Bound on |log a_r| in the nested solver's level search: exp(690) < 1.8e308,
# so no trial ratio overflows.
LOG_A_MAX = 690.0


class Phase(enum.Enum):
    ZERO_SOLUTION = "zero_solution"
    BROKEN_SYMMETRY = "broken_symmetry"
    FIELD_DRIVEN = "field_driven"
    UNRESOLVED = "unresolved"


class Method(enum.Enum):
    FIXED_POINT = "fixed_point"
    PI_ASCENT = "pi_ascent"
    NESTED_BISECTION = "nested_bisection"


@dataclass(frozen=True)
class VariationalSolution:
    """Solver output: optimizer, pressure, residuals, and classification."""

    x_bar: np.ndarray
    pressure: float
    gradient_norm: float
    residual: float
    error_estimate: float
    phase: Phase
    method: Method
    iterations: int
    converged: bool

    def to_dict(self) -> dict:
        return {
            "x_bar": self.x_bar.tolist(),
            "pressure": self.pressure,
            "gradient_norm": self.gradient_norm,
            "residual": self.residual,
            "error_estimate": self.error_estimate,
            "phase": self.phase.value,
            "method": self.method.value,
            "iterations": self.iterations,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class AuxiliaryChain:
    """Decoupling ratios a_r and the resulting scalar couplings Theta_r."""

    a: np.ndarray
    theta: np.ndarray


def _p_var_core(x, chain: Chain, rule) -> float:
    args = chain.m @ x + chain.h
    if np.any(args < -NEG_CLAMP):
        raise ValueError("(M x)_r + h_r must be nonnegative")
    args = np.maximum(args, 0.0)
    body = float(chain.alpha @ psi(args, rule))
    pair = (1.0 - x[:-1]) * (1.0 - x[1:]) - 2.0 * x[:-1] * x[1:]
    return body + 0.5 * float(chain.delta_pairs @ pair)


def _validate_x(x, k: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (k,):
        raise ValueError(f"order parameter must have shape ({k},)")
    if np.any(x < -NEG_CLAMP) or np.any(x >= 1.0):
        raise ValueError("order parameter components must lie in [0, 1)")
    return np.maximum(x, 0.0)


# ---------------------------------------------------------------------------
# pressure, gradient, consistency map
# ---------------------------------------------------------------------------


def p_var(x, spec: ModelSpec, rule: QuadratureRule | None = None) -> float:
    """Variational pressure at order parameter x in [0, 1)^K."""
    x = _validate_x(x, spec.k)
    return _p_var_core(x, build_effective(spec), rule or default_rule())


def grad_p_var(x, spec: ModelSpec, rule: QuadratureRule | None = None) -> np.ndarray:
    """Gradient (Delta / 2)(F(Mx + h) - x); zero exactly at consistency points."""
    x = _validate_x(x, spec.k)
    rule = rule or default_rule()
    em = build_effective(spec)
    args = np.maximum(em.m @ x + spec.h, 0.0)
    return 0.5 * em.delta @ (big_f(args, rule) - x)


def consistency_map(x, spec: ModelSpec, rule: QuadratureRule | None = None) -> np.ndarray:
    """T(x)_r = F((Mx)_r + h_r); monotone self-map of [0, 1)^K."""
    x = _validate_x(x, spec.k)
    rule = rule or default_rule()
    em = build_effective(spec)
    return big_f(np.maximum(em.m @ x + spec.h, 0.0), rule)


def _classify(x: np.ndarray, chain: Chain) -> Phase:
    if np.any(chain.h > 0.0):
        return Phase.FIELD_DRIVEN
    if abs(spectral_radius_oo(chain) - 1.0) < CRITICAL_WINDOW:
        return Phase.UNRESOLVED
    if np.max(x) < ZERO_X_TOL:
        return Phase.ZERO_SOLUTION
    if np.min(x) > ZERO_X_TOL:
        return Phase.BROKEN_SYMMETRY
    return Phase.UNRESOLVED  # mixed components: decoupled sub-chains disagree


def _newton_correction(x: np.ndarray, chain: Chain, rule):
    """(T(x), c) with c = (I - D M)^{-1}(T(x) - x) and D = diag F'(Mx + h).

    x + c is the Newton iterate for T(x) = x.  An exact fixed point gives
    c = 0 without a linear solve; a singular I - D M gives c = None.
    """
    t, d = big_f_and_prime(np.maximum(chain.m @ x + chain.h, 0.0), rule)
    r = t - x
    if not np.any(r):
        return t, r
    try:
        return t, np.linalg.solve(np.eye(chain.k) - d[:, None] * chain.m, r)
    except np.linalg.LinAlgError:
        return t, None


def _finish(x: np.ndarray, chain: Chain, method: Method, iterations: int,
            stopped: bool, tol: float, rule: QuadratureRule) -> VariationalSolution:
    """Package a solver's output; the one place where ``converged`` is decided.

    A solver has converged when its own loop stopped and the error estimate
    at the returned x is at most ``tol``.
    """
    t, correction = _newton_correction(x, chain, rule)
    grad = 0.5 * chain.delta @ (t - x)
    error_estimate = np.inf if correction is None else float(np.max(np.abs(correction)))
    return VariationalSolution(
        x_bar=x,
        pressure=_p_var_core(x, chain, rule),
        gradient_norm=float(np.max(np.abs(grad))),
        residual=float(np.max(np.abs(t - x))),
        error_estimate=error_estimate,
        phase=_classify(x, chain),
        method=method,
        iterations=iterations,
        converged=stopped and error_estimate <= tol,
    )


# ---------------------------------------------------------------------------
# solver 1: Newton from above on the fixed-point equation
# ---------------------------------------------------------------------------


def solve_fixed_point(spec: ModelSpec, init=None, tol: float = 1e-10,
                      max_iter: int = 200_000,
                      rule: QuadratureRule | None = None) -> VariationalSolution:
    """Newton's method x <- x + (I - D M)^{-1}(T(x) - x) for T(x) = F(Mx + h).

    T is monotone and concave, so Newton started above the maximal fixed
    point decreases monotonically onto it (Vandergraft 1967; Ortega and
    Rheinboldt, section 13.3).  The default start (1 - 1e-6) * ones lies
    above it for all moderate couplings; an ``init`` below it may end on a
    smaller fixed point.  Iteration stops once the Newton correction is
    below ``tol`` in max norm: from above, the error left after a step is
    at most that step, even at the double root rho = 1, where convergence
    slows to rate 1/2.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    rule = rule or default_rule()
    em = build_effective(spec)
    x = np.full(spec.k, 1.0 - 1e-6) if init is None else _validate_x(init, spec.k)
    stopped = False
    it = 0
    for it in range(1, max_iter + 1):
        _, correction = _newton_correction(x, em, rule)
        if correction is None:
            break
        x_new = np.clip(x + correction, 0.0, F_MAX)
        step = float(np.max(np.abs(x_new - x)))
        x = x_new
        if step < tol:
            stopped = True
            break
    return _finish(x, em, Method.FIXED_POINT, it, stopped, tol, rule)


# ---------------------------------------------------------------------------
# the auxiliary function pi and its derivatives (K even)
# ---------------------------------------------------------------------------


class _PiChain:
    """The pi machinery on one irreducible even-length chain."""

    def __init__(self, chain: Chain, rule):
        if chain.k % 2 != 0:
            raise ValueError("the pi machinery requires an even number of layers")
        if np.any(np.diag(chain.m_oe) == 0.0):
            raise ValueError(
                "M^(oe) is singular (some mu_{r,r+1} or alpha_r is zero); "
                "split the chain with model.decouple first"
            )
        self.c = chain
        self.rule = rule

    # The methods the ascent loop calls take an optional ``finv`` =
    # F^{-1}(x_o), the costliest kernel call, so that one iterate computes
    # it once.

    def _finv(self, x_o, finv):
        return big_f_inverse(x_o, self.rule) if finv is None else finv

    def x_even_inf(self, x_o: np.ndarray, finv=None) -> np.ndarray:
        """Closed-form inner minimizer: M^(oe) x_e = F^{-1}(x_o) - h_o."""
        rhs = self._finv(x_o, finv) - self.c.h_o
        return solve_triangular(self.c.m_oe, rhs, lower=True)

    def value(self, x_o: np.ndarray, finv=None) -> float:
        x = self.assemble(x_o, self.x_even_inf(x_o, finv))
        return _p_var_core(x, self.c, self.rule)

    def derivatives(self, x_o: np.ndarray, finv=None):
        """(gradient, D^(oo), D^(ee), Hessian) of pi at x_o.

        F and F' at the even arguments M^(eo) x_o + h_e come from one fused
        kernel pass.  D^(oo) is evaluated at the inner minimizer, where the
        odd arguments of F' collapse to F^{-1}(x_o).
        """
        c = self.c
        finv = self._finv(x_o, finv)
        f_e, d_ee = big_f_and_prime(np.maximum(c.m_eo @ x_o + c.h_e, 0.0), self.rule)
        grad = 0.5 * c.alpha_o * (-finv + c.h_o + c.m_oe @ f_e)
        d_oo = big_f_prime(finv, self.rule)
        core = -np.eye(len(x_o)) + (d_oo[:, None] * c.m_oe) @ (d_ee[:, None] * c.m_eo)
        return grad, d_oo, d_ee, 0.5 * (c.alpha_o / d_oo)[:, None] * core

    def hessian_symmetrized(self, x_o: np.ndarray) -> np.ndarray:
        """Congruent symmetric form sharing the Hessian's eigenvalue signs.

        S = diag(sqrt(d a)) M^(oe) D^(ee) M^(eo) diag(sqrt(d / a)) is
        symmetric because Delta^(oe) transposes onto Delta^(eo), and its
        spectrum equals that of [(D M)^2]^(oo).
        """
        c = self.c
        _, d_oo, d_ee, _ = self.derivatives(x_o)
        s = (
            np.sqrt(d_oo * c.alpha_o)[:, None]
            * c.m_oe
            * d_ee[None, :]
            @ c.m_eo
            * np.sqrt(d_oo / c.alpha_o)[None, :]
        )
        scale = np.sqrt(c.alpha_o / d_oo)
        return 0.5 * scale[:, None] * (-np.eye(len(x_o)) + s) * scale[None, :]

    def assemble(self, x_o: np.ndarray, x_e: np.ndarray) -> np.ndarray:
        x = np.empty(self.c.k)
        x[0::2] = x_o
        x[1::2] = x_e
        return x


def _pi_chain(spec: ModelSpec, rule) -> _PiChain:
    return _PiChain(build_effective(spec), rule or default_rule())


def _validate_x_odd(x_o, k: int) -> np.ndarray:
    x_o = np.asarray(x_o, dtype=float)
    if x_o.shape != (k // 2,):
        raise ValueError(f"odd-component vector must have shape ({k // 2},)")
    if np.any(x_o < -NEG_CLAMP) or np.any(x_o >= 1.0):
        raise ValueError("odd components must lie in [0, 1)")
    return np.maximum(x_o, 0.0)


def pi_value(x_o, spec: ModelSpec, rule: QuadratureRule | None = None) -> float:
    """pi(x_o) = inf over even components of p_var, by the closed-form minimizer.

    The infimum runs over the convex set {x_e : M^(oe) x_e + h_o >= 0}, on
    which p_var is convex in x_e; the minimizer may leave [0, 1)^(K/2) even
    though the final saddle point never does.
    """
    chain = _pi_chain(spec, rule)
    return chain.value(_validate_x_odd(x_o, spec.k))


def grad_pi(x_o, spec: ModelSpec, rule: QuadratureRule | None = None) -> np.ndarray:
    """Gradient (alpha^(oo)/2)[-F^{-1}(x_o) + h_o + M^(oe) F(M^(eo) x_o + h_e)].

    Diverges to -inf componentwise as the corresponding x_o component
    approaches 1 (F^{-1} blows up), which rules out boundary maximizers.
    """
    chain = _pi_chain(spec, rule)
    return chain.derivatives(_validate_x_odd(x_o, spec.k))[0]


def hessian_pi(x_o, spec: ModelSpec, rule: QuadratureRule | None = None) -> np.ndarray:
    """Hessian (alpha^(oo) [D^(oo)]^{-1} / 2)(-1 + [ (D M)^2 ]^(oo)) of pi."""
    chain = _pi_chain(spec, rule)
    return chain.derivatives(_validate_x_odd(x_o, spec.k))[3]


def hessian_pi_symmetrized(x_o, spec: ModelSpec,
                           rule: QuadratureRule | None = None) -> np.ndarray:
    """Symmetric matrix congruent to the Hessian of pi (same inertia)."""
    chain = _pi_chain(spec, rule)
    return chain.hessian_symmetrized(_validate_x_odd(x_o, spec.k))


# ---------------------------------------------------------------------------
# solver 2: Newton ascent on pi (K even)
# ---------------------------------------------------------------------------


def _pi_ascent_core(chain: Chain, tol, max_iter, rule):
    """Newton's method on pi with Armijo backtracking (Nocedal and Wright, ch. 3).

    Iterates live in [0, X_UPPER]^(K/2).  The direction is p = -H^{-1} g;
    where the solve fails or p is not an ascent direction (pi is not
    concave where rho([(D M)^2]^(oo)) >= 1) the gradient g is taken
    instead.  The loop stops, after taking it, on a full Newton step whose
    lift (p, D^(ee) M^(eo) p) to all layers is below ``tol`` in max norm;
    that lift is the fixed point's Newton correction to first order.  The
    Armijo test allows a few ulps of |pi| for rounding, without which
    steps on flat maxima near rho = 1 are rejected.  F^{-1} is computed
    once per evaluated point and carried with the accepted iterate.
    """
    pi = _PiChain(chain, rule)
    x = np.full(chain.k // 2, 0.9)
    finv = big_f_inverse(x, rule)
    f = pi.value(x, finv)
    stopped = False
    it = 0
    for it in range(1, max_iter + 1):
        g, _, d_ee, hess = pi.derivatives(x, finv)
        try:
            p = -np.linalg.solve(hess, g)
        except np.linalg.LinAlgError:
            p = None
        if p is not None:
            if max(np.max(np.abs(p)), np.max(np.abs(d_ee * (chain.m_eo @ p)))) < tol:
                x = np.clip(x + p, 0.0, X_UPPER)
                stopped = True
                break
        d = p if p is not None and float(g @ p) > 0.0 else g
        slack = 4.0 * np.spacing(abs(f))
        s = 1.0
        while True:
            cand = np.clip(x + s * d, 0.0, X_UPPER)
            finv_cand = big_f_inverse(cand, rule)
            f_cand = pi.value(cand, finv_cand)
            if f_cand >= f + 1e-4 * float(g @ (cand - x)) - slack:
                break
            s *= 0.5
        if np.array_equal(cand, x):
            break  # no representable ascent step is left
        x, f, finv = cand, f_cand, finv_cand
    x_e = big_f(np.maximum(chain.m_eo @ x + chain.h_e, 0.0), rule)
    return pi.assemble(x, x_e), it, stopped


# ---------------------------------------------------------------------------
# solver 3: nested bisection along the decoupling chain (h > 0)
# ---------------------------------------------------------------------------


def scalar_solution(t: float, h: float, rule: QuadratureRule | None = None,
                    tol: float = 1e-14) -> float:
    """Unique positive root of x = F(t x + h) for t, h > 0.

    Strictly increasing in both arguments.  Solved by Newton started at
    F(t + h) >= root, safeguarded by the bracket [0, 1]: on the right of
    the root g(x) = F(tx + h) - x is concave and decreasing, so the
    iterates descend monotonically onto the root.
    """
    if t <= 0.0 or h <= 0.0:
        raise ValueError("scalar_solution requires t > 0 and h > 0")
    rule = rule or default_rule()
    lo, hi = 0.0, 1.0
    x = big_f(t + h, rule)
    for _ in range(200):
        f, f_prime = big_f_and_prime(t * x + h, rule)
        g = f - x
        if abs(g) < tol:
            return x
        if g > 0.0:
            lo = max(lo, x)
        else:
            hi = min(hi, x)
        gp = t * f_prime - 1.0
        x_new = x - g / gp if gp != 0.0 else 0.5 * (lo + hi)
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) < 1e-16:
            return x_new
        x = x_new
    return x


def _level_root(gap, u, slope):
    """Root of an increasing function ``gap`` of u = log a_r; returns (u, slope).

    Secant steps start from ``u``, the first one along ``slope``, the last
    secant slope found at this level (a unit step towards the root when
    there is none).  Every evaluation narrows the sign bracket (lo, hi),
    which starts at -LOG_A_MAX and LOG_A_MAX.  A step that leaves the
    bracket, or that is larger than half the step before last, is replaced
    by bisection (Brent 1973, ch. 4), which bounds the number of steps
    whatever the shape of ``gap``.  The search stops on a bracket or a step
    below 1e-14 max(1, |u|).  A step that small is tested before the
    bracket, since it can round away in u; it does not count right after a
    bisection, whose span says nothing about the slope at u, and is then
    bisected too.
    """
    lo, hi = -LOG_A_MAX, LOG_A_MAX
    u_prev = g_prev = None
    last = before_last = hi - lo
    bisected = False
    while True:
        g = gap(u)
        if g == 0.0:
            return u, slope
        if g < 0.0:
            lo = u
        else:
            hi = u
        tol = 1e-14 * max(1.0, abs(u))
        if hi - lo < tol:
            return u, slope
        if u_prev is None:
            step = -g / slope if slope else -math.copysign(1.0, g)
        elif g != g_prev:
            slope = (g - g_prev) / (u - u_prev)
            step = -g / slope
        else:
            step = math.inf  # flat secant: bisect
        if abs(step) < tol and not bisected:
            return u + step, slope
        bisected = (abs(step) < tol or not lo < u + step < hi
                    or abs(step) > 0.5 * abs(before_last))
        if bisected:
            step = 0.5 * (lo + hi) - u
            last = before_last = step
        else:
            last, before_last = step, last
        u_prev, g_prev = u, g
        u += step


def _nested_core(alpha, mu, h, rule):
    """Solve the consistency system by the nested level construction.

    Level r (0-based) determines a_r from X_0(a) a_0 ... a_r =
    X_{r+1}(1/a_r, a_{r+1}); the left side increases from 0 to infinity in
    a_r while the right side decreases, so each level has one root.  Levels
    below r are re-solved for every trial value of a_r, the top level is
    solved with a_K = 0.

    Each level is solved by ``_level_root`` on the log of the ratio of the
    two sides as a function of u = log a_r.  By the ratio relation the left
    side is alpha_r x_r a_r at the solution of the levels below, and every
    x_r lies in [F(h_r), 1), so this log ratio is u plus a bounded term:
    nearly linear, where the plain difference of the two sides grows
    exponentially in u and makes secant steps crawl.  A small secant step
    is then a faithful measure of the distance to the root.  Each level is
    warm-started from the root and the secant slope last found at that
    level in this call, since successive trial values of a_{r+1} move its
    root little.  A level solve takes about 3 evaluations and the cascade
    about 5^(K-1) in all, where cold bracketed solves of the difference
    took about 11 per level and 11^(K-1) in all.
    """
    k = len(alpha)
    evals = 0
    # last (root, slope) of each level, kept for this call only
    warm = [(0.0, None)] * (k - 1)

    def x_scalar(r, theta_r):
        return scalar_solution(theta_r, h[r], rule)

    def theta(r, a_prev, a_next):
        """Theta_r = alpha_r (mu_{r-1,r} / a_{r-1} + mu_{r,r+1} a_r).

        The first layer has no left term, ``a_prev``, and takes the product
        as alpha_0 mu_{0,1} a_0; the last layer has no right term.
        """
        if r == 0:
            return alpha[0] * mu[0] * a_next
        tail = mu[r] * a_next if r < k - 1 else 0.0
        return alpha[r] * (mu[r - 1] / a_prev + tail)

    def cascade(r, a_next):
        """Return [a_0, ..., a_r] solving levels 0..r given a_{r+1} = a_next."""

        def gap(u):
            """log(left side / right side) of level r at a_r = exp(u)."""
            nonlocal evals
            evals += 1
            a_r = math.exp(u)
            if r == 0:
                x0 = x_scalar(0, theta(0, None, a_r))
                log_lhs = math.log(alpha[0] * x0) + u
            else:
                lower = cascade(r - 1, a_r)
                x0 = x_scalar(0, theta(0, None, lower[0]))
                log_lhs = math.log(alpha[0] * x0) + sum(map(math.log, lower)) + u
            rhs = alpha[r + 1] * x_scalar(r + 1, theta(r + 1, a_r, a_next))
            return log_lhs - math.log(rhs)

        warm[r] = _level_root(gap, *warm[r])
        root = math.exp(warm[r][0])
        if r == 0:
            return [root]
        return cascade(r - 1, root) + [root]

    if k == 1:
        return np.array([big_f(h[0], rule)]), np.zeros(0), np.zeros(1), evals
    a = np.array(cascade(k - 2, 0.0))
    ends = [None, *a, 0.0]  # a_{r-1} and a_r of layer r are ends[r], ends[r + 1]
    thetas = np.array([theta(r, ends[r], ends[r + 1]) for r in range(k)])
    x = np.array([x_scalar(r, thetas[r]) for r in range(k)])
    return x, a, thetas, evals


def nested_bisection_chain(spec: ModelSpec, rule: QuadratureRule | None = None
                           ) -> tuple[np.ndarray, AuxiliaryChain]:
    """Run the nested construction on an irreducible spec; return (x, chain).

    The output satisfies the ratio relation alpha_r x_r a_r =
    alpha_{r+1} x_{r+1} and the scalar reduction (M x)_r = Theta_r(a) x_r.
    """
    _check_nested_preconditions(spec)
    rule = rule or default_rule()
    x, a, theta, _ = _nested_core(spec.alpha, spec.mu, spec.h, rule)
    return x, AuxiliaryChain(a=a, theta=theta)


def _check_nested_preconditions(spec: ModelSpec):
    if spec.k > NESTED_MAX_K:
        raise ValueError(
            "nested bisection cost grows exponentially; "
            f"K={spec.k} exceeds cap {NESTED_MAX_K}"
        )
    if np.any(spec.h <= 0.0):
        raise ValueError("nested bisection requires h_r > 0 for every layer")


# ---------------------------------------------------------------------------
# segment handling shared by the pi-ascent and nested solvers
# ---------------------------------------------------------------------------


def _solve_by_segments(spec: ModelSpec, core, tol, rule, method: Method,
                       even_only: bool) -> VariationalSolution:
    chain = build_effective(spec)
    segments = decouple(spec)
    if len(segments) == 1 and segments[0] == (0, spec.k):
        x, iterations, stopped = core(chain)
        return _finish(x, chain, method, iterations, stopped, tol, rule)

    # reducible chain: solve each positive segment independently, then fill
    # zero-alpha layers from the consistency equation (they do not act back)
    x = np.zeros(spec.k)
    iterations = 0
    stopped = True
    for start, stop in segments:
        length = stop - start
        if length == 1:
            x[start] = big_f(spec.h[start], rule)
            continue
        if even_only and length % 2 != 0:
            raise ValueError(
                f"decoupled segment [{start}, {stop}) has odd length; "
                "the pi machinery needs even segments (use solve_fixed_point)"
            )
        seg_x, seg_it, seg_stopped = core(
            Chain(spec.alpha[start:stop], spec.mu[start:stop - 1], spec.h[start:stop])
        )
        x[start:stop] = seg_x
        iterations += seg_it
        stopped = stopped and seg_stopped
    zero_layers = np.flatnonzero(spec.alpha == 0.0)
    if zero_layers.size:
        x[zero_layers] = big_f(
            np.maximum((chain.m @ x + chain.h)[zero_layers], 0.0), rule
        )
    return _finish(x, chain, method, iterations, stopped, tol, rule)


def solve_pi_ascent(spec: ModelSpec, tol: float = 1e-10, max_iter: int = 50_000,
                    rule: QuadratureRule | None = None) -> VariationalSolution:
    """Maximize pi over the odd components and reconstruct the even ones.

    Requires K even.  Zero form factors or zero couplings trigger the
    decoupling path: segments are solved independently and layers with
    alpha_r = 0 are filled from the consistency equation afterwards.
    """
    if spec.k % 2 != 0:
        raise ValueError("solve_pi_ascent requires an even number of layers")
    rule = rule or default_rule()

    def core(chain):
        return _pi_ascent_core(chain, tol, max_iter, rule)

    return _solve_by_segments(spec, core, tol, rule, Method.PI_ASCENT, even_only=True)


def solve_nested_bisection(spec: ModelSpec, tol: float = 1e-10,
                           rule: QuadratureRule | None = None) -> VariationalSolution:
    """Solve the consistency system by the nested level construction.

    Requires all h_r > 0 and K at most ``NESTED_MAX_K`` (the cost is
    exponential in K).  The internal root solves run to fixed tolerances,
    tighter than any meaningful ``tol``; ``tol`` bounds the reported
    ``error_estimate``, as for the other two solvers, and a solution whose
    estimate exceeds it is returned with ``converged`` False.
    """
    _check_nested_preconditions(spec)
    rule = rule or default_rule()

    def core(chain):
        x, _, _, evals = _nested_core(chain.alpha, chain.mu, chain.h, rule)
        return x, evals, True

    return _solve_by_segments(spec, core, tol, rule, Method.NESTED_BISECTION,
                              even_only=False)

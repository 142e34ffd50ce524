"""Independent reference values for the benchmark's output checks.

Nothing here imports ``nishimori_dbm`` or uses a Gauss-Hermite rule:

* F and F' are adaptive ``scipy.integrate.quad`` integrals against the
  standard normal density;
* the maximal fixed point of x = F(Mx + h) comes from Newton's method
  started above it (monotone descent, since the map is increasing and
  concave), and for the balanced two-layer machine from plain bisection
  of x = F(mu x / 2);
* rho([M^2]^(oo)) is the largest eigenvalue modulus of a dense eigensolve
  of the block, assembled here from the definition M[r, s] = mu_rs alpha_s;
* finite-N Gibbs averages come from brute-force summation over all 2^N
  spin states (N <= 16) of a disorder sample re-drawn from the documented
  Philox stream contract.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import logsumexp

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_QUAD = {"epsabs": 1e-14, "epsrel": 1e-13, "limit": 400}

# Largest N for which brute force sums all 2^N spin states.
BRUTE_FORCE_MAX_N = 16

# |rho - 1| inside which the package reports a zero-field phase as
# unresolved; the expected phase follows the same convention.
CRITICAL_WINDOW = 1e-6


def big_f(h: float) -> float:
    """F(h) = E tanh(z sqrt(h) + h), z ~ N(0, 1), by adaptive quadrature."""
    h = max(float(h), 0.0)
    if h == 0.0:
        return 0.0
    sh = math.sqrt(h)
    val, _ = quad(lambda z: math.exp(-0.5 * z * z) * math.tanh(z * sh + h),
                  -math.inf, math.inf, **_QUAD)
    return val / _SQRT_2PI


def big_f_prime(h: float) -> float:
    """F'(h) = E (1 - tanh^2(z sqrt(h) + h))^2 by adaptive quadrature."""
    h = max(float(h), 0.0)
    if h == 0.0:
        return 1.0
    sh = math.sqrt(h)

    def integrand(z):
        t = math.tanh(z * sh + h)
        return math.exp(-0.5 * z * z) * (1.0 - t * t) ** 2

    val, _ = quad(integrand, -math.inf, math.inf, **_QUAD)
    return val / _SQRT_2PI


def m_matrix(alpha, mu) -> np.ndarray:
    """M[r, s] = mu_rs alpha_s for the tridiagonal chain mu (superdiagonal)."""
    alpha = np.asarray(alpha, dtype=float)
    k = len(alpha)
    m = np.zeros((k, k))
    for r, coupling in enumerate(mu):
        m[r, r + 1] = coupling * alpha[r + 1]
        m[r + 1, r] = coupling * alpha[r]
    return m


def rho_oo(alpha, mu) -> float:
    """Spectral radius of the odd-odd block of M^2 by a dense eigensolve."""
    m = m_matrix(alpha, mu)
    block = (m @ m)[0::2, 0::2]  # 1-based odd layers sit at 0-based 0, 2, ...
    return float(np.max(np.abs(np.linalg.eigvals(block))))


def max_fixed_point(alpha, mu, h, tol: float = 1e-14, max_steps: int = 200) -> np.ndarray:
    """Maximal solution of x = F(Mx + h) by Newton's method from above.

    G(x) = F(Mx + h) - x is increasing-concave in each argument, so Newton
    started above the maximal root descends monotonically onto it.  The
    iterate is clipped at 0, which is the maximal root when h = 0 and
    rho <= 1.
    """
    m = m_matrix(alpha, mu)
    h = np.asarray(h, dtype=float)
    k = len(h)
    x = np.full(k, 1.0 - 1e-9)
    for _ in range(max_steps):
        arg = np.maximum(m @ x + h, 0.0)
        g = np.array([big_f(a) for a in arg]) - x
        jac = np.array([big_f_prime(a) for a in arg])[:, None] * m - np.eye(k)
        step = np.linalg.solve(jac, -g)
        x_new = np.maximum(x + step, 0.0)
        if np.max(np.abs(x_new - x)) <= tol:
            return x_new
        x = x_new
    raise RuntimeError("reference Newton iteration did not converge")


def balanced_pair_fixed_point(mu: float, steps: int = 60) -> float:
    """Maximal root of x = F(mu x / 2) (K = 2, alpha = 1/2) by bisection.

    g(x) = F(mu x / 2) - x has g(0) = 0 and g(1) < 0; the bisection keeps
    g(lo) >= 0 > g(hi), so it closes on the positive root when one exists
    (mu > 2) and on 0 otherwise.
    """
    lo, hi = 0.0, 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if big_f(0.5 * mu * mid) - mid >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def zero_field_phase(rho: float) -> str:
    """Phase label the independent rho rule predicts at h = 0."""
    if abs(rho - 1.0) < CRITICAL_WINDOW:
        return "unresolved"
    return "broken_symmetry" if rho > 1.0 else "zero_solution"


# ---------------------------------------------------------------------------
# finite N
# ---------------------------------------------------------------------------


def layer_sizes(alpha, n: int) -> tuple[int, ...]:
    """round(alpha_r N) with largest-remainder correction, at least 1 each."""
    target = np.asarray(alpha, dtype=float) * n
    sizes = np.floor(target).astype(int)
    for idx in np.argsort(-(target - sizes))[: n - sizes.sum()]:
        sizes[idx] += 1
    while np.any(sizes == 0):
        sizes[np.argmax(sizes == 0)] += 1
        sizes[np.argmax(sizes)] -= 1
    return tuple(int(s) for s in sizes)


def disorder(alpha, mu, h, n: int, seed: int, sample_index: int):
    """Couplings and fields of one sample, from Philox stream (0, sample_index).

    Per ordered layer pair a forward (N_r, N_r+1) and a backward
    (N_r+1, N_r) block of N(mu / 2N, mu / 2N) entries, then per-layer
    fields N(h_r, h_r), drawn in that order.
    """
    sizes = layer_sizes(alpha, n)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(0, sample_index))
    rng = np.random.Generator(np.random.Philox(ss))
    pairs = []
    for r, coupling in enumerate(mu):
        mean = coupling / (2.0 * n)
        std = math.sqrt(coupling / (2.0 * n))
        forward = rng.normal(mean, std, size=(sizes[r], sizes[r + 1]))
        backward = rng.normal(mean, std, size=(sizes[r + 1], sizes[r]))
        pairs.append(forward + backward.T)
    fields = [rng.normal(hr, math.sqrt(hr), size=sizes[r]) for r, hr in enumerate(h)]
    return sizes, pairs, fields


@lru_cache(maxsize=2)
def _all_states(n: int) -> np.ndarray:
    """All 2^N configurations of N spins +-1, one per row."""
    states = 1.0 - 2.0 * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)
    states.flags.writeable = False
    return states


def brute_force(sizes, pairs, fields) -> dict:
    """Exact per-layer <m>, <q> and log(Z)/N by summing all 2^N states."""
    n = sum(sizes)
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force is limited to N <= {BRUTE_FORCE_MAX_N}")
    states = _all_states(n)
    off = np.concatenate(([0], np.cumsum(sizes)))
    layers = [np.ascontiguousarray(states[:, off[r]:off[r + 1]]) for r in range(len(sizes))]
    log_w = sum(layer @ f for layer, f in zip(layers, fields))
    for r, pair in enumerate(pairs):
        log_w = log_w + ((layers[r] @ pair) * layers[r + 1]).sum(axis=1)
    log_z = logsumexp(log_w)
    p = np.exp(log_w - log_z)
    site = p @ states
    m = np.array([site[off[r]:off[r + 1]].mean() for r in range(len(sizes))])
    q = np.array([(site[off[r]:off[r + 1]] ** 2).mean() for r in range(len(sizes))])
    return {"m": m, "q": q, "pressure": float(log_z) / n}

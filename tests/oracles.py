"""Independent oracles used across the test suite.

The quadrature oracles are deliberately built on scipy.integrate.quad
(adaptive 1-D integration against the Gaussian density) and plain
bisection, never on the package's quadrature path, so that agreement
between the two is a genuine cross-check.  The reference block-Gibbs
sampler keeps the plain per-layer loop with full matrix-vector products.
``redraw_blocks`` re-draws the two ordered coupling blocks of each layer
pair from the documented Philox stream, which the package does not keep.
"""

import math

import numpy as np
from scipy.integrate import quad

from nishimori_dbm.simulator import DisorderSample, EngineKind, GibbsEstimate, _spin_rng

_SQ2PI = np.sqrt(2.0 * np.pi)


def _normal_pdf(z):
    return np.exp(-0.5 * z * z) / _SQ2PI


def psi_quad(x: float) -> float:
    """E[log 2 cosh(z sqrt(x) + x)] by adaptive integration."""

    def integrand(z):
        y = z * np.sqrt(x) + x
        ay = abs(y)
        return _normal_pdf(z) * (ay + np.log1p(np.exp(-2.0 * ay)))

    val, _ = quad(integrand, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-13, limit=400)
    return val


def big_f_quad(h: float) -> float:
    """E[tanh(z sqrt(h) + h)] by adaptive integration."""

    def integrand(z):
        return _normal_pdf(z) * np.tanh(z * np.sqrt(h) + h)

    val, _ = quad(integrand, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-13, limit=400)
    return val


def big_f_prime_quad(h: float) -> float:
    """E[(1 - tanh^2(z sqrt(h) + h))^2] by adaptive integration."""

    def integrand(z):
        t = np.tanh(z * np.sqrt(h) + h)
        return _normal_pdf(z) * (1.0 - t * t) ** 2

    val, _ = quad(integrand, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-13, limit=400)
    return val


def bisect(fn, lo: float, hi: float, iters: int = 100) -> float:
    """Plain bisection; fn must change sign over [lo, hi]."""
    sign_lo = np.sign(fn(lo))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.sign(fn(mid)) == sign_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_root_quad(t: float, h: float) -> float:
    """Unique positive root of x = F(t x + h) with the quad-based F."""
    return bisect(lambda x: big_f_quad(t * x + h) - x, 1e-9, 1.0 - 1e-12)


def redraw_blocks(spec, size, seed: int, sample_index: int = 0):
    """(Jf, Jb) of each layer pair, re-drawn from Philox stream (0, sample_index).

    Per pair, a forward (N_r, N_{r+1}) and a backward (N_{r+1}, N_r) block
    of N(mu_r / 2N, mu_r / 2N) entries, in that order.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(0, sample_index))
    rng = np.random.Generator(np.random.Philox(ss))
    sizes, n = size.layer_sizes, size.n
    forward, backward = [], []
    for r in range(spec.k - 1):
        mean = spec.mu[r] / (2.0 * n)
        std = math.sqrt(spec.mu[r] / (2.0 * n))
        forward.append(rng.normal(mean, std, size=(sizes[r], sizes[r + 1])))
        backward.append(rng.normal(mean, std, size=(sizes[r + 1], sizes[r])))
    return forward, backward


def heat_bath_probability(local_field):
    """P(sigma_i = +1 | rest) = 1 / (1 + exp(-2 local_field))."""
    return 1.0 / (1.0 + np.exp(-2.0 * np.asarray(local_field, dtype=float)))


def block_gibbs_reference(disorder: DisorderSample, sweeps: int, burn_in: int,
                          n_replicas: int = 2, seed: int | None = None,
                          batches: int = 20) -> GibbsEstimate:
    """Reference block-Gibbs sampler: full products, one list per layer.

    A plain loop: one array per layer and replica, every local field from
    full matrix-vector products, measurements by per-layer list means.
    ``run_block_gibbs`` must reproduce its outputs bit for bit.

    One sweep updates all odd layers simultaneously given the even ones,
    then vice versa; sites inside one parity class are conditionally
    independent, so each half-step is a single vectorized draw.  Standard
    errors come from batch means over the measurement sweeps; replica
    pairs sharing the disorder provide the overlap estimates.
    """
    if not sweeps > burn_in >= 0:
        raise ValueError("need sweeps > burn_in >= 0")
    if n_replicas < 2:
        raise ValueError("overlap estimation needs at least two replicas")
    seed = disorder.seed if seed is None else seed
    k = disorder.spec.k
    sizes = disorder.size.layer_sizes
    n = disorder.size.n
    off = disorder.size.offsets()
    pair = disorder.pair
    rngs = [_spin_rng(seed, disorder.sample_index, rep) for rep in range(n_replicas)]
    spins = [
        [np.where(rng.random(sizes[r]) < 0.5, -1.0, 1.0) for r in range(k)]
        for rng in rngs
    ]

    def half_step(rep: int, parity: int):
        s = spins[rep]
        for r in range(parity, k, 2):
            field = disorder.fields[r].copy()
            if r - 1 >= 0:
                field += s[r - 1] @ pair[r - 1]
            if r + 1 < k:
                field += pair[r] @ s[r + 1]
            u = rngs[rep].random(sizes[r])
            s[r] = np.where(u < heat_bath_probability(field), 1.0, -1.0)

    n_meas = sweeps - burn_in
    m_series = np.empty((n_meas, k))
    q_series = np.empty((n_meas, k))
    site_mag_sum = np.zeros(n)
    site_overlap_sum = np.zeros(n)
    replica_pairs = [(a, c) for a in range(n_replicas) for c in range(a + 1, n_replicas)]
    for t in range(sweeps):
        for rep in range(n_replicas):
            half_step(rep, 0)
            half_step(rep, 1)
        if t < burn_in:
            continue
        i = t - burn_in
        ms = np.zeros(k)
        qs = np.zeros(k)
        for r in range(k):
            ms[r] = np.mean([spins[rep][r].mean() for rep in range(n_replicas)])
            qs[r] = np.mean([(spins[a][r] * spins[c][r]).mean() for a, c in replica_pairs])
        m_series[i] = ms
        q_series[i] = qs
        for r in range(k):
            block = slice(off[r], off[r + 1])
            site_mag_sum[block] += np.mean([spins[rep][r] for rep in range(n_replicas)], axis=0)
            site_overlap_sum[block] += np.mean(
                [spins[a][r] * spins[c][r] for a, c in replica_pairs], axis=0)

    def batch_stderr(series: np.ndarray) -> np.ndarray:
        nb = min(batches, len(series))
        cut = (len(series) // nb) * nb
        means = series[:cut].reshape(nb, -1, series.shape[1]).mean(axis=1)
        return means.std(axis=0, ddof=1) / math.sqrt(nb)

    stderr_m = batch_stderr(m_series)
    stderr_q = batch_stderr(q_series)
    naive_var = m_series.var(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.where(naive_var > 0,
                       0.5 * n_meas * stderr_m**2 / np.maximum(naive_var, 1e-300), 0.0)
    return GibbsEstimate(
        m=m_series.mean(axis=0),
        q=q_series.mean(axis=0),
        stderr_m=stderr_m,
        stderr_q=stderr_q,
        pressure=None,
        method=EngineKind.BLOCK_GIBBS,
        site_mag=site_mag_sum / n_meas,
        site_overlap=site_overlap_sum / n_meas,
        diagnostics={"tau_int_m": tau.tolist(), "measured_sweeps": n_meas},
    )

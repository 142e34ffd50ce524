"""Finite-N disordered simulator: exact enumeration and block heat-bath Gibbs.

The finite-size Hamiltonian couples adjacent layers through independent
Gaussian couplings drawn, for each ordered layer pair, with mean equal to
variance (mu_{r,r+1} / 2N per entry); per-site fields have mean and
variance h_r.  Energies are

    H(sigma) = - sum_edges [ s_r' Jf s_{r+1} + s_{r+1}' Jb s_r ] - h~ . sigma

with Boltzmann weight exp(-H).  Both ordered blocks enter; their sum is
the effective pair coupling N(mu/N, mu/N) that keeps the model exactly on
the mean-equals-variance line at finite N, where the identities
E<m_r> = E<q_r> hold sample-exactly in disorder average.

The bipartite layer structure gives conditional independence across
parities: enumeration sums out the smaller parity class analytically
(exact for N <= 24 at a cost of 2^min(parity size)), and the Gibbs sampler
updates whole parity classes simultaneously with heat-bath conditionals.

Randomness is drawn from Philox counter-based streams with documented
derivation: stream (0, sample) feeds the disorder of a sample, stream
(1, sample, replica) feeds the spins of one replica chain.  Quenched
averages are therefore bit-reproducible for any thread count.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .model import ModelSpec
from .special_functions import QuadratureRule, log2cosh
from .variational import solve_fixed_point

__all__ = [
    "SystemSize",
    "DisorderSample",
    "GibbsEstimate",
    "EngineKind",
    "QuenchedReport",
    "layer_sizes_for",
    "sample_disorder",
    "energy",
    "exact_enumerate",
    "heat_bath_probability",
    "run_block_gibbs",
    "quenched_run",
    "format_report_csv",
    "write_report_csv",
]

ENUMERATION_MAX_N = 24

# spawn-key stream labels (see module docstring)
STREAM_DISORDER = 0
STREAM_SPIN = 1


class EngineKind(enum.Enum):
    ENUMERATION = "enumeration"
    BLOCK_GIBBS = "block_gibbs"


def layer_sizes_for(spec: ModelSpec, n: int) -> tuple[int, ...]:
    """Layer sizes N_r = round(alpha_r N), largest-remainder corrected.

    Every layer gets at least one site so that the spin vector slicing
    stays well formed even for vanishing form factors.
    """
    if n < spec.k:
        raise ValueError(f"need at least one site per layer (N >= {spec.k})")
    target = spec.alpha * n
    sizes = np.floor(target).astype(int)
    remainder = target - sizes
    for idx in np.argsort(-remainder)[: n - sizes.sum()]:
        sizes[idx] += 1
    while np.any(sizes == 0):
        sizes[np.argmax(sizes == 0)] += 1
        sizes[np.argmax(sizes)] -= 1
    return tuple(int(s) for s in sizes)


@dataclass(frozen=True)
class SystemSize:
    """Total size N and the per-layer site counts."""

    n: int
    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError("every layer needs at least one site")
        if sum(self.layer_sizes) != self.n:
            raise ValueError("layer sizes must sum to N")

    @classmethod
    def from_spec(cls, spec: ModelSpec, n: int) -> "SystemSize":
        return cls(n=n, layer_sizes=layer_sizes_for(spec, n))

    def offsets(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.layer_sizes)))


@dataclass(frozen=True)
class DisorderSample:
    """One realization of couplings and fields, reproducible from its seeds.

    ``j_forward[r]`` is the (N_r, N_{r+1}) block of ordered-pair couplings
    from layer r+1 to r+2 (1-based), ``j_backward[r]`` the independent
    (N_{r+1}, N_r) block of the reversed pair; each entry is
    N(mu_r / 2N, mu_r / 2N).  ``fields[r]`` holds the N_r per-site fields
    N(h_r, h_r).
    """

    spec: ModelSpec
    size: SystemSize
    seed: int
    sample_index: int
    j_forward: tuple
    j_backward: tuple
    fields: tuple

    def pair_coupling(self, r: int) -> np.ndarray:
        """Total coupling between layers r+1 and r+2: Jf + Jb^T, N(mu/N, mu/N)."""
        return self.j_forward[r] + self.j_backward[r].T


def _disorder_rng(seed: int, sample_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(STREAM_DISORDER, sample_index))
    return np.random.Generator(np.random.Philox(ss))


def _spin_rng(seed: int, sample_index: int, replica: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(STREAM_SPIN, sample_index, replica))
    return np.random.Generator(np.random.Philox(ss))


def sample_disorder(spec: ModelSpec, size: SystemSize, seed: int,
                    sample_index: int = 0) -> DisorderSample:
    """Draw one disorder realization; deterministic in (spec, size, seed, index)."""
    rng = _disorder_rng(seed, sample_index)
    sizes = size.layer_sizes
    n = size.n
    j_forward, j_backward = [], []
    for r in range(spec.k - 1):
        mean = spec.mu[r] / (2.0 * n)
        std = math.sqrt(spec.mu[r] / (2.0 * n))
        j_forward.append(rng.normal(mean, std, size=(sizes[r], sizes[r + 1])))
        j_backward.append(rng.normal(mean, std, size=(sizes[r + 1], sizes[r])))
    fields = [
        rng.normal(spec.h[r], math.sqrt(spec.h[r]), size=sizes[r])
        for r in range(spec.k)
    ]
    return DisorderSample(
        spec=spec, size=size, seed=seed, sample_index=sample_index,
        j_forward=tuple(j_forward), j_backward=tuple(j_backward),
        fields=tuple(fields),
    )


def energy(sigma, disorder: DisorderSample) -> float:
    """H(sigma) for one spin configuration (+-1 entries, length N)."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (disorder.size.n,):
        raise ValueError(f"sigma must have length N={disorder.size.n}")
    off = disorder.size.offsets()
    layers = [sigma[off[r]:off[r + 1]] for r in range(disorder.spec.k)]
    e = 0.0
    for r in range(disorder.spec.k - 1):
        e -= layers[r] @ disorder.j_forward[r] @ layers[r + 1]
        e -= layers[r + 1] @ disorder.j_backward[r] @ layers[r]
    for r in range(disorder.spec.k):
        e -= disorder.fields[r] @ layers[r]
    return float(e)


@dataclass(frozen=True)
class GibbsEstimate:
    """Per-layer magnetization/overlap estimates from one disorder sample."""

    m: np.ndarray
    q: np.ndarray
    stderr_m: np.ndarray
    stderr_q: np.ndarray
    pressure: float | None
    method: EngineKind
    site_mag: np.ndarray
    site_overlap: np.ndarray
    diagnostics: dict


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------


def exact_enumerate(disorder: DisorderSample) -> GibbsEstimate:
    """Exact Gibbs averages and pressure p_N = log(Z)/N.

    Enumerates the smaller parity class of layers and sums the complement
    analytically: conditioned on one parity, the other factorizes site by
    site, each site contributing 2 cosh(local field).  Exact per-site
    magnetizations give the overlaps through <q_r> = mean_i <sigma_i>^2
    (independent replicas share the disorder).
    """
    n = disorder.size.n
    if n > ENUMERATION_MAX_N:
        raise ValueError(f"exact enumeration is capped at N={ENUMERATION_MAX_N} (2^N states)")
    k = disorder.spec.k
    sizes = disorder.size.layer_sizes
    odd = list(range(0, k, 2))
    even = list(range(1, k, 2))
    enum_layers = odd if sum(sizes[r] for r in odd) <= sum(sizes[r] for r in even) else even
    summed_layers = [r for r in range(k) if r not in enum_layers]
    n_enum = sum(sizes[r] for r in enum_layers)

    b = 1 << n_enum
    states = ((np.arange(b)[:, None] >> np.arange(n_enum)) & 1).astype(np.float64) * 2.0 - 1.0
    col_of = {}
    col = 0
    for r in enum_layers:
        col_of[r] = slice(col, col + sizes[r])
        col += sizes[r]

    pair = [disorder.pair_coupling(r) for r in range(k - 1)]
    log_weight = np.zeros(b)
    for r in enum_layers:
        log_weight += states[:, col_of[r]] @ disorder.fields[r]
    summed_fields = {}
    for r in summed_layers:
        field = np.broadcast_to(disorder.fields[r], (b, sizes[r])).copy()
        if r - 1 >= 0:
            field += states[:, col_of[r - 1]] @ pair[r - 1]
        if r + 1 < k:
            field += states[:, col_of[r + 1]] @ pair[r].T
        summed_fields[r] = field
        log_weight += log2cosh(field).sum(axis=1)

    log_z = float(logsumexp(log_weight))
    weight = np.exp(log_weight - log_z)

    site_mag = np.empty(n)
    off = disorder.size.offsets()
    for r in enum_layers:
        site_mag[off[r]:off[r + 1]] = weight @ states[:, col_of[r]]
    for r in summed_layers:
        site_mag[off[r]:off[r + 1]] = weight @ np.tanh(summed_fields[r])

    m = np.array([site_mag[off[r]:off[r + 1]].mean() for r in range(k)])
    site_overlap = site_mag**2
    q = np.array([site_overlap[off[r]:off[r + 1]].mean() for r in range(k)])
    return GibbsEstimate(
        m=m, q=q,
        stderr_m=np.zeros(k), stderr_q=np.zeros(k),
        pressure=log_z / n,
        method=EngineKind.ENUMERATION,
        site_mag=site_mag, site_overlap=site_overlap,
        diagnostics={"enumerated_parity": "odd" if enum_layers == odd else "even",
                     "states": b},
    )


# ---------------------------------------------------------------------------
# block heat-bath Gibbs sampling
# ---------------------------------------------------------------------------


# Upkeep of the row-side fields in run_block_gibbs.  A layer update that
# flips more than this share of the layer's sites refreshes the next
# layer's kept field by a full product, which covers the random start and
# caps a row gather at a quarter of a coupling block; and every
# FIELD_RESYNC_SWEEPS-th sweep refreshes every kept field, so that rounding
# in the running sums cannot build up.
FULL_PRODUCT_FLIP_SHARE = 0.25
FIELD_RESYNC_SWEEPS = 100


def heat_bath_probability(local_field, out=None):
    """P(sigma_i = +1 | rest) = 1 / (1 + exp(-2 local_field)).

    With ``out`` the result is computed in that float array, which may be
    ``local_field`` itself.  Below a local field of about -354.6 the
    exponential overflows to inf and the probability is exactly 0; the
    overflow is expected and not reported.
    """
    with np.errstate(over="ignore"):
        e = np.exp(np.multiply(-2.0, local_field, out=out), out=out)
        return np.divide(1.0, np.add(1.0, e, out=out), out=out)


def run_block_gibbs(disorder: DisorderSample, sweeps: int, burn_in: int,
                    n_replicas: int = 2, seed: int | None = None,
                    batches: int = 20) -> GibbsEstimate:
    """Bipartite heat-bath sampling with replicas sharing the disorder.

    One sweep updates all odd layers simultaneously given the even ones,
    then vice versa; sites inside one parity class are conditionally
    independent, so each half-step is a single vectorized draw.  Standard
    errors come from batch means over the measurement sweeps; replica
    pairs sharing the disorder provide the overlap estimates.

    Layer r sees the field h_r + s_{r-1} P_{r-1} + P_r s_{r+1}, with P_r the
    pair coupling.  The row-side term s_{r-1} P_{r-1} is kept per replica:
    after layer r-1 is updated it gains 2 s_{r-1}[idx] P_{r-1}[idx] over the
    flipped sites idx, a gather of contiguous rows.  It is recomputed by a
    full product instead when more than ``FULL_PRODUCT_FLIP_SHARE`` of layer
    r-1 flipped, and on every ``FIELD_RESYNC_SWEEPS``-th sweep.  The column
    side P_r s_{r+1} is a full product every time, since gathering columns
    costs as much.  ``diagnostics`` counts those recomputations
    (``field_resyncs``) and records the largest deviation of a kept field
    from the full product found on the periodic ones (``max_field_drift``).
    """
    if not sweeps > burn_in >= 0:
        raise ValueError("need sweeps > burn_in >= 0")
    n_meas = sweeps - burn_in
    if n_meas < 2:
        raise ValueError("standard errors need at least two measured sweeps")
    if batches < 2:
        raise ValueError("batch-means standard errors need batches >= 2")
    if n_replicas < 2:
        raise ValueError("overlap estimation needs at least two replicas")
    seed = disorder.seed if seed is None else seed
    k = disorder.spec.k
    sizes = disorder.size.layer_sizes
    n = disorder.size.n
    off = disorder.size.offsets()
    pair = [disorder.pair_coupling(r) for r in range(k - 1)]
    rngs = [_spin_rng(seed, disorder.sample_index, rep) for rep in range(n_replicas)]
    spins = np.empty((n_replicas, n))
    layers = [[row[off[r]:off[r + 1]] for r in range(k)] for row in spins]
    for rng, s in zip(rngs, layers):
        for r in range(k):
            s[r][:] = np.where(rng.random(sizes[r]) < 0.5, -1.0, 1.0)
    # kept[rep][r] = s_{r-1} @ P_{r-1} of replica rep (None for r = 0)
    kept = [[None] + [s[r - 1] @ pair[r - 1] for r in range(1, k)] for s in layers]
    field = [np.empty(size) for size in sizes]
    draw = [np.empty(size) for size in sizes]
    flip = [np.empty(size, dtype=bool) for size in sizes]
    order = [*range(0, k, 2), *range(1, k, 2)]
    resyncs = 0
    drift = 0.0

    pairs = [(a, c) for a in range(n_replicas) for c in range(a + 1, n_replicas)]
    first, second = (list(side) for side in zip(*pairs))
    overlaps = np.empty((len(pairs), n))
    # per measured sweep, layer sums (exact integers) per replica or pair
    mag_sums = np.empty((n_meas, k, n_replicas))
    overlap_sums = np.empty((n_meas, k, len(pairs)))
    site_mag_sum = np.zeros(n)
    site_overlap_sum = np.zeros(n)
    for t in range(sweeps):
        periodic = (t + 1) % FIELD_RESYNC_SWEEPS == 0
        for rep in range(n_replicas):
            s = layers[rep]
            for r in order:
                f = field[r]
                if r > 0:
                    np.add(disorder.fields[r], kept[rep][r], out=f)
                else:
                    f[:] = disorder.fields[r]
                if r + 1 < k:
                    f += pair[r] @ s[r + 1]
                rngs[rep].random(out=draw[r])
                # a site flips when it is drawn up and was down, or the reverse
                up = np.less(draw[r], heat_bath_probability(f, out=f), out=flip[r])
                np.equal(up, s[r] < 0.0, out=flip[r])
                np.negative(s[r], where=flip[r], out=s[r])
                if r + 1 == k:
                    continue
                idx = flip[r].nonzero()[0]
                row_side = kept[rep][r + 1]
                if idx.size > FULL_PRODUCT_FLIP_SHARE * sizes[r]:
                    row_side[:] = s[r] @ pair[r]
                    resyncs += 1
                    continue
                if idx.size:
                    row_side += (2.0 * s[r][idx]) @ pair[r][idx]
                if periodic:
                    fresh = s[r] @ pair[r]
                    drift = max(drift, float(np.max(np.abs(row_side - fresh))))
                    row_side[:] = fresh
                    resyncs += 1
        if t < burn_in:
            continue
        i = t - burn_in
        np.multiply(spins[first], spins[second], out=overlaps)
        mag_sums[i] = np.add.reduceat(spins, off[:-1], axis=1).T
        overlap_sums[i] = np.add.reduceat(overlaps, off[:-1], axis=1).T
        site_mag_sum += spins.sum(axis=0) / n_replicas
        site_overlap_sum += overlaps.sum(axis=0) / len(pairs)
    # per-replica (per-pair) layer means, averaged over the last, contiguous
    # axis: that sums in the order of a mean over a list of the layer means,
    # which a mean over a leading axis does not for eight or more terms
    layer_sizes = np.array(sizes, dtype=float)[:, None]
    m_series = (mag_sums / layer_sizes).mean(axis=2)
    q_series = (overlap_sums / layer_sizes).mean(axis=2)

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
        diagnostics={"tau_int_m": tau.tolist(), "measured_sweeps": n_meas,
                     "field_resyncs": resyncs, "max_field_drift": drift},
    )


# ---------------------------------------------------------------------------
# quenched averaging over disorder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuenchedReport:
    """Disorder-averaged estimates with theory values for comparison."""

    spec: ModelSpec
    size: SystemSize
    engine: EngineKind
    n_disorder: int
    base_seed: int
    m_mean: np.ndarray
    m_stderr: np.ndarray
    q_mean: np.ndarray
    q_stderr: np.ndarray
    p_mean: float | None
    p_variance: float | None
    p_stderr: float | None
    nishimori_site_gap: float
    nishimori_site_stderr: float
    theory_x: np.ndarray | None
    m_samples: np.ndarray
    q_samples: np.ndarray
    p_samples: np.ndarray | None

    def to_dict(self) -> dict:
        return {
            "model": self.spec.to_dict(),
            "N": self.size.n,
            "layer_sizes": list(self.size.layer_sizes),
            "engine": self.engine.value,
            "n_disorder": self.n_disorder,
            "base_seed": self.base_seed,
            "m_mean": self.m_mean.tolist(),
            "m_stderr": self.m_stderr.tolist(),
            "q_mean": self.q_mean.tolist(),
            "q_stderr": self.q_stderr.tolist(),
            "p_mean": self.p_mean,
            "p_variance": self.p_variance,
            "p_stderr": self.p_stderr,
            "nishimori_site_gap": self.nishimori_site_gap,
            "nishimori_site_stderr": self.nishimori_site_stderr,
            "theory_x": None if self.theory_x is None else self.theory_x.tolist(),
        }


def quenched_run(spec: ModelSpec, size: SystemSize, n_disorder: int, base_seed: int,
                 engine: EngineKind | str = EngineKind.ENUMERATION,
                 sweeps: int = 2000, burn_in: int = 400, n_replicas: int = 2,
                 threads: int | None = None, solve_theory: bool = True,
                 rule: QuadratureRule | None = None) -> QuenchedReport:
    """Average Gibbs estimates over independent disorder samples.

    Sample i draws its disorder from stream (0, i) and its spins from
    streams (1, i, replica) of ``base_seed``, so results do not depend on
    the number of worker threads.  Aggregation runs in sample order.
    """
    engine = EngineKind(engine)
    if n_disorder < 1:
        raise ValueError("n_disorder must be at least 1")

    def one(i: int) -> GibbsEstimate:
        disorder = sample_disorder(spec, size, base_seed, sample_index=i)
        if engine is EngineKind.ENUMERATION:
            return exact_enumerate(disorder)
        return run_block_gibbs(disorder, sweeps=sweeps, burn_in=burn_in,
                               n_replicas=n_replicas)

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            estimates = list(pool.map(one, range(n_disorder)))
    else:
        estimates = [one(i) for i in range(n_disorder)]

    m_samples = np.array([e.m for e in estimates])
    q_samples = np.array([e.q for e in estimates])
    sqrt_n = math.sqrt(n_disorder)
    site_diff = np.array([
        float(np.mean(e.site_overlap - e.site_mag)) for e in estimates
    ])
    if engine is EngineKind.ENUMERATION:
        p_samples = np.array([e.pressure for e in estimates])
        p_mean = float(np.mean(p_samples))
        p_variance = float(np.var(p_samples, ddof=1)) if n_disorder > 1 else 0.0
        p_stderr = float(np.std(p_samples, ddof=1) / sqrt_n) if n_disorder > 1 else 0.0
    else:
        p_samples = None
        p_mean = p_variance = p_stderr = None

    theory_x = None
    if solve_theory:
        theory_x = solve_fixed_point(spec, tol=1e-11, rule=rule).x_bar

    def stderr(samples: np.ndarray) -> np.ndarray:
        if n_disorder == 1:
            return np.zeros(samples.shape[1])
        return samples.std(axis=0, ddof=1) / sqrt_n

    return QuenchedReport(
        spec=spec, size=size, engine=engine, n_disorder=n_disorder,
        base_seed=base_seed,
        m_mean=m_samples.mean(axis=0), m_stderr=stderr(m_samples),
        q_mean=q_samples.mean(axis=0), q_stderr=stderr(q_samples),
        p_mean=p_mean, p_variance=p_variance, p_stderr=p_stderr,
        nishimori_site_gap=float(site_diff.mean()),
        nishimori_site_stderr=float(site_diff.std(ddof=1) / sqrt_n) if n_disorder > 1 else 0.0,
        theory_x=theory_x,
        m_samples=m_samples, q_samples=q_samples, p_samples=p_samples,
    )


def format_report_csv(report: QuenchedReport) -> str:
    """Per-layer CSV: estimates, standard errors, and the theory column."""
    def fmt(v):
        return format(float(v), ".17g")

    lines = ["layer,m_mean,m_stderr,q_mean,q_stderr,theory_x"]
    for r in range(report.spec.k):
        theory = fmt(report.theory_x[r]) if report.theory_x is not None else "nan"
        lines.append(",".join([
            str(r + 1), fmt(report.m_mean[r]), fmt(report.m_stderr[r]),
            fmt(report.q_mean[r]), fmt(report.q_stderr[r]), theory,
        ]))
    return "\n".join(lines) + "\n"


def write_report_csv(report: QuenchedReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_report_csv(report))

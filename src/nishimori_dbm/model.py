"""Model parameters, the tridiagonal chain, and the spectral quantities
driving the phase transition.

A K-layer machine is specified by the form factors alpha (relative layer
sizes, summing to 1), the symmetric tridiagonal interaction strengths mu
(stored as the K-1 superdiagonal entries mu[r] between layers r+1 and r+2,
1-based), and nonnegative external field parameters h.  ``Chain`` holds
one such (alpha, mu, h) without the simplex condition, so that decoupled
segments share it, and derives everything downstream from it:

    Delta[r, s] = alpha_r * mu_rs * alpha_s      (symmetric)
    M[r, s]     = mu_rs * alpha_s                (Delta = diag(alpha) @ M)

Layer parity follows the 1-based convention of the chain: layer 1 is odd.
In 0-based storage, odd layers are indices 0, 2, 4, ... and even layers are
1, 3, 5, ....  The zero-field symmetry breaking criterion is governed by
the spectral radius of the odd-odd block of M^2.  M is diagonally similar
to the symmetric tridiagonal S = diag(sqrt alpha) mu_matrix diag(sqrt
alpha), whose off-diagonals are s_r = mu_r sqrt(alpha_r alpha_{r+1}); the
similarity keeps parity blocks, so rho([M^2]^(oo)) = lambda_max([S^2]^(oo))
is computed exactly by a symmetric eigensolve.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ModelSpec",
    "Chain",
    "OddEvenSplit",
    "build_effective",
    "odd_even_split",
    "m_squared_oo",
    "rho_oo",
    "spectral_radius_oo",
    "perron_vector",
    "decouple",
]

SIMPLEX_TOL = 1e-12


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _tridiagonal(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """K x K matrix with the given super- and subdiagonal, zero elsewhere."""
    k = len(upper) + 1
    out = np.zeros((k, k))
    idx = np.arange(k - 1)
    out[idx, idx + 1] = upper
    out[idx + 1, idx] = lower
    return out


@dataclass(frozen=True)
class ModelSpec:
    """Parameters (K, alpha, mu, h) of one machine.

    ``mu`` holds the superdiagonal of the symmetric tridiagonal interaction
    matrix; the diagonal is zero by construction (no intra-layer couplings).
    """

    k: int
    alpha: np.ndarray
    mu: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral):
            raise ValueError(f"layer count K must be an integer (got {self.k!r})")
        object.__setattr__(self, "k", int(self.k))
        if self.k < 2:
            raise ValueError("layer count K must be at least 2")
        alpha = _frozen_array(self.alpha)
        mu = _frozen_array(self.mu)
        h = _frozen_array(self.h)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "h", h)
        if alpha.shape != (self.k,):
            raise ValueError(f"alpha must have length K={self.k}")
        if mu.shape != (self.k - 1,):
            raise ValueError(f"mu must hold the K-1={self.k - 1} superdiagonal entries")
        if h.shape != (self.k,):
            raise ValueError(f"h must have length K={self.k}")
        for name, values in (("alpha", alpha), ("mu", mu), ("h", h)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite")
        if np.any(alpha < 0):
            raise ValueError("form factors alpha must be nonnegative")
        if abs(alpha.sum() - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"form factors must sum to 1 (got {alpha.sum()!r})")
        if np.any(mu < 0):
            raise ValueError("couplings mu must be nonnegative")
        if np.any(h < 0):
            raise ValueError("field parameters h must be nonnegative")

    @classmethod
    def from_dict(cls, data: dict) -> "ModelSpec":
        """Build from a config mapping with keys K, alpha, mu, h."""
        known = {"K", "alpha", "mu", "h"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown model keys: {sorted(unknown)}")
        missing = known - set(data)
        if missing:
            raise ValueError(f"missing model keys: {sorted(missing)}")
        return cls(k=data["K"], alpha=data["alpha"], mu=data["mu"], h=data["h"])

    def to_dict(self) -> dict:
        return {
            "K": self.k,
            "alpha": self.alpha.tolist(),
            "mu": self.mu.tolist(),
            "h": self.h.tolist(),
        }

    def mu_matrix(self) -> np.ndarray:
        """Full K x K symmetric tridiagonal coupling matrix."""
        return _tridiagonal(self.mu, self.mu)

    def with_updates(self, alpha=None, mu=None, h=None) -> "ModelSpec":
        return ModelSpec(
            k=self.k,
            alpha=self.alpha if alpha is None else alpha,
            mu=self.mu if mu is None else mu,
            h=self.h if h is None else h,
        )


@dataclass(frozen=True, eq=False)
class Chain:
    """One tridiagonal chain (alpha, mu, h) and the matrices derived from it.

    Built from raw arrays with no simplex check, so a decoupled segment,
    whose form factors do not sum to 1, is a chain too.  Every derived
    matrix is computed on first use and kept; parity views follow the
    1-based convention (odd layers at 0-based indices 0, 2, ...).
    """

    alpha: np.ndarray
    mu: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        for name in ("alpha", "mu", "h"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        k = self.alpha.size
        if self.alpha.shape != (k,) or self.mu.shape != (k - 1,) or self.h.shape != (k,):
            raise ValueError("a chain of K layers needs K form factors, K-1 couplings "
                             "and K fields")

    @property
    def k(self) -> int:
        return len(self.alpha)

    @cached_property
    def m(self) -> np.ndarray:
        """M[r, r+1] = mu_{r,r+1} alpha_{r+1}, M[r+1, r] = mu_{r,r+1} alpha_r."""
        return _frozen_array(_tridiagonal(self.mu * self.alpha[1:], self.mu * self.alpha[:-1]))

    @cached_property
    def delta_pairs(self) -> np.ndarray:
        """Superdiagonal Delta[r, r+1] = alpha_r mu_{r,r+1} alpha_{r+1}."""
        return _frozen_array(self.alpha[:-1] * self.mu * self.alpha[1:])

    @cached_property
    def delta(self) -> np.ndarray:
        """Delta = diag(alpha) M, assembled from its superdiagonal so that
        symmetry holds bitwise."""
        return _frozen_array(_tridiagonal(self.delta_pairs, self.delta_pairs))

    @cached_property
    def m_oe(self) -> np.ndarray:
        """Odd rows, even columns of M: lower bidiagonal."""
        return _frozen_array(self.m[0::2, 1::2])

    @cached_property
    def m_eo(self) -> np.ndarray:
        """Even rows, odd columns of M: upper bidiagonal."""
        return _frozen_array(self.m[1::2, 0::2])

    @property
    def alpha_o(self) -> np.ndarray:
        return self.alpha[0::2]

    @property
    def h_o(self) -> np.ndarray:
        return self.h[0::2]

    @property
    def h_e(self) -> np.ndarray:
        return self.h[1::2]


def build_effective(spec: ModelSpec) -> Chain:
    """The chain of a spec, carrying Delta and M as ``.delta`` and ``.m``."""
    return Chain(spec.alpha, spec.mu, spec.h)


def _parity_indices(k: int) -> tuple[np.ndarray, np.ndarray]:
    # 1-based odd layers live at 0-based indices 0, 2, ...
    return np.arange(0, k, 2), np.arange(1, k, 2)


@dataclass(frozen=True)
class OddEvenSplit:
    """The four parity blocks of a K x K matrix (1-based parity)."""

    oo: np.ndarray
    oe: np.ndarray
    eo: np.ndarray
    ee: np.ndarray

    def reassemble(self) -> np.ndarray:
        k = self.oo.shape[0] + self.ee.shape[0]
        odd, even = _parity_indices(k)
        out = np.zeros((k, k))
        out[np.ix_(odd, odd)] = self.oo
        out[np.ix_(odd, even)] = self.oe
        out[np.ix_(even, odd)] = self.eo
        out[np.ix_(even, even)] = self.ee
        return out


def odd_even_split(a: np.ndarray) -> OddEvenSplit:
    """Split a square matrix into its odd/even row-column blocks."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("odd_even_split expects a square matrix")
    odd, even = _parity_indices(a.shape[0])
    return OddEvenSplit(
        oo=a[np.ix_(odd, odd)],
        oe=a[np.ix_(odd, even)],
        eo=a[np.ix_(even, odd)],
        ee=a[np.ix_(even, even)],
    )


def m_squared_oo(em: Chain) -> np.ndarray:
    """The odd-odd block of M^2, a nonnegative square matrix of side ceil(K/2)."""
    return odd_even_split(em.m @ em.m).oo


def _s_squared_oo(alpha: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """[S^2]^(oo) for form factors alpha of shape (..., K); shape (..., m, m).

    S is symmetric tridiagonal with off-diagonals s_r = mu_r sqrt(alpha_r
    alpha_{r+1}), so the odd-odd block of S^2 has diagonal s_{i-1}^2 + s_i^2
    and (i, i+2) entries s_i s_{i+1}.  Built column by column, with no
    padded copy of alpha.
    """
    s = alpha[..., :-1] * alpha[..., 1:]
    np.sqrt(s, out=s)
    s *= mu
    k = alpha.shape[-1]
    n = (k + 1) // 2
    block = np.zeros(alpha.shape[:-1] + (n, n))
    for l, i in enumerate(range(0, k, 2)):
        if i > 0:
            block[..., l, l] += s[..., i - 1] ** 2
        if i < k - 1:
            block[..., l, l] += s[..., i] ** 2
        if i + 2 < k:
            block[..., l, l + 1] = block[..., l + 1, l] = s[..., i] * s[..., i + 1]
    return block


def rho_oo(alpha, mu) -> np.ndarray:
    """Exact rho([M^2]^(oo)) for form factors alpha of shape (..., K).

    M = mu_matrix diag(alpha) is diagonally similar to S = diag(sqrt alpha)
    mu_matrix diag(sqrt alpha), and the similarity keeps parity blocks, so
    the radius is the largest eigenvalue of the symmetric positive
    semidefinite block [S^2]^(oo): one batched ``eigvalsh`` over the
    leading axes.  ``mu`` holds the K-1 couplings shared by every row.
    """
    alpha = np.asarray(alpha, dtype=float)
    return np.linalg.eigvalsh(_s_squared_oo(alpha, np.asarray(mu, dtype=float)))[..., -1]


def spectral_radius_oo(em: Chain) -> float:
    """rho([M^2]^(oo)) of one chain, exact (see ``rho_oo``)."""
    return float(rho_oo(em.alpha, em.mu))


def perron_vector(em: Chain) -> np.ndarray:
    """Strictly positive principal eigenvector of [M^2]^(oo), unit sum.

    Requires an irreducible block: every alpha_r > 0 and every coupling
    mu_{r,r+1} > 0, which makes the block's graph strongly connected.  The
    vector is u / sqrt(alpha_o) for the top eigenvector u of [S^2]^(oo).
    """
    if np.any(em.alpha <= 0.0) or np.any(em.mu <= 0.0):
        raise ValueError(
            "perron_vector requires all alpha_r > 0 and all mu_{r,r+1} > 0 "
            "(block-reducible chain; see model.decouple)"
        )
    _, u = np.linalg.eigh(_s_squared_oo(em.alpha, em.mu))
    v = u[:, -1] / np.sqrt(em.alpha_o)
    v = v / v.sum()
    if np.any(v <= 0):
        raise RuntimeError("Perron vector has nonpositive components")
    return v


def decouple(spec: ModelSpec) -> list[tuple[int, int]]:
    """Split the chain into independent sub-machines.

    Returns half-open 0-based index ranges (start, stop) of maximal segments
    whose layers all have alpha_r > 0 and whose internal couplings are all
    positive.  Layers with alpha_r = 0 belong to no segment: they do not act
    back on the chain (their M-columns vanish) and their order parameter is
    filled in afterwards from the consistency equation.
    """
    segments = []
    start = None
    for r in range(spec.k):
        if spec.alpha[r] == 0.0:
            if start is not None:
                segments.append((start, r))
                start = None
            continue
        if start is None:
            start = r
        cut_after = r == spec.k - 1 or (r < spec.k - 1 and spec.mu[r] == 0.0)
        if cut_after:
            segments.append((start, r + 1))
            start = None
    return segments

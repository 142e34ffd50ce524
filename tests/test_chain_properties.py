"""Property tests of the chain record, its exact spectral radius and the
solvers built on it.

Random chains have K = 2..8 layers; form factors and couplings may vanish,
which makes the odd-odd block of M^2 reducible.  Dense ``eigvals`` of the
non-symmetric block is the reference the exact route is checked against.
The solver properties run on machines with K = 2..5 layers and h > 0.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nishimori_dbm.model import (
    Chain,
    ModelSpec,
    build_effective,
    m_squared_oo,
    odd_even_split,
    perron_vector,
    rho_oo,
    spectral_radius_oo,
)
from nishimori_dbm.phase import _simplex_grid_array
from nishimori_dbm.special_functions import nishimori_residual
from nishimori_dbm.variational import (
    solve_fixed_point,
    solve_nested_bisection,
    solve_pi_ascent,
)

# A reducible K = 5 chain on which a residual-stopped power iteration is
# 3.4e-10 (relative) off the dense radius.
PINNED = Chain(
    np.array([0.0263, 0.3669, 0.0, 0.597, 0.0097]) / 0.9999,
    np.array([1.0077, 2.3683, 3.0686, 1.261]),
    np.zeros(5),
)

PROPERTIES = settings(max_examples=200, deadline=None, derandomize=True)
SOLVER_PROPERTIES = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def chains(draw, allow_zeros=True, k=None):
    k = draw(st.integers(2, 8)) if k is None else k
    weight = st.floats(1e-3, 1.0)
    coupling = st.floats(0.05, 4.0)
    if allow_zeros:
        weight = st.one_of(st.just(0.0), weight)
        coupling = st.one_of(st.just(0.0), coupling)
    alpha = np.array(draw(st.lists(weight, min_size=k, max_size=k)))
    if not alpha.any():
        alpha[draw(st.integers(0, k - 1))] = 1.0
    mu = np.array(draw(st.lists(coupling, min_size=k - 1, max_size=k - 1)))
    return Chain(alpha / alpha.sum(), mu, np.zeros(k))


@st.composite
def fielded_specs(draw, allow_zeros=True, even=False, k_max=5, h_min=0.01):
    """Machines with K = 2..k_max layers (even K only if ``even``) and every
    h_r in [h_min, 2]."""
    k = draw(st.sampled_from([k for k in range(2, k_max + 1) if not even or k % 2 == 0]))
    chain = draw(chains(allow_zeros=allow_zeros, k=k))
    h = draw(st.lists(st.floats(h_min, 2.0), min_size=k, max_size=k))
    return ModelSpec(k=k, alpha=chain.alpha, mu=chain.mu, h=h)


def dense_radius(block: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(block))))


@PROPERTIES
@given(chains())
@example(PINNED)
def test_rho_matches_dense_eigvals(chain):
    rho = spectral_radius_oo(chain)
    dense = dense_radius(m_squared_oo(chain))
    assert abs(rho - dense) <= 1e-12 * dense


@PROPERTIES
@given(chains())
@example(PINNED)
def test_rho_oo_equals_rho_ee(chain):
    rho = spectral_radius_oo(chain)
    rho_ee = dense_radius(odd_even_split(chain.m @ chain.m).ee)
    assert abs(rho - rho_ee) <= 1e-12 * rho_ee


@PROPERTIES
@given(chains())
@example(PINNED)
def test_rho_unchanged_by_reversal(chain):
    rev = Chain(chain.alpha[::-1], chain.mu[::-1], chain.h[::-1])
    rho = spectral_radius_oo(chain)
    assert abs(spectral_radius_oo(rev) - rho) <= 1e-12 * rho


@PROPERTIES
@given(chains())
@example(PINNED)
def test_batched_grid_equals_per_row(chain):
    grid = _simplex_grid_array(chain.k, 4)
    batched = rho_oo(grid, chain.mu)
    per_row = [spectral_radius_oo(Chain(row, chain.mu, np.zeros(chain.k))) for row in grid]
    np.testing.assert_array_equal(batched, per_row)


@PROPERTIES
@given(chains(allow_zeros=False))
def test_perron_vector_positive_eigenvector(chain):
    v = perron_vector(chain)
    rho = spectral_radius_oo(chain)
    assert np.all(v > 0.0)
    assert np.max(np.abs(m_squared_oo(chain) @ v - rho * v)) <= 1e-12 * rho


@SOLVER_PROPERTIES
@given(fielded_specs(allow_zeros=False, even=True))
def test_fixed_point_agrees_with_pi_ascent(spec):
    fp = solve_fixed_point(spec, tol=1e-11)
    pa = solve_pi_ascent(spec, tol=1e-10)
    np.testing.assert_allclose(pa.x_bar, fp.x_bar, atol=1e-8, rtol=0)
    assert pa.converged
    assert pa.error_estimate <= 1e-10


@SOLVER_PROPERTIES
@given(fielded_specs(k_max=4, h_min=1e-3))
def test_nested_bisection_agrees_with_fixed_point(spec):
    fp = solve_fixed_point(spec, tol=1e-13)
    nb = solve_nested_bisection(spec)
    np.testing.assert_allclose(nb.x_bar, fp.x_bar, atol=1e-10, rtol=0)
    assert nb.converged


@SOLVER_PROPERTIES
@given(fielded_specs(), st.floats(1e-3, 1.0))
def test_fixed_point_monotone_in_uniform_field(spec, increase):
    tol = 1e-11
    base = solve_fixed_point(spec, tol=tol).x_bar
    bumped = solve_fixed_point(spec.with_updates(h=spec.h + increase), tol=tol).x_bar
    assert np.all(bumped >= base - 2 * tol)


@SOLVER_PROPERTIES
@given(fielded_specs())
def test_nishimori_residual_small_at_solution_arguments(spec):
    sol = solve_fixed_point(spec, tol=1e-11)
    args = np.maximum(build_effective(spec).m @ sol.x_bar + spec.h, 0.0)
    worst = max(nishimori_residual(a, n) for a in args for n in (1, 2, 3))
    assert worst < 1e-10

"""The independent references agree with closed forms.

Run with ``python -m pytest perfbench`` from the root of the repository.
"""

import math

import numpy as np
import pytest

import reference as ref


def test_big_f_closed_forms():
    assert ref.big_f(0.0) == 0.0
    assert ref.big_f_prime(0.0) == 1.0
    # F(h) = h - h^2 + O(h^3) and F'(h) = 1 - 2h + O(h^2) near zero
    h = 1e-4
    assert abs(ref.big_f(h) - (h - h * h)) < 5 * h**3
    assert abs(ref.big_f_prime(h) - (1.0 - 2.0 * h)) < 20 * h**2
    # F -> 1 and F' -> 0 for large h, about as fast as exp(-h / 2)
    assert 0.0 < 1.0 - ref.big_f(40.0) < 1e-8
    assert 0.0 < ref.big_f_prime(40.0) < 1e-8


def test_big_f_identities():
    for h in (0.05, 0.7, 3.0, 12.0):
        # F' is the derivative of F (central difference, O(step^2) error)
        step = 1e-5
        slope = (ref.big_f(h + step) - ref.big_f(h - step)) / (2 * step)
        assert abs(slope - ref.big_f_prime(h)) < 1e-8
        # F is increasing and concave
        assert ref.big_f(h) < ref.big_f(h * 1.1)
        assert ref.big_f_prime(h) > ref.big_f_prime(h * 1.1)


def test_rho_closed_forms():
    for mu in (1.0, 2.0, 3.7):
        assert ref.rho_oo([0.5, 0.5], [mu]) == pytest.approx(mu * mu / 4, rel=1e-14)
    # K = 2, alpha = (a, 1 - a): rho = mu^2 a (1 - a)
    assert ref.rho_oo([0.2, 0.8], [3.0]) == pytest.approx(9.0 * 0.16, rel=1e-14)
    # K = 3: [M^2]^(oo) = [[mu1^2 a1 a2, mu1 a2 mu2 a3], [mu2 a2 mu1 a1, mu2^2 a2 a3]],
    # a rank-one matrix whose only nonzero eigenvalue is its trace
    a, mu = [0.3, 0.5, 0.2], [2.0, 1.5]
    trace = mu[0] ** 2 * a[0] * a[1] + mu[1] ** 2 * a[1] * a[2]
    assert ref.rho_oo(a, mu) == pytest.approx(trace, rel=1e-13)
    # the optimum over the simplex, max(mu)^2 / 4, sits on the maximal edge
    assert ref.rho_oo([0.0, 0.5, 0.5, 0.0], [1.0, 3.0, 2.0]) == pytest.approx(2.25, rel=1e-13)


def test_fixed_points():
    # balanced K = 2 at h = 0: zero below mu = 2, the branch x = F(mu x / 2) above
    assert ref.balanced_pair_fixed_point(1.5) < 1e-15
    x = ref.balanced_pair_fixed_point(3.0)
    assert abs(ref.big_f(1.5 * x) - x) < 1e-14
    newton = ref.max_fixed_point([0.5, 0.5], [3.0], [0.0, 0.0])
    assert np.max(np.abs(newton - x)) < 1e-12
    # onset is linear, x ~ (mu - 2) / 2, so at mu = 2.001 x is about 5e-4
    assert ref.balanced_pair_fixed_point(2.001) == pytest.approx(4.999e-4, rel=1e-3)
    # Newton solves the consistency equation, also on a reducible chain
    for alpha, mu, h in (([0.3, 0.2, 0.3, 0.2], [2.4, 1.1, 2.9], [0.15, 0.4, 0.05, 0.3]),
                         ([0.45, 0.55, 0.0, 0.0], [3.0, 2.0, 1.5], [0.1, 0.2, 0.05, 0.3])):
        x = ref.max_fixed_point(alpha, mu, h)
        m = ref.m_matrix(alpha, mu)
        t = np.array([ref.big_f(v) for v in m @ x + np.asarray(h)])
        assert np.max(np.abs(t - x)) < 1e-13
    # a layer of weight zero does not act back: its field is h_r alone
    assert x[3] == pytest.approx(ref.big_f(0.3), abs=1e-14)


def test_zero_field_phase_rule():
    assert ref.zero_field_phase(0.9) == "zero_solution"
    assert ref.zero_field_phase(1.1) == "broken_symmetry"
    assert ref.zero_field_phase(1.0) == "unresolved"


def test_layer_sizes():
    assert ref.layer_sizes([0.5, 0.5], 2000) == (1000, 1000)
    assert ref.layer_sizes([0.3, 0.2, 0.25, 0.25], 24) == (7, 5, 6, 6)
    assert sum(ref.layer_sizes([0.33, 0.33, 0.34], 16)) == 16
    assert min(ref.layer_sizes([0.98, 0.01, 0.01], 10)) == 1


def test_brute_force_two_spins():
    # one spin per layer: Z = sum exp(J s1 s2 + f1 s1 + f2 s2), four states
    j, f1, f2 = 0.7, 0.3, -0.2
    res = ref.brute_force((1, 1), [np.array([[j]])], [np.array([f1]), np.array([f2])])
    weights = {(s1, s2): math.exp(j * s1 * s2 + f1 * s1 + f2 * s2)
               for s1 in (1, -1) for s2 in (1, -1)}
    z = sum(weights.values())
    m1 = sum(w * s1 for (s1, _), w in weights.items()) / z
    m2 = sum(w * s2 for (_, s2), w in weights.items()) / z
    assert res["pressure"] == pytest.approx(math.log(z) / 2, rel=1e-14)
    assert res["m"] == pytest.approx([m1, m2], rel=1e-13)
    assert res["q"] == pytest.approx([m1 * m1, m2 * m2], rel=1e-13)


def test_brute_force_decoupled_layers():
    # zero couplings: sites are independent, <s_i> = tanh(f_i)
    fields = [np.array([0.2, -0.5, 1.0]), np.array([0.4, 0.1])]
    res = ref.brute_force((3, 2), [np.zeros((3, 2))], fields)
    assert res["m"] == pytest.approx([np.tanh(f).mean() for f in fields], rel=1e-13)
    log_z = sum(np.log(2 * np.cosh(f)).sum() for f in fields)
    assert res["pressure"] == pytest.approx(log_z / 5, rel=1e-14)


def test_disorder_is_reproducible():
    a = ref.disorder([0.5, 0.5], [4.0], [0.1, 0.1], 16, 7, 3)
    b = ref.disorder([0.5, 0.5], [4.0], [0.1, 0.1], 16, 7, 3)
    c = ref.disorder([0.5, 0.5], [4.0], [0.1, 0.1], 16, 7, 4)
    assert np.array_equal(a[1][0], b[1][0]) and not np.array_equal(a[1][0], c[1][0])
    # each pair coupling is the sum of two N(mu/2N, mu/2N) blocks: N(mu/N, mu/N)
    sizes, pairs, _ = ref.disorder([0.5, 0.5], [4.0], [0.1, 0.1], 400, 1, 0)
    assert pairs[0].mean() == pytest.approx(4.0 / 400, abs=5e-4)
    assert pairs[0].var() == pytest.approx(4.0 / 400, rel=0.02)

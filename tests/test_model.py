"""Model construction, parity splits, and spectral quantities."""

import numpy as np
import pytest

from nishimori_dbm.model import (
    ModelSpec,
    build_effective,
    decouple,
    m_squared_oo,
    odd_even_split,
    perron_vector,
    spectral_radius_oo,
)


def random_spec(rng, k, h_high=1.0, mu_high=3.0, alpha_low=0.1):
    alpha = rng.uniform(alpha_low, 1.0, size=k)
    alpha /= alpha.sum()
    return ModelSpec(k=k, alpha=alpha, mu=rng.uniform(0.1, mu_high, size=k - 1),
                     h=rng.uniform(0.0, h_high, size=k))


class TestModelSpec:
    def test_valid_construction(self):
        spec = ModelSpec(k=3, alpha=[0.2, 0.3, 0.5], mu=[1.0, 2.0], h=[0.0, 0.1, 0.2])
        assert spec.mu_matrix()[0, 1] == 1.0
        assert spec.mu_matrix()[2, 1] == 2.0

    @pytest.mark.parametrize("kwargs", [
        {"k": 1, "alpha": [1.0], "mu": [], "h": [0.0]},
        {"k": 2, "alpha": [0.6, 0.6], "mu": [1.0], "h": [0.0, 0.0]},   # sum != 1
        {"k": 2, "alpha": [-0.1, 1.1], "mu": [1.0], "h": [0.0, 0.0]},  # negative
        {"k": 2, "alpha": [0.5, 0.5], "mu": [-1.0], "h": [0.0, 0.0]},
        {"k": 2, "alpha": [0.5, 0.5], "mu": [1.0], "h": [-0.5, 0.0]},
        {"k": 2, "alpha": [0.5, 0.5], "mu": [1.0, 2.0], "h": [0.0, 0.0]},
    ])
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            ModelSpec(**kwargs)

    @pytest.mark.parametrize("field", ["alpha", "mu", "h"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, field, bad):
        kwargs = {"k": 2, "alpha": [0.5, 0.5], "mu": [1.0], "h": [0.0, 0.0]}
        kwargs[field] = [bad] + kwargs[field][1:]
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ModelSpec(**kwargs)

    @pytest.mark.parametrize("k", [2.7, 2.0, "2", True])
    def test_non_integer_k_rejected(self, k):
        data = {"K": k, "alpha": [0.5, 0.5], "mu": [1.0], "h": [0.0, 0.0]}
        with pytest.raises(ValueError, match="integer"):
            ModelSpec.from_dict(data)
        assert ModelSpec.from_dict({**data, "K": np.int64(2)}).k == 2

    def test_dict_round_trip(self):
        spec = ModelSpec(k=2, alpha=[0.4, 0.6], mu=[2.5], h=[0.1, 0.2])
        again = ModelSpec.from_dict(spec.to_dict())
        np.testing.assert_array_equal(spec.alpha, again.alpha)
        with pytest.raises(ValueError):
            ModelSpec.from_dict({**spec.to_dict(), "extra": 1})

    def test_arrays_immutable(self):
        spec = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[1.0], h=[0.0, 0.0])
        with pytest.raises(ValueError):
            spec.alpha[0] = 0.3


class TestBuildEffective:
    def test_k2_balanced(self):
        spec = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[4.0], h=[0.0, 0.0])
        em = build_effective(spec)
        np.testing.assert_allclose(em.delta, [[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(em.m, [[0.0, 2.0], [2.0, 0.0]])

    def test_zero_alpha_kills_row_and_column(self):
        spec = ModelSpec(k=3, alpha=[0.5, 0.0, 0.5], mu=[1.0, 2.0], h=[0.0] * 3)
        em = build_effective(spec)
        assert not em.delta[1].any() and not em.delta[:, 1].any()

    def test_k4_hand_values(self):
        spec = ModelSpec(k=4, alpha=[0.1, 0.2, 0.3, 0.4], mu=[1.0, 2.0, 3.0],
                         h=[0.0] * 4)
        em = build_effective(spec)
        assert em.m[1, 2] == pytest.approx(2.0 * 0.3)        # M_23
        assert em.m[2, 1] == pytest.approx(2.0 * 0.2)        # M_32
        assert em.delta[1, 2] == pytest.approx(0.2 * 2.0 * 0.3)  # Delta_23
        assert em.delta[0, 1] == pytest.approx(0.1 * 1.0 * 0.2)

    def test_delta_equals_alpha_m(self):
        rng = np.random.default_rng(5)
        for k in (2, 3, 5, 6):
            spec = random_spec(rng, k)
            em = build_effective(spec)
            np.testing.assert_allclose(em.delta, np.diag(spec.alpha) @ em.m,
                                       atol=1e-15)


class TestOddEvenSplit:
    def test_identity_matrix(self):
        split = odd_even_split(np.eye(4))
        np.testing.assert_array_equal(split.oo, np.eye(2))
        np.testing.assert_array_equal(split.ee, np.eye(2))
        assert not split.oe.any() and not split.eo.any()

    def test_tridiagonal_parity_blocks_vanish(self):
        spec = ModelSpec(k=4, alpha=[0.25] * 4, mu=[1.0, 2.0, 3.0], h=[0.0] * 4)
        split = odd_even_split(build_effective(spec).m)
        assert not split.oo.any() and not split.ee.any()

    def test_eo_block_and_reassembly(self):
        spec = ModelSpec(k=4, alpha=[0.1, 0.2, 0.3, 0.4], mu=[1.0, 2.0, 3.0],
                         h=[0.0] * 4)
        m = build_effective(spec).m
        split = odd_even_split(m)
        # even rows (2, 4), odd columns (1, 3): upper triangular
        np.testing.assert_allclose(split.eo, [[m[1, 0], m[1, 2]], [0.0, m[3, 2]]])
        np.testing.assert_array_equal(split.reassemble(), m)

    def test_odd_sizes(self):
        a = np.arange(25.0).reshape(5, 5)
        split = odd_even_split(a)
        assert split.oo.shape == (3, 3) and split.ee.shape == (2, 2)
        np.testing.assert_array_equal(split.reassemble(), a)

    def test_symmetric_parent_blocks_transpose(self):
        rng = np.random.default_rng(6)
        spec = random_spec(rng, 6)
        delta = build_effective(spec).delta
        split = odd_even_split(delta)
        assert split.oe.shape == (3, 3) == split.eo.shape
        np.testing.assert_array_equal(split.oe, split.eo.T)


class TestSpectralRadius:
    def test_k2_closed_form(self):
        for mu, expected in ((2.0, 1.0), (4.0, 4.0)):
            spec = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[mu], h=[0.0, 0.0])
            assert spectral_radius_oo(build_effective(spec)) == pytest.approx(
                expected, abs=1e-12)
        # closed form mu^2 alpha1 alpha2 off balance
        spec = ModelSpec(k=2, alpha=[0.3, 0.7], mu=[3.0], h=[0.0, 0.0])
        assert spectral_radius_oo(build_effective(spec)) == pytest.approx(
            9.0 * 0.21, abs=1e-12)

    def test_quadratic_scaling_in_mu(self):
        rng = np.random.default_rng(7)
        spec = random_spec(rng, 5)
        c = 1.7
        scaled = spec.with_updates(mu=c * spec.mu)
        assert spectral_radius_oo(build_effective(scaled)) == pytest.approx(
            c**2 * spectral_radius_oo(build_effective(spec)), rel=1e-10)

    def test_oo_equals_ee_for_even_k(self):
        rng = np.random.default_rng(8)
        for k in (2, 4, 6):
            em = build_effective(random_spec(rng, k))
            m2 = em.m @ em.m
            rho_ee = np.max(np.abs(np.linalg.eigvals(odd_even_split(m2).ee)))
            assert spectral_radius_oo(em) == pytest.approx(rho_ee, abs=1e-10)

    def test_reversal_invariance(self):
        rng = np.random.default_rng(9)
        for k in (3, 4, 6):
            spec = random_spec(rng, k)
            rev = ModelSpec(k=k, alpha=spec.alpha[::-1].copy(),
                            mu=spec.mu[::-1].copy(), h=spec.h[::-1].copy())
            assert spectral_radius_oo(build_effective(spec)) == pytest.approx(
                spectral_radius_oo(build_effective(rev)), abs=1e-10)

    def test_subcritical_for_mu_below_two(self):
        # every mu < 2 keeps rho < 1 for any simplex alpha
        rng = np.random.default_rng(10)
        for _ in range(4):
            mu = rng.uniform(0.05, 1.999, size=3)
            for _ in range(50):
                alpha = rng.dirichlet(np.ones(4))
                spec = ModelSpec(k=4, alpha=alpha, mu=mu, h=[0.0] * 4)
                assert spectral_radius_oo(build_effective(spec)) < 1.0

    def test_zero_couplings(self):
        spec = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[0.0], h=[0.0, 0.0])
        assert spectral_radius_oo(build_effective(spec)) == 0.0


class TestPerronVector:
    def test_k2_single_component(self):
        spec = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[4.0], h=[0.0, 0.0])
        v = perron_vector(build_effective(spec))
        np.testing.assert_allclose(v, [1.0])

    def test_symmetric_k5_equal_end_components(self):
        # chain reversal preserves layer parity only for odd K; for K=5 it
        # swaps layers 1 and 5, forcing their Perron components to agree
        spec = ModelSpec(k=5, alpha=[0.2] * 5, mu=[1.5] * 4, h=[0.0] * 5)
        v = perron_vector(build_effective(spec))
        assert v[0] == pytest.approx(v[2], abs=1e-10)

    def test_symmetric_k4_golden_ratio(self):
        # uniform K=4 gives the odd-odd block c^2 a^2 [[1, 1], [1, 2]], whose
        # Perron vector has component ratio (1 + sqrt 5) / 2
        spec = ModelSpec(k=4, alpha=[0.25] * 4, mu=[1.5, 1.5, 1.5], h=[0.0] * 4)
        v = perron_vector(build_effective(spec))
        assert v[1] / v[0] == pytest.approx((1.0 + np.sqrt(5.0)) / 2.0, abs=1e-10)

    def test_k6_eigen_residual(self):
        rng = np.random.default_rng(12)
        spec = random_spec(rng, 6)
        em = build_effective(spec)
        v = perron_vector(em)
        rho = spectral_radius_oo(em)
        block = m_squared_oo(em)
        assert np.max(np.abs(block @ v - rho * v)) < 1e-10
        assert np.all(v > 0.0)
        assert v.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_reducible(self):
        spec = ModelSpec(k=4, alpha=[0.5, 0.5, 0.0, 0.0], mu=[1.0, 1.0, 1.0],
                         h=[0.0] * 4)
        with pytest.raises(ValueError, match="alpha"):
            perron_vector(build_effective(spec))
        spec = ModelSpec(k=4, alpha=[0.25] * 4, mu=[1.0, 0.0, 1.0], h=[0.0] * 4)
        with pytest.raises(ValueError):
            perron_vector(build_effective(spec))


class TestDecouple:
    def test_irreducible_is_single_segment(self):
        spec = ModelSpec(k=4, alpha=[0.25] * 4, mu=[1.0, 1.0, 1.0], h=[0.0] * 4)
        assert decouple(spec) == [(0, 4)]

    def test_zero_edge_splits(self):
        spec = ModelSpec(k=4, alpha=[0.25] * 4, mu=[1.0, 0.0, 1.0], h=[0.0] * 4)
        assert decouple(spec) == [(0, 2), (2, 4)]

    def test_zero_alpha_layer_excluded(self):
        spec = ModelSpec(k=5, alpha=[0.3, 0.3, 0.0, 0.2, 0.2],
                         mu=[1.0, 1.0, 1.0, 1.0], h=[0.0] * 5)
        assert decouple(spec) == [(0, 2), (3, 5)]

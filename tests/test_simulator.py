"""Finite-N simulator: disorder law, energies, enumeration, Gibbs sampling.

The brute-force oracle enumerates all 2^N states of the full Hamiltonian
(both ordered coupling blocks, re-drawn from the disorder stream and
transcribed term by term) and is the reference for the production
enumeration engine.
"""

import math
import warnings

import numpy as np
import pytest

from nishimori_dbm.model import ModelSpec
from nishimori_dbm.simulator import (
    EngineKind,
    SystemSize,
    energy,
    exact_enumerate,
    heat_bath_probability,
    layer_sizes_for,
    quenched_run,
    run_block_gibbs,
    sample_disorder,
)
from oracles import block_gibbs_reference, redraw_blocks

SPEC_K2 = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[4.0], h=[0.1, 0.1])
SPECS_BY_K = {
    2: SPEC_K2,
    3: ModelSpec(k=3, alpha=[0.3, 0.4, 0.3], mu=[3.0, 2.5], h=[0.1, 0.05, 0.2]),
    4: ModelSpec(k=4, alpha=[0.3, 0.2, 0.25, 0.25], mu=[3.0, 2.5, 3.5],
                 h=[0.1, 0.2, 0.05, 0.15]),
    5: ModelSpec(k=5, alpha=[0.2] * 5, mu=[3.0, 2.0, 2.5, 3.0],
                 h=[0.1, 0.0, 0.2, 0.05, 0.1]),
}


def brute_force_reference(disorder):
    """All-states transcription of the Hamiltonian: p_N, <sigma_i>, <q_r>."""
    n = disorder.size.n
    k = disorder.spec.k
    off = disorder.size.offsets()
    j_forward, j_backward = redraw_blocks(disorder.spec, disorder.size, disorder.seed,
                                          disorder.sample_index)
    states = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0
    energies = np.zeros(1 << n)
    for s_idx in range(1 << n):
        sigma = states[s_idx]
        e = 0.0
        for r in range(k - 1):
            a = sigma[off[r]:off[r + 1]]
            b = sigma[off[r + 1]:off[r + 2]]
            for i in range(len(a)):
                for j in range(len(b)):
                    e -= j_forward[r][i, j] * a[i] * b[j]
                    e -= j_backward[r][j, i] * b[j] * a[i]
        for r in range(k):
            e -= float(disorder.fields[r] @ sigma[off[r]:off[r + 1]])
        energies[s_idx] = e
    log_weights = -energies
    m = log_weights.max()
    z = np.exp(log_weights - m)
    weights = z / z.sum()
    log_z = m + math.log(z.sum())
    site_mag = weights @ states
    return log_z / n, site_mag


class TestLayerSizes:
    def test_balanced(self):
        assert layer_sizes_for(SPEC_K2, 16) == (8, 8)

    def test_largest_remainder(self):
        spec = ModelSpec(k=3, alpha=[0.5, 0.3, 0.2], mu=[1.0, 1.0], h=[0.0] * 3)
        sizes = layer_sizes_for(spec, 10)
        assert sizes == (5, 3, 2)
        assert sum(layer_sizes_for(spec, 11)) == 11

    def test_minimum_one_site(self):
        spec = ModelSpec(k=3, alpha=[0.98, 0.01, 0.01], mu=[1.0, 1.0], h=[0.0] * 3)
        sizes = layer_sizes_for(spec, 12)
        assert min(sizes) >= 1 and sum(sizes) == 12

    def test_system_size_validation(self):
        with pytest.raises(ValueError):
            SystemSize(n=5, layer_sizes=(3, 3))


class TestSampleDisorder:
    def test_deterministic(self):
        size = SystemSize.from_spec(SPEC_K2, 12)
        a = sample_disorder(SPEC_K2, size, 7, sample_index=3)
        b = sample_disorder(SPEC_K2, size, 7, sample_index=3)
        assert all(np.array_equal(x, y) for x, y in zip(a.pair, b.pair))
        assert all(np.array_equal(x, y) for x, y in zip(a.fields, b.fields))
        c = sample_disorder(SPEC_K2, size, 7, sample_index=4)
        assert not np.array_equal(a.pair[0], c.pair[0])

    def test_zero_coupling_block(self):
        spec = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[0.0], h=[0.1, 0.1])
        size = SystemSize.from_spec(spec, 10)
        d = sample_disorder(spec, size, 1)
        assert not d.pair[0].any()

    def test_block_statistics(self):
        # 10^6 entries of P = Jf + Jb^T: mean and variance both mu / N (the
        # mean-equals-variance line), the mean within 5 standard errors
        spec = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[2.0], h=[0.0, 0.0])
        n = 2000
        size = SystemSize.from_spec(spec, n)
        d = sample_disorder(spec, size, 99)
        entries = d.pair[0].ravel()
        mean, var = 2.0 / n, 2.0 / n
        se = math.sqrt(var / entries.size)
        assert abs(entries.mean() - mean) < 5 * se
        assert np.var(entries) == pytest.approx(var, rel=0.01)

    def test_pair_coupling_combines_blocks(self):
        spec = SPECS_BY_K[3]
        size = SystemSize.from_spec(spec, 10)
        d = sample_disorder(spec, size, 5, sample_index=2)
        j_forward, j_backward = redraw_blocks(spec, size, 5, 2)
        for r in range(spec.k - 1):
            np.testing.assert_array_equal(d.pair[r], j_forward[r] + j_backward[r].T)


class TestEnergy:
    def test_zero_disorder(self):
        spec = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[0.0], h=[0.0, 0.0])
        size = SystemSize.from_spec(spec, 8)
        d = sample_disorder(spec, size, 0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            sigma = rng.choice([-1.0, 1.0], size=8)
            assert energy(sigma, d) == 0.0

    def test_global_flip_invariance_without_fields(self):
        spec = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[3.0], h=[0.0, 0.0])
        size = SystemSize.from_spec(spec, 10)
        d = sample_disorder(spec, size, 2)
        rng = np.random.default_rng(2)
        sigma = rng.choice([-1.0, 1.0], size=10)
        assert energy(sigma, d) == pytest.approx(energy(-sigma, d), abs=1e-12)

    def test_against_transcription(self):
        spec = ModelSpec(k=3, alpha=[0.375, 0.25, 0.375], mu=[1.5, 2.5],
                         h=[0.2, 0.1, 0.3])
        size = SystemSize.from_spec(spec, 8)
        d = sample_disorder(spec, size, 3)
        j_forward, j_backward = redraw_blocks(spec, size, 3)
        off = size.offsets()
        rng = np.random.default_rng(3)
        for _ in range(10):
            sigma = rng.choice([-1.0, 1.0], size=8)
            e = 0.0
            for r in range(2):
                for i in range(size.layer_sizes[r]):
                    for j in range(size.layer_sizes[r + 1]):
                        si = sigma[off[r] + i]
                        sj = sigma[off[r + 1] + j]
                        e -= j_forward[r][i, j] * si * sj
                        e -= j_backward[r][j, i] * sj * si
            for r in range(3):
                e -= float(d.fields[r] @ sigma[off[r]:off[r + 1]])
            assert energy(sigma, d) == pytest.approx(e, abs=1e-12)

    def test_length_mismatch(self):
        size = SystemSize.from_spec(SPEC_K2, 8)
        d = sample_disorder(SPEC_K2, size, 0)
        with pytest.raises(ValueError):
            energy(np.ones(7), d)


class TestExactEnumerate:
    def test_zero_disorder_gives_log2(self):
        spec = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[0.0], h=[0.0, 0.0])
        size = SystemSize.from_spec(spec, 12)
        est = exact_enumerate(sample_disorder(spec, size, 0))
        assert est.pressure == pytest.approx(math.log(2.0), abs=1e-12)
        np.testing.assert_allclose(est.m, 0.0, atol=1e-14)
        np.testing.assert_allclose(est.q, 0.0, atol=1e-14)
        assert est.method is EngineKind.ENUMERATION
        assert not est.stderr_m.any()

    def test_two_spins_closed_form(self):
        # single coupling J and fields: p_2 = log(sum over 4 configs) / 2
        spec = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[2.0], h=[0.3, 0.7])
        size = SystemSize(n=2, layer_sizes=(1, 1))
        d = sample_disorder(spec, size, 11)
        j_forward, j_backward = redraw_blocks(spec, size, 11)
        j = j_forward[0][0, 0] + j_backward[0][0, 0]
        h1, h2 = d.fields[0][0], d.fields[1][0]
        z = sum(
            math.exp(j * s1 * s2 + h1 * s1 + h2 * s2)
            for s1 in (-1, 1) for s2 in (-1, 1)
        )
        est = exact_enumerate(d)
        assert est.pressure == pytest.approx(math.log(z) / 2.0, abs=1e-12)

    @pytest.mark.parametrize("k,n", [(2, 8), (3, 9), (2, 11)])
    def test_against_brute_force(self, k, n):
        rng = np.random.default_rng(k * 100 + n)
        alpha = rng.dirichlet(np.ones(k) * 4)
        spec = ModelSpec(k=k, alpha=alpha, mu=rng.uniform(0.5, 3.0, size=k - 1),
                         h=rng.uniform(0.05, 0.5, size=k))
        size = SystemSize.from_spec(spec, n)
        d = sample_disorder(spec, size, 21)
        est = exact_enumerate(d)
        p_ref, site_ref = brute_force_reference(d)
        assert est.pressure == pytest.approx(p_ref, abs=1e-10)
        np.testing.assert_allclose(est.site_mag, site_ref, atol=1e-10)

    def test_overlap_equals_two_replica_sum(self):
        # <q_r> from <sigma_i>^2 equals the two-replica double sum, which
        # factorizes because replicas are independent given the disorder
        size = SystemSize.from_spec(SPEC_K2, 10)
        d = sample_disorder(SPEC_K2, size, 31)
        est = exact_enumerate(d)
        _, site_mag = brute_force_reference(d)
        off = size.offsets()
        for r in range(2):
            block = site_mag[off[r]:off[r + 1]]
            assert est.q[r] == pytest.approx(float(np.mean(block**2)), abs=1e-10)

    def test_size_cap(self):
        spec = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[1.0], h=[0.0, 0.0])
        size = SystemSize.from_spec(spec, 26)
        with pytest.raises(ValueError, match="capped"):
            exact_enumerate(sample_disorder(spec, size, 0))

    def test_global_flip_cancellation_at_zero_field(self):
        # h_r = 0 draws exactly zero fields, so <m_r> vanishes sample by
        # sample under the spin-flip symmetry of the two-body terms
        spec = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[4.0], h=[0.0, 0.0])
        size = SystemSize.from_spec(spec, 14)
        for seed in (1, 2, 3):
            est = exact_enumerate(sample_disorder(spec, size, seed))
            np.testing.assert_allclose(est.m, 0.0, atol=1e-12)
            assert np.all(est.q >= 0.0)


class TestBlockGibbs:
    def test_heat_bath_ratio_exact_on_two_states(self):
        # P(+1) / P(-1) = exp(2 f): detailed balance for one site
        for f in (-1.3, 0.0, 0.4, 2.0):
            p = heat_bath_probability(f)
            assert p / (1 - p) == pytest.approx(math.exp(2 * f), rel=1e-12)

    def test_independent_spins_match_tanh_of_field(self):
        spec = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[0.0], h=[0.6, 0.6])
        size = SystemSize.from_spec(spec, 40)
        d = sample_disorder(spec, size, 17)
        est = run_block_gibbs(d, sweeps=4000, burn_in=500)
        target = np.tanh(np.concatenate(d.fields))
        dev = np.abs(est.site_mag - target)
        # site-level 4-sigma bound with sigma ~ 1/sqrt(measured sweeps)
        assert np.mean(dev) < 4.0 / math.sqrt(3500)
        assert np.max(dev) < 0.1

    def test_matches_enumeration_at_n16(self):
        size = SystemSize.from_spec(SPEC_K2, 16)
        d = sample_disorder(SPEC_K2, size, 23)
        exact = exact_enumerate(d)
        est = run_block_gibbs(d, sweeps=12000, burn_in=2000)
        for r in range(2):
            tol = 4.0 * max(est.stderr_m[r], 1e-3)
            assert abs(est.m[r] - exact.m[r]) < tol
            tol_q = 4.0 * max(est.stderr_q[r], 1e-3)
            assert abs(est.q[r] - exact.q[r]) < tol_q

    def test_deterministic_given_seed(self):
        size = SystemSize.from_spec(SPEC_K2, 12)
        d = sample_disorder(SPEC_K2, size, 5)
        a = run_block_gibbs(d, sweeps=200, burn_in=50)
        b = run_block_gibbs(d, sweeps=200, burn_in=50)
        np.testing.assert_array_equal(a.m, b.m)

    def test_argument_validation(self):
        size = SystemSize.from_spec(SPEC_K2, 12)
        d = sample_disorder(SPEC_K2, size, 5)
        with pytest.raises(ValueError):
            run_block_gibbs(d, sweeps=10, burn_in=10)
        with pytest.raises(ValueError):
            run_block_gibbs(d, sweeps=10, burn_in=0, n_replicas=1)

    @pytest.mark.parametrize("kwargs", [
        {"sweeps": 40, "burn_in": 10, "batches": 0},
        {"sweeps": 40, "burn_in": 10, "batches": 1},
        {"sweeps": 11, "burn_in": 10},
    ])
    def test_rejects_too_few_batches_or_measured_sweeps(self, kwargs):
        # these gave ZeroDivisionError or NaN standard errors
        d = sample_disorder(SPEC_K2, SystemSize.from_spec(SPEC_K2, 12), 5)
        with pytest.raises(ValueError):
            run_block_gibbs(d, **kwargs)

    def test_strong_coupling_does_not_warn(self):
        strong = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[800.0], h=[0.1, 0.1])
        d = sample_disorder(strong, SystemSize.from_spec(strong, 40), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert heat_bath_probability(-400.0) == 0.0
            est = run_block_gibbs(d, sweeps=30, burn_in=10)
        assert np.all(np.isfinite(est.m))

    @pytest.mark.parametrize("n_replicas", [2, 3])
    @pytest.mark.parametrize("n", [12, 40, 400])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_reference_sampler_bitwise(self, k, n, n_replicas):
        # 250 sweeps pass two periodic field resyncs; the random start
        # flips about half of each layer, past the full-product share
        spec = SPECS_BY_K[k]
        d = sample_disorder(spec, SystemSize.from_spec(spec, n), 100 + n + k,
                            sample_index=1)
        self._assert_matches_reference(d, n_replicas)

    @pytest.mark.parametrize("spec", [
        ModelSpec(k=2, alpha=[0.5, 0.5], mu=[0.0], h=[0.6, 0.6]),
        ModelSpec(k=3, alpha=[0.02, 0.96, 0.02], mu=[3.0, 3.0], h=[0.1, 0.1, 0.1]),
    ], ids=["mu-zero", "one-site-layers"])
    def test_matches_reference_sampler_on_edge_chains(self, spec):
        d = sample_disorder(spec, SystemSize.from_spec(spec, 40), 9)
        self._assert_matches_reference(d, 2)

    @staticmethod
    def _assert_matches_reference(d, n_replicas):
        ref = block_gibbs_reference(d, sweeps=250, burn_in=50, n_replicas=n_replicas)
        est = run_block_gibbs(d, sweeps=250, burn_in=50, n_replicas=n_replicas)
        for key in ("m", "q", "stderr_m", "stderr_q", "site_mag", "site_overlap"):
            np.testing.assert_array_equal(getattr(est, key), getattr(ref, key), err_msg=key)
        assert est.diagnostics["tau_int_m"] == ref.diagnostics["tau_int_m"]
        # more recomputations than the periodic ones: the flip-share rule fired
        periodic = 2 * n_replicas * (d.spec.k - 1)
        assert est.diagnostics["field_resyncs"] > periodic

    def test_kept_fields_drift_stays_at_rounding_level(self):
        d = sample_disorder(SPEC_K2, SystemSize.from_spec(SPEC_K2, 2000), 20260811)
        est = run_block_gibbs(d, sweeps=300, burn_in=100)
        assert est.diagnostics["field_resyncs"] >= 3 * 2
        assert 0.0 < est.diagnostics["max_field_drift"] <= 1e-12


class TestQuenchedRun:
    def test_nishimori_identity_layerwise(self):
        size = SystemSize.from_spec(SPEC_K2, 16)
        report = quenched_run(SPEC_K2, size, 120, 777, engine="enumeration")
        for r in range(2):
            combined = math.hypot(report.m_stderr[r], report.q_stderr[r])
            assert abs(report.m_mean[r] - report.q_mean[r]) < 4 * combined
        assert abs(report.nishimori_site_gap) < 4 * report.nishimori_site_stderr

    @pytest.mark.parametrize("engine,n,n_disorder", [
        ("enumeration", 12, 16), ("block_gibbs", 40, 6)])
    def test_rows_are_samples_run_alone(self, engine, n, n_disorder):
        # sample i depends only on (seed, i): row i is its estimate alone
        size = SystemSize.from_spec(SPEC_K2, n)
        kwargs = {"sweeps": 150, "burn_in": 30} if engine == "block_gibbs" else {}
        report = quenched_run(SPEC_K2, size, n_disorder, 31, engine=engine,
                              solve_theory=False, **kwargs)
        for i in range(n_disorder):
            d = sample_disorder(SPEC_K2, size, 31, sample_index=i)
            alone = (exact_enumerate(d) if engine == "enumeration"
                     else run_block_gibbs(d, **kwargs))
            np.testing.assert_array_equal(report.m_samples[i], alone.m)
            np.testing.assert_array_equal(report.q_samples[i], alone.q)
            if engine == "enumeration":
                assert report.p_samples[i] == alone.pressure

    def test_magnetization_monotone_in_field(self):
        # separated by 4 combined stderr at two field strengths
        weak = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[4.0], h=[0.05, 0.05])
        strong = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[4.0], h=[0.6, 0.6])
        size_w = SystemSize.from_spec(weak, 14)
        size_s = SystemSize.from_spec(strong, 14)
        rep_w = quenched_run(weak, size_w, 120, 91, engine="enumeration")
        rep_s = quenched_run(strong, size_s, 120, 91, engine="enumeration")
        for r in range(2):
            gap = rep_s.m_mean[r] - rep_w.m_mean[r]
            assert gap > 4 * math.hypot(rep_s.m_stderr[r], rep_w.m_stderr[r])

    def test_pressure_self_averaging_rate(self):
        # Var(p_N) ~ C/N: doubling N halves the variance within a factor 2
        spec = SPEC_K2
        rep_12 = quenched_run(spec, SystemSize.from_spec(spec, 12), 150, 555,
                              engine="enumeration")
        rep_24 = quenched_run(spec, SystemSize.from_spec(spec, 24), 150, 555,
                              engine="enumeration")
        ratio = rep_12.p_variance / rep_24.p_variance
        assert 1.0 < ratio < 4.0

    def test_theory_column_attached(self):
        size = SystemSize.from_spec(SPEC_K2, 12)
        report = quenched_run(SPEC_K2, size, 4, 1, engine="enumeration")
        np.testing.assert_allclose(report.theory_x, 0.6651377858821612, atol=1e-8)

    def test_gibbs_engine_report(self):
        size = SystemSize.from_spec(SPEC_K2, 24)
        report = quenched_run(SPEC_K2, size, 6, 42, engine="block_gibbs",
                              sweeps=400, burn_in=100)
        assert report.engine is EngineKind.BLOCK_GIBBS
        assert report.p_mean is None
        assert report.m_samples.shape == (6, 2)

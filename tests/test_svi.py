"""Stochastic bound: moments, KL, mini-batching, and bound ordering."""

import itertools

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from wsmgp import checks, kernels, svi
from wsmgp.bounds import build_cvb_system, elbo_cvb
from wsmgp.svi import elbo_svb, expected_loglik_terms, gaussian_kl_u, optimal_qu

_LOG2PI = np.log(2 * np.pi)


def rand_spd(rng, q, scale=1.0):
    A = rng.normal(size=(q, q))
    return scale * (np.eye(q) + A @ A.T / q)


def _qf_moments(sys, hp, m, mu_u, Su):
    """Moments of q(f_m) at every row, from the engine's factors of Kuu and Kfu_m."""
    kffd = np.full(len(sys.rows[m]), kernels.kff_diag_value(hp.outputs[m], hp.latent))
    phi, r = svi._row_constants(sys.cho_Kuu, sys.fu_blocks[m].K, kffd)
    mu, var = svi._qu_moments(phi, r, mu_u, Su)
    return mu, var, kffd


class TestQfMoments:
    def test_prior_q_collapses_correction(self):
        ds, cfg, hp, state = checks.random_instance(0, n=5, M=2, Q=3)
        sys = build_cvb_system(ds, cfg, hp, state)
        mu, var, kffd = _qf_moments(sys, hp, 0, np.zeros(3), sys.Kuu.copy())
        np.testing.assert_allclose(mu, 0.0, atol=1e-12)
        np.testing.assert_allclose(var, kffd, rtol=1e-9)

    def test_su_zero_gives_nystrom_residual(self):
        ds, cfg, hp, state = checks.random_instance(1, n=5, M=2, Q=3)
        sys = build_cvb_system(ds, cfg, hp, state)
        _, var, _ = _qf_moments(sys, hp, 1, np.zeros(3), np.zeros((3, 3)))
        np.testing.assert_allclose(var, np.diag(sys.B_blocks[1]), rtol=1e-8, atol=1e-12)

    def test_matches_dense_joint_marginalization(self):
        rng = np.random.default_rng(2)
        ds, cfg, hp, state = checks.random_instance(2, n=3, M=1, Q=2)
        sys = build_cvb_system(ds, cfg, hp, state)
        mu_u = rng.normal(size=2)
        Su = rand_spd(rng, 2, 0.5)
        mu, var, _ = _qf_moments(sys, hp, 0, mu_u, Su)
        # independent dense construction of q(f) = int p(f|u) q(u) du
        Kfu = kernels.kfu_matrix(ds.X, hp.inducing.W, hp.outputs[0], hp.latent)
        Kff = kernels.kff_matrix(ds.X, ds.X, hp.outputs[0], hp.outputs[0], hp.latent)
        Ki = np.linalg.inv(sys.Kuu)
        mean = Kfu @ Ki @ mu_u
        Sig = Kff + Kfu @ Ki @ (Su - sys.Kuu) @ Ki @ Kfu.T
        np.testing.assert_allclose(mu, mean, rtol=1e-8)
        np.testing.assert_allclose(var, np.diag(Sig), rtol=1e-8)


class TestGaussianKL:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(3)
        K = rand_spd(rng, 4)
        assert gaussian_kl_u(np.zeros(4), K.copy(), K) == pytest.approx(0.0, abs=1e-10)

    def test_unit_variance_mean_shift(self):
        assert gaussian_kl_u(np.array([2.0]), np.eye(1), np.eye(1)) == pytest.approx(2.0)

    def test_monte_carlo_estimate(self):
        rng = np.random.default_rng(4)
        Su = rand_spd(rng, 2, 0.7)
        Kuu = rand_spd(rng, 2, 1.3)
        mu = rng.normal(size=2)
        exact = gaussian_kl_u(mu, Su, Kuu)
        n_mc = 200_000
        Ls = np.linalg.cholesky(Su)
        z = mu[None, :] + rng.standard_normal((n_mc, 2)) @ Ls.T
        def logpdf(x, m, C):
            d = x - m
            sol = np.linalg.solve(C, d.T).T
            _, ld = np.linalg.slogdet(C)
            return -0.5 * (2 * _LOG2PI + ld + np.sum(d * sol, axis=1))
        samples = logpdf(z, mu, Su) - logpdf(z, np.zeros(2), Kuu)
        est = samples.mean()
        se = samples.std(ddof=1) / np.sqrt(n_mc)
        assert abs(exact - est) <= 3 * se


class TestElboSvb:
    def test_partition_sums_to_full_batch(self):
        ds, cfg, hp, state = checks.random_instance(5, n=9, M=2, Q=3)
        rng = np.random.default_rng(5)
        state.Su = rand_spd(rng, 3)
        state.mu_u = rng.normal(size=3)
        kuu, _ = svi._jittered_kuu(hp)
        kl = gaussian_kl_u(state.mu_u, state.Su, kuu)
        parts = [np.arange(0, 3), np.arange(3, 6), np.arange(6, 9)]
        unscaled = sum(
            (len(p) / ds.n) * (elbo_svb(ds, cfg, hp, state, batch=p) + kl)
            for p in parts
        )
        full = elbo_svb(ds, cfg, hp, state) + kl
        assert unscaled == pytest.approx(full, abs=1e-10)

    def test_minibatch_unbiased_over_all_batches(self):
        ds, cfg, hp, state = checks.random_instance(6, n=6, M=2, Q=3)
        rng = np.random.default_rng(6)
        state.Su = rand_spd(rng, 3)
        state.mu_u = rng.normal(size=3)
        full = elbo_svb(ds, cfg, hp, state)
        vals = [
            elbo_svb(ds, cfg, hp, state, batch=np.array(b))
            for b in itertools.combinations(range(6), 2)
        ]
        assert np.mean(vals) == pytest.approx(full, abs=1e-8)

    def test_one_hot_closed_form_by_hand(self):
        # 3 observations, q(u) = prior, one-hot (floored) assignments
        ds, cfg, hp, state = checks.random_instance(7, n=3, M=2, Q=3)
        eps = 1e-10
        assign = np.array([1, 2, 1])
        pi = np.full((3, 2), eps)
        pi[np.arange(3), assign - 1] = 1 - eps
        state.pi_hat = pi
        kuu, cho = svi._jittered_kuu(hp)
        state.mu_u = np.zeros(3)
        state.Su = kuu.copy()
        got = elbo_svb(ds, cfg, hp, state)
        # hand expansion: sum over all (n, m) pairs of
        # log N(y | 0, sig^2/pi) - 0.5 (pi/sig^2) kff_diag, plus V, minus KL(=0)
        data = 0.0
        for m in range(2):
            kffd = kernels.kff_diag_value(hp.outputs[m], hp.latent)
            for n in range(3):
                p = pi[n, m]
                s2 = hp.noise.sigma[m] ** 2 / p
                data += -0.5 * (np.log(2 * np.pi * s2) + ds.y[n] ** 2 / s2)
                data += -0.5 * (p / hp.noise.sigma[m] ** 2) * kffd
        from wsmgp.bounds import vterm
        from wsmgp.model import refresh_alpha_hat

        refresh_alpha_hat(state, ds, cfg.alpha0)
        expect = data + vterm(state, ds, cfg, hp.noise)
        assert got == pytest.approx(expect, rel=1e-9)

    def test_translation_consistency(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=5)
        mu = rng.normal(size=5)
        var = rng.uniform(0.1, 1.0, 5)
        pi = rng.uniform(0.2, 0.9, 5)
        a = expected_loglik_terms(y, mu, var, pi, 0.3)
        b = expected_loglik_terms(y + 1.7, mu + 1.7, var, pi, 0.3)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_dominated_by_collapsed_bound(self):
        for seed in range(20):
            ds, cfg, hp, state = checks.random_instance(seed, n=8, M=2, Q=4)
            rng = np.random.default_rng(seed + 1000)
            state.Su = rand_spd(rng, 4, rng.uniform(0.3, 2.0))
            state.mu_u = rng.normal(size=4)
            assert elbo_svb(ds, cfg, hp, state) <= elbo_cvb(ds, cfg, hp, state) + 1e-8


class TestOptimalQu:
    def test_improves_bound_and_is_stationary(self):
        ds, cfg, hp, state = checks.random_instance(9, n=10, M=2, Q=4)
        rng = np.random.default_rng(9)
        state.Su = rand_spd(rng, 4)
        state.mu_u = rng.normal(size=4)
        before = elbo_svb(ds, cfg, hp, state)
        state.mu_u, state.Su = optimal_qu(ds, cfg, hp, state)
        after = elbo_svb(ds, cfg, hp, state)
        assert after >= before
        # perturbations in mu_u direction do not improve
        for _ in range(5):
            d = rng.normal(size=4) * 1e-3
            st_mu = state.mu_u + d
            alt = svi.elbo_svb(
                ds, cfg, hp,
                type(state)(pi_hat=state.pi_hat, alpha_hat=state.alpha_hat,
                            mu_u=st_mu, Su=state.Su),
            )
            assert alt <= after + 1e-10

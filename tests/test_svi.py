"""Stochastic bound: moments, KL, mini-batching, bound ordering, and the E-phase steps."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.special import digamma

from wsmgp import checks, gradients, kernels, svi
from wsmgp.bounds import build_cvb_system, elbo_cvb
from wsmgp.model import make_dataset
from wsmgp.svi import elbo_svb, expected_loglik_terms, gaussian_kl_u, optimal_qu

_LOG2PI = np.log(2 * np.pi)


def rand_spd(rng, q, scale=1.0):
    A = rng.normal(size=(q, q))
    return scale * (np.eye(q) + A @ A.T / q)


def _qf_moments(sys, hp, m, mu_u, Su):
    """Moments of q(f_m) at every row under q(v) = N(mu_u, Su), from the engine's Psi_m."""
    kffd = np.full(len(sys.rows[m]), kernels.kff_diag_value(hp.outputs[m], hp.latent))
    psi = sys.Psi[m]
    mu, var = svi._qu_moments(psi, kffd - np.sum(psi * psi, axis=1), mu_u, Su)
    return mu, var, kffd


def _jittered_kuu(hp):
    """The jittered Kuu at hp that chol_jitter factors."""
    kuu = kernels.kuu_matrix(hp.inducing.W, hp.latent)
    return kuu + kernels.chol_jitter(kuu)[1] * np.eye(len(kuu))


class TestQfMoments:
    def test_prior_q_collapses_correction(self):
        ds, cfg, hp, state = checks.random_instance(0, n=5, M=2, Q=3)
        sys = build_cvb_system(ds, cfg, hp, state)
        # q(v) at its prior N(0, I) is q(u) at p(u)
        mu, var, kffd = _qf_moments(sys, hp, 0, np.zeros(3), np.eye(3))
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
        mu_v = rng.normal(size=2)
        Sv = rand_spd(rng, 2, 0.5)
        mu, var, _ = _qf_moments(sys, hp, 0, mu_v, Sv)
        # independent dense construction of q(f) = int p(f|u) q(u) du, with
        # q(u) = N(L mu_v, L Sv L') the image of q(v) under u = L v
        Kuu = _jittered_kuu(hp)
        L = np.linalg.cholesky(Kuu)
        mu_u, Su = L @ mu_v, L @ Sv @ L.T
        Kfu = kernels.kfu_matrix(ds.X, hp.inducing.W, hp.outputs[0], hp.latent)
        Kff = kernels.kff_matrix(ds.X, ds.X, hp.outputs[0], hp.outputs[0], hp.latent)
        Ki = np.linalg.inv(Kuu)
        mean = Kfu @ Ki @ mu_u
        Sig = Kff + Kfu @ Ki @ (Su - Kuu) @ Ki @ Kfu.T
        np.testing.assert_allclose(mu, mean, rtol=1e-8)
        np.testing.assert_allclose(var, np.diag(Sig), rtol=1e-8)


class TestGaussianKL:
    """KL(q(v) || N(0, I)) equals KL(q(u) || N(0, Kuu)) for q(u) the image of q(v) under u = L v."""

    @staticmethod
    def _whitened(mu, Su, Kuu):
        """q(v) = N(L^-1 mu, L^-1 Su L^-T) of q(u) = N(mu, Su), Kuu = L L'."""
        L = np.linalg.cholesky(Kuu)
        Li = np.linalg.inv(L)
        return Li @ mu, Li @ Su @ Li.T

    def test_identical_is_zero(self):
        rng = np.random.default_rng(3)
        K = rand_spd(rng, 4)
        kl = gaussian_kl_u(*self._whitened(np.zeros(4), K.copy(), K))
        assert kl == pytest.approx(0.0, abs=1e-10)

    def test_unit_variance_mean_shift(self):
        kl = gaussian_kl_u(np.array([2.0]), np.eye(1))
        assert kl == pytest.approx(2.0)

    def test_monte_carlo_estimate(self):
        rng = np.random.default_rng(4)
        Su = rand_spd(rng, 2, 0.7)
        Kuu = rand_spd(rng, 2, 1.3)
        mu = rng.normal(size=2)
        exact = gaussian_kl_u(*self._whitened(mu, Su, Kuu))
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
        kl = gaussian_kl_u(state.mu_u, state.Su)
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
        # 3 unlabeled observations, q(v) = prior N(0, I), exact one-hot assignments
        ds, cfg, hp, state = checks.random_instance(7, n=3, M=2, Q=3)
        ds = make_dataset(ds.X, ds.y, n_outputs=2)
        assign = np.array([1, 2, 1])
        pi = np.zeros((3, 2))
        pi[np.arange(3), assign - 1] = 1.0
        state.pi_hat = pi
        state.mu_u = np.zeros(3)
        state.Su = np.eye(3)
        got = elbo_svb(ds, cfg, hp, state)
        # hand expansion: sum over the (n, m) pairs with pi = 1 of
        # log N(y | 0, sig^2) - 0.5 kff_diag / sig^2, plus the KL terms of V,
        # minus KL(q(v) || p(v)) = 0; a pair at pi = 0 adds nothing
        data = 0.0
        for n, m in enumerate(assign - 1):
            kffd = kernels.kff_diag_value(hp.outputs[m], hp.latent)
            s2 = hp.noise.sigma[m] ** 2
            data += -0.5 * (np.log(2 * np.pi * s2) + ds.y[n] ** 2 / s2) - 0.5 * kffd / s2
        from wsmgp.bounds import vterm

        noise_term = -0.5 * np.sum(pi * np.log(2 * np.pi * hp.noise.sigma**2))
        expect = data + vterm(state, ds, cfg, hp.noise) - noise_term
        assert got == pytest.approx(expect, rel=1e-12)

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
            alt = svi.elbo_svb(ds, cfg, hp, replace(state, mu_u=state.mu_u + d))
            assert alt <= after + 1e-10
        # nor do symmetric perturbations of Su, either way, that keep it positive definite
        floor = np.linalg.eigvalsh(state.Su)[0]
        for _ in range(5):
            A = rng.normal(size=(4, 4))
            E = A + A.T
            E *= 0.1 * floor / np.max(np.abs(np.linalg.eigvalsh(E)))
            for Su in (state.Su + E, state.Su - E):
                assert np.linalg.eigvalsh(Su)[0] > 0
                assert svi.elbo_svb(ds, cfg, hp, replace(state, Su=Su)) <= after + 1e-10


def _step_instance(seed, use_dirichlet, sigma=0.3):
    """An instance at the optimal q(v), and its round: (ds, cfg, hp, state, svi.qu_restart's pair).

    There the stepped rows come out soft at sigma = 0.3, and at sigma =
    0.02 stepped unlabeled rows have entries that underflow to exactly 0.
    """
    ds, cfg, hp, state = checks.random_instance(seed, n=30, M=3, Q=5, sigma=sigma)
    cfg = replace(cfg, use_dirichlet=use_dirichlet)
    round_ = svi.qu_restart(ds, hp, state.pi_hat)
    state.mu_u, state.Su = round_[1].moments()
    return ds, cfg, hp, state, round_


def _local_step(ds, cfg, hp, state, round_, rows):
    """state with its batch rows of pi_hat stepped by svi.batch_step at the round's q(v)."""
    tables, qu = round_
    pi = state.pi_hat.copy()
    svi.batch_step(ds, cfg, hp.noise.sigma, tables, rows, pi, qu)
    return replace(state, pi_hat=pi)


class TestBatchStep:
    """The E-phase's closed-form steps: each is the exact coordinate optimum it claims."""

    def test_natural_parameters_round_trip(self):
        rng = np.random.default_rng(4)
        mu_u, Su = rng.normal(size=6), rand_spd(rng, 6, 0.3)
        lam = np.linalg.inv(Su)
        qu = svi.NaturalQu(lam, lam @ mu_u)
        back_mu, back_Su = qu.moments()
        np.testing.assert_allclose(back_mu, mu_u, rtol=1e-12)
        np.testing.assert_allclose(back_Su, Su, rtol=1e-12)
        np.testing.assert_array_equal(back_Su, back_Su.T)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("sigma", [0.3, 0.02])
    def test_no_perturbation_of_a_stepped_row_raises_the_bound(self, seed, sigma):
        # without the Dirichlet prior the row step is the row's exact optimum
        # over the entries its prior allows; at sigma = 0.02 stepped
        # unlabeled rows have entries at exactly 0
        ds, cfg, hp, state, round_ = _step_instance(seed, False, sigma)
        rng = np.random.default_rng(seed + 100)
        rows = rng.choice(ds.n, size=15, replace=False)
        stepped = _local_step(ds, cfg, hp, state, round_, rows)
        best = elbo_svb(ds, cfg, hp, stepped)
        p = stepped.pi_hat[rows]
        if sigma < 0.1:
            assert np.any(p[~ds.labeled_mask[rows]] == 0.0)
        else:
            assert np.any(p.max(axis=1) < 0.9)
        allowed = ~ds.labeled_mask[:, None] | (ds.prior_pi > 0)
        for _ in range(100):
            i = rng.choice(rows)
            t = 10 ** rng.uniform(-8, -1)
            pi = stepped.pi_hat.copy()
            d = rng.dirichlet(np.ones(cfg.M)) * allowed[i]
            pi[i] = (1 - t) * pi[i] + t * d / d.sum()
            assert elbo_svb(ds, cfg, hp, replace(stepped, pi_hat=pi)) <= best + 1e-12 * abs(best)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("sigma", [0.3, 0.02])
    def test_dirichlet_step_never_lowers_the_bound(self, seed, sigma):
        ds, cfg, hp, state, round_ = _step_instance(seed, True, sigma)
        rng = np.random.default_rng(seed + 200)
        value = elbo_svb(ds, cfg, hp, state)
        for _ in range(20):
            state = _local_step(ds, cfg, hp, state, round_,
                                rng.choice(ds.n, size=7, replace=False))
            new = elbo_svb(ds, cfg, hp, state)
            assert new >= value - 1e-12 * abs(value)
            value = new

    @staticmethod
    def _c(ds, hp, state, tables, rows):
        """c_nm, the expected log-likelihood at pi_nm = 1, of the rows (rows, M)."""
        psi, r = tables.gather(rows)
        mu, var = svi._qu_moments(psi, r, state.mu_u, state.Su)
        s = hp.noise.sigma[:, None]
        # expected_loglik_terms leaves out the normaliser, which V carries
        return (expected_loglik_terms(ds.y[rows], mu, var, 1.0, s)
                - 0.5 * np.log(2 * np.pi * s**2)).T

    @staticmethod
    def _normalised(log_w):
        # a row-constant shift keeps exp in range and cancels
        w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
        return w / w.sum(axis=1, keepdims=True)

    @pytest.mark.parametrize("use_dirichlet", [True, False])
    def test_labeled_row_is_the_prior_times_exp_c(self, use_dirichlet):
        ds, cfg, hp, state, round_ = _step_instance(3, use_dirichlet)
        rows = np.flatnonzero(ds.labeled_mask)[::-1]
        stepped = _local_step(ds, cfg, hp, state, round_, rows)
        c = self._c(ds, hp, state, round_[0], rows)
        expect = self._normalised(ds.log_prior[rows] + c)
        # every other labeled row has a one-hot prior, which it keeps exactly
        assert np.sum(expect.max(axis=1) < 0.9) >= 5
        assert np.sum(expect.max(axis=1) == 1.0) >= 5
        # exp turns c's rounding into a relative error of about |c| eps
        np.testing.assert_allclose(stepped.pi_hat[rows], expect, rtol=1e-10)

    @pytest.mark.parametrize("use_dirichlet", [True, False])
    def test_unlabeled_row_is_one_mean_field_sweep(self, use_dirichlet):
        # exp(c) alone without the Dirichlet prior; with it, times
        # exp(digamma(alpha0 + pi_old)), E[log Pi_n] under Dir(alpha0 + pi_old)
        # up to a row constant
        ds, cfg, hp, state, round_ = _step_instance(3, use_dirichlet)
        rows = np.flatnonzero(~ds.labeled_mask)
        stepped = _local_step(ds, cfg, hp, state, round_, rows)
        log_w = self._c(ds, hp, state, round_[0], rows)
        if use_dirichlet:
            log_w += digamma(cfg.alpha0 + state.pi_hat[rows])
        expect = self._normalised(log_w)
        assert np.sum(expect.max(axis=1) < 0.9) >= 5
        np.testing.assert_allclose(stepped.pi_hat[rows], expect, rtol=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_full_batch_step_is_optimal_qu(self, seed):
        """At the full batch rho = 1, and the q(v) step lands on optimal_qu's q(v).

        n = 200 and Q = 30 inducing inputs packed on the unit interval
        (cond(Kuu) 8.5e6 to 1e7).  Both sides take the same natural-form
        estimate, over the rows in another order, so they differ only by
        that order's rounding: in whitened form up to 8.0e-13 of the
        largest mean, 4.3e-13 of the largest covariance entry and 3.8e-16
        relative in the bound on seeds 0-3 at 1 and 2 BLAS threads; the
        tolerances were set at about four times the unwhitened form's
        (7.9e-12, 7.8e-12 and 6.3e-15).
        """
        ds, cfg, hp, state = checks.random_instance(seed, n=200, M=2, Q=30, dense_w=True)
        tables, qu = svi.qu_restart(ds, hp, state.pi_hat)
        state.mu_u, state.Su = qu.moments()
        pi = state.pi_hat.copy()
        rows = np.random.default_rng(seed).permutation(ds.n)
        qu = svi.batch_step(ds, cfg, hp.noise.sigma, tables, rows, pi, qu)
        stepped = replace(state, pi_hat=pi)
        mu_u, Su = qu.moments()
        mu_o, Su_o = optimal_qu(ds, cfg, hp, stepped)
        assert np.max(np.abs(mu_u - mu_o)) <= 3e-11 * np.max(np.abs(mu_o))
        assert np.max(np.abs(Su - Su_o)) <= 3e-11 * np.max(np.abs(Su_o))
        got = elbo_svb(ds, cfg, hp, replace(stepped, mu_u=mu_u, Su=Su))
        ref = elbo_svb(ds, cfg, hp, replace(stepped, mu_u=mu_o, Su=Su_o))
        assert abs(got - ref) <= 3e-14 * abs(ref)


def _reference_step(ds, cfg, sigma, tables, rows, pi, qu):
    """batch_step written out from Su: cho_factor, cho_solve and an explicit inverse."""
    psi, r = tables.gather(rows)
    M, b, Q = psi.shape
    cho = cho_factor(qu.lam, lower=True)
    mu_u = cho_solve(cho, qu.h)
    Su = cho_solve(cho, np.eye(Q))
    Su = 0.5 * (Su + Su.T)
    flat = psi.reshape(-1, Q)
    mu = (flat @ mu_u).reshape(M, b)
    var = np.maximum(r + np.sum((flat @ Su) * flat, axis=1).reshape(M, b), 0.0)
    s2 = (sigma**2)[:, None]
    y = ds.y[rows]
    c = -0.5 * (((y - mu) ** 2 + var) / s2 + np.log(2 * np.pi * s2))
    labeled = ds.labels[rows] > 0
    other = digamma(cfg.alpha0 + pi[rows]) if cfg.use_dirichlet else np.zeros((b, M))
    log_w = c.T + np.where(labeled[:, None], ds.log_prior[rows], other)
    w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    pi[rows] = w / w.sum(axis=1, keepdims=True)
    d = pi[rows].T / s2
    scale = ds.n / b
    lam = np.eye(Q) + scale * np.einsum("mnq,mn,mnp->qp", psi, d, psi)
    h = scale * np.einsum("mnq,mn->q", psi, d * y)
    rho = b / ds.n
    return svi.NaturalQu((1 - rho) * qu.lam + rho * lam, (1 - rho) * qu.h + rho * h)


class TestFusedStep:
    """batch_step takes q(v)'s moments from one factor of its precision, with no Su."""

    @pytest.mark.parametrize("use_dirichlet", [True, False])
    @pytest.mark.parametrize("sigma", [0.3, 0.02])
    def test_two_hundred_steps_match_the_step_written_from_su(self, sigma, use_dirichlet):
        ds, cfg, hp, state, (tables, qu) = _step_instance(5, use_dirichlet, sigma)
        rng = np.random.default_rng(7)
        pi, pi_ref, qu_ref = state.pi_hat.copy(), state.pi_hat.copy(), qu
        for _ in range(200):
            rows = rng.choice(ds.n, size=7, replace=False)
            qu = svi.batch_step(ds, cfg, hp.noise.sigma, tables, rows, pi, qu)
            qu_ref = _reference_step(ds, cfg, hp.noise.sigma, tables, rows, pi_ref, qu_ref)
        if sigma < 0.1:
            assert np.any(pi[~ds.labeled_mask] == 0.0)
        np.testing.assert_allclose(pi, pi_ref, rtol=1e-11, atol=0)
        for got, ref in zip(qu, qu_ref):
            assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))

    @pytest.mark.parametrize("field", ["lam", "h"])
    def test_non_finite_natural_parameters_raise_value_error(self, field):
        ds, cfg, hp, state, (tables, qu) = _step_instance(0, True)
        bad = getattr(qu, field).copy()
        bad[(0,) * bad.ndim] = np.nan
        qu = qu._replace(**{field: bad})
        with pytest.raises(ValueError):
            svi.batch_step(ds, cfg, hp.noise.sigma, tables, [0, 1], state.pi_hat, qu)

    def test_indefinite_precision_raises_linalg_error(self):
        ds, cfg, hp, state, (tables, qu) = _step_instance(0, True)
        qu = qu._replace(lam=qu.lam - 2 * np.max(np.linalg.eigvalsh(qu.lam)) * np.eye(5))
        with pytest.raises(np.linalg.LinAlgError):
            svi.batch_step(ds, cfg, hp.noise.sigma, tables, [0, 1], state.pi_hat, qu)


class TestPerFitConstants:
    """The squared differences a caller already has give the same values."""

    def test_given_constants_change_no_value(self):
        ds, cfg, hp, state = checks.random_instance(11, n=40, M=2, Q=6)
        t2 = kernels.sqdiff(ds.X, hp.inducing.W)
        state.mu_u, state.Su = svi.qu_restart(ds, hp, state.pi_hat)[1].moments()
        val, bundle = gradients.elbo_svb_with_grad(ds, cfg, hp, state, t2=t2)
        val_ref, bundle_ref = gradients.elbo_svb_with_grad(ds, cfg, hp, state)
        assert val == val_ref
        for name, g in vars(bundle_ref).items():
            np.testing.assert_array_equal(getattr(bundle, name), g, err_msg=name)

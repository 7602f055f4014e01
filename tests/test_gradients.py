"""Finite-difference verification of every analytic gradient path."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import digamma

from wsmgp import checks, gradients, svi
from wsmgp.bounds import scmgp_loglik, vterm_rows
from wsmgp.gradients import finite_diff_check
from wsmgp.kernels import (
    HyperParams,
    InducingInputs,
    LatentKernelParams,
    NoiseParams,
    OutputKernelParams,
)
from wsmgp.model import Dataset, make_dataset, ModelConfig, refresh_alpha_hat
from wsmgp.trainer import _state_with


class TestHarness:
    def test_quadratic_exact(self):
        f = lambda x: float(x @ x)
        rep = finite_diff_check(f, np.array([2.0, 4.0]), np.array([1.0, 2.0]))
        assert rep.max_rel_error < 1e-9

    def test_corrupted_gradient_flagged(self):
        f = lambda x: float(x @ x)
        g = np.array([2.0, 4.0])
        g[1] *= 1.01
        rep = finite_diff_check(f, g, np.array([1.0, 2.0]))
        assert rep.max_rel_error > 1e-3
        assert rep.worst[0] == "1"

    def test_step_sweep_v_curve(self):
        # classic V-shape: error decreases then rises again as h shrinks
        ds, cfg, hp, state = checks.random_instance(0, n=6, M=2, Q=3)
        x0, value, grad, _ = checks.packed_cvb(ds, cfg, hp, state)
        errs = [
            finite_diff_check(value, grad, x0, h=h).max_rel_error
            for h in (1e-3, 1e-5, 1e-9)
        ]
        assert errs[1] < errs[0]
        assert errs[1] < errs[2]


class TestGradCvb:
    @pytest.mark.parametrize("seed", range(5))
    def test_finite_difference_match(self, seed):
        rep = checks.gradcheck_cvb(seed)
        assert rep.max_rel_error < 1e-4, str(rep)

    def test_single_output_sigma_gradient(self):
        # M=1, pi frozen at one: the sigma gradient equals the plain sparse
        # GP likelihood gradient, checked by finite differences on the
        # fully-labeled evaluation
        ds, cfg, hp, state = checks.random_instance(3, n=8, M=1, Q=3,
                                                    labeled_frac=1.0)
        ds = make_dataset(ds.X, ds.y, labels=np.ones(ds.n, dtype=int), n_outputs=1)
        _, bundle = gradients.scmgp_loglik_with_grad(ds, cfg, hp)
        h = 1e-6
        def at_sigma(s):
            hp_s = HyperParams(latent=hp.latent, outputs=hp.outputs,
                               noise=NoiseParams(sigma=np.array([s])),
                               inducing=hp.inducing)
            return scmgp_loglik(ds, cfg, hp_s)
        s0 = hp.noise.sigma[0]
        fd = (at_sigma(s0 * np.exp(h)) - at_sigma(s0 * np.exp(-h))) / (2 * h)
        assert bundle.d_sigma[0] == pytest.approx(fd, rel=1e-5)

    def test_zero_amplitude_structure(self):
        ds, cfg, hp, state = checks.random_instance(4, n=8, M=2, Q=3)
        outs = [OutputKernelParams(S=0.0, Lm=hp.outputs[0].Lm), hp.outputs[1]]
        hp0 = HyperParams(latent=hp.latent, outputs=outs, noise=hp.noise,
                          inducing=hp.inducing)
        _, bundle = gradients.elbo_cvb_with_grad(ds, cfg, hp0, state)
        assert np.all(bundle.d_Lm[0] == 0.0)
        assert np.isfinite(bundle.d_S[0]) and bundle.d_S[0] != 0.0

    def test_floor_invariance_away_from_floor(self):
        ds, cfg, hp, state = checks.random_instance(5, n=6, M=2, Q=3)
        assert state.pi_hat.min() > 10 * 1e-10
        _, b1 = gradients.elbo_cvb_with_grad(ds, cfg, hp, state)
        from wsmgp.model import floor_simplex

        state.pi_hat = floor_simplex(state.pi_hat)
        _, b2 = gradients.elbo_cvb_with_grad(ds, cfg, hp, state)
        np.testing.assert_array_equal(b1.d_pi_logits, b2.d_pi_logits)

    def test_one_hot_sweep_matches_scmgp_gradient(self):
        ds, cfg, hp, _ = checks.random_instance(6, n=8, M=2, Q=4)
        rng = np.random.default_rng(6)
        assign = rng.integers(1, 3, size=ds.n)
        ds_lab = make_dataset(ds.X, ds.y, labels=assign, n_outputs=2)
        _, ref = gradients.scmgp_loglik_with_grad(ds_lab, cfg, hp)
        prev = np.inf
        for eps in (1e-4, 1e-6, 1e-8):
            pi = np.full((ds.n, 2), eps)
            pi[np.arange(ds.n), assign - 1] = 1 - eps
            ds_onehot = make_dataset(ds.X, ds.y, labels=assign, n_outputs=2)
            # align priors to the softened one-hot so the labeled KL is zero
            st = _state_with(ds_onehot, cfg, cfg.alpha0, pi)
            _, b = gradients.elbo_cvb_with_grad(ds_onehot, cfg, hp, st)
            diff = max(
                np.max(np.abs(b.d_S - ref.d_S)),
                np.max(np.abs(b.d_Lm - ref.d_Lm)),
                np.max(np.abs(b.d_L - ref.d_L)),
            )
            assert diff < prev
            prev = diff
        assert prev < 1e-3


class TestGradSvb:
    @pytest.mark.parametrize("seed", range(5))
    def test_finite_difference_match(self, seed):
        rep = checks.gradcheck_svb(seed)
        assert rep.max_rel_error < 1e-4, str(rep)

    def test_minibatch_finite_difference_match(self):
        rep = checks.gradcheck_svb(11, batch=[0, 3, 7])
        assert rep.max_rel_error < 1e-4, str(rep)

    def test_prior_q_mu_gradient_form(self):
        # q(u) = prior, mu_u = 0: dMuU = sum_m Phi' a_m exactly
        ds, cfg, hp, state = checks.random_instance(7, n=6, M=2, Q=3)
        from scipy.linalg import cho_solve
        from wsmgp import kernels, svi

        kuu, cho = svi._jittered_kuu(hp)
        state.mu_u = np.zeros(3)
        state.Su = kuu.copy()
        _, bundle = gradients.elbo_svb_with_grad(ds, cfg, hp, state)
        expect = np.zeros(3)
        for m, out in enumerate(hp.outputs):
            kfu = kernels.kfu_matrix(ds.X, hp.inducing.W, out, hp.latent)
            phi = cho_solve(cho, kfu.T).T
            mu = phi @ state.mu_u
            a = state.pi_hat[:, m] / hp.noise.sigma[m] ** 2 * (ds.y - mu)
            expect += phi.T @ a
        np.testing.assert_allclose(bundle.d_mu_u, expect, rtol=1e-10)

    def test_batch_average_equals_full_gradient(self):
        ds, cfg, hp, state = checks.random_instance(8, n=6, M=2, Q=3)
        rng = np.random.default_rng(8)
        A = rng.normal(size=(3, 3))
        state.Su = np.eye(3) + A @ A.T / 3
        state.mu_u = rng.normal(size=3)
        x0, _, grad, _ = checks.packed_svb(ds, cfg, hp, state)
        full = grad(x0)
        batch_grads = []
        for b in itertools.combinations(range(6), 3):
            _, _, gb, _ = checks.packed_svb(ds, cfg, hp, state, batch=np.array(b))
            batch_grads.append(gb(x0))
        np.testing.assert_allclose(np.mean(batch_grads, axis=0), full, atol=1e-8)


class TestGradVterm:
    @pytest.mark.parametrize("seed", range(5))
    def test_finite_difference_match(self, seed):
        rep = checks.gradcheck_vterm(seed)
        assert rep.max_rel_error < 1e-6, str(rep)

    def test_labeled_kl_annihilated_at_prior(self):
        # when pi equals the labeled prior, the labeled-KL piece contributes
        # a row-constant gradient that the softmax chain removes
        pi = np.array([[0.6, 0.4]])
        prior = pi.copy()
        raw = -(np.log(pi) - np.log(prior) + 1.0)  # = -1 everywhere
        chained = gradients.softmax_chain(pi, raw)
        np.testing.assert_allclose(chained, 0.0, atol=1e-14)

    def test_alpha0_gradient_at_uniform_rows(self):
        ds, cfg, hp, state = checks.random_instance(9, n=6, M=2, Q=3,
                                                    labeled_frac=0.0)
        state.pi_hat = np.full((6, 2), 0.5)
        refresh_alpha_hat(state, ds, cfg.alpha0)
        rep = checks.gradcheck_vterm(9)
        assert rep.max_rel_error < 1e-6


def _batch_instance(use_dirichlet):
    ds, cfg, hp, state = checks.random_instance(21, n=12, M=3, Q=3)
    rng = np.random.default_rng(21)
    A = rng.normal(size=(3, 3))
    state.Su = 0.5 * np.eye(3) + A @ A.T / 3
    state.mu_u = rng.normal(size=3)
    return ds, replace(cfg, use_dirichlet=use_dirichlet), hp, state


def _batch(ds, kind):
    """Five rows, unsorted: all labeled, all unlabeled, or both kinds."""
    lab = np.flatnonzero(ds.labeled_mask)[::-1]
    unl = np.flatnonzero(~ds.labeled_mask)[::-1]
    return {"labeled": lab[:5], "unlabeled": unl[:5],
            "mixed": np.concatenate([unl[:3], lab[:2]])}[kind]


_BATCH_CASES = pytest.mark.parametrize(
    "kind,use_dirichlet",
    list(itertools.product(["labeled", "unlabeled", "mixed"], [True, False])),
)


class TestBatchRows:
    """A mini-batch evaluation reads, differentiates and scales only its rows."""

    @_BATCH_CASES
    def test_vterm_rows_restriction(self, kind, use_dirichlet):
        ds, cfg, hp, state = _batch_instance(use_dirichlet)
        rows = _batch(ds, kind)
        np.testing.assert_array_equal(
            vterm_rows(state, ds, cfg, hp.noise, rows=rows),
            vterm_rows(state, ds, cfg, hp.noise)[rows],
        )

    @_BATCH_CASES
    def test_vterm_partials_restriction(self, kind, use_dirichlet):
        ds, cfg, hp, state = _batch_instance(use_dirichlet)
        rows = _batch(ds, kind)
        d_pi, d_alpha0, d_sigma = gradients.vterm_partials(
            state, ds, cfg, hp.noise, rows=rows
        )
        full_pi, _, _ = gradients.vterm_partials(state, ds, cfg, hp.noise)
        np.testing.assert_array_equal(d_pi, full_pi[rows])
        pi_b = state.pi_hat[rows]
        per_output = [np.sum(1.0 - pi_b[:, m]) for m in range(cfg.M)]
        np.testing.assert_allclose(d_sigma, per_output, rtol=1e-14)
        # alpha0 partial over the unlabeled batch rows, summed in row order
        in_batch = np.zeros(ds.n, dtype=bool)
        in_batch[rows] = True
        pu = state.pi_hat[in_batch & ~ds.labeled_mask]
        n_u, M, a0 = pu.shape[0], cfg.M, cfg.alpha0
        expect = 0.0
        if use_dirichlet:
            expect = (np.sum(digamma(a0 + pu)) - n_u * M * digamma(M * a0 + 1.0)
                      - n_u * M * digamma(a0) + n_u * M * digamma(M * a0))
        np.testing.assert_allclose(d_alpha0, expect, rtol=1e-13, atol=1e-13)

    @_BATCH_CASES
    def test_rows_outside_batch_are_not_read(self, kind, use_dirichlet):
        ds, cfg, hp, state = _batch_instance(use_dirichlet)
        rows = _batch(ds, kind)
        outside = np.ones(ds.n, dtype=bool)
        outside[rows] = False
        prior = ds.prior_pi.copy()
        prior[outside] = np.nan
        ds_p = Dataset(X=ds.X, y=ds.y, labels=ds.labels, prior_pi=prior)
        pi = state.pi_hat.copy()
        pi[outside] = np.nan
        state_p = replace(state, pi_hat=pi)

        value, bundle = gradients.elbo_svb_with_grad(ds, cfg, hp, state, batch=rows)
        value_p, bundle_p = gradients.elbo_svb_with_grad(ds_p, cfg, hp, state_p, batch=rows)
        assert np.isfinite(value_p) and value_p == value
        for name, g in vars(bundle).items():
            g_p = getattr(bundle_p, name)
            if g is None:
                assert g_p is None
                continue
            assert np.all(np.isfinite(g_p)), name
            np.testing.assert_array_equal(g_p, g, err_msg=name)
        assert np.all(bundle_p.d_pi_logits[outside] == 0.0)

        svb_p = svi.elbo_svb(ds_p, cfg, hp, state_p, batch=rows)
        assert np.isfinite(svb_p)
        assert svb_p == svi.elbo_svb(ds, cfg, hp, state, batch=rows)

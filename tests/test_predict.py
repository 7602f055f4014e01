"""Predictive posterior: dense-conditioning oracle, limits, and variance floors."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from wsmgp import checks, kernels
from wsmgp.kernels import (
    HyperParams,
    IndependentSEHyperParams,
    InducingInputs,
    LatentKernelParams,
    NoiseParams,
    OutputKernelParams,
    SEKernelParams,
)
from wsmgp.model import (
    ModelConfig,
    VariationalState,
    make_dataset,
)
from wsmgp.predict import posterior_predict


def single_output_instance(seed=11, n=15):
    rng = np.random.default_rng(seed)
    X = np.sort(rng.uniform(0, 1, n))[:, None]
    lat = LatentKernelParams(L=np.array([40.0]))
    out = OutputKernelParams(S=2.0, Lm=np.array([70.0]))
    hp = HyperParams(
        latent=lat,
        outputs=[out],
        noise=NoiseParams(sigma=np.array([0.3])),
        inducing=InducingInputs(W=X.copy()),
    )
    Kff = kernels.kff_matrix(X, X, out, out, lat)
    y = np.linalg.cholesky(Kff + 1e-10 * np.eye(n)) @ rng.standard_normal(n)
    y = y + 0.3 * rng.standard_normal(n)
    ds = make_dataset(X, y, labels=np.ones(n, dtype=int), n_outputs=1)
    cfg = ModelConfig(M=1, Q=n)
    pi = np.ones((n, 1))
    return ds, cfg, hp, VariationalState(pi_hat=pi)


def dense_oracle(ds, hp, x_star):
    """Exact conditioning of the sparse model's joint Gaussian (M=1)."""
    X = ds.X
    n = ds.n
    out, lat = hp.outputs[0], hp.latent
    Kff = kernels.kff_matrix(X, X, out, out, lat)
    Kuu_raw = kernels.kuu_matrix(hp.inducing.W, lat)
    cho, jit = kernels.chol_jitter(Kuu_raw)
    Kfu = kernels.kfu_matrix(X, hp.inducing.W, out, lat)
    Ksu = kernels.kfu_matrix(x_star, hp.inducing.W, out, lat)
    Kcross = Ksu @ cho_solve(cho, Kfu.T)
    s2 = hp.noise.sigma[0] ** 2
    co = cho_factor(Kff + s2 * np.eye(n), lower=True)
    mu = Kcross @ cho_solve(co, ds.y)
    kss = kernels.kff_diag_value(out, lat)
    var = kss - np.sum(Kcross * cho_solve(co, Kcross.T).T, axis=1) + s2
    return mu, var


def stacked_dense_oracle(ds, hp, state, x_star):
    """Dense conditioning on the stacked prior Kfu Kuu^-1 Kuf + bdiag(B_m) + D.

    Every (row, output) pair with pi_hat > 0 appears with noise
    sigma_m^2 / pi_hat, as in the collapsed bound; a pair at pi_hat = 0
    has infinite noise and is left out.  The test points' residuals are
    independent of the training rows.
    """
    X, lat, W = ds.X, hp.latent, hp.inducing.W
    Kuu_raw = kernels.kuu_matrix(W, lat)
    _, jit = kernels.chol_jitter(Kuu_raw)
    Kuu = Kuu_raw + jit * np.eye(W.shape[0])
    Kfu = np.vstack([kernels.kfu_matrix(X, W, out, lat) for out in hp.outputs])
    C = Kfu @ np.linalg.solve(Kuu, Kfu.T)
    n = ds.n
    for m, out in enumerate(hp.outputs):
        blk = slice(m * n, (m + 1) * n)
        C[blk, blk] = kernels.kff_matrix(X, X, out, out, lat)
    # D, output-major: sigma_m^2 / pi_hat[n, m]
    pi = state.pi_hat.T.ravel()
    keep = pi > 0
    C = C[np.ix_(keep, keep)]
    C[np.diag_indices_from(C)] += np.repeat(hp.noise.sigma**2, n)[keep] / pi[keep]
    co = cho_factor(C, lower=True)
    y_tiled = np.tile(ds.y, len(hp.outputs))[keep]
    mu, var = [], []
    for m, out in enumerate(hp.outputs):
        Ksu = kernels.kfu_matrix(x_star, W, out, lat)
        Kcross = Ksu @ np.linalg.solve(Kuu, Kfu[keep].T)
        mu.append(Kcross @ cho_solve(co, y_tiled))
        kss = kernels.kff_diag_value(out, lat)
        s2 = hp.noise.sigma[m] ** 2
        var.append(kss - np.sum(Kcross * cho_solve(co, Kcross.T).T, axis=1) + s2)
    return np.array(mu), np.array(var)


class TestOracle:
    def test_matches_dense_gp_conditioning(self):
        ds, cfg, hp, st = single_output_instance()
        xs = np.linspace(-0.1, 1.1, 31)[:, None]
        pred = posterior_predict(ds, cfg, hp, st, xs)
        mu_o, var_o = dense_oracle(ds, hp, xs)
        scale = np.max(np.abs(mu_o))
        assert np.max(np.abs(pred.mean[0] - mu_o)) / scale < 1e-6
        assert np.max(np.abs(pred.var_diag[0] - var_o) / var_o) < 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_two_outputs_match_stacked_dense_conditioning(self, seed):
        ds, cfg, hp, st = checks.random_instance(seed, n=10, M=2, Q=4)
        xs = np.linspace(-0.2, 1.2, 15)[:, None]
        pred = posterior_predict(ds, cfg, hp, st, xs)
        mu_o, var_o = stacked_dense_oracle(ds, hp, st, xs)
        for m in range(cfg.M):
            scale = np.max(np.abs(mu_o[m]))
            assert np.max(np.abs(pred.mean[m] - mu_o[m])) / scale < 1e-10
            assert np.max(np.abs(pred.var_diag[m] - var_o[m]) / var_o[m]) < 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_independent_outputs_match_dense_conditioning(self, seed):
        # OMGP's independent SE kernels: each output conditions on its own
        # rows with pi_hat > 0, at noise sigma_m^2 / pi_hat
        ds, cfg, _, st = checks.random_instance(seed, n=12, M=2, Q=4)
        hp = IndependentSEHyperParams(
            outputs=[SEKernelParams(amp=1.3, prec=np.array([20.0])),
                     SEKernelParams(amp=0.8, prec=np.array([45.0]))],
            noise=NoiseParams(sigma=np.array([0.3, 0.2])))
        xs = np.linspace(-0.2, 1.2, 15)[:, None]
        pred = posterior_predict(ds, cfg, hp, st, xs)
        assert np.any(st.pi_hat == 0)
        for m, out in enumerate(hp.outputs):
            keep = st.pi_hat[:, m] > 0
            X, s2 = ds.X[keep], hp.noise.sigma[m] ** 2
            C = kernels.se_matrix(X, X, out) + np.diag(s2 / st.pi_hat[keep, m])
            ks = kernels.se_matrix(xs, X, out)
            mu_o = ks @ np.linalg.solve(C, ds.y[keep])
            var_o = out.amp**2 - np.sum(ks * np.linalg.solve(C, ks.T).T, axis=1) + s2
            assert np.max(np.abs(pred.mean[m] - mu_o)) / np.max(np.abs(mu_o)) < 1e-10
            assert np.max(np.abs(pred.var_diag[m] - var_o) / var_o) < 1e-10


class TestLimits:
    def test_far_field_reverts_to_prior(self):
        ds, cfg, hp, st = single_output_instance(seed=13)
        far = np.array([[50.0]])
        pred = posterior_predict(ds, cfg, hp, st, far)
        prior_var = kernels.kff_diag_value(hp.outputs[0], hp.latent) + 0.09
        assert abs(pred.mean[0, 0]) < 1e-6
        assert pred.var_diag[0, 0] == pytest.approx(prior_var, abs=1e-6)

    def test_variance_never_below_noise(self):
        for seed in range(5):
            ds, cfg, hp, state = checks.random_instance(seed, n=10, M=2, Q=4)
            xs = np.linspace(-0.3, 1.3, 21)[:, None]
            pred = posterior_predict(ds, cfg, hp, state, xs)
            floor = (hp.noise.sigma**2)[:, None] - 1e-10
            assert np.all(pred.var_diag >= floor)

    def test_information_never_hurts_at_training_inputs(self):
        for seed in range(5):
            ds, cfg, hp, state = checks.random_instance(seed + 50, n=10, M=2, Q=4)
            pred = posterior_predict(ds, cfg, hp, state, ds.X)
            for m, out in enumerate(hp.outputs):
                prior = kernels.kff_diag_value(out, hp.latent) + hp.noise.sigma[m] ** 2
                assert np.all(pred.var_diag[m] <= prior + 1e-10)

    def test_continuity_in_x_star(self):
        ds, cfg, hp, st = single_output_instance(seed=14)
        x0 = np.array([[0.37]])
        d = 1e-6
        p0 = posterior_predict(ds, cfg, hp, st, x0)
        p1 = posterior_predict(ds, cfg, hp, st, x0 + d)
        # slope bound from a coarse finite difference
        p_low = posterior_predict(ds, cfg, hp, st, x0 - 1e-3)
        p_hi = posterior_predict(ds, cfg, hp, st, x0 + 1e-3)
        slope = abs(p_hi.mean[0, 0] - p_low.mean[0, 0]) / 2e-3
        assert abs(p1.mean[0, 0] - p0.mean[0, 0]) <= 10 * (slope + 1.0) * d

    def test_rejects_nonfinite_inputs(self):
        ds, cfg, hp, st = single_output_instance(seed=15)
        with pytest.raises(ValueError, match="non-finite"):
            posterior_predict(ds, cfg, hp, st, np.array([[np.nan]]))

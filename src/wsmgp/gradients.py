"""Analytic gradients of both bounds, with a finite-difference harness.

Gradients are returned in the unconstrained coordinates the optimizer
works in: log noise, log precisions, log alpha0, free amplitudes,
row-softmax logits for the assignment probabilities (one pinned logit
per row), and a Cholesky factor with log-diagonal for the inducing
posterior covariance.  Matrix-level derivatives of the Gaussian term
come from the shared engine; this module chains them to the kernel
hyperparameters and adds the assignment-term partials.

Every path is validated against central finite differences in the test
suite; where printed derivative formulas were ambiguous, the finite
differences were treated as the arbiter.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import digamma

from . import engine, kernels
from .bounds import build_cvb_system, compute_D, select_rows, vterm_rows
from .kernels import HyperParams, IndependentSEHyperParams
from .model import Dataset, ModelConfig, floor_simplex
from .svi import _jittered_kuu, expected_loglik_terms, gaussian_kl_u

_LOG2PI = float(np.log(2.0 * np.pi))


@dataclass
class GradientBundle:
    """Gradient of a bound w.r.t. every free parameter (unconstrained coords).

    d_S / d_Lm hold the per-output kernel gradients; for the independent
    squared-exponential model they carry (log-amplitude, log-precision)
    instead and d_L is None.  d_mu_u / d_su_chol are only set for the
    stochastic bound.
    """

    d_S: np.ndarray = None  # (M,)
    d_Lm: np.ndarray = None  # (M, d)
    d_L: np.ndarray = None  # (d,)
    d_sigma: np.ndarray = None  # (M,)
    d_pi_logits: np.ndarray = None  # (N, M), rows sum to ~0
    d_alpha0: float = 0.0
    d_mu_u: np.ndarray = None  # (Q,)
    d_su_chol: np.ndarray = None  # (Q, Q) lower triangular


def softmax_chain(pi, grad_pi):
    """Chain d/dpi to d/dlogits through a row softmax.

    grad w.r.t. logit j is pi_j * (g_j - sum_k pi_k g_k); row-constant
    components of grad_pi are annihilated.
    """
    inner = np.sum(pi * grad_pi, axis=1, keepdims=True)
    return pi * (grad_pi - inner)


# ---------------------------------------------------------------------------
# V-term partials
# ---------------------------------------------------------------------------


def vterm_partials(state, ds: Dataset, cfg: ModelConfig, noise, rows=None):
    """Raw partials of V: (dPi (|rows|, M), dAlpha0, dSigma (M,)), constrained coords.

    Only the V rows selected by `rows` (all N when None) are
    differentiated.  dPi rows may contain row-constant components; the
    softmax chain removes them.  dAlpha0 accounts for the analytic
    optimum alpha_hat = alpha0 + pi_hat moving with alpha0.
    """
    pi, labeled, prior_pi = select_rows(state, ds, rows)
    M = pi.shape[1]
    sig2 = noise.sigma**2
    log2pis = np.log(2.0 * np.pi * sig2)
    # third term: 0.5 * sum (1 - pi) log(2 pi sigma^2) - log pi
    d_pi = 0.5 * (-log2pis[None, :] - 1.0 / pi)
    d_sigma = np.sum(1.0 - pi, axis=0)  # already in log-sigma coords
    if np.any(labeled):
        prior = floor_simplex(prior_pi[labeled])
        d_pi[labeled] += -(np.log(pi[labeled]) - np.log(prior) + 1.0)
    d_alpha0 = 0.0
    if np.any(~labeled):
        pu = pi[~labeled]
        if cfg.use_dirichlet:
            a0 = cfg.alpha0
            d_pi[~labeled] += -(np.log(pu) + 1.0) + digamma(a0 + pu) - digamma(
                M * a0 + 1.0
            )
            n_u = pu.shape[0]
            d_alpha0 = float(
                np.sum(digamma(a0 + pu))
                - n_u * M * digamma(M * a0 + 1.0)
                - n_u * M * digamma(a0)
                + n_u * M * digamma(M * a0)
            )
        else:
            d_pi[~labeled] += -(np.log(pu) + 1.0 + np.log(M))
    return d_pi, d_alpha0, d_sigma


def grad_vterm(state, ds, cfg, noise):
    """Gradient of V alone: (logit gradient (N, M), d log alpha0)."""
    d_pi, d_alpha0, _ = vterm_partials(state, ds, cfg, noise)
    return softmax_chain(state.pi_hat, d_pi), d_alpha0 * cfg.alpha0


# ---------------------------------------------------------------------------
# kernel-hyperparameter chains
# ---------------------------------------------------------------------------


def _chain_convolved(ds_X, rows, hp, mg: engine.MatrixGrads, batch_diag=None):
    """Contract matrix-level grads with the convolved-kernel derivatives.

    mg.dE_blocks are derivatives w.r.t. the full same-output blocks; when
    batch_diag is given (stochastic bound) they are diagonal vectors for
    d diag(Kff) instead.  Returns unconstrained (d_S, d_Lm, d_L).
    """
    M = hp.n_outputs
    d = hp.latent.L.shape[0]
    d_S = np.zeros(M)
    d_Lm = np.zeros((M, d))
    d_L = np.zeros(d)
    if mg.dKuu is not None:
        _, dKuu_dL = kernels.kuu_matrix_grads(hp.inducing.W, hp.latent)
        d_L += np.einsum("qp,dqp->d", mg.dKuu, dKuu_dL)
    for m, out in enumerate(hp.outputs):
        Xm = ds_X[rows[m]]
        if Xm.shape[0] == 0:
            continue
        if mg.dKfu_blocks[m] is not None:
            _, dS_fu, dLm_fu, dL_fu = kernels.kfu_matrix_grads(
                Xm, hp.inducing.W, out, hp.latent
            )
            d_S[m] += np.sum(mg.dKfu_blocks[m] * dS_fu)
            d_Lm[m] += np.einsum("nq,dnq->d", mg.dKfu_blocks[m], dLm_fu)
            d_L += np.einsum("nq,dnq->d", mg.dKfu_blocks[m], dL_fu)
        if batch_diag is None:
            _, dS_ff, dLm_ff, dL_ff = kernels.kff_matrix_grads(Xm, out, hp.latent)
            d_S[m] += np.sum(mg.dE_blocks[m] * dS_ff)
            d_Lm[m] += np.einsum("np,dnp->d", mg.dE_blocks[m], dLm_ff)
            d_L += np.einsum("np,dnp->d", mg.dE_blocks[m], dL_ff)
        else:
            _, dS_v, dLm_v, dL_v = kernels.kff_diag_value_grads(out, hp.latent)
            w = np.sum(batch_diag[m])
            d_S[m] += w * dS_v
            d_Lm[m] += w * dLm_v
            d_L += w * dL_v
    # to unconstrained coordinates: amplitudes free, precisions in log space
    d_Lm *= np.stack([out.Lm for out in hp.outputs])
    d_L *= hp.latent.L
    return d_S, d_Lm, d_L


def _chain_independent(ds_X, rows, hp, mg: engine.MatrixGrads):
    """Chain to (log-amplitude, log-precision) of the independent SE kernels."""
    M = hp.n_outputs
    d = hp.outputs[0].prec.shape[0]
    d_amp = np.zeros(M)
    d_prec = np.zeros((M, d))
    for m, out in enumerate(hp.outputs):
        Xm = ds_X[rows[m]]
        if Xm.shape[0] == 0:
            continue
        _, dAmp, dPrec = kernels.se_matrix_grads(Xm, Xm, out)
        d_amp[m] = np.sum(mg.dE_blocks[m] * dAmp) * out.amp
        d_prec[m] = np.einsum("np,dnp->d", mg.dE_blocks[m], dPrec) * out.prec
    return d_amp, d_prec


# ---------------------------------------------------------------------------
# collapsed-bound gradient
# ---------------------------------------------------------------------------


def elbo_cvb_with_grad(ds, cfg, hp, state):
    """Bound value and full gradient bundle in one pass."""
    sys = build_cvb_system(ds, cfg, hp, state)
    value = engine.gauss_loglik(sys)
    mg = engine.gauss_loglik_grads(sys)
    pi = state.pi_hat
    sigma = hp.noise.sigma

    # D-path: dL/dD_nm with D = sigma^2/pi
    dD = np.stack([np.diag(mg.dE_blocks[m]) for m in range(cfg.M)], axis=1)  # (N, M)
    d_sigma = np.sum(dD * (2.0 * sigma[None, :] ** 2 / pi), axis=0)  # log-sigma
    d_pi_raw = dD * (-(sigma[None, :] ** 2) / pi**2)

    v_pi, v_alpha0, v_sigma = vterm_partials(state, ds, cfg, hp.noise)
    value += float(np.sum(vterm_rows(state, ds, cfg, hp.noise)))
    d_sigma += v_sigma
    d_pi_raw += v_pi

    if isinstance(hp, IndependentSEHyperParams):
        d_amp, d_prec = _chain_independent(ds.X, sys.rows, hp, mg)
        bundle = GradientBundle(
            d_S=d_amp, d_Lm=d_prec, d_L=None, d_sigma=d_sigma,
            d_pi_logits=softmax_chain(pi, d_pi_raw),
            d_alpha0=v_alpha0 * cfg.alpha0 if cfg.use_dirichlet else 0.0,
        )
        return value, bundle

    d_S, d_Lm, d_L = _chain_convolved(ds.X, sys.rows, hp, mg)
    bundle = GradientBundle(
        d_S=d_S, d_Lm=d_Lm, d_L=d_L, d_sigma=d_sigma,
        d_pi_logits=softmax_chain(pi, d_pi_raw),
        d_alpha0=v_alpha0 * cfg.alpha0 if cfg.use_dirichlet else 0.0,
    )
    return value, bundle


def grad_cvb(ds, cfg, hp, state):
    return elbo_cvb_with_grad(ds, cfg, hp, state)[1]


def scmgp_loglik_with_grad(ds, cfg, hp):
    """Fully-labeled sparse likelihood and its (theta, sigma) gradient."""
    from .bounds import labeled_selection

    rows = labeled_selection(ds, cfg.M)
    d_blocks = [np.full(len(r), hp.noise.sigma[m] ** 2) for m, r in enumerate(rows)]
    sys = engine.build_system(ds.X, ds.y, hp, rows, d_blocks)
    value = engine.gauss_loglik(sys)
    mg = engine.gauss_loglik_grads(sys)
    d_sigma = np.array(
        [
            2.0 * hp.noise.sigma[m] ** 2 * np.trace(mg.dE_blocks[m])
            if len(rows[m])
            else 0.0
            for m in range(cfg.M)
        ]
    )
    if isinstance(hp, IndependentSEHyperParams):
        d_amp, d_prec = _chain_independent(ds.X, rows, hp, mg)
        return value, GradientBundle(d_S=d_amp, d_Lm=d_prec, d_sigma=d_sigma)
    d_S, d_Lm, d_L = _chain_convolved(ds.X, rows, hp, mg)
    return value, GradientBundle(d_S=d_S, d_Lm=d_Lm, d_L=d_L, d_sigma=d_sigma)


# ---------------------------------------------------------------------------
# stochastic-bound gradient
# ---------------------------------------------------------------------------


def elbo_svb_with_grad(ds, cfg, hp, state, batch=None):
    """Stochastic bound value and gradient (mini-batch scaled like the bound).

    Only the batch rows of the data are read.  Rows of d_pi_logits
    outside the batch are zero, and d_alpha0 and d_sigma count only the
    batch rows (scaled by N/|batch|).
    """
    if not isinstance(hp, HyperParams):
        raise TypeError("the stochastic bound requires the convolved sparse model")
    kuu, cho = _jittered_kuu(hp)
    Q = kuu.shape[0]
    if batch is None:
        rows_idx = np.arange(ds.n)
        scale = 1.0
    else:
        rows_idx = np.asarray(batch, dtype=int)
        scale = ds.n / len(rows_idx)
    Xb = ds.X[rows_idx]
    yb = ds.y[rows_idx]
    pi_b = state.pi_hat[rows_idx]
    mu_u, Su = state.mu_u, state.Su
    from scipy.linalg import cho_solve

    value = 0.0
    d_mu_u = np.zeros(Q)
    d_S_mat = np.zeros((Q, Q))
    dKuu = np.zeros((Q, Q))
    dKfu_blocks = []
    dDiagKff = []
    dD_cols = []
    kuu_inv = cho_solve(cho, np.eye(Q))
    for m, out in enumerate(hp.outputs):
        kfu = kernels.kfu_matrix(Xb, hp.inducing.W, out, hp.latent)
        kffd = np.full(len(rows_idx), kernels.kff_diag_value(out, hp.latent))
        phi = cho_solve(cho, kfu.T).T
        mu = phi @ mu_u
        var = kffd - np.sum(phi * kfu, axis=1) + np.sum((phi @ Su) * phi, axis=1)
        var = np.maximum(var, 0.0)
        sig = hp.noise.sigma[m]
        value += float(np.sum(expected_loglik_terms(yb, mu, var, pi_b[:, m], sig)))
        dtil = pi_b[:, m] / sig**2
        a_m = dtil * (yb - mu)
        w_m = -0.5 * dtil
        d_mu_u += phi.T @ a_m
        d_S_mat += phi.T @ (phi * w_m[:, None])
        # dPhi: a mu' + diag(w) (2 Phi Su - Kfu)
        dPhi = np.outer(a_m, mu_u) + w_m[:, None] * (2.0 * (phi @ Su) - kfu)
        dKfu_m = dPhi @ kuu_inv - w_m[:, None] * phi
        dKuu += -phi.T @ dPhi @ kuu_inv
        dKfu_blocks.append(dKfu_m)
        dDiagKff.append(w_m)
        # d/d dtil of the per-datum term, chained to sigma and pi below
        resid2 = (yb - mu) ** 2
        dD_cols.append(0.5 / dtil - 0.5 * (resid2 + var))
    # V rows of the batch only: nothing outside it is read
    d_pi_raw, d_alpha0, _ = vterm_partials(state, ds, cfg, hp.noise, rows=rows_idx)
    value += float(np.sum(vterm_rows(state, ds, cfg, hp.noise, rows=rows_idx)))
    d_sigma = np.zeros(cfg.M)
    for m in range(cfg.M):
        dtil_dpi = 1.0 / hp.noise.sigma[m] ** 2
        d_pi_raw[:, m] += dD_cols[m] * dtil_dpi
        # log-sigma chain: d dtil/d log sigma = -2 pi/sigma^2
        d_sigma[m] += float(np.sum(dD_cols[m] * (-2.0 * pi_b[:, m] / hp.noise.sigma[m] ** 2)))
        # third-term rows in batch; summed per output, since the axis-0 sum
        # of vterm_partials rounds differently
        d_sigma[m] += float(np.sum(1.0 - pi_b[:, m]))

    # scale data terms, then subtract the (unscaled) KL and its gradients
    value *= scale
    d_mu_u *= scale
    d_S_mat *= scale
    dKuu *= scale
    d_sigma *= scale
    d_pi_raw *= scale
    d_alpha0 *= scale
    d_pi_logits = np.zeros_like(state.pi_hat)
    d_pi_logits[rows_idx] = softmax_chain(pi_b, d_pi_raw)
    mg = engine.MatrixGrads(
        dE_blocks=[None] * cfg.M,
        dKfu_blocks=[scale * b for b in dKfu_blocks],
        dKuu=None,
    )
    d_S, d_Lm, d_L = _chain_convolved(
        ds.X, [rows_idx] * cfg.M, hp, mg, batch_diag=[scale * w for w in dDiagKff]
    )

    value -= gaussian_kl_u(mu_u, Su, kuu)
    su_inv = np.linalg.inv(Su)
    d_mu_u -= cho_solve(cho, mu_u)
    d_S_mat -= 0.5 * (kuu_inv - su_inv)
    kinv_mu = cho_solve(cho, mu_u)
    dKuu -= 0.5 * (kuu_inv - kuu_inv @ Su @ kuu_inv - np.outer(kinv_mu, kinv_mu))
    # chain the Kuu path (data term + KL) to the latent precision
    _, dKuu_dL = kernels.kuu_matrix_grads(hp.inducing.W, hp.latent)
    d_L += np.einsum("qp,dqp->d", dKuu, dKuu_dL) * hp.latent.L

    # Cholesky chain for Su = Lc Lc', with a log-diagonal parameterization
    Lc = np.linalg.cholesky(Su)
    d_Lc = (d_S_mat + d_S_mat.T) @ Lc
    d_Lc = np.tril(d_Lc)
    d_Lc[np.diag_indices(Q)] *= np.diag(Lc)

    bundle = GradientBundle(
        d_S=d_S,
        d_Lm=d_Lm,
        d_L=d_L,
        d_sigma=d_sigma,
        d_pi_logits=d_pi_logits,
        d_alpha0=d_alpha0 * cfg.alpha0 if cfg.use_dirichlet else 0.0,
        d_mu_u=d_mu_u,
        d_su_chol=d_Lc,
    )
    return value, bundle


def grad_svb(ds, cfg, hp, state, batch=None):
    return elbo_svb_with_grad(ds, cfg, hp, state, batch)[1]


# ---------------------------------------------------------------------------
# finite-difference harness
# ---------------------------------------------------------------------------


@dataclass
class FiniteDiffReport:
    rel_errors: np.ndarray
    fd: np.ndarray
    analytic: np.ndarray
    names: list

    @property
    def max_rel_error(self):
        return float(np.max(self.rel_errors)) if len(self.rel_errors) else 0.0

    @property
    def worst(self):
        if not len(self.rel_errors):
            return None
        i = int(np.argmax(self.rel_errors))
        name = self.names[i] if self.names else str(i)
        return name, float(self.rel_errors[i])

    def __str__(self):
        w = self.worst
        return "max rel err %.3e at %s" % (self.max_rel_error, w[0] if w else "-")


def finite_diff_check(scalar_fn, grad, params, h=1e-5, names=None):
    """Central-difference check of an analytic gradient.

    Steps per coordinate are h * (1 + |param|); relative error uses
    max(1, |analytic|, |fd|) in the denominator so near-zero entries are
    judged on an absolute scale.
    """
    params = np.asarray(params, dtype=float)
    grad = np.asarray(grad(params) if callable(grad) else grad, dtype=float)
    fd = np.empty_like(params)
    for i in range(len(params)):
        step = h * (1.0 + abs(params[i]))
        xp = params.copy()
        xm = params.copy()
        xp[i] += step
        xm[i] -= step
        fd[i] = (scalar_fn(xp) - scalar_fn(xm)) / (2.0 * step)
    denom = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(fd)))
    rel = np.abs(grad - fd) / denom
    return FiniteDiffReport(rel_errors=rel, fd=fd, analytic=grad, names=names)

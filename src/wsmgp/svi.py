"""Stochastic variational bound with an explicit Gaussian inducing posterior.

The bound replaces the collapsed Gaussian term by per-datum variational
expectations under q(f_m) = int p(f_m | u) q(u) du with
q(u) = N(mu_u, Su):

    sum_{n,m} E[log N(y_n | [f_m]_n, sigma_m^2 / pi_hat[n,m])]
    - KL(q(u) || p(u)) + V.

Only marginal means/variances of q(f_m) are ever materialized, and the
per-row parts of V are evaluated on the batch rows alone, so a
mini-batch evaluation costs O(Q^3) for the KL plus O(|batch| M Q^2) for
the data and V terms; per-observation terms are rescaled by N/|batch|
while the KL term is not.  Still O(N) per step: the zero (N, M) logit
gradient that the batch rows are scattered into, and, in the trainer,
decoding all N logit rows and the dense Adam update.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import kernels
from .bounds import compute_D, vterm_rows
from .kernels import CovBlocks

_LOG2PI = float(np.log(2.0 * np.pi))


@dataclass
class QfMoments:
    """Marginal mean and variance diagonal of q(f_m) at the training inputs."""

    mu: np.ndarray
    var_diag: np.ndarray


def _moments_from_blocks(cho_kuu, kfu, kff_diag, mu_u, Su):
    phi = cho_solve(cho_kuu, kfu.T).T  # Kfu Kuu^-1
    mu = phi @ mu_u
    var = kff_diag - np.sum(phi * kfu, axis=1) + np.sum((phi @ Su) * phi, axis=1)
    return mu, np.maximum(var, 0.0), phi


def qf_moments(cov: CovBlocks, m, mu_u, Su):
    """Moments of q(f_m) from assembled covariance blocks.

    mu = Kfu Kuu^-1 mu_u and the variance diagonal of
    Kff + Kfu Kuu^-1 (Su - Kuu) Kuu^-1 Kuf, clamped at zero.
    """
    cho = cho_factor(cov.Kuu, lower=True)
    n = cov.Bdiag[m].shape[0]
    kffd = cov.kff_diag[m * n : (m + 1) * n]
    mu, var, _ = _moments_from_blocks(cho, cov.kfu_block(m), kffd, mu_u, Su)
    return QfMoments(mu=mu, var_diag=var)


def gaussian_kl_u(mu_u, Su, Kuu):
    """KL(N(mu_u, Su) || N(0, Kuu)); both covariances must be PD."""
    Q = len(mu_u)
    cho_k = cho_factor(Kuu, lower=True)
    cho_s = cho_factor(Su, lower=True)
    logdet_k = 2.0 * np.sum(np.log(np.diag(cho_k[0])))
    logdet_s = 2.0 * np.sum(np.log(np.diag(cho_s[0])))
    trace = float(np.trace(cho_solve(cho_k, Su)))
    quad = float(mu_u @ cho_solve(cho_k, mu_u))
    return 0.5 * (trace + quad - Q + logdet_k - logdet_s)


def expected_loglik_terms(y, mu, var, pi_col, sigma_m):
    """Closed-form per-datum expectation terms for one output.

    E[log N(y | f, sigma^2/pi)] with f ~ N(mu, var) equals
    log N(y | mu, sigma^2/pi) - 0.5 * (pi/sigma^2) * var.
    """
    prec = pi_col / sigma_m**2
    resid = y - mu
    return 0.5 * np.log(prec) - 0.5 * _LOG2PI - 0.5 * prec * (resid * resid + var)


def _jittered_kuu(hp):
    kuu_raw = kernels.kuu_matrix(hp.inducing.W, hp.latent)
    cho, jitter = kernels.chol_jitter(kuu_raw)
    return kuu_raw + jitter * np.eye(kuu_raw.shape[0]), cho


def elbo_svb(ds, cfg, hp, state, batch=None):
    """Stochastic variational bound; full-batch when batch is None."""
    kuu, cho = _jittered_kuu(hp)
    if batch is None:
        rows = np.arange(ds.n)
        scale = 1.0
    else:
        rows = np.asarray(batch, dtype=int)
        scale = ds.n / len(rows)
    Xb = ds.X[rows]
    yb = ds.y[rows]
    pi_b = state.pi_hat[rows]
    data = 0.0
    for m, out in enumerate(hp.outputs):
        kfu = kernels.kfu_matrix(Xb, hp.inducing.W, out, hp.latent)
        kffd = np.full(len(rows), kernels.kff_diag_value(out, hp.latent))
        mu, var, _ = _moments_from_blocks(cho, kfu, kffd, state.mu_u, state.Su)
        data += float(
            np.sum(expected_loglik_terms(yb, mu, var, pi_b[:, m], hp.noise.sigma[m]))
        )
    v_rows = vterm_rows(state, ds, cfg, hp.noise, rows=rows)
    kl = gaussian_kl_u(state.mu_u, state.Su, kuu)
    return scale * (data + float(np.sum(v_rows))) - kl


def optimal_qu(ds, cfg, hp, state):
    """Closed-form maximizer (mu_u, Su) of the bound at fixed remaining parameters.

    Written through the push-through identity to avoid explicit Kuu
    inverses:  Su = Kuu (Kuu + C)^-1 Kuu  and
    mu_u = Kuu (Kuu + C)^-1 Kuf Dinv y_tiled, with
    C = Kuf Dinv Kfu and Dinv holding pi_hat/sigma^2.
    """
    kuu, cho = _jittered_kuu(hp)
    Q = kuu.shape[0]
    C = np.zeros((Q, Q))
    rhs = np.zeros(Q)
    D = compute_D(state, hp.noise)
    for m, out in enumerate(hp.outputs):
        kfu = kernels.kfu_matrix(ds.X, hp.inducing.W, out, hp.latent)
        dinv = 1.0 / D.block(m)
        C += kfu.T @ (kfu * dinv[:, None])
        rhs += kfu.T @ (dinv * ds.y)
    A = kuu + C
    A = 0.5 * (A + A.T)
    cho_A = cho_factor(A, lower=True)
    Su = kuu @ cho_solve(cho_A, kuu)
    Su = 0.5 * (Su + Su.T)
    # keep Su factorizable when the optimum is numerically singular
    Su += 1e-10 * float(np.mean(np.diag(kuu))) * np.eye(Q)
    mu_u = kuu @ cho_solve(cho_A, rhs)
    return mu_u, Su

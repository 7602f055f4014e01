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
while the KL term is not.

The moments come from one forward pass in two parts.  The row constants
Phi_m = Kfu_m Kuu^-1 and r_m = diag(Kff_m) - rowsum(Phi_m o Kfu_m)
(_row_constants) depend on the hyperparameters alone; _qu_moments turns
them into mu = Phi mu_u and var = r + rowsum(Phi Su o Phi).  Each row's
constants are computed on their own (the triangular solves column by
column, the sums row by row), so constants built on all N rows and then
gathered equal those built on the gathered rows bit for bit.

elbo_svb and elbo_svb_with_grad build the constants at their rows on
every call.  The trainer's E-phase holds the hyperparameters fixed for a
round, so it builds them once per round over all N rows (row_tables: one
N-row Kfu block and one Kuu solve with Q x N right-hand sides per
output, the blocks sharing one set of squared differences, O(M N Q^2);
they hold M N (Q + 1) doubles, 2.0 MB at N = 4000,
M = 2, Q = 30).  A mini-batch step (gradients.svb_variational_grad) then
gathers its rows and does only the q(u) part, O(|batch| M Q^2 + Q^3),
with no kernel matrix and no Kuu solve; what stays O(N) per step is the
flat gradient vector and the dense Adam update.

The matrix products with a batch-row operand (Phi Su here, Kuf Dinv Kfu
in optimal_qu, and those of the gradients built on these moments) run
in scipy's BLAS through engine._gemm, the library that also runs the
Cholesky solves, so an evaluation uses one OpenBLAS thread pool; the
engine docstring says why.  Phi Su is computed once per output and
handed to the gradients.
"""

from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import engine, kernels
from .bounds import compute_D, vterm_rows

_LOG2PI = float(np.log(2.0 * np.pi))


class RowTables(NamedTuple):
    """Every output's row constants at a set of rows, for one set of hyperparameters.

    phi[m] = Kfu_m Kuu^-1 (rows, Q) and r[m] = diag(Kff_m) - rowsum(phi[m] o Kfu_m)
    (rows,).  Gathering rows from tables built on all N rows gives the
    tables of those rows bit for bit.
    """

    phi: np.ndarray  # (M, rows, Q)
    r: np.ndarray  # (M, rows)

    def gather(self, rows):
        """(phi, r) of `rows`, each output's block C-ordered like tables built on them.

        The layout matters: numpy's matrix-vector products on a strided
        block round differently.  phi[:, rows] would lay the rows out
        first; np.take keeps each output's block contiguous.
        """
        return np.take(self.phi, rows, axis=1), np.take(self.r, rows, axis=1)


def row_tables(X, hp, cho_kuu):
    """RowTables at the rows of X, with Kuu factored as cho_kuu (from _jittered_kuu)."""
    M, N, Q = hp.n_outputs, X.shape[0], cho_kuu[0].shape[0]
    phi = np.empty((M, N, Q))
    r = np.empty((M, N))
    t2 = kernels.sqdiff(X, hp.inducing.W)
    for m, out in enumerate(hp.outputs):
        kfu = kernels.kfu_block(t2, out, hp.latent).K
        phi[m], r[m] = _row_constants(cho_kuu, kfu, kernels.kff_diag_value(out, hp.latent))
    return RowTables(phi, r)


def _row_constants(cho_kuu, kfu, kff_diag):
    """The part of q(f_m)'s moments that q(u) does not enter: (Phi, r) at the rows of kfu.

    Phi = Kfu Kuu^-1 and r = diag(Kff) - rowsum(Phi o Kfu), the Nystrom
    residual of each row's prior variance.
    """
    phi = cho_solve(cho_kuu, kfu.T).T  # Kfu Kuu^-1
    return phi, kff_diag - np.sum(phi * kfu, axis=1)


def _qu_moments(phi, r, mu_u, Su):
    """Moments of q(f_m) from the row constants: (mu, var clamped at 0, Phi Su).

    mu = Phi mu_u and var = diag(Kff + Phi (Su - Kuu) Phi') = r + rowsum(Phi Su o Phi);
    Phi Su is returned for the callers' gradients.
    """
    mu = phi @ mu_u
    phi_su = engine._gemm(phi, Su)
    var = r + np.sum(phi_su * phi, axis=1)
    return mu, np.maximum(var, 0.0), phi_su


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


def _jittered(kuu_raw):
    """(Kuu with chol_jitter's jitter on its diagonal, its Cholesky factor)."""
    cho, jitter = kernels.chol_jitter(kuu_raw)
    return kuu_raw + jitter * np.eye(kuu_raw.shape[0]), cho


def _jittered_kuu(hp):
    return _jittered(kernels.kuu_matrix(hp.inducing.W, hp.latent))


def elbo_svb(ds, cfg, hp, state, batch=None):
    """Stochastic variational bound; full-batch when batch is None."""
    kuu, cho = _jittered_kuu(hp)
    if batch is None:
        rows = np.arange(ds.n)
        scale = 1.0
    else:
        rows = np.asarray(batch, dtype=int)
        scale = ds.n / len(rows)
    yb = ds.y[rows]
    pi_b = state.pi_hat[rows]
    tables = row_tables(ds.X[rows], hp, cho)
    data = 0.0
    for m in range(hp.n_outputs):
        mu, var, _ = _qu_moments(tables.phi[m], tables.r[m], state.mu_u, state.Su)
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
    t2 = kernels.sqdiff(ds.X, hp.inducing.W)
    for m, out in enumerate(hp.outputs):
        kfu = kernels.kfu_block(t2, out, hp.latent).K
        dinv = 1.0 / D.block(m)
        C += engine._gemm(kfu.T, kfu * dinv[:, None])
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

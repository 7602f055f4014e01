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
Phi_m = Kfu_m Kuu^-1 and r_m = diag(Kff_m) - rowsum(Psi_m o Psi_m) with
Psi_m = Kfu_m L^-T (_row_constants: two right-side triangular solves
with Kuu's Cholesky factor L, O(rows Q^2) per output) depend on the
hyperparameters alone; _qu_moments turns them into mu = Phi mu_u and
var = r + rowsum(Phi Su o Phi).  Each row's constants are computed on
their own, so constants built on all N rows and then gathered equal
those built on the gathered rows bit for bit.  Every output's constants
are held as one (M, rows, Q) stack (RowTables), and _qu_moments treats
the stack as one operand of M |rows| rows: one matrix-vector product
gives every mu and one product Phi Su every variance, with no loop over
the outputs.

Who calls what:
  * elbo_svb (the bound alone; trainer.fit_svb_em records it once per
    round) and gradients.elbo_svb_with_grad build the constants at
    their rows on every call.  The gradient reads the constants only; it
    sums the data term in Q x Q form and needs neither the per-row
    variances nor Phi Su.
  * The trainer's E-phase holds the hyperparameters fixed for a round,
    so it builds them once per round over all N rows (row_tables: one
    N-row Kfu block and two N-row triangular solves per output, the
    blocks sharing one set of squared differences, O(M N Q^2); they
    hold M N (Q + 1) doubles, 2.0 MB at N = 4000, M = 2, Q = 30).  Each
    mini-batch step (batch_step) gathers its rows and takes two
    closed-form coordinate steps, O(|batch| M Q^2 + Q^3) with no kernel
    matrix, no Kuu solve and no O(N) work: the batch rows' assignment
    probabilities are set to their optimum given q(u)
    (_assignment_rows), then q(u)'s natural parameters (Su^-1,
    Su^-1 mu_u) move a step rho = |batch| / N toward the batch estimate
    of their optimum (_qu_estimate), the stochastic variational inference
    step of Hoffman, Blei, Wang & Paisley (2013) and Hensman, Fusi &
    Lawrence (2013).
  * q(u) has one closed form, _qu_estimate at scale 1 on every row:
    the full-batch step, where rho = 1.  optimal_qu takes it from tables
    it builds; the trainer takes it from the round's tables before the
    first round and after each M-phase, and those tables, Kuu^-1 and
    the NaturalQu serve the next round's E-phase.

The matrix products with a batch-row operand (Phi Su, Phi' D Phi in
_qu_estimate, and those of the gradient) run
in scipy's BLAS through engine._gemm, the library that also runs the
triangular solves and the Cholesky factorizations, so an evaluation uses
one OpenBLAS thread pool; the engine docstring says why.
"""

from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dtrsm
from scipy.special import digamma

from . import engine, kernels
from .bounds import vterm_rows
from .model import softmax_simplex

_LOG2PI = float(np.log(2.0 * np.pi))


class RowTables(NamedTuple):
    """Every output's row constants at a set of rows, for one set of hyperparameters.

    phi[m] = Kfu_m Kuu^-1 (rows, Q) and r[m] (rows,), the Nystrom residual
    diag(Kff_m - Kfu_m Kuu^-1 Kuf_m), from _row_constants.  Gathering rows from tables built on all N rows gives the
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
    t2 = kernels.sqdiff(X, hp.inducing.W)
    return _tables_of([kernels.kfu_block(t2, out, hp.latent).K for out in hp.outputs], hp,
                      cho_kuu)


def _tables_of(kfu, hp, cho_kuu):
    """RowTables of the rows of every output's Kfu block kfu[m] (rows, Q)."""
    M, (N, Q) = len(kfu), kfu[0].shape
    phi = np.empty((M, N, Q))
    r = np.empty((M, N))
    for m, out in enumerate(hp.outputs):
        phi[m], r[m] = _row_constants(cho_kuu, kfu[m], kernels.kff_diag_value(out, hp.latent))
    return RowTables(phi, r)


def _row_constants(cho_kuu, kfu, kff_diag):
    """The part of q(f_m)'s moments that q(u) does not enter: (Phi, r) at the rows of kfu.

    With Kuu = L L', Psi = Kfu L^-T and Phi = Psi L^-1 = Kfu Kuu^-1 come
    from two right-side triangular solves (LAPACK dtrsm) on a
    column-major copy of the rows, and r = diag(Kff) - rowsum(Psi o Psi)
    is the Nystrom residual of each row's prior variance.  OpenBLAS
    rounds a one-row block differently from the same row inside a
    larger block, so a single row is solved with a zero row beside it.
    Phi is returned column-major.
    """
    c, lower = cho_kuu
    n = kfu.shape[0]
    psi = np.zeros((max(n, 2), kfu.shape[1]), order="F")
    psi[:n] = kfu
    # an upper factor U (Kuu = U'U) is L', so its solves take the other transpose
    low = int(lower)
    psi = dtrsm(1.0, c, psi, side=1, lower=low, trans_a=low, overwrite_b=1)
    # einsum sums each row in the same order whatever the number of rows
    r = kff_diag - np.einsum("nq,nq->n", psi[:n], psi[:n])
    phi = dtrsm(1.0, c, psi, side=1, lower=low, trans_a=1 - low, overwrite_b=1)
    return phi[:n], r


def _qu_moments(phi, r, mu_u, Su):
    """Moments of q(f) from the row constants: (mu, var clamped at 0).

    mu = Phi mu_u and var = diag(Kff + Phi (Su - Kuu) Phi') = r + rowsum(Phi Su o Phi).
    phi is one output's (rows, Q) block or every output's (M, rows, Q)
    stack with r shaped like phi without its last axis; a stack is one
    (M rows, Q) operand, so Phi Su is a single product over all outputs.
    """
    flat = phi.reshape(-1, phi.shape[-1])
    mu = (flat @ mu_u).reshape(r.shape)
    var = r + np.sum(engine._gemm(flat, Su) * flat, axis=1).reshape(r.shape)
    return mu, np.maximum(var, 0.0)


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
    """Closed-form per-datum expectation terms for one output, or for a stack of them.

    E[log N(y | f, sigma^2/pi)] with f ~ N(mu, var) equals
    log N(y | mu, sigma^2/pi) - 0.5 * (pi/sigma^2) * var.  For the stack,
    mu, var and pi_col are (M, rows) and sigma_m is (M, 1).
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
    tables = row_tables(ds.X[rows], hp, cho)
    mu, var = _qu_moments(tables.phi, tables.r, state.mu_u, state.Su)
    data = float(np.sum(expected_loglik_terms(
        ds.y[rows], mu, var, state.pi_hat[rows].T, hp.noise.sigma[:, None]
    )))
    v_rows = vterm_rows(state, ds, cfg, hp.noise, rows=rows)
    kl = gaussian_kl_u(state.mu_u, state.Su, kuu)
    return scale * (data + float(np.sum(v_rows))) - kl


def optimal_qu(ds, cfg, hp, state):
    """Closed-form maximizer (mu_u, Su) of the bound at fixed remaining parameters.

    The full-batch natural parameters of _qu_estimate at scale 1,
    Su^-1 = Kuu^-1 + sum_m Phi_m' diag(pi_m / sigma_m^2) Phi_m and
    Su^-1 mu_u = sum_m Phi_m' (pi_m / sigma_m^2 o y), from the row
    tables over all N rows; the full-batch step of stochastic variational
    inference (Hensman, Fusi & Lawrence, 2013).
    """
    _, cho = _jittered_kuu(hp)
    tables = row_tables(ds.X, hp, cho)
    return _qu_estimate(tables.phi, ds.y, state.pi_hat, hp.noise.sigma,
                        engine.cho_inverse(cho), 1.0).moments()


# ---------------------------------------------------------------------------
# the closed-form steps of the stochastic fit's E-phase
# ---------------------------------------------------------------------------


class NaturalQu(NamedTuple):
    """q(u) = N(mu_u, Su) in natural parameters: lam = Su^-1 and h = Su^-1 mu_u."""

    lam: np.ndarray
    h: np.ndarray

    @classmethod
    def of(cls, mu_u, Su):
        cho = cho_factor(Su, lower=True)
        return cls(engine.cho_inverse(cho), cho_solve(cho, mu_u))

    def moments(self):
        """(mu_u, Su)."""
        cho = cho_factor(self.lam, lower=True)
        return cho_solve(cho, self.h), engine.cho_inverse(cho)


def _assignment_rows(mu, var, y, sigma, pi, labeled, log_prior, cfg):
    """The rows' assignment probabilities at their optimum given q(u).

    mu and var are the rows' moments of q(f) (M, rows) from _qu_moments;
    y, pi, labeled and log_prior are the rows' entries.  With
    c_nm = -[((y_n - mu_nm)^2 + var_nm) / sigma_m^2 + log 2 pi sigma_m^2] / 2
    a row's share of the bound is sum_m pi_nm c_nm minus that row's KL
    (the log pi_nm / 2 of the expected log-likelihood cancels V's), and
    no N / |batch| scale enters.  So the new row is softmax(log prior + c)
    on a labeled row and softmax(c) on an unlabeled row without the
    Dirichlet prior.  With it, the bounds hold q(Pi_n) at its optimum
    Dir(alpha0 + pi_n) given the old row, and softmax(c + digamma(alpha0 + pi_n))
    is the exact coordinate step of q(Z_n) given that q(Pi_n); moving
    q(Pi_n) to its optimum at the new row can only raise the bound
    again, so one such mean-field sweep never lowers the bound.  Rows
    keep the simplex floor.
    """
    s2 = (sigma**2)[:, None]
    resid = y - mu
    c = -0.5 * ((resid * resid + var) / s2 + np.log(2.0 * np.pi * s2))
    unlabeled = digamma(cfg.alpha0 + pi) if cfg.use_dirichlet else 0.0
    # log_prior is NaN on unlabeled rows, which take the other branch
    return softmax_simplex(c.T + np.where(labeled[:, None], log_prior, unlabeled))


def _qu_estimate(phi, y, pi, sigma, kuu_inv, scale):
    """The batch estimate of the optimal q(u)'s natural parameters, as a NaturalQu.

    lam = Kuu^-1 + scale sum_m Phi_m' diag(pi_m / sigma_m^2) Phi_m and
    h = scale sum_m Phi_m' (pi_m / sigma_m^2 o y), with phi the rows'
    (M, rows, Q) constants and pi, y their entries.  At the full batch
    (scale 1) these are the natural parameters of optimal_qu's q(u).
    """
    Q = phi.shape[-1]
    d = pi.T / (sigma**2)[:, None]
    flat = phi.reshape(-1, Q)
    lam = engine._gemm(flat.T, flat * d.reshape(-1, 1))
    lam *= scale
    lam += kuu_inv
    return NaturalQu(lam, scale * (flat.T @ (d * y).ravel()))


def batch_step(ds, cfg, sigma, tables, kuu_inv, rows, pi, qu):
    """One E-phase step on the batch rows: pi's rows in place, and q(u)'s new NaturalQu.

    tables are the round's RowTables over all N rows and kuu_inv the
    round's Kuu^-1.  The batch rows of pi are set by _assignment_rows at
    the current q(u); then q(u) moves a step rho = |rows| / N from qu
    toward _qu_estimate at the new rows, theta <- (1 - rho) theta +
    rho theta_hat in natural parameters, which is the natural-gradient
    step of size rho.  Only the batch rows of the tables, the data and
    pi are read.
    """
    rows = np.asarray(rows, dtype=int)
    phi, r = tables.gather(rows)
    y = ds.y[rows]
    mu, var = _qu_moments(phi, r, *qu.moments())
    pi_b = _assignment_rows(mu, var, y, sigma, pi[rows], ds.labels[rows] > 0,
                            ds.log_prior[rows], cfg)
    pi[rows] = pi_b
    rho = len(rows) / ds.n
    est = _qu_estimate(phi, y, pi_b, sigma, kuu_inv, ds.n / len(rows))
    return NaturalQu(*((1.0 - rho) * old + rho * new for old, new in zip(qu, est)))

"""Stochastic variational bound with an explicit Gaussian inducing posterior.

The inducing variables are whitened: with chol_jitter's factor L of Kuu,
Kuu = L L' (jitter included), u = L v and p(v) = N(0, I) (Hensman,
Matthews & Ghahramani 2015).  The bound replaces the collapsed Gaussian term by
per-datum variational expectations under
q(f_m) = int p(f_m | v) q(v) dv with q(v) = N(mu_u, Su):

    sum_{n,m} E[log N(y_n | [f_m]_n, sigma_m^2 / pi_hat[n,m])]
    - KL(q(v) || N(0, I)) + V,

with each expectation's noise normaliser carried in V (bounds).  The
state's fields keep their names, mu_u and Su, and hold q(v); q(u) is
N(L mu_u, L Su L').  The KL reads no kernel matrix, so it has no
hyperparameter partial.

Only marginal means/variances of q(f_m) are ever materialized, and the
per-row parts of V are evaluated on the batch rows alone, so a
mini-batch evaluation costs O(Q^3) for the KL plus O(|batch| M Q^2) for
the data and V terms; per-observation terms are rescaled by N/|batch|
while the KL term is not.

The moments come from one forward pass in two parts.  The row constants
Psi_m = Kfu_m L^-T and r_m = diag(Kff_m) - rowsum(Psi_m o Psi_m)
(_tables_of, one kernels.whiten per output) depend on the
hyperparameters alone; _qu_moments turns them into mu = Psi mu_u and
var = r + rowsum(Psi Su o Psi).  Each row's constants are computed on
their own, so constants built on all N rows and then gathered equal
those built on the gathered rows bit for bit.  Every output's constants
are held as one (M, rows, Q) stack (RowTables), treated as one operand
of M |rows| rows, with no loop over the outputs.

The stochastic fit (trainer.fit_svb_em) builds the row tables over all
N rows and q(v)'s closed form once per hyperparameter setting (M N (Q + 1)
doubles, 2.0 MB at N = 4000, M = 2, Q = 30); it takes both from
gradients.elbo_svb_with_grad's full-batch call with qu_optimum, and
qu_restart builds the same from scratch.  batch_step then takes two
closed-form coordinate steps on the batch rows in
O(|batch| M Q^2 + Q^3), with no kernel matrix and no O(N) work: the
rows' assignment probabilities go to their optimum given q(v)
(bounds.assignment_rows), then q(v)'s natural parameters move a step
rho = |batch| / N toward the batch estimate of their optimum
(_qu_estimate), the stochastic variational inference step of Hoffman,
Blei, Wang & Paisley (2013) and Hensman, Fusi & Lawrence (2013).

The matrix products with a batch-row operand run in scipy's BLAS through
engine._gemm, the library that also runs the triangular solves and the
Cholesky factorizations, so an evaluation uses one OpenBLAS thread
pool; the engine docstring says why.
"""

from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri

from . import engine, kernels
from .bounds import assignment_rows, vterm_rows
from .kernels import cho_factor


class RowTables(NamedTuple):
    """Every output's row constants at a set of rows, for one set of hyperparameters.

    psi[m] = Kfu_m L^-T (rows, Q) and r[m] (rows,), the Nystrom residual
    diag(Kff_m) - rowsum(Psi_m o Psi_m).  Gathering rows from tables
    built on all N rows gives the tables of those rows bit for bit.
    """

    psi: np.ndarray  # (M, rows, Q)
    r: np.ndarray  # (M, rows)

    def gather(self, rows):
        """(psi, r) of `rows`, each output's block C-ordered like tables built on them.

        The layout matters: numpy's matrix-vector products on a strided
        block round differently.  psi[:, rows] would lay the rows out
        first; np.take keeps each output's block contiguous.
        """
        return np.take(self.psi, rows, axis=1), np.take(self.r, rows, axis=1)


def row_tables(X, hp):
    """RowTables at the rows of X, with Kuu at hp factored by kernels.chol_jitter."""
    W = hp.inducing.W
    t2 = kernels.sqdiff(X, W)
    return _tables_of([kernels.kfu_block(t2, out, hp.latent).K for out in hp.outputs], hp,
                      kernels.chol_jitter(kernels.kuu_matrix(W, hp.latent))[0])


def _tables_of(kfu, hp, cho_kuu):
    """RowTables of the rows of every output's Kfu block kfu[m] (rows, Q).

    Psi_m = kernels.whiten(cho_kuu, Kfu_m), and einsum sums each row of
    Psi_m o Psi_m in the same order whatever the number of rows.
    """
    M, (N, Q) = len(kfu), kfu[0].shape
    psi = np.empty((M, N, Q))
    r = np.empty((M, N))
    for m, out in enumerate(hp.outputs):
        psi[m] = kernels.whiten(cho_kuu, kfu[m])
        r[m] = kernels.kff_diag_value(out, hp.latent) - np.einsum("nq,nq->n", psi[m], psi[m])
    return RowTables(psi, r)


def _qu_moments(psi, r, mu_u, Su):
    """Moments of q(f) from the row constants: (mu, var clamped at 0).

    mu = Psi m and var = diag(Kff + Psi (S - I) Psi') = r + rowsum(Psi S o Psi)
    for q(v) = N(m, S) = N(mu_u, Su).
    psi is one output's (rows, Q) block or every output's (M, rows, Q)
    stack with r shaped like psi without its last axis; a stack is one
    (M rows, Q) operand, so Psi S is a single product over all outputs.
    """
    flat = psi.reshape(-1, psi.shape[-1])
    mu = (flat @ mu_u).reshape(r.shape)
    var = r + np.sum(engine._gemm(flat, Su) * flat, axis=1).reshape(r.shape)
    return mu, np.maximum(var, 0.0)


def gaussian_kl_u(mu_u, Su):
    """KL(N(mu_u, Su) || N(0, I)), q(v) against its whitened prior; Su must be PD."""
    return 0.5 * (float(np.trace(Su)) + float(mu_u @ mu_u) - len(mu_u)
                  - engine._logdet_from_cho(cho_factor(Su)))


def expected_loglik_terms(y, mu, var, pi_col, sigma_m):
    """Per-datum expectation terms without their noise normaliser, one output or a stack.

    E[log N(y | f, sigma^2/pi)] with f ~ N(mu, var) equals
    -0.5 * log(2 pi sigma^2 / pi) - 0.5 * (pi/sigma^2) * ((y - mu)^2 + var);
    V carries the first part (bounds.vterm_rows), so this is the second,
    0 where pi is.  For the stack, mu, var and pi_col are (M, rows) and
    sigma_m is (M, 1).
    """
    prec = pi_col / sigma_m**2
    resid = y - mu
    return -0.5 * prec * (resid * resid + var)


def elbo_svb(ds, cfg, hp, state, batch=None):
    """Stochastic variational bound; full-batch when batch is None."""
    if batch is None:
        rows = np.arange(ds.n)
        scale = 1.0
    else:
        rows = np.asarray(batch, dtype=int)
        scale = ds.n / len(rows)
    tables = row_tables(ds.X[rows], hp)
    mu, var = _qu_moments(tables.psi, tables.r, state.mu_u, state.Su)
    data = float(np.sum(expected_loglik_terms(
        ds.y[rows], mu, var, state.pi_hat[rows].T, hp.noise.sigma[:, None]
    )))
    v_rows = vterm_rows(state, ds, cfg, hp.noise, rows=rows)
    kl = gaussian_kl_u(state.mu_u, state.Su)
    return scale * (data + float(np.sum(v_rows))) - kl


def qu_restart(ds, hp, pi):
    """q(v)'s closed form at hp and pi, with what it is built from: (tables, NaturalQu).

    Kuu is factored by chol_jitter, the row tables built over all N rows,
    and q(v) is _qu_estimate at scale 1 from them.
    gradients.elbo_svb_with_grad with qu_optimum returns the same pair
    on the full batch, its q(v) summed per output, so equal up to
    rounding.
    """
    tables = row_tables(ds.X, hp)
    return tables, _qu_estimate(tables.psi, ds.y, pi, hp.noise.sigma, 1.0)


def optimal_qu(ds, cfg, hp, state):
    """Closed-form maximizer (mu_u, Su) of q(v) = N(mu_u, Su) at fixed remaining parameters.

    The full-batch natural parameters of _qu_estimate at scale 1 (qu_restart),
    Su^-1 = I + sum_m Psi_m' diag(pi_m / sigma_m^2) Psi_m and
    Su^-1 mu_u = sum_m Psi_m' (pi_m / sigma_m^2 o y), from the row
    tables over all N rows; the full-batch step of stochastic variational
    inference (Hensman, Fusi & Lawrence, 2013).
    """
    return qu_restart(ds, hp, state.pi_hat)[1].moments()


# ---------------------------------------------------------------------------
# the closed-form steps of the stochastic fit's E-phase
# ---------------------------------------------------------------------------


class NaturalQu(NamedTuple):
    """q(v) = N(mu_u, Su) in natural parameters: lam = Su^-1 and h = Su^-1 mu_u."""

    lam: np.ndarray
    h: np.ndarray

    def factor(self):
        """The lower Cholesky factor of lam (LAPACK dpotrf), its other triangle zero.

        Its lower triangle is cho_factor(lam, lower=True)'s, with the
        same guards: a non-finite lam or h raises ValueError and a lam
        that is not positive definite np.linalg.LinAlgError.
        """
        if not (np.isfinite(self.lam).all() and np.isfinite(self.h).all()):
            raise ValueError("array must not contain infs or NaNs")
        c, info = dpotrf(self.lam, lower=1)
        if info > 0:
            raise np.linalg.LinAlgError(
                "%d-th leading minor of the array is not positive definite" % info)
        return c

    def moments(self):
        """(mu_u, Su)."""
        c = self.factor()
        return dpotrs(c, self.h, lower=1)[0], engine.cho_inverse((c, True))


def _qu_estimate(psi, y, pi, sigma, scale):
    """The batch estimate of the optimal q(v)'s natural parameters, as a NaturalQu.

    lam = I + scale sum_m Psi_m' diag(pi_m / sigma_m^2) Psi_m and
    h = scale sum_m Psi_m' (pi_m / sigma_m^2 o y), with psi the rows'
    (M, rows, Q) constants and pi, y their entries.  At the full batch
    (scale 1) these are the natural parameters of optimal_qu's q(v).
    """
    Q = psi.shape[-1]
    d = pi.T / (sigma**2)[:, None]
    flat = psi.reshape(-1, Q)
    lam = engine._gemm(flat.T, flat * d.reshape(-1, 1))
    lam *= scale
    lam.flat[:: Q + 1] += 1.0
    return NaturalQu(lam, scale * (flat.T @ (d * y).ravel()))


def batch_step(ds, cfg, sigma, tables, rows, pi, qu):
    """One E-phase step on the batch rows: pi's rows in place, and q(v)'s new NaturalQu.

    tables are the round's RowTables over all N rows.  The batch rows of
    pi are set by bounds.assignment_rows at the current q(v); then q(v)
    moves a step rho = |rows| / N from qu toward _qu_estimate at the new
    rows, theta <- (1 - rho) theta + rho theta_hat in natural parameters,
    which is the natural-gradient step of size rho.  Only the batch rows
    of the tables, the data and pi are read, each gathered once.

    q(v)'s moments at the rows come from one Cholesky factor C of lam,
    with no Su formed: mu = Psi mu_u with mu_u from C (dpotrs), and
    var = r + rowsum(Z o Z) with Z = Psi C^-T, since
    Psi Su Psi' = Z Z'.  C^-1 is LAPACK's dtrtri of C, the first half
    of the dpotri that would form Su.
    """
    rows = np.asarray(rows, dtype=int)
    psi, r = tables.gather(rows)
    y = ds.y[rows]
    c = qu.factor()
    flat = psi.reshape(-1, psi.shape[-1])
    mu = (flat @ dpotrs(c, qu.h, lower=1)[0]).reshape(r.shape)
    z = engine._gemm(flat, dtrtri(c, lower=1)[0].T)
    var = r + np.einsum("nq,nq->n", z, z).reshape(r.shape)
    np.maximum(var, 0.0, out=var)
    pi_b = assignment_rows(mu, var, y, sigma, pi[rows], ds.labels[rows] > 0,
                           ds.log_prior[rows], cfg)
    pi[rows] = pi_b
    rho = len(rows) / ds.n
    est = _qu_estimate(psi, y, pi_b, sigma, ds.n / len(rows))
    for new, old in zip(est, qu):
        new *= rho
        new += (1.0 - rho) * old
    return est

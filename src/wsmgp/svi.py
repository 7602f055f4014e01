"""Stochastic variational bound with an explicit Gaussian inducing posterior.

The bound replaces the collapsed Gaussian term by per-datum variational
expectations under q(f_m) = int p(f_m | u) q(u) du with
q(u) = N(mu_u, Su):

    sum_{n,m} E[log N(y_n | [f_m]_n, sigma_m^2 / pi_hat[n,m])]
    - KL(q(u) || p(u)) + V,

with each expectation's noise normaliser carried in V (bounds).

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

What the stochastic fit's E-phase reads (trainer describes the driver):
  * row tables over all N rows, once per hyperparameter setting (one
    N-row Kfu block and two N-row triangular solves per output,
    O(M N Q^2); M N (Q + 1) doubles, 2.0 MB at N = 4000, M = 2, Q = 30),
    with Kuu^-1 and q(u)'s closed form at scale 1 on every row.  The fit
    takes all three from gradients.elbo_svb_with_grad's full-batch call
    with qu_optimum at the round's hyperparameters, which builds them
    anyway; qu_restart builds the same from scratch (row_tables and
    _qu_estimate), and optimal_qu returns its q(u)'s moments.  elbo_svb
    and gradients.elbo_svb_with_grad build the constants at their rows
    unless the caller passes them.
  * batch_step gathers its rows of the tables once and takes two
    closed-form coordinate steps in O(|batch| M Q^2 + Q^3), with no
    kernel matrix, no Kuu solve and no O(N) work: the rows' assignment
    probabilities go to their optimum given q(u)
    (bounds.assignment_rows), then q(u)'s natural parameters
    (Su^-1, Su^-1 mu_u) move a step rho = |batch| / N toward the batch
    estimate of their optimum (_qu_estimate), the stochastic
    variational inference step of Hoffman, Blei, Wang & Paisley (2013)
    and Hensman, Fusi & Lawrence (2013).  One Cholesky factor of Su^-1
    gives mu_u and the variances; no step forms Su.

The matrix products with a batch-row operand (Phi Su in _qu_moments,
Phi L^-T in batch_step, Phi' D Phi in _qu_estimate, and those of the
gradient) run in scipy's BLAS through engine._gemm, the library that
also runs the triangular solves and inverses and the Cholesky
factorizations, so an evaluation uses one OpenBLAS thread pool; the
engine docstring says why.
"""

from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri

from . import engine, kernels
from .bounds import assignment_rows, vterm_rows
from .kernels import cho_factor, cho_solve


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
    """RowTables at the rows of X, with Kuu factored as cho_kuu (from kernels.jittered)."""
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


def gaussian_kl_u(mu_u, Su, cho_kuu):
    """KL(N(mu_u, Su) || N(0, Kuu)), given Kuu's factor cho_kuu; Su must be PD."""
    cho_s = cho_factor(Su)
    trace = float(np.trace(cho_solve(cho_kuu, Su)))
    quad = float(mu_u @ cho_solve(cho_kuu, mu_u))
    logdets = engine._logdet_from_cho(cho_kuu) - engine._logdet_from_cho(cho_s)
    return 0.5 * (trace + quad - len(mu_u) + logdets)


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


def elbo_svb(ds, cfg, hp, state, batch=None, tables=None):
    """Stochastic variational bound; full-batch when batch is None.

    tables are the RowTables of the evaluated rows at hp if the caller has them.
    """
    _, cho = kernels.jittered(kernels.kuu_matrix(hp.inducing.W, hp.latent))
    if batch is None:
        rows = np.arange(ds.n)
        scale = 1.0
    else:
        rows = np.asarray(batch, dtype=int)
        scale = ds.n / len(rows)
    if tables is None:
        tables = row_tables(ds.X[rows], hp, cho)
    mu, var = _qu_moments(tables.phi, tables.r, state.mu_u, state.Su)
    data = float(np.sum(expected_loglik_terms(
        ds.y[rows], mu, var, state.pi_hat[rows].T, hp.noise.sigma[:, None]
    )))
    v_rows = vterm_rows(state, ds, cfg, hp.noise, rows=rows)
    kl = gaussian_kl_u(state.mu_u, state.Su, cho)
    return scale * (data + float(np.sum(v_rows))) - kl


def qu_restart(ds, hp, pi):
    """q(u)'s closed form at hp and pi, with what it is built from: (Kuu^-1, tables, NaturalQu).

    Kuu is jittered and factored, Kuu^-1 formed, the row tables built
    over all N rows, and q(u) is _qu_estimate at scale 1 from them.
    gradients.elbo_svb_with_grad with qu_optimum returns the same triple
    on the full batch, its q(u) summed per output, so equal up to
    rounding.
    """
    _, cho = kernels.jittered(kernels.kuu_matrix(hp.inducing.W, hp.latent))
    kuu_inv = engine.cho_inverse(cho)
    tables = row_tables(ds.X, hp, cho)
    return kuu_inv, tables, _qu_estimate(tables.phi, ds.y, pi, hp.noise.sigma, kuu_inv, 1.0)


def optimal_qu(ds, cfg, hp, state):
    """Closed-form maximizer (mu_u, Su) of the bound at fixed remaining parameters.

    The full-batch natural parameters of _qu_estimate at scale 1 (qu_restart),
    Su^-1 = Kuu^-1 + sum_m Phi_m' diag(pi_m / sigma_m^2) Phi_m and
    Su^-1 mu_u = sum_m Phi_m' (pi_m / sigma_m^2 o y), from the row
    tables over all N rows; the full-batch step of stochastic variational
    inference (Hensman, Fusi & Lawrence, 2013).
    """
    return qu_restart(ds, hp, state.pi_hat)[2].moments()


# ---------------------------------------------------------------------------
# the closed-form steps of the stochastic fit's E-phase
# ---------------------------------------------------------------------------


class NaturalQu(NamedTuple):
    """q(u) = N(mu_u, Su) in natural parameters: lam = Su^-1 and h = Su^-1 mu_u."""

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
    round's Kuu^-1.  The batch rows of pi are set by bounds.assignment_rows at
    the current q(u); then q(u) moves a step rho = |rows| / N from qu
    toward _qu_estimate at the new rows, theta <- (1 - rho) theta +
    rho theta_hat in natural parameters, which is the natural-gradient
    step of size rho.  Only the batch rows of the tables, the data and
    pi are read, each gathered once.

    q(u)'s moments at the rows come from one Cholesky factor L of lam,
    with no Su formed: mu = Phi mu_u with mu_u from L (dpotrs), and
    var = r + rowsum(Psi o Psi) with Psi = Phi L^-T, since
    Phi Su Phi' = Psi Psi'.  L^-1 is LAPACK's dtrtri of L, the first half
    of the dpotri that would form Su.
    """
    rows = np.asarray(rows, dtype=int)
    phi, r = tables.gather(rows)
    y = ds.y[rows]
    c = qu.factor()
    flat = phi.reshape(-1, phi.shape[-1])
    mu = (flat @ dpotrs(c, qu.h, lower=1)[0]).reshape(r.shape)
    psi = engine._gemm(flat, dtrtri(c, lower=1)[0].T)
    var = r + np.einsum("nq,nq->n", psi, psi).reshape(r.shape)
    np.maximum(var, 0.0, out=var)
    pi_b = assignment_rows(mu, var, y, sigma, pi[rows], ds.labels[rows] > 0,
                           ds.log_prior[rows], cfg)
    pi[rows] = pi_b
    rho = len(rows) / ds.n
    est = _qu_estimate(phi, y, pi_b, sigma, kuu_inv, ds.n / len(rows))
    for new, old in zip(est, qu):
        new *= rho
        new += (1.0 - rho) * old
    return est

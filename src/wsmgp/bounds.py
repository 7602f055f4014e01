"""The KL-corrected bound, its assignment-entropy terms, and exact oracles.

The collapsed bound is

    L = log N(y_tiled | 0, B + Kfu Kuu^-1 Kuf + D) + V

where D is the block-diagonal heteroscedastic matrix with entries
sigma_m^2 / pi_hat[n, m] and V collects

    - KL(q(Z_labeled) || p(Z_labeled | prior))
    - KL(q(Z_unlabeled) q(Pi) || p(Z_unlabeled | Pi) p(Pi))
    + 0.5 * sum_{n,m} log[(2 pi sigma_m^2)^(1 - pi_hat) / pi_hat].

With the Dirichlet parameter at its analytic optimum alpha0 + pi_hat,
the unlabeled KL reduces to the closed form
sum pi log pi - log[B(alpha0 + pi) / B(alpha0 * 1)] per row, evaluated
through log-gamma.  Removing the Dirichlet prior replaces it with the
plain categorical KL against a fixed uniform prior.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from . import engine, kernels
from .model import (
    Dataset,
    ModelConfig,
    VariationalState,
)

_LOG2PI = float(np.log(2.0 * np.pi))

ORACLE_MAX_ASSIGNMENTS = 2**20


@dataclass
class DMatrix:
    """Stacked heteroscedastic diagonal, output-major ordering."""

    diag: np.ndarray
    n: int
    m: int

    def block(self, m):
        return self.diag[m * self.n : (m + 1) * self.n]


def compute_D(state: VariationalState, noise: kernels.NoiseParams):
    """Noise-inflation diagonal with entries sigma_m^2 / pi_hat[n, m]."""
    pi = state.pi_hat
    n, m = pi.shape
    diag = np.concatenate([noise.sigma[j] ** 2 / pi[:, j] for j in range(m)])
    return DMatrix(diag=diag, n=n, m=m)


# ---------------------------------------------------------------------------
# the V term
# ---------------------------------------------------------------------------


def _sum_last(x):
    """np.sum(x, axis=-1), bit for bit, without a reduction per row.

    numpy adds a row of fewer than 8 entries in index order, so a loop
    over the columns gives the same sums; longer rows keep np.sum.
    """
    M = x.shape[-1]
    if M >= 8:
        return np.sum(x, axis=-1)
    out = x[..., 0].copy()
    for j in range(1, M):
        out += x[..., j]
    return out


def _log_beta(a):
    """Multivariate Beta through log-gamma; a is (..., M)."""
    return _sum_last(gammaln(a)) - gammaln(_sum_last(a))


def select_rows(state: VariationalState, ds: Dataset, rows=None):
    """(pi_hat, labeled mask, log of the floored prior) restricted to `rows`; all rows when None.

    Only the selected rows are read, so the per-row parts of V cost
    O(|rows| M) however large the dataset is.
    """
    if rows is None:
        return state.pi_hat, ds.labeled_mask, ds.log_prior
    return state.pi_hat[rows], ds.labels[rows] > 0, ds.log_prior[rows]


def vterm_rows(state: VariationalState, ds: Dataset, cfg: ModelConfig, noise, rows=None):
    """Per-observation contributions to V, one per entry of `rows` (all N when None).

    Both KL forms are evaluated on every row and each row keeps its own;
    every step is elementwise or a sum within a row, so a row's value
    does not depend on which other rows are selected.
    """
    pi, labeled, log_prior = select_rows(state, ds, rows)
    log_pi = np.log(pi)
    log2pis = np.log(2.0 * np.pi * noise.sigma**2)
    third = 0.5 * _sum_last((1.0 - pi) * log2pis[None, :] - log_pi)
    # log_prior is NaN on unlabeled rows, which take the other branch
    kl_labeled = _sum_last(pi * (log_pi - log_prior))
    ent = _sum_last(pi * log_pi)
    if cfg.use_dirichlet:
        lb_ref = _log_beta(np.full(cfg.M, cfg.alpha0))
        kl_unlabeled = ent - (_log_beta(cfg.alpha0 + pi) - lb_ref)
    else:
        kl_unlabeled = ent + np.log(cfg.M)
    return third - np.where(labeled, kl_labeled, kl_unlabeled)


def vterm(state, ds, cfg, noise):
    """The V term of both bounds (KL corrections plus the log-normalizer sum)."""
    return float(np.sum(vterm_rows(state, ds, cfg, noise)))


# ---------------------------------------------------------------------------
# collapsed bound
# ---------------------------------------------------------------------------


def _full_selection(ds: Dataset, M):
    rows = np.arange(ds.n)
    return [rows] * M


def build_cvb_system(ds, cfg, hp, state):
    D = compute_D(state, hp.noise)
    d_blocks = [D.block(m) for m in range(cfg.M)]
    return engine.build_system(ds.X, ds.y, hp, _full_selection(ds, cfg.M), d_blocks)


def gauss_term_cvb(ds, cfg, hp, state):
    """The Gaussian data term of the collapsed bound (no V)."""
    return engine.gauss_loglik(build_cvb_system(ds, cfg, hp, state))


def elbo_cvb(ds, cfg, hp, state):
    """KL-corrected variational bound on the marginal log-likelihood."""
    return gauss_term_cvb(ds, cfg, hp, state) + vterm(state, ds, cfg, hp.noise)


# ---------------------------------------------------------------------------
# fully-labeled sparse likelihood (used by the labeled-only baseline and
# the one-hot limit checks)
# ---------------------------------------------------------------------------


class NoLabeledDataError(ValueError):
    pass


def labeled_selection(ds: Dataset, M):
    if ds.n_labeled == 0:
        raise NoLabeledDataError("no labeled observations")
    return [np.flatnonzero(ds.labels == m + 1) for m in range(M)]


def scmgp_loglik(ds, cfg, hp, labels=None):
    """Exact sparse-model marginal log-likelihood of the labeled rows.

    Each labeled row enters once, under its label, with plain noise
    sigma_m^2; unlabeled rows are ignored.  Passing `labels` overrides
    the dataset's labels (used by relabeling checks).
    """
    if labels is None:
        labels = ds.labels
    else:
        labels = np.asarray(labels, dtype=int).ravel()
    if not np.any(labels > 0):
        raise NoLabeledDataError("no labeled observations")
    rows = [np.flatnonzero(labels == m + 1) for m in range(cfg.M)]
    d_blocks = [np.full(len(r), hp.noise.sigma[m] ** 2) for m, r in enumerate(rows)]
    sys = engine.build_system(ds.X, ds.y, hp, rows, d_blocks)
    return engine.gauss_loglik(sys)


# ---------------------------------------------------------------------------
# exact enumeration oracle
# ---------------------------------------------------------------------------


class OracleTooLargeError(ValueError):
    pass


def assignment_log_weights(ds: Dataset, cfg: ModelConfig):
    """Log prior weight of assigning each row to each output.

    Labeled rows use their prior row; unlabeled rows use the
    Dirichlet-multinomial marginal, which is 1/M for a symmetric prior.
    """
    logw = np.full((ds.n, cfg.M), -np.log(cfg.M))
    labeled = ds.labeled_mask
    if np.any(labeled):
        with np.errstate(divide="ignore"):
            logw[labeled] = np.log(ds.prior_pi[labeled])
    return logw


def _enumerate_mixture(Kpair, sig2, y, logw, chunk=1024):
    """Log-density of every group assignment of a Gaussian mixture-of-rows.

    Kpair : (M, M, N, N) cross-covariance blocks between output pairs.
    sig2  : (M,) per-output noise variances added on the diagonal.
    logw  : (N, M) log prior weight of assigning row n to output m.

    Returns an (M**N,) array; entry t corresponds to the assignment whose
    base-M digits (row 0 least significant) are the per-row output choices.
    Assignments are factored in chunks of `chunk`; Cholesky failures are
    retried with an escalating diagonal jitter.
    """
    M = Kpair.shape[0]
    N = y.shape[0]
    total = M**N
    out = np.empty(total)
    idx = np.arange(N)
    digits = M ** idx
    for start in range(0, total, chunk):
        t = np.arange(start, min(start + chunk, total))
        z = (t[:, None] // digits[None, :]) % M  # (c, N)
        Kz = Kpair[z[:, :, None], z[:, None, :], idx[:, None], idx[None, :]]
        Kz[:, idx, idx] += sig2[z]
        jitter = 0.0
        base = np.mean(Kz[:, idx, idx])
        while True:
            try:
                L = np.linalg.cholesky(Kz + jitter * np.eye(N))
                break
            except np.linalg.LinAlgError:
                jitter = 1e-6 * base if jitter == 0.0 else jitter * 10.0
                if jitter > 1e-2 * base:
                    raise
        a = np.linalg.solve(L, np.broadcast_to(y, (len(t), N))[..., None])[..., 0]
        logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=1, axis2=2)), axis=1)
        quad = np.sum(a * a, axis=1)
        lprior = np.sum(logw[idx[None, :], z], axis=1)
        out[t] = -0.5 * (N * _LOG2PI + logdet + quad) + lprior
    return out


def exact_marglik_oracle(ds, cfg, hp):
    """Exact marginal log-likelihood by enumerating all M^N assignments.

    Uses the dense covariance (no inducing approximation): for an
    assignment z, the data covariance has entries
    k_ff(x_i, x_j; z_i, z_j) + delta_ij sigma_{z_i}^2.  `_enumerate_mixture`
    gives the log-density of every assignment, and the mixture is
    combined with a deterministic log-sum-exp.
    """
    total = cfg.M**ds.n
    if total > ORACLE_MAX_ASSIGNMENTS:
        raise OracleTooLargeError(
            "M^N = %d exceeds the enumeration guard (%d)"
            % (total, ORACLE_MAX_ASSIGNMENTS)
        )
    Kpair = kernels.exact_kff_pairs(ds.X, hp)
    logw = assignment_log_weights(ds, cfg)
    sig2 = hp.noise.sigma**2
    per_assignment = _enumerate_mixture(Kpair, sig2, ds.y, logw)
    return float(logsumexp(per_assignment))

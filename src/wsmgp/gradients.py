"""Analytic gradients of both bounds, with a finite-difference harness.

Gradients are returned in the unconstrained coordinates the optimizer
works in: log noise, log precisions, log alpha0, free amplitudes,
row-softmax logits for the assignment probabilities (one pinned logit
per row), and a Cholesky factor with log-diagonal for the inducing
posterior covariance.  Matrix-level derivatives of the Gaussian term
come from the shared engine; this module chains them to the kernel
hyperparameters and adds the assignment-term partials.

The chain (_chain_convolved, _chain_independent) differentiates the
kernel blocks the forward pass built (kernels.GaussBlock: t2, the
unit-amplitude gram and K), kept on engine.StackedSystem for the
collapsed bound and the SCMGP likelihood, and built once per call for
the stochastic bound's batch rows.  Each matrix-level gradient G is
reduced to a = sum(G o unit) and b_d = sum(G o unit o t2_d)
(kernels.contract), and every amplitude and precision derivative is a
combination of a and b_d with the coefficients of kernels.*_coeffs; no
gram or derivative tensor is built a second time.  Each same-output
block Kff_m is differentiated by kernels.kff_matrix_grads with G and the
block, which does that contraction for one output.

Every path is validated against central finite differences in the test
suite; where printed derivative formulas were ambiguous, the finite
differences were treated as the arbiter.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_solve
from scipy.special import digamma

from . import engine, kernels
from .bounds import build_cvb_system, select_rows, vterm_rows
from .kernels import HyperParams, IndependentSEHyperParams
from .model import Dataset, ModelConfig
from .svi import (
    _jittered,
    _qu_moments,
    _row_constants,
    expected_loglik_terms,
    gaussian_kl_u,
)

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
    return _vterm_partials(*select_rows(state, ds, rows), cfg, noise)


def _vterm_partials(pi, labeled, log_prior, cfg, noise):
    """vterm_partials on rows already selected: their pi, labeled mask and log prior."""
    M = pi.shape[1]
    d_pi, dg = _vterm_pi_partials(pi, labeled, log_prior, cfg, noise)
    d_sigma = np.sum(1.0 - pi, axis=0)  # already in log-sigma coords
    d_alpha0 = 0.0
    if dg is not None:
        a0 = cfg.alpha0
        n_u = dg.shape[0]
        d_alpha0 = float(
            np.sum(dg)
            - n_u * M * digamma(M * a0 + 1.0)
            - n_u * M * digamma(a0)
            + n_u * M * digamma(M * a0)
        )
    return d_pi, d_alpha0, d_sigma


def _vterm_pi_partials(pi, labeled, log_prior, cfg, noise):
    """dPi of V alone at rows already selected, and digamma(alpha0 + pi) of their unlabeled rows.

    The digamma array, which the alpha0 partial reuses, is None without
    the Dirichlet prior or without unlabeled rows.
    """
    M = pi.shape[1]
    log2pis = np.log(2.0 * np.pi * noise.sigma**2)
    # third term: 0.5 * sum (1 - pi) log(2 pi sigma^2) - log pi
    d_pi = 0.5 * (-log2pis[None, :] - 1.0 / pi)
    if np.any(labeled):
        d_pi[labeled] += -(np.log(pi[labeled]) - log_prior[labeled] + 1.0)
    dg = None
    if np.any(~labeled):
        pu = pi[~labeled]
        if cfg.use_dirichlet:
            a0 = cfg.alpha0
            dg = digamma(a0 + pu)
            d_pi[~labeled] += -(np.log(pu) + 1.0) + dg - digamma(M * a0 + 1.0)
        else:
            d_pi[~labeled] += -(np.log(pu) + 1.0 + np.log(M))
    return d_pi, dg


def grad_vterm(state, ds, cfg, noise):
    """Gradient of V alone: (logit gradient (N, M), d log alpha0)."""
    d_pi, d_alpha0, _ = vterm_partials(state, ds, cfg, noise)
    return softmax_chain(state.pi_hat, d_pi), d_alpha0 * cfg.alpha0


# ---------------------------------------------------------------------------
# kernel-hyperparameter chains
# ---------------------------------------------------------------------------


def _chain_convolved(hp, mg: engine.MatrixGrads, kuu_block, fu_blocks, ff_blocks=None,
                     batch_diag=None):
    """Contract matrix-level grads with the blocks they differentiate.

    kuu_block, fu_blocks and ff_blocks are the kernels.GaussBlock values
    the forward pass built (engine.StackedSystem keeps them); nothing is
    rebuilt.  mg.dE_blocks are derivatives w.r.t. the full same-output
    blocks; when batch_diag is given (stochastic bound) they are diagonal
    vectors for d diag(Kff) instead, and ff_blocks is not read.  Returns
    unconstrained (d_S, d_Lm, d_L).
    """
    M = hp.n_outputs
    d = hp.latent.L.shape[0]
    a_fu, b_fu = np.zeros(M), np.zeros((M, d))
    ff_S, ff_Lm, ff_L = np.zeros(M), np.zeros((M, d)), np.zeros((M, d))
    if batch_diag is not None:
        e_S, e_Lm, e_L = kernels.kff_coeffs(hp.outputs, hp.latent)
    for m in range(M):
        if fu_blocks[m].K.shape[0] == 0:
            continue
        a_fu[m], b_fu[m] = kernels.contract(mg.dKfu_blocks[m], fu_blocks[m])
        if batch_diag is None:
            _, ff_S[m], ff_Lm[m], ff_L[m] = kernels.kff_matrix_grads(
                None, hp.outputs[m], hp.latent, G=mg.dE_blocks[m], block=ff_blocks[m]
            )
        else:
            # on the diagonal unit = 1 and t2 = 0, so only the c0 terms remain
            a = np.sum(batch_diag[m])
            ff_S[m], ff_Lm[m], ff_L[m] = e_S[m] * a, e_Lm.c0[m] * a, e_L.c0[m] * a
    c_S, c_Lm, c_L = kernels.kfu_coeffs(hp.outputs, hp.latent)
    d_S = c_S * a_fu + ff_S
    d_Lm = c_Lm.contract(a_fu, b_fu) + ff_Lm
    d_L = np.sum(c_L.contract(a_fu, b_fu) + ff_L, axis=0)
    if mg.dKuu is not None:
        d_L += kernels.kuu_coeffs(hp.latent).contract(*kernels.contract(mg.dKuu, kuu_block))[0]
    # to unconstrained coordinates: amplitudes free, precisions in log space
    d_Lm *= np.stack([out.Lm for out in hp.outputs])
    d_L *= hp.latent.L
    return d_S, d_Lm, d_L


def _chain_independent(hp, mg: engine.MatrixGrads, ff_blocks):
    """Chain to (log-amplitude, log-precision) of the independent SE kernels."""
    M = hp.n_outputs
    d = hp.outputs[0].prec.shape[0]
    a, b = np.zeros(M), np.zeros((M, d))
    for m in range(M):
        if ff_blocks[m].K.shape[0]:
            a[m], b[m] = kernels.contract(mg.dE_blocks[m], ff_blocks[m])
    c_amp, c_prec = kernels.se_coeffs(hp.outputs)
    d_amp = c_amp * a * np.array([out.amp for out in hp.outputs])
    d_prec = c_prec.contract(a, b) * np.stack([out.prec for out in hp.outputs])
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
        d_amp, d_prec = _chain_independent(hp, mg, sys.ff_blocks)
        bundle = GradientBundle(
            d_S=d_amp, d_Lm=d_prec, d_L=None, d_sigma=d_sigma,
            d_pi_logits=softmax_chain(pi, d_pi_raw),
            d_alpha0=v_alpha0 * cfg.alpha0 if cfg.use_dirichlet else 0.0,
        )
        return value, bundle

    d_S, d_Lm, d_L = _chain_convolved(hp, mg, sys.kuu_block, sys.fu_blocks, sys.ff_blocks)
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
        d_amp, d_prec = _chain_independent(hp, mg, sys.ff_blocks)
        return value, GradientBundle(d_S=d_amp, d_Lm=d_prec, d_sigma=d_sigma)
    d_S, d_Lm, d_L = _chain_convolved(hp, mg, sys.kuu_block, sys.fu_blocks, sys.ff_blocks)
    return value, GradientBundle(d_S=d_S, d_Lm=d_Lm, d_L=d_L, d_sigma=d_sigma)


# ---------------------------------------------------------------------------
# stochastic-bound gradient
# ---------------------------------------------------------------------------


class _OutputTerms(NamedTuple):
    """One output's moments of q(f_m) at the rows, and its data-term weights.

    With dtil = pi_m / sigma_m^2: a = dtil (y - mu), w = -dtil / 2, and
    dD = d/d dtil of each row's expected log-likelihood.
    """

    phi: np.ndarray  # Kfu Kuu^-1
    phi_su: np.ndarray  # Phi Su
    mu: np.ndarray
    var: np.ndarray
    a: np.ndarray
    w: np.ndarray
    dD: np.ndarray


def _svb_data_partials(phi, r, y, pi, sigma, mu_u, Su):
    """The data term's per-output moments and variational partials at the given rows.

    phi[m] and r[m] are output m's row constants at the rows
    (svi._row_constants); the moments come from svi._qu_moments.
    Returns (per-output _OutputTerms, d_mu_u, d_S (Q, Q), d_pi (rows, M)),
    none of them scaled.
    """
    Q = len(mu_u)
    d_mu_u = np.zeros(Q)
    d_S = np.zeros((Q, Q))
    d_pi = np.empty_like(pi)
    terms = []
    for m, sig in enumerate(sigma):
        mu, var, phi_su = _qu_moments(phi[m], r[m], mu_u, Su)
        sig2 = sig**2
        dtil = pi[:, m] / sig2
        a = dtil * (y - mu)
        w = -0.5 * dtil
        d_mu_u += phi[m].T @ a
        d_S += engine._gemm(phi[m].T, phi[m] * w[:, None])
        resid2 = (y - mu) ** 2
        dD = 0.5 / dtil - 0.5 * (resid2 + var)
        d_pi[:, m] = dD * (1.0 / sig2)
        terms.append(_OutputTerms(phi[m], phi_su, mu, var, a, w, dD))
    return terms, d_mu_u, d_S, d_pi


def _svb_qu_grads(d_mu_u, d_S, cho, kuu_inv, mu_u, Su):
    """Add the KL's partials to the scaled data partials of q(u); chain Su to chol(Su).

    Su = Lc Lc' with a log-diagonal parameterization.  Returns
    (d_mu_u, d_su_chol); the inputs are updated in place.
    """
    d_mu_u -= cho_solve(cho, mu_u)
    d_S -= 0.5 * (kuu_inv - np.linalg.inv(Su))
    Lc = np.linalg.cholesky(Su)
    d_Lc = np.tril((d_S + d_S.T) @ Lc)
    d_Lc[np.diag_indices(len(mu_u))] *= np.diag(Lc)
    return d_mu_u, d_Lc


def elbo_svb_with_grad(ds, cfg, hp, state, batch=None):
    """Stochastic bound value and gradient (mini-batch scaled like the bound).

    Only the batch rows of the data are read.  Rows of d_pi_logits
    outside the batch are zero, and d_alpha0 and d_sigma count only the
    batch rows (scaled by N/|batch|).
    """
    if not isinstance(hp, HyperParams):
        raise TypeError("the stochastic bound requires the convolved sparse model")
    W = hp.inducing.W
    kuu_block = kernels.kuu_block(kernels.sqdiff(W, W), hp.latent)
    kuu, cho = _jittered(kuu_block.K)
    Q = kuu.shape[0]
    if batch is None:
        rows_idx = np.arange(ds.n)
        scale = 1.0
    else:
        rows_idx = np.asarray(batch, dtype=int)
        scale = ds.n / len(rows_idx)
    yb = ds.y[rows_idx]
    pi_b = state.pi_hat[rows_idx]
    mu_u, Su = state.mu_u, state.Su
    kuu_inv = cho_solve(cho, np.eye(Q))
    t2 = kernels.sqdiff(ds.X[rows_idx], W)
    fu_blocks = [kernels.kfu_block(t2, out, hp.latent) for out in hp.outputs]
    kfu = [b.K for b in fu_blocks]
    phi, r = zip(*(
        _row_constants(cho, kfu_m, kernels.kff_diag_value(out, hp.latent))
        for kfu_m, out in zip(kfu, hp.outputs)
    ))
    terms, d_mu_u, d_S_mat, d_pi_data = _svb_data_partials(
        phi, r, yb, pi_b, hp.noise.sigma, mu_u, Su
    )

    value = 0.0
    dKuu = np.zeros((Q, Q))
    dKfu_blocks = []
    for m, t in enumerate(terms):
        sig = hp.noise.sigma[m]
        value += float(np.sum(expected_loglik_terms(yb, t.mu, t.var, pi_b[:, m], sig)))
        # dPhi: a mu' + diag(w) (2 Phi Su - Kfu)
        dPhi = np.outer(t.a, mu_u) + t.w[:, None] * (2.0 * t.phi_su - kfu[m])
        dKfu_blocks.append(engine._gemm(dPhi, kuu_inv) - t.w[:, None] * t.phi)
        dKuu -= engine._gemm(t.phi.T, dPhi) @ kuu_inv
    # V rows of the batch only: nothing outside it is read
    d_pi_raw, d_alpha0, _ = vterm_partials(state, ds, cfg, hp.noise, rows=rows_idx)
    value += float(np.sum(vterm_rows(state, ds, cfg, hp.noise, rows=rows_idx)))
    d_pi_raw += d_pi_data
    d_sigma = np.zeros(cfg.M)
    for m, t in enumerate(terms):
        # log-sigma chain: d dtil/d log sigma = -2 pi/sigma^2
        d_sigma[m] += float(np.sum(t.dD * (-2.0 * pi_b[:, m] / hp.noise.sigma[m] ** 2)))
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

    value -= gaussian_kl_u(mu_u, Su, kuu)
    d_mu_u, d_Lc = _svb_qu_grads(d_mu_u, d_S_mat, cho, kuu_inv, mu_u, Su)
    kinv_mu = cho_solve(cho, mu_u)
    dKuu -= 0.5 * (kuu_inv - kuu_inv @ Su @ kuu_inv - np.outer(kinv_mu, kinv_mu))
    # the Kuu path carries the data term and the KL
    mg = engine.MatrixGrads(
        dE_blocks=[None] * cfg.M,
        dKfu_blocks=[scale * b for b in dKfu_blocks],
        dKuu=dKuu,
    )
    d_S, d_Lm, d_L = _chain_convolved(
        hp, mg, kuu_block, fu_blocks, batch_diag=[scale * t.w for t in terms]
    )

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


def svb_variational_grad(ds, cfg, hp, tables, cho, kuu_inv, rows, pi_b, mu_u, Su):
    """Mini-batch gradient of the stochastic bound w.r.t. the variational block alone.

    The block Adam moves in the E-phase: the batch rows' logits, mu_u and
    chol(Su).  hp is fixed there, so the caller builds its row constants
    over all N rows (`tables`, from svi.row_tables), its Kuu factor `cho`
    (from svi._jittered_kuu) and Kuu^-1 once per round; a step gathers
    its rows of the tables and computes only what depends on q(u) and
    the assignment rows, with no kernel matrix, no Kuu solve and no
    hyperparameter or alpha0 partial.  pi_b holds the batch rows of
    pi_hat; no other row is read.  Returns (d_pi_logits of the batch rows
    (|rows|, M), d_mu_u, d_su_chol), the same numbers as those blocks of
    elbo_svb_with_grad(batch=rows).
    """
    rows = np.asarray(rows, dtype=int)
    scale = ds.n / len(rows)
    phi, r = tables.gather(rows)
    _, d_mu_u, d_S, d_pi_data = _svb_data_partials(
        phi, r, ds.y[rows], pi_b, hp.noise.sigma, mu_u, Su
    )
    labeled = ds.labels[rows] > 0
    d_pi_raw, _ = _vterm_pi_partials(pi_b, labeled, ds.log_prior[rows], cfg, hp.noise)
    d_pi_raw += d_pi_data
    d_pi_raw *= scale
    d_mu_u *= scale
    d_S *= scale
    d_mu_u, d_Lc = _svb_qu_grads(d_mu_u, d_S, cho, kuu_inv, mu_u, Su)
    return softmax_chain(pi_b, d_pi_raw), d_mu_u, d_Lc


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

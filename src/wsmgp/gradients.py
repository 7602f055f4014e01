"""Analytic gradients of both bounds, with a finite-difference harness.

Gradients are returned in the unconstrained coordinates the optimizer
works in: log noise, log precisions, log alpha0, free amplitudes and
row-softmax logits for the assignment probabilities (one pinned logit
per row).  Matrix-level derivatives of the Gaussian term
come from the shared engine; this module chains them to the kernel
hyperparameters and adds the assignment-term partials.

The collapsed bound and the SCMGP likelihood share one gradient body
(_gauss_term_with_grad, over bounds.build_cvb_system's one selection);
each adds only the partials of its own noise diagonal.

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

The stochastic bound's gradient (elbo_svb_with_grad) covers the
hyperparameters, sigma and alpha0 only, at the full batch or a
mini-batch.  trainer.fit_svb_em's M-phase calls it at the full batch;
its E-phase moves q(pi) and q(u) by closed-form steps (svi.batch_step),
so no gradient of the variational parameters of that bound is needed.
It sums the data term in Q x Q form: per output one product
Phi' [d o Phi, a] and, over all outputs' rows, one product
[d o Phi, a] [-T; mt'] for dKfu, so no per-row variance or derivative of
Phi is formed.

Every path is validated against central finite differences in the test
suite; where printed derivative formulas were ambiguous, the finite
differences were treated as the arbiter.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import digamma

from . import engine, kernels
from .bounds import build_cvb_system, select_rows, vterm_rows
from .kernels import HyperParams, IndependentSEHyperParams
from .model import Dataset, ModelConfig
from .svi import _tables_of, gaussian_kl_u

_LOG2PI = float(np.log(2.0 * np.pi))


@dataclass
class GradientBundle:
    """Gradient of a bound w.r.t. its free parameters (unconstrained coords).

    d_S / d_Lm hold the per-output kernel gradients; for the independent
    squared-exponential model they carry (log-amplitude, log-precision)
    instead and d_L is None.  d_pi_logits is set for the collapsed bound
    only: the stochastic bound's gradient covers the hyperparameters,
    sigma and alpha0, because its fit moves q(pi) and q(u) by
    closed-form steps instead.
    """

    d_S: np.ndarray = None  # (M,)
    d_Lm: np.ndarray = None  # (M, d)
    d_L: np.ndarray = None  # (d,)
    d_sigma: np.ndarray = None  # (M,)
    d_pi_logits: np.ndarray = None  # (N, M), rows sum to ~0
    d_alpha0: float = 0.0


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


def vterm_partials(state, ds: Dataset, cfg: ModelConfig, noise):
    """Raw partials of V: (dPi (N, M), dAlpha0, dSigma (M,)), constrained coords.

    dPi rows may contain row-constant components; the softmax chain
    removes them.  Both rows' forms are evaluated on every row and each
    row keeps its own.  dAlpha0 accounts for q(Pi_n) sitting at its
    analytic optimum Dir(alpha0 + pi_n), which moves with alpha0.
    """
    pi, labeled, log_prior = state.pi_hat, ds.labeled_mask, ds.log_prior
    M = pi.shape[1]
    log_pi = np.log(pi)
    log2pis = np.log(2.0 * np.pi * noise.sigma**2)
    # third term: 0.5 * sum (1 - pi) log(2 pi sigma^2) - log pi
    d_pi = 0.5 * (-log2pis[None, :] - 1.0 / pi)
    # log_prior is NaN on unlabeled rows, which take the other branch
    d_labeled = -(log_pi - log_prior + 1.0)
    d_alpha0 = 0.0
    if cfg.use_dirichlet:
        a0 = cfg.alpha0
        dg = digamma(a0 + pi)
        d_unlabeled = -(log_pi + 1.0) + dg - digamma(M * a0 + 1.0)
        if np.any(~labeled):
            d_alpha0 = _alpha0_partial(dg[~labeled], cfg, M)
    else:
        d_unlabeled = -(log_pi + 1.0 + np.log(M))
    d_pi += np.where(labeled[:, None], d_labeled, d_unlabeled)
    d_sigma = np.sum(1.0 - pi, axis=0)  # already in log-sigma coords
    return d_pi, d_alpha0, d_sigma


def _alpha0_partial(dg, cfg, M):
    """dV/dalpha0 from dg = digamma(alpha0 + pi) of the unlabeled rows (Dirichlet prior)."""
    a0 = cfg.alpha0
    n_u = dg.shape[0]
    return float(
        np.sum(dg)
        - n_u * M * digamma(M * a0 + 1.0)
        - n_u * M * digamma(a0)
        + n_u * M * digamma(M * a0)
    )


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


def _gauss_term_with_grad(ds, cfg, hp, state):
    """(value, matrix-level grads, kernel-only GradientBundle) of bounds.gauss_term_cvb.

    Each caller adds the partials of its own noise diagonal.
    """
    sys = build_cvb_system(ds, cfg, hp, state)
    value = engine.gauss_loglik(sys)
    mg = engine.gauss_loglik_grads(sys)
    if isinstance(hp, IndependentSEHyperParams):
        d_S, d_Lm = _chain_independent(hp, mg, sys.ff_blocks)
        d_L = None
    else:
        d_S, d_Lm, d_L = _chain_convolved(hp, mg, sys.kuu_block, sys.fu_blocks, sys.ff_blocks)
    return value, mg, GradientBundle(d_S=d_S, d_Lm=d_Lm, d_L=d_L)


def elbo_cvb_with_grad(ds, cfg, hp, state):
    """Bound value and full gradient bundle in one pass."""
    value, mg, bundle = _gauss_term_with_grad(ds, cfg, hp, state)
    pi = state.pi_hat
    sigma = hp.noise.sigma

    # D-path: dL/dD_nm with D = sigma^2/pi
    dD = np.stack([np.diag(mg.dE_blocks[m]) for m in range(cfg.M)], axis=1)  # (N, M)
    d_sigma = np.sum(dD * (2.0 * sigma[None, :] ** 2 / pi), axis=0)  # log-sigma
    d_pi_raw = dD * (-(sigma[None, :] ** 2) / pi**2)

    v_pi, v_alpha0, v_sigma = vterm_partials(state, ds, cfg, hp.noise)
    value += float(np.sum(vterm_rows(state, ds, cfg, hp.noise)))
    bundle.d_sigma = d_sigma + v_sigma
    bundle.d_pi_logits = softmax_chain(pi, d_pi_raw + v_pi)
    bundle.d_alpha0 = v_alpha0 * cfg.alpha0 if cfg.use_dirichlet else 0.0
    return value, bundle


def scmgp_loglik_with_grad(ds, cfg, hp):
    """Fully-labeled sparse likelihood and its (theta, sigma) gradient."""
    value, mg, bundle = _gauss_term_with_grad(ds, cfg, hp, None)
    # D = sigma^2 on the selected rows; an empty output's trace is 0
    s = hp.noise.sigma
    bundle.d_sigma = np.array([2.0 * s[m] ** 2 * np.trace(G) for m, G in enumerate(mg.dE_blocks)])
    return value, bundle


# ---------------------------------------------------------------------------
# stochastic-bound gradient
# ---------------------------------------------------------------------------


def elbo_svb_with_grad(ds, cfg, hp, state, batch=None, *, t2=None):
    """Stochastic bound value and its hyperparameter gradient (mini-batch scaled like the bound).

    Returns (value, GradientBundle) with d_S, d_Lm, d_L, d_sigma and
    d_alpha0 set; q(pi) and q(u) are held fixed (the fit moves them by
    closed-form steps, svi.batch_step).  Only the batch rows of the data
    are read; d_alpha0 and d_sigma count only the batch rows, scaled by
    N/|batch|, and the KL term is not scaled.  t2 is kernels.sqdiff(X, W)
    at the evaluated rows X if the caller has it.

    The data term is summed in Q x Q form, so no per-row variance and no
    (M, rows, Q) derivative of Phi is formed.  Per output, with
    d = pi / sigma^2, a = d o (y - Phi mu_u), C = Phi' diag(d) Phi,
    mt = Kuu^-1 mu_u and T = Su Kuu^-1 - I:
      sum d o var = sum d o r + tr(C Su),
      dKfu = -(d o Phi) T + a mt'   (one product over all outputs' rows),
      dKuu = -sum_m [-C_m (2 Su - Kuu) / 2 + (Phi_m' a_m) mu_u'] Kuu^-1.
    Phi itself is computed row by row (svi._row_constants); expanding C
    and Phi' a through Kuu^-1-weighted sums of Kfu instead loses about
    three more digits at cond(Kuu) ~ 1e7.
    """
    if not isinstance(hp, HyperParams):
        raise TypeError("the stochastic bound requires the convolved sparse model")
    W = hp.inducing.W
    kuu_block = kernels.kuu_block(kernels.sqdiff(W, W), hp.latent)
    kuu, cho = kernels.jittered(kuu_block.K)
    if batch is None:
        rows, s, X, y = None, 1.0, ds.X, ds.y
    else:
        rows = np.asarray(batch, dtype=int)
        s, X, y = ds.n / len(rows), ds.X[rows], ds.y[rows]
    pi, labeled, _ = select_rows(state, ds, rows)
    if t2 is None:
        t2 = kernels.sqdiff(X, W)
    fu_blocks = [kernels.kfu_block(t2, out, hp.latent) for out in hp.outputs]
    phi, r = _tables_of([b.K for b in fu_blocks], hp, cho)
    kuu_inv = engine.cho_inverse(cho)

    M, n_rows, Q = phi.shape
    mu_u, Su = state.mu_u, state.Su
    sigma = hp.noise.sigma
    flat = phi.reshape(-1, Q)
    d = pi.T / (sigma**2)[:, None]
    resid = y - (flat @ mu_u).reshape(M, n_rows)
    a = d * resid
    # [d o Phi, a] per output: Phi' [d o Phi, a] = [C, Phi' a] in one product
    da = np.empty((M, n_rows, Q + 1))
    np.multiply(phi, d[:, :, None], out=da[:, :, :Q])
    da[:, :, Q] = a
    C = np.stack([engine._gemm(phi[m].T, da[m]) for m in range(M)])
    phi_a = np.sum(C[:, :, Q], axis=0)
    C = C[:, :, :Q]
    # per output: sum of d o resid^2 and of d o var
    d_res2 = np.sum(a * resid, axis=1)
    d_var = np.sum(d * r, axis=1) + np.einsum("mij,ji->m", C, Su)
    value = 0.5 * float(np.sum(np.log(d)) - d.size * _LOG2PI - np.sum(d_res2 + d_var))
    value += float(np.sum(vterm_rows(state, ds, cfg, hp.noise, rows=rows)))
    kinv_mu = kuu_inv @ mu_u
    T = Su @ kuu_inv
    T[np.diag_indices(Q)] -= 1.0
    # dKfu = [d o Phi, a] [-T; mt'], every output's rows in one product
    dKfu = engine._gemm(da.reshape(-1, Q + 1), s * np.vstack([-T, kinv_mu]))
    dKuu = (np.sum(C, axis=0) @ (Su - 0.5 * kuu) - np.outer(phi_a, mu_u)) @ kuu_inv
    # log-sigma chain: d d/d log sigma = -2 d; then V's third term
    d_sigma = d_res2 + d_var - n_rows + np.sum(1.0 - pi, axis=0)
    d_alpha0 = 0.0
    unlabeled = ~labeled
    if cfg.use_dirichlet and np.any(unlabeled):
        d_alpha0 = _alpha0_partial(digamma(cfg.alpha0 + pi[unlabeled]), cfg, M)

    # scale the data terms (dKfu is scaled already), then subtract the
    # (unscaled) KL and its Kuu partial
    value = s * value - gaussian_kl_u(mu_u, Su, kuu)
    dKuu *= s
    dKuu -= 0.5 * (kuu_inv - kuu_inv @ Su @ kuu_inv - np.outer(kinv_mu, kinv_mu))
    dKfu = list(dKfu.reshape(M, n_rows, Q))
    mg = engine.MatrixGrads(dE_blocks=[None] * M, dKfu_blocks=dKfu, dKuu=dKuu)
    d_S, d_Lm, d_L = _chain_convolved(hp, mg, kuu_block, fu_blocks, batch_diag=-0.5 * s * d)
    bundle = GradientBundle(
        d_S=d_S, d_Lm=d_Lm, d_L=d_L, d_sigma=s * d_sigma,
        d_alpha0=s * d_alpha0 * cfg.alpha0,
    )
    return value, bundle


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

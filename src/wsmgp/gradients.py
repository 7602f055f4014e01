"""Analytic gradients of both bounds, with a finite-difference harness.

Gradients cover the hyperparameters only, in the unconstrained
coordinates L-BFGS-B works in: log noise, log precisions, log alpha0
and free amplitudes.  Both fits move the variational factors by
closed-form steps (trainer), so no gradient of pi or q(u) is needed.
Matrix-level derivatives of the Gaussian term come from the shared
engine; this module chains them to the kernel hyperparameters and adds
V's sigma and alpha0 partials (vterm_partials).

The collapsed bound and the SCMGP likelihood share one gradient body
(_gauss_term_with_grad, over bounds.build_cvb_system's one selection);
each adds its noise normaliser, V or bounds.scmgp_normaliser.  Either
bound's log-sigma partial is sum_n w_nm [(y_n - mean_nm)^2 + var_nm]
- sum_n pi_nm, with w = pi / sigma^2 and q(f)'s moments at the rows
(SCMGP: n_m for the last).

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

The stochastic bound's gradient (elbo_svb_with_grad) takes the full
batch or a mini-batch, at state's q(u) or at q(u)'s closed-form optimum,
which is where trainer.fit_svb_em's M-phase evaluates it.  It sums
the data term in Q x Q form: per output one product
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
from .bounds import build_cvb_system, scmgp_normaliser, select_rows, vterm_rows
from .kernels import HyperParams, IndependentSEHyperParams
from .model import Dataset, ModelConfig
from .svi import NaturalQu, _tables_of, gaussian_kl_u


@dataclass
class GradientBundle:
    """Gradient of a bound w.r.t. its hyperparameters (unconstrained coords).

    d_S / d_Lm hold the per-output kernel gradients; for the independent
    squared-exponential model they carry (log-amplitude, log-precision)
    instead and d_L is None.
    """

    d_S: np.ndarray = None  # (M,)
    d_Lm: np.ndarray = None  # (M, d)
    d_L: np.ndarray = None  # (d,)
    d_sigma: np.ndarray = None  # (M,)
    d_alpha0: float = 0.0


# ---------------------------------------------------------------------------
# V-term partials
# ---------------------------------------------------------------------------


def vterm_partials(state, ds: Dataset, cfg: ModelConfig, rows=None):
    """Partials of V at fixed pi, over `rows` (all N when None): (dAlpha0, dSigma (M,)).

    dSigma is in log-sigma coordinates.  dAlpha0 is in alpha0 itself and
    accounts for q(Pi_n) sitting at its analytic optimum
    Dir(alpha0 + pi_n), which moves with alpha0.
    """
    pi, labeled, _ = select_rows(state, ds, rows)
    d_alpha0 = 0.0
    if cfg.use_dirichlet and np.any(~labeled):
        a0, n_u = cfg.alpha0, np.sum(~labeled)
        d_alpha0 = float(np.sum(digamma(a0 + pi[~labeled]) - digamma(a0)) - n_u / a0)
    # V's noise term, -0.5 * sum pi log(2 pi sigma^2)
    return d_alpha0, -np.sum(pi, axis=0)


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
        a[m], b[m] = kernels.contract(mg.dE_blocks[m], ff_blocks[m])
    c_amp, c_prec = kernels.se_coeffs(hp.outputs)
    d_amp = c_amp * a * np.array([out.amp for out in hp.outputs])
    d_prec = c_prec.contract(a, b) * np.stack([out.prec for out in hp.outputs])
    return d_amp, d_prec


# ---------------------------------------------------------------------------
# collapsed-bound gradient
# ---------------------------------------------------------------------------


def _gauss_term_with_grad(ds, cfg, hp, state, sys):
    """(engine.gauss_loglik, its GradientBundle, the system) over build_cvb_system's selection.

    sys is build_cvb_system's system at these arguments, or None to
    build it here.  Each caller adds its noise normaliser's value and partials.
    """
    if sys is None:
        sys = build_cvb_system(ds, cfg, hp, state)
    value = engine.gauss_loglik(sys)
    mg = engine.gauss_loglik_grads(sys)
    if isinstance(hp, IndependentSEHyperParams):
        d_S, d_Lm = _chain_independent(hp, mg, sys.ff_blocks)
        d_L = None
    else:
        d_S, d_Lm, d_L = _chain_convolved(hp, mg, sys.kuu_block, sys.fu_blocks, sys.ff_blocks)
    # d log w / d log sigma = -2
    d_sigma = -2.0 * np.array([np.sum(g) for g in mg.dlogw_blocks])
    return value, GradientBundle(d_S=d_S, d_Lm=d_Lm, d_L=d_L, d_sigma=d_sigma), sys


def elbo_cvb_with_grad(ds, cfg, hp, state, sys=None):
    """Bound value and its hyperparameter gradient bundle in one pass, pi held fixed.

    sys is bounds.build_cvb_system's system at these arguments if the
    caller has built it; it is only read.
    """
    value, bundle, _ = _gauss_term_with_grad(ds, cfg, hp, state, sys)
    v_alpha0, v_sigma = vterm_partials(state, ds, cfg)
    value += float(np.sum(vterm_rows(state, ds, cfg, hp.noise)))
    bundle.d_sigma += v_sigma
    bundle.d_alpha0 = v_alpha0 * cfg.alpha0
    return value, bundle


def scmgp_loglik_with_grad(ds, cfg, hp, sys=None):
    """Fully-labeled sparse likelihood and its (theta, sigma) gradient.

    sys is bounds.build_cvb_system's system for SCMGP (state None) at hp
    if the caller has built it; it is only read.
    """
    value, bundle, sys = _gauss_term_with_grad(ds, cfg, hp, None, sys)
    norm, d_norm = scmgp_normaliser(sys, hp.noise.sigma)
    bundle.d_sigma += d_norm
    return value + norm, bundle


# ---------------------------------------------------------------------------
# stochastic-bound gradient
# ---------------------------------------------------------------------------


def elbo_svb_with_grad(ds, cfg, hp, state, batch=None, *, t2=None, qu_optimum=False):
    """Stochastic bound value and its hyperparameter gradient (mini-batch scaled like the bound).

    Returns (value, GradientBundle) with d_S, d_Lm, d_L, d_sigma and
    d_alpha0 set; q(pi) and q(u) are held fixed (the fit moves them by
    closed-form steps, svi.batch_step).  Only the batch rows of the data
    are read; d_alpha0 and d_sigma count only the batch rows, scaled by
    N/|batch|, and the KL term is not scaled.  t2 is kernels.sqdiff(X, W)
    at the evaluated rows X if the caller has it.

    With qu_optimum, q(u) is not state's but its closed-form optimum at
    hp and pi (svi._qu_estimate's natural parameters, from this call's
    C and Phi' (d o y)), so the value is the bound maximised over q(u),
    L*(hp), and by the envelope theorem the gradient at that q(u) held
    fixed is L*'s gradient.  The call then returns a third item, what it
    built at hp: (Kuu^-1, the RowTables of the evaluated rows, q(u)'s
    NaturalQu).  On the full batch that is svi.qu_restart's triple, up
    to the rounding of q(u)'s per-output sums.

    The data term is summed in Q x Q form, so no per-row variance and no
    (M, rows, Q) derivative of Phi is formed.  Per output, with
    d = pi / sigma^2, a = d o (y - Phi mu_u), C = Phi' diag(d) Phi
    (one product with Phi' (d o y)), mt = Kuu^-1 mu_u and T = Su Kuu^-1 - I:
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
    pi = select_rows(state, ds, rows)[0]
    if t2 is None:
        t2 = kernels.sqdiff(X, W)
    fu_blocks = [kernels.kfu_block(t2, out, hp.latent) for out in hp.outputs]
    tables = _tables_of([b.K for b in fu_blocks], hp, cho)
    phi, r = tables
    kuu_inv = engine.cho_inverse(cho)

    M, n_rows, Q = phi.shape
    sigma = hp.noise.sigma
    flat = phi.reshape(-1, Q)
    d = pi.T / (sigma**2)[:, None]
    # per output, Phi' [d o Phi, d o y] = [C, Phi' (d o y)] in one product
    da = np.empty((M, n_rows, Q + 1))
    np.multiply(phi, d[:, :, None], out=da[:, :, :Q])
    da[:, :, Q] = d * y
    C = np.stack([engine._gemm(phi[m].T, da[m]) for m in range(M)])
    if qu_optimum:
        # the natural parameters of svi._qu_estimate, from the same sums
        qu = NaturalQu(kuu_inv + s * np.sum(C[:, :, :Q], axis=0), s * np.sum(C[:, :, Q], axis=0))
        mu_u, Su = qu.moments()
    else:
        mu_u, Su = state.mu_u, state.Su
    C = C[:, :, :Q]
    resid = y - (flat @ mu_u).reshape(M, n_rows)
    a = d * resid
    da[:, :, Q] = a  # [d o Phi, a] for dKfu below
    phi_a = flat.T @ a.ravel()
    # per output: sum of d o resid^2 and of d o var
    d_res2 = np.sum(a * resid, axis=1)
    d_var = np.sum(d * r, axis=1) + np.einsum("mij,ji->m", C, Su)
    value = -0.5 * float(np.sum(d_res2 + d_var))
    value += float(np.sum(vterm_rows(state, ds, cfg, hp.noise, rows=rows)))
    kinv_mu = kuu_inv @ mu_u
    T = Su @ kuu_inv
    T[np.diag_indices(Q)] -= 1.0
    # dKfu = [d o Phi, a] [-T; mt'], every output's rows in one product
    dKfu = engine._gemm(da.reshape(-1, Q + 1), s * np.vstack([-T, kinv_mu]))
    dKuu = (np.sum(C, axis=0) @ (Su - 0.5 * kuu) - np.outer(phi_a, mu_u)) @ kuu_inv
    # log-sigma chain: d d/d log sigma = -2 d; then V's partials
    v_alpha0, v_sigma = vterm_partials(state, ds, cfg, rows)
    d_sigma = d_res2 + d_var + v_sigma

    # scale the data terms (dKfu is scaled already), then subtract the
    # (unscaled) KL and its Kuu partial
    value = s * value - gaussian_kl_u(mu_u, Su, cho)
    dKuu *= s
    dKuu -= 0.5 * (kuu_inv - kuu_inv @ Su @ kuu_inv - np.outer(kinv_mu, kinv_mu))
    dKfu = list(dKfu.reshape(M, n_rows, Q))
    mg = engine.MatrixGrads(dE_blocks=[None] * M, dKfu_blocks=dKfu, dKuu=dKuu)
    d_S, d_Lm, d_L = _chain_convolved(hp, mg, kuu_block, fu_blocks, batch_diag=-0.5 * s * d)
    bundle = GradientBundle(
        d_S=d_S, d_Lm=d_Lm, d_L=d_L, d_sigma=s * d_sigma,
        d_alpha0=s * v_alpha0 * cfg.alpha0,
    )
    if qu_optimum:
        return value, bundle, (kuu_inv, tables, qu)
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

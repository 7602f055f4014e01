"""Convolution kernels, their matrices and their derivatives.

A single shared latent GP ``u`` with an unnormalized squared-exponential
kernel is convolved with per-output Gaussian smoothing kernels.  All
precision matrices are diagonal, passed around as 1-D arrays.  The
cross-covariances have closed forms obtained from Gaussian convolution
identities:

    k_fu(x, w)   = S_m (2*pi)^(d/2) |L|^(-1/2) N(x - w | 0, Lm^-1 + L^-1)
    k_ff(x, x')  = S_m S_m' (2*pi)^(d/2) |L|^(-1/2)
                   N(x - x' | 0, Lm^-1 + Lm'^-1 + L^-1)

where N is a normalized Gaussian density.  Both forms are validated
against adaptive-quadrature oracles in the test suite.

Every kernel matrix is a Gaussian block K = amp * unit with
unit = exp(-0.5 sum_d w_d t2_d), t2_d the squared differences of input
dimension d.  Which function does what:

* Building.  `sqdiff` gives t2; `kuu_block`, `kfu_block`, `kff_block`
  and `se_block` turn it into a `GaussBlock` (t2, unit, K).
  `engine.build_system` builds every block of an evaluation this way,
  with t2 computed once per distinct row set (`engine.row_sqdiffs`), or
  handed in by the caller, as `trainer.fit_cvb` does once per fit, and keeps
  the blocks on its system's kernel half, which the noise-only builds of
  a collapsed evaluation's pi steps share; `gradients.elbo_svb_with_grad`
  does the same for its batch rows, and `svi` for its row tables.  The *_matrix
  builders return the K of a block, for callers that need nothing else
  (prediction, the synthetic generator, the dense oracles).
* Differentiating.  `kuu_coeffs`, `kfu_coeffs`, `kff_coeffs` and
  `se_coeffs` give the coefficients of each derivative in unit and
  unit o t2_d; `contract` reduces a matrix-level gradient G against a
  block to a = sum(G o unit) and b_d = sum(G o unit o t2_d), from which
  `PrecCoeffs.contract` gives the parameter derivatives.
  `gradients._chain_convolved` and `gradients._chain_independent` do
  this for every block the forward pass built, so no gradient path
  rebuilds a gram or a (d, n1, n2) derivative tensor.  The
  *_matrix_grads functions expand the same coefficients into those
  tensors (`PrecCoeffs.expand`), and the tests check them by finite
  differences.  `kff_matrix_grads` also takes a matrix-level gradient G
  and a built block and then returns the contracted derivatives; the
  chain differentiates each same-output block Kff_m that way, so one
  evaluation calls it once per output and builds no tensor.
* Whitening.  `whiten` gives Psi = K L^-T from `chol_jitter`'s factor L of
  Kuu, for every bound and prediction; `whiten_grad_k` and
  `whiten_grad_kuu` chain a gradient w.r.t. Psi back to K and Kuu.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf, dpotrs


class IllConditionedKernelError(ValueError):
    """Raised when the inducing kernel cannot be factorized after jitter escalation."""


def _as_1d(x):
    return np.atleast_1d(np.asarray(x, dtype=float))


def _as_2d(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    return x


@dataclass(frozen=True)
class LatentKernelParams:
    """Diagonal precision of the latent-process kernel (length d)."""

    L: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "L", _as_1d(self.L))
        if not np.all(self.L > 0):
            raise ValueError("latent precision entries must be strictly positive")


@dataclass(frozen=True)
class OutputKernelParams:
    """Smoothing-kernel amplitude S (any real) and diagonal precision Lm."""

    S: float
    Lm: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "S", float(self.S))
        object.__setattr__(self, "Lm", _as_1d(self.Lm))
        if not np.all(self.Lm > 0):
            raise ValueError("smoothing precision entries must be strictly positive")


@dataclass(frozen=True)
class NoiseParams:
    """Per-output noise standard deviations."""

    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma", _as_1d(self.sigma))
        if not np.all(self.sigma > 0):
            raise ValueError("noise standard deviations must be strictly positive")


@dataclass(frozen=True)
class InducingInputs:
    """Locations of the Q inducing points, shape (Q, d)."""

    W: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "W", _as_2d(self.W))
        if self.W.shape[0] < 1 or not np.all(np.isfinite(self.W)):
            raise ValueError("need at least one finite inducing location")


@dataclass(frozen=True)
class HyperParams:
    """All kernel hyperparameters of the convolved multi-output model."""

    latent: LatentKernelParams
    outputs: tuple
    noise: NoiseParams
    inducing: InducingInputs

    def __post_init__(self):
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if len(self.outputs) != len(self.noise.sigma):
            raise ValueError("outputs and noise sizes disagree")

    @property
    def n_outputs(self):
        return len(self.outputs)


@dataclass(frozen=True)
class SEKernelParams:
    """Squared-exponential kernel (amplitude, diagonal precision) for one output."""

    amp: float
    prec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amp", float(self.amp))
        object.__setattr__(self, "prec", _as_1d(self.prec))
        if self.amp <= 0 or not np.all(self.prec > 0):
            raise ValueError("SE amplitude and precision must be strictly positive")


@dataclass(frozen=True)
class IndependentSEHyperParams:
    """Independent per-output SE kernels (no shared latent process)."""

    outputs: tuple
    noise: NoiseParams

    def __post_init__(self):
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if len(self.outputs) != len(self.noise.sigma):
            raise ValueError("outputs and noise sizes disagree")

    @property
    def n_outputs(self):
        return len(self.outputs)


# ---------------------------------------------------------------------------
# pointwise evaluations
# ---------------------------------------------------------------------------


# The two pointwise kernels are what the quadrature oracle integrates, in
# plain floats: numpy's per-call overhead took almost all of its time.


def _floats(x):
    """A point (a float or a sequence) as a list of Python floats."""
    return [x] if isinstance(x, float) else np.ravel(x).tolist()


def eval_kuu(w, w2, p: LatentKernelParams):
    """Latent-kernel value exp(-0.5 (w-w2)' L (w-w2)); symmetric, in (0, 1]."""
    q = 0.0
    for l, a, b in zip(p.L.tolist(), _floats(w), _floats(w2)):
        t = a - b
        q += l * t * t
    return math.exp(-0.5 * q)


def eval_smoothing(tau, p: OutputKernelParams):
    """Smoothing-kernel value S |Lm|^(1/2) (2*pi)^(-d/2) exp(-0.5 tau' Lm tau)."""
    q, det, tau = 0.0, 1.0, _floats(tau)
    for lm, t in zip(p.Lm.tolist(), tau):
        q += lm * t * t
        det *= lm
    return p.S * math.sqrt(det) * (2.0 * math.pi) ** (-0.5 * len(tau)) * math.exp(-0.5 * q)


def _fu_scale_weight(lm, l):
    """(scale, weight) of k_fu for smoothing precision lm and latent precision l.

    lm may hold one output per row; scale then has one entry per row.
    """
    w = lm * l / (lm + l)
    scale = np.prod(np.sqrt(lm / (lm + l)), axis=-1)
    return scale, w


def _ff_scale_weight(lm_a, lm_b, l):
    """(scale, weight) of k_ff between outputs with smoothing precisions lm_a and lm_b."""
    v = 1.0 / lm_a + 1.0 / lm_b + 1.0 / l
    w = 1.0 / v
    scale = np.prod(1.0 / np.sqrt(l * v), axis=-1)
    return scale, w


def eval_cross_fu(x, w, out: OutputKernelParams, lat: LatentKernelParams):
    """Cross-covariance cov(f_m(x), u(w)); depends on x - w only, linear in S."""
    tau = _as_1d(x) - _as_1d(w)
    scale, wt = _fu_scale_weight(out.Lm, lat.L)
    return float(out.S * scale * np.exp(-0.5 * np.sum(wt * tau * tau)))


def eval_cross_ff(x, x2, out_m, out_m2, lat):
    """Cross-covariance cov(f_m(x), f_m'(x2)) of two convolved outputs."""
    tau = _as_1d(x) - _as_1d(x2)
    scale, wt = _ff_scale_weight(out_m.Lm, out_m2.Lm, lat.L)
    return float(out_m.S * out_m2.S * scale * np.exp(-0.5 * np.sum(wt * tau * tau)))


# ---------------------------------------------------------------------------
# kernel blocks
# ---------------------------------------------------------------------------
# Every kernel matrix of the package is a Gaussian block
#
#     K = amp * unit,   unit = exp(-0.5 * sum_d w_d t2_d),
#
# where t2_d holds the squared differences of input dimension d.  The
# builders below take t2 (from `sqdiff`), so a caller that needs several
# blocks over the same pair of input sets computes it once.


class GaussBlock(NamedTuple):
    """One kernel block with the pieces its derivatives are contracted against."""

    t2: np.ndarray  # (d, n1, n2) per-dimension squared differences
    unit: np.ndarray  # (n1, n2) unit-amplitude gram exp(-0.5 sum_d w_d t2_d)
    K: np.ndarray  # (n1, n2) the block, amp * unit


def sqdiff(X1, X2):
    """Per-dimension squared differences of two input sets, shape (d, n1, n2).

    The result is C-contiguous with the input dimension first, so each
    t2_d is a contiguous (n1, n2) slab.  Sets with different column
    counts raise ValueError (they would broadcast).
    """
    X1, X2 = _as_2d(X1), _as_2d(X2)
    if X1.shape[1] != X2.shape[1]:
        raise ValueError("%d input columns against %d" % (X1.shape[1], X2.shape[1]))
    # broadcast straight into the (d, n1, n2) layout, then square in place
    diff = np.subtract(X1.T[:, :, None], X2.T[:, None, :], order="C")
    diff *= diff
    return diff


def _gauss_block(t2, w, amp):
    # one exponent array turned into unit in place; K is the only other one
    unit = np.einsum("dij,d->ij", t2, w)
    unit *= -0.5
    np.exp(unit, out=unit)
    return GaussBlock(t2, unit, amp * unit)


def kuu_block(t2, lat: LatentKernelParams):
    """Kuu over inducing inputs with squared differences t2."""
    return _gauss_block(t2, lat.L, 1.0)


def kfu_block(t2, out: OutputKernelParams, lat: LatentKernelParams):
    """Kfu_m between inputs and inducing inputs with squared differences t2."""
    scale, wt = _fu_scale_weight(out.Lm, lat.L)
    return _gauss_block(t2, wt, out.S * scale)


def kff_block(t2, out: OutputKernelParams, lat: LatentKernelParams):
    """The same-output block Kff_m over inputs with squared differences t2."""
    scale, wt = _ff_scale_weight(out.Lm, out.Lm, lat.L)
    return _gauss_block(t2, wt, out.S * out.S * scale)


def se_block(t2, p: SEKernelParams):
    """An independent SE kernel block over inputs with squared differences t2."""
    return _gauss_block(t2, p.prec, p.amp * p.amp)


# ---------------------------------------------------------------------------
# matrix builders
# ---------------------------------------------------------------------------


def kuu_matrix(W, lat: LatentKernelParams):
    return kuu_block(sqdiff(W, W), lat).K


def kfu_matrix(X, W, out: OutputKernelParams, lat: LatentKernelParams):
    return kfu_block(sqdiff(X, W), out, lat).K


def kff_matrix(X, X2, out_a, out_b, lat):
    scale, wt = _ff_scale_weight(out_a.Lm, out_b.Lm, lat.L)
    return _gauss_block(sqdiff(X, X2), wt, out_a.S * out_b.S * scale).K


def kff_diag_value(out: OutputKernelParams, lat: LatentKernelParams):
    """Prior variance of f_m (stationary, so a single number)."""
    scale, _ = _ff_scale_weight(out.Lm, out.Lm, lat.L)
    return float(out.S * out.S * scale)


def se_matrix(X, X2, p: SEKernelParams):
    return se_block(sqdiff(X, X2), p).K


def exact_kff_pairs(X, hp: HyperParams):
    """All M x M cross-covariance blocks of the exact (dense) prior.

    Returns an (M, M, N, N) array; used by the enumeration oracle and
    the synthetic generator, never by the sparse bounds.
    """
    X = _as_2d(X)
    M = hp.n_outputs
    N = X.shape[0]
    out = np.empty((M, M, N, N))
    for a in range(M):
        for b in range(a, M):
            K = kff_matrix(X, X, hp.outputs[a], hp.outputs[b], hp.latent)
            out[a, b] = K
            out[b, a] = K.T
    return out


# ---------------------------------------------------------------------------
# Cholesky factor and solve, the factor with jitter, and whitening
# ---------------------------------------------------------------------------


def _check_finite(a):
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def cho_factor(a, overwrite_a=False):
    """(c, True): a's lower Cholesky factor as scipy.linalg.cho_factor(a, lower=True) gives it.

    LAPACK's dpotrf, the routine cho_factor calls, without the wrapper's
    batching and argument handling, so c is the same bit for bit: its
    lower triangle is the factor and its upper one keeps a's entries.
    With overwrite_a a Fortran-ordered a is factored in place.  The
    wrapper's guards stay: a non-finite a raises ValueError and one that
    is not positive definite np.linalg.LinAlgError, each with
    cho_factor's message.
    """
    _check_finite(a)
    c, info = dpotrf(a, lower=1, clean=0, overwrite_a=overwrite_a)
    if info > 0:
        raise np.linalg.LinAlgError(
            "%d-th leading minor of the array is not positive definite" % info)
    return c, True


def cho_solve(cho, b):
    """scipy.linalg.cho_solve(cho, b) through LAPACK's dpotrs, the routine it calls.

    cho is a (c, lower) pair from cho_factor; a non-finite b raises
    ValueError, as cho_solve's check does.  A 0 x 0 factor solves to the
    empty result, which dpotrs, rejecting n = 0, does not give.
    """
    _check_finite(b)
    c, lower = cho
    if c.shape[0] == 0:
        return np.zeros(np.shape(b))
    x, info = dpotrs(c, b, lower=lower)
    if info:
        raise ValueError("illegal value in %dth argument of internal potrs" % -info)
    return x


def chol_jitter(K):
    """Cholesky with the escalating-jitter policy.

    Starts from 1e-6 * mean(diag), multiplies by 10 on failure up to
    1e-2 * mean(diag), then raises with a condition-number estimate.

    Each attempt copies K into one Fortran-ordered working array, adds
    the jitter to its diagonal and lets LAPACK factor it in place
    (cho_factor); that array is the returned factor.  K itself is never
    modified, and the factor equals
    scipy.linalg.cho_factor(K + jitter * I, lower=True) bit for bit
    (upper triangle included) without an n x n identity or sum.
    """
    base = float(np.mean(np.diag(K)))
    n = K.shape[0]
    work = np.empty((n, n), order="F")
    jitter = 1e-6 * base
    while jitter <= 1e-2 * base:
        # a failed attempt leaves a partial factor behind, so start afresh
        np.copyto(work, K)
        work.flat[:: n + 1] += jitter
        try:
            return cho_factor(work, overwrite_a=True), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise IllConditionedKernelError(
        "ill-conditioned inducing kernel: condition estimate %.3e"
        % np.linalg.cond(K)
    )


def whiten(cho, K):
    """K L^-T for a lower Cholesky factor cho = (L, True) of a matrix L L', by BLAS dtrsm.

    cho may be any factor cho_factor or chol_jitter returns; only its
    lower triangle is read.  With chol_jitter's factor of Kuu this is
    Psi = Kfu L^-T; with the factor of engine's P_m = I + S_m B_m S_m,
    which engine.factor_solves assembles from the fixed and the moving
    rows' factors, rowsum((K L^-T)^2) = diag(K P_m^-1 K'), which the
    independent-kernel prediction reads without forming P_m^-1 (the
    collapsed posterior variances at the moving rows take a left solve
    with the moving rows' factor alone, engine.posterior_moments).  Each
    row is solved on its own (a single row beside a zero row, since
    OpenBLAS rounds a one-row block differently), so gathered rows of a
    Psi over all N rows equal the Psi of those rows bit for bit.
    """
    n = K.shape[0]
    psi = np.zeros((max(n, 2), K.shape[1]), order="F")
    psi[:n] = K
    return dtrsm(1.0, cho[0], psi, side=1, lower=1, trans_a=1, overwrite_b=1)[:n]


def whiten_grad_k(cho, R):
    """R L^-1: a gradient D R w.r.t. Psi = K L^-T is D (R L^-1) w.r.t. K; only R is solved."""
    return dtrsm(1.0, cho[0], R, side=1, lower=1)


def whiten_grad_kuu(cho, X):
    """dKuu = sym(L^-T Phi(X) L^-1) from X = L' Lbar = -Psi_bar' Psi (Murray 2016).

    Phi takes the lower triangle with its diagonal halved.
    """
    P = np.tril(X)
    P[np.diag_indices_from(P)] *= 0.5
    P = dtrsm(1.0, cho[0], dtrsm(1.0, cho[0], P, side=1, lower=1), lower=1, trans_a=1)
    return 0.5 * (P + P.T)


# ---------------------------------------------------------------------------
# derivative coefficients
# ---------------------------------------------------------------------------
# The derivative of a block w.r.t. a per-dimension precision entry
# theta_d (Lm_d, L_d or an SE precision) is
#
#     dK/dtheta_d = c0_d * unit + c2_d * unit o t2_d,
#
# and w.r.t. an amplitude it is a multiple of unit.  So for a
# matrix-level gradient G of a scalar f, with a = sum(G o unit) and
# b_d = sum(G o unit o t2_d) (`contract`),
#
#     df/dtheta_d = c0_d a + c2_d b_d,   df/damp = c_amp a.
#
# The *_coeffs functions return (c_amp, PrecCoeffs...) in constrained
# coordinates, for all outputs at once (one row each), so the chain does
# the small coefficient arithmetic once per evaluation, not once per
# output; log-space chaining is done by the caller.  Amplitude
# coefficients are taken against the unit-amplitude gram, so they stay
# finite at S = 0.  Both sums in `contract` are elementwise products and
# reductions (np.einsum without BLAS); the engine docstring says why no
# BLAS product of numpy's is used here.


class PrecCoeffs(NamedTuple):
    """Coefficients (c0, c2) of one per-dimension precision, one row per block: (blocks, d)."""

    c0: np.ndarray
    c2: np.ndarray

    def contract(self, a, b):
        """df/dtheta, (blocks, d), from `contract`'s a (blocks,) and b (blocks, d)."""
        return self.c0 * np.asarray(a)[..., None] + self.c2 * b

    def expand(self, block: GaussBlock, m=0):
        """The derivative tensor dK/dtheta_d of block m, shape (d, n1, n2)."""
        return block.unit[None] * (
            self.c0[m][:, None, None] + self.c2[m][:, None, None] * block.t2
        )


def contract(G, block: GaussBlock):
    """(a, b): a = sum(G o unit) and b_d = sum(G o unit o t2_d) for one block."""
    Gu = G * block.unit
    return Gu.sum(), np.einsum("dij,ij->d", block.t2, Gu)


def kuu_coeffs(lat: LatentKernelParams):
    """Derivative coefficients of Kuu w.r.t. L, as one block: (1, d)."""
    d = lat.L.shape[0]
    return PrecCoeffs(np.zeros((1, d)), np.full((1, d), -0.5))


def kfu_coeffs(outputs, lat: LatentKernelParams):
    """(c_S (M,), dLm, dL): derivative coefficients of each output's Kfu_m."""
    S = np.array([out.S for out in outputs])
    lm, l = np.array([out.Lm for out in outputs]), lat.L
    scale, _ = _fu_scale_weight(lm, l)
    amp = (S * scale)[:, None]
    tot = lm + l
    # per dimension: d log scale and -0.5 * d weight
    d_Lm = PrecCoeffs(amp * (0.5 * l / (lm * tot)), amp * (-0.5 * (l / tot) ** 2))
    d_L = PrecCoeffs(amp * (-0.5 / tot), amp * (-0.5 * (lm / tot) ** 2))
    return scale, d_Lm, d_L


def kff_coeffs(outputs, lat: LatentKernelParams):
    """(c_S (M,), dLm, dL): derivative coefficients of each output's same-output block Kff_m."""
    S = np.array([out.S for out in outputs])
    lm, l = np.array([out.Lm for out in outputs]), lat.L
    scale, _ = _ff_scale_weight(lm, lm, l)
    amp = (S * S * scale)[:, None]
    v = 2.0 / lm + 1.0 / l
    # everything runs through v: d/dv [log scale] = -1/(2v), d/dv [-w/2] = 1/(2v^2)
    dv0 = amp * (-0.5 / v)
    dv2 = amp * (0.5 / (v * v))
    dv_dlm = -2.0 / (lm * lm)
    dv_dl = -1.0 / (l * l)
    d_Lm = PrecCoeffs(dv0 * dv_dlm, dv2 * dv_dlm)
    d_L = PrecCoeffs(amp * (-0.5 / l) + dv0 * dv_dl, dv2 * dv_dl)
    return 2.0 * S * scale, d_Lm, d_L


def se_coeffs(outputs):
    """(c_amp (M,), dPrec): derivative coefficients of each output's SE block."""
    amp = np.array([p.amp for p in outputs])
    c2 = np.array([np.full(p.prec.shape, -0.5 * p.amp * p.amp) for p in outputs])
    return 2.0 * amp, PrecCoeffs(np.zeros_like(c2), c2)


def kuu_matrix_grads(W, lat: LatentKernelParams):
    """Returns (Kuu, dL) with dL of shape (d, Q, Q)."""
    block = kuu_block(sqdiff(W, W), lat)
    return block.K, kuu_coeffs(lat).expand(block)


def kfu_matrix_grads(X, W, out: OutputKernelParams, lat: LatentKernelParams):
    """Returns (Kfu, dS, dLm, dL); dS is (n, Q), dLm/dL are (d, n, Q)."""
    block = kfu_block(sqdiff(X, W), out, lat)
    c_S, d_Lm, d_L = kfu_coeffs([out], lat)
    return block.K, c_S[0] * block.unit, d_Lm.expand(block), d_L.expand(block)


def kff_matrix_grads(X, out: OutputKernelParams, lat: LatentKernelParams, G=None, block=None):
    """Same-output covariance block and derivatives: (Kff, dS, dLm, dL).

    Without G the derivatives are tensors: dS (n, n), dLm and dL (d, n, n).
    Given a matrix-level gradient G of a scalar f, they are contracted
    against it instead: df/dS (a scalar), df/dLm and df/dL (d,), in
    constrained coordinates.  block, if given, is the kff_block over X
    that the caller already built; it is used as is and X is not read.
    """
    if block is None:
        block = kff_block(sqdiff(X, X), out, lat)
    c_S, d_Lm, d_L = kff_coeffs([out], lat)
    if G is None:
        return block.K, c_S[0] * block.unit, d_Lm.expand(block), d_L.expand(block)
    a, b = contract(G, block)
    return block.K, c_S[0] * a, d_Lm.contract(a, b)[0], d_L.contract(a, b)[0]

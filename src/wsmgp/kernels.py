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
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor

from . import _backend


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


def eval_kuu(w, w2, p: LatentKernelParams):
    """Latent-kernel value exp(-0.5 (w-w2)' L (w-w2)); symmetric, in (0, 1]."""
    tau = _as_1d(w) - _as_1d(w2)
    return float(np.exp(-0.5 * np.sum(p.L * tau * tau)))

def eval_smoothing(tau, p: OutputKernelParams):
    """Smoothing-kernel value S |Lm|^(1/2) (2*pi)^(-d/2) exp(-0.5 tau' Lm tau)."""
    tau = _as_1d(tau)
    d = tau.shape[0]
    scale = p.S * np.sqrt(np.prod(p.Lm)) * (2.0 * np.pi) ** (-0.5 * d)
    return float(scale * np.exp(-0.5 * np.sum(p.Lm * tau * tau)))


def _fu_scale_weight(out: OutputKernelParams, lat: LatentKernelParams):
    l, lm = lat.L, out.Lm
    w = lm * l / (lm + l)
    scale = np.prod(np.sqrt(lm / (lm + l)))
    return scale, w


def _ff_scale_weight(out_a, out_b, lat):
    l = lat.L
    v = 1.0 / out_a.Lm + 1.0 / out_b.Lm + 1.0 / l
    w = 1.0 / v
    scale = np.prod(1.0 / np.sqrt(l * v))
    return scale, w


def eval_cross_fu(x, w, out: OutputKernelParams, lat: LatentKernelParams):
    """Cross-covariance cov(f_m(x), u(w)); depends on x - w only, linear in S."""
    tau = _as_1d(x) - _as_1d(w)
    scale, wt = _fu_scale_weight(out, lat)
    return float(out.S * scale * np.exp(-0.5 * np.sum(wt * tau * tau)))


def eval_cross_ff(x, x2, out_m, out_m2, lat):
    """Cross-covariance cov(f_m(x), f_m'(x2)) of two convolved outputs."""
    tau = _as_1d(x) - _as_1d(x2)
    scale, wt = _ff_scale_weight(out_m, out_m2, lat)
    return float(out_m.S * out_m2.S * scale * np.exp(-0.5 * np.sum(wt * tau * tau)))


# ---------------------------------------------------------------------------
# matrix builders
# ---------------------------------------------------------------------------


def kuu_matrix(W, lat: LatentKernelParams):
    W = _as_2d(W)
    return _backend.gauss_gram(W, W, lat.L, 1.0)


def kfu_matrix(X, W, out: OutputKernelParams, lat: LatentKernelParams):
    X, W = _as_2d(X), _as_2d(W)
    scale, wt = _fu_scale_weight(out, lat)
    return _backend.gauss_gram(X, W, wt, out.S * scale)


def kff_matrix(X, X2, out_a, out_b, lat):
    X, X2 = _as_2d(X), _as_2d(X2)
    scale, wt = _ff_scale_weight(out_a, out_b, lat)
    return _backend.gauss_gram(X, X2, wt, out_a.S * out_b.S * scale)


def kff_diag_value(out: OutputKernelParams, lat: LatentKernelParams):
    """Prior variance of f_m (stationary, so a single number)."""
    scale, _ = _ff_scale_weight(out, out, lat)
    return float(out.S * out.S * scale)


def se_matrix(X, X2, p: SEKernelParams):
    X, X2 = _as_2d(X), _as_2d(X2)
    return _backend.gauss_gram(X, X2, p.prec, p.amp * p.amp)


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
# jittered Cholesky factor
# ---------------------------------------------------------------------------


def chol_jitter(K):
    """Cholesky with the escalating-jitter policy.

    Starts from 1e-6 * mean(diag), multiplies by 10 on failure up to
    1e-2 * mean(diag), then raises with a condition-number estimate.

    Each attempt copies K into one Fortran-ordered working array, adds
    the jitter to its diagonal and lets LAPACK factor it in place; that
    array is the returned factor.  K itself is never modified, and the
    factor equals cho_factor(K + jitter * I, lower=True) bit for bit
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
            c, low = cho_factor(work, lower=True, overwrite_a=True)
            return (c, low), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise IllConditionedKernelError(
        "ill-conditioned inducing kernel: condition estimate %.3e"
        % np.linalg.cond(K)
    )


# ---------------------------------------------------------------------------
# derivative builders (chain rule to kernel hyperparameters)
# ---------------------------------------------------------------------------
# Each builder returns the kernel matrix together with its partial
# derivatives w.r.t. the *constrained* parameters; log-space chaining is
# done by the caller.  Amplitude derivatives are computed from the
# unit-amplitude matrix so they stay finite at S = 0.


def kuu_matrix_grads(W, lat: LatentKernelParams):
    """Returns (Kuu, dL) with dL of shape (d, Q, Q)."""
    W = _as_2d(W)
    K = _backend.gauss_gram(W, W, lat.L, 1.0)
    t2 = _backend.sqdiff_dims(W, W)
    dL = -0.5 * t2 * K[None, :, :]
    return K, dL


def kfu_matrix_grads(X, W, out: OutputKernelParams, lat: LatentKernelParams):
    """Returns (Kfu, dS, dLm, dL); dS is (n, Q), dLm/dL are (d, n, Q)."""
    X, W = _as_2d(X), _as_2d(W)
    l, lm = lat.L, out.Lm
    scale, wt = _fu_scale_weight(out, lat)
    Kunit = _backend.gauss_gram(X, W, wt, scale)
    K = out.S * Kunit
    t2 = _backend.sqdiff_dims(X, W)
    tot = lm + l
    # d log scale and d weight per input dimension
    dls_dlm = 0.5 * l / (lm * tot)
    dls_dl = -0.5 / tot
    dw_dlm = (l / tot) ** 2
    dw_dl = (lm / tot) ** 2
    dLm = K[None] * (dls_dlm[:, None, None] - 0.5 * dw_dlm[:, None, None] * t2)
    dL = K[None] * (dls_dl[:, None, None] - 0.5 * dw_dl[:, None, None] * t2)
    return K, Kunit, dLm, dL


def kff_matrix_grads(X, out: OutputKernelParams, lat: LatentKernelParams):
    """Same-output covariance block and derivatives: (Kff, dS, dLm, dL)."""
    X = _as_2d(X)
    l, lm = lat.L, out.Lm
    v = 2.0 / lm + 1.0 / l
    wt = 1.0 / v
    scale = np.prod(1.0 / np.sqrt(l * v))
    Kunit = _backend.gauss_gram(X, X, wt, scale)
    K = out.S * out.S * Kunit
    t2 = _backend.sqdiff_dims(X, X)
    # common factor through v: d/dv [log scale] = -1/(2v), d/dv [w] = -1/v^2
    dv = (-0.5 / v)[:, None, None] + (0.5 / (v * v))[:, None, None] * t2
    dLm = K[None] * dv * (-2.0 / (lm * lm))[:, None, None]
    dL = K[None] * (
        (-0.5 / l)[:, None, None] + dv * (-1.0 / (l * l))[:, None, None]
    )
    dS = 2.0 * out.S * Kunit
    return K, dS, dLm, dL


def kff_diag_value_grads(out: OutputKernelParams, lat: LatentKernelParams):
    """Prior variance of f_m and its derivatives: (value, dS, dLm, dL)."""
    l, lm = lat.L, out.Lm
    v = 2.0 / lm + 1.0 / l
    scale = np.prod(1.0 / np.sqrt(l * v))
    value = out.S * out.S * scale
    dS = 2.0 * out.S * scale
    # at tau = 0 the only dependence is through the normalizer
    dv = -0.5 / v
    dLm = value * dv * (-2.0 / (lm * lm))
    dL = value * (-0.5 / l + dv * (-1.0 / (l * l)))
    return float(value), float(dS), dLm, dL


def se_matrix_grads(X, X2, p: SEKernelParams):
    """SE block and derivatives w.r.t. (amp, prec): (K, dAmp, dPrec)."""
    X, X2 = _as_2d(X), _as_2d(X2)
    K = _backend.gauss_gram(X, X2, p.prec, p.amp * p.amp)
    t2 = _backend.sqdiff_dims(X, X2)
    dAmp = 2.0 / p.amp * K
    dPrec = -0.5 * t2 * K[None]
    return K, dAmp, dPrec

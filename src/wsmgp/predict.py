"""Predictive posterior per output at new inputs.

For the sparse convolved model the posterior is computed through the
inducing representation:

    mean_m(x*) = K_{f*_m,u} A^-1 K_{u,f} E^-1 y_sel
    var_m(x*)  = diag(B*_m) + diag(K_{f*_m,u} A^-1 K_{u,f*_m}) + sigma_m^2

with E = B + W^-1 (engine) and A = Kuu + K_{u,f} E^-1 K_{f,u}.  Every
output's mean weights the full stacked data vector, as dense conditioning
on the stacked prior Kfu Kuu^-1 Kuf + B + W^-1 does.  For the
independent-kernel baselines (no inducing layer, zero cross-covariance)
the posterior is exact per-output dense conditioning.

The system conditioned on is the fit's own: bounds.build_cvb_system over
the one row selection, which is SCMGP's when there is no state.
"""

from dataclasses import dataclass

import numpy as np
from . import engine, kernels
from .bounds import build_cvb_system
from .kernels import IndependentSEHyperParams, cho_solve


@dataclass
class Prediction:
    """Per-output predictive mean and variance (noise included) on a grid."""

    x_star: np.ndarray
    mean: np.ndarray  # (M, N*)
    var_diag: np.ndarray  # (M, N*)


def posterior_predict(ds, cfg, hp, state, x_star):
    """Predictive mean and variance for every output at x_star."""
    x_star = np.asarray(x_star, dtype=float)
    if x_star.ndim == 1:
        x_star = x_star[:, None]
    if not np.all(np.isfinite(x_star)):
        raise ValueError("non-finite prediction inputs")
    sys = build_cvb_system(ds, cfg, hp, state)
    M = cfg.M
    n_star = x_star.shape[0]
    mean = np.empty((M, n_star))
    var = np.empty((M, n_star))

    if isinstance(hp, IndependentSEHyperParams):
        for m, out in enumerate(hp.outputs):
            # with E_m^-1 = S P^-1 S, in the scaled space of P
            ks = kernels.se_matrix(x_star, ds.X[sys.rows[m]], out) * sys.s_blocks[m]
            mean[m] = ks @ sys.alpha[m]
            w = engine._gemm(sys.P_inv[m], ks.T) if ks.shape[1] else np.zeros((0, n_star))
            prior = out.amp**2
            var[m] = prior - np.sum(ks * w.T, axis=1) + hp.noise.sigma[m] ** 2
        return Prediction(x_star=x_star, mean=mean, var_diag=var)

    for m, out in enumerate(hp.outputs):
        k_star_u = kernels.kfu_matrix(x_star, hp.inducing.W, out, hp.latent)
        mean[m] = k_star_u @ sys.c
        # B*_m diag + Nystrom-through-A diag + noise
        prior = kernels.kff_diag_value(out, hp.latent)
        kuu_solve = cho_solve(sys.cho_Kuu, k_star_u.T)
        a_solve = cho_solve(sys.cho_A, k_star_u.T)
        b_star = prior - np.sum(k_star_u * kuu_solve.T, axis=1)
        var[m] = b_star + np.sum(k_star_u * a_solve.T, axis=1) + hp.noise.sigma[m] ** 2
    return Prediction(x_star=x_star, mean=mean, var_diag=var)

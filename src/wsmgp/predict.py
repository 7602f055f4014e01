"""Predictive posterior per output at new inputs.

For the sparse convolved model the posterior is computed through the
whitened inducing representation u = L v, Kuu = L L' (engine): with
Psi*_m = K_{f*_m,u} L^-T (kernels.whiten) and the system's
c = A^-1 Psi' E^-1 y_sel,

    mean_m(x*) = Psi*_m c
    var_m(x*)  = diag(B*_m) + diag(Psi*_m A^-1 Psi*_m') + sigma_m^2

with E = B + W^-1, A = I + Psi' E^-1 Psi and
diag(B*_m) = k_m(x*, x*) - diag(Psi*_m Psi*_m').  Every output's mean
weights the full stacked data vector, as dense conditioning on the
stacked prior Psi Psi' + B + W^-1 does.  For the
independent-kernel baselines (no inducing layer, zero cross-covariance)
the posterior is exact per-output dense conditioning.

The system conditioned on is the fit's own: bounds.build_cvb_system over
the one row selection, which is SCMGP's when there is no state.
"""

from dataclasses import dataclass

import numpy as np
from . import kernels
from .bounds import build_cvb_system
from .engine import factor_solves
from .kernels import IndependentSEHyperParams


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
            # with E_m^-1 = S P^-1 S, in the scaled space of P: p = K*_m S_m L_P^-T
            ks = kernels.se_matrix(x_star, ds.X[sys.rows[m]], out) * sys.s_blocks[m]
            if ks.shape[1]:
                cho, alpha = factor_solves(sys, m)
                mean[m], p = ks @ alpha[:, 0], kernels.whiten(cho, ks)
            else:
                mean[m], p = 0.0, ks
            prior = out.amp**2
            var[m] = prior - np.sum(p * p, axis=1) + hp.noise.sigma[m] ** 2
        return Prediction(x_star=x_star, mean=mean, var_diag=var)

    for m, out in enumerate(hp.outputs):
        psi = kernels.whiten(sys.cho_Kuu, kernels.kfu_matrix(x_star, hp.inducing.W, out, hp.latent))
        mean[m] = psi @ sys.c
        # B*_m diag + the diag of Psi* A^-1 Psi*' + noise
        p = kernels.whiten(sys.cho_A, psi)
        prior = kernels.kff_diag_value(out, hp.latent)
        var[m] = prior - np.sum(psi * psi, axis=1) + np.sum(p * p, axis=1) + hp.noise.sigma[m] ** 2
    return Prediction(x_star=x_star, mean=mean, var_diag=var)

"""Predictive posterior per output at new inputs.

For the sparse convolved model the posterior is computed through the
inducing representation:

    mean_m(x*) = K_{f*_m,u} A^-1 K_{u,f} (B + D)^-1 y_tiled
    var_m(x*)  = diag(B*_m) + diag(K_{f*_m,u} A^-1 K_{u,f*_m}) + sigma_m^2

with A = Kuu + K_{u,f} (B + D)^-1 K_{f,u}.  The default weights the full
stacked data vector; an alternative reading that weights only block m's
observations is retained behind ``per_block_weighting`` for comparison.
For the independent-kernel baselines (no inducing layer, zero
cross-covariance) the posterior is exact per-output dense conditioning.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from . import engine, kernels
from .bounds import compute_D, labeled_selection
from .kernels import HyperParams, IndependentSEHyperParams


@dataclass
class Prediction:
    """Per-output predictive mean and variance (noise included) on a grid."""

    x_star: np.ndarray
    mean: np.ndarray  # (M, N*)
    var_diag: np.ndarray  # (M, N*)


def _build_predict_system(ds, cfg, hp, state):
    """Stacked system matching the fitted model's likelihood structure.

    With a variational state, every row appears under every output with
    noise sigma^2/pi_hat; without one (fully-labeled baseline), labeled
    rows appear once under their label with plain sigma^2.
    """
    if state is not None:
        rows = [np.arange(ds.n)] * cfg.M
        D = compute_D(state, hp.noise)
        d_blocks = [D.block(m) for m in range(cfg.M)]
    else:
        rows = labeled_selection(ds, cfg.M)
        d_blocks = [
            np.full(len(r), hp.noise.sigma[m] ** 2) for m, r in enumerate(rows)
        ]
    return engine.build_system(ds.X, ds.y, hp, rows, d_blocks)


def posterior_predict(ds, cfg, hp, state, x_star, per_block_weighting=False):
    """Predictive mean and variance for every output at x_star."""
    x_star = np.asarray(x_star, dtype=float)
    if x_star.ndim == 1:
        x_star = x_star[:, None]
    if not np.all(np.isfinite(x_star)):
        raise ValueError("non-finite prediction inputs")
    sys = _build_predict_system(ds, cfg, hp, state)
    M = cfg.M
    n_star = x_star.shape[0]
    mean = np.empty((M, n_star))
    var = np.empty((M, n_star))

    if isinstance(hp, IndependentSEHyperParams):
        for m, out in enumerate(hp.outputs):
            Xm = ds.X[sys.rows[m]]
            k_star = kernels.se_matrix(x_star, Xm, out)
            mean[m] = k_star @ sys.alpha[m]
            w = engine.solve_E(sys, m, k_star.T) if len(Xm) else np.zeros((0, n_star))
            prior = out.amp**2
            var[m] = prior - np.sum(k_star * w.T, axis=1) + hp.noise.sigma[m] ** 2
        return Prediction(x_star=x_star, mean=mean, var_diag=var)

    for m, out in enumerate(hp.outputs):
        k_star_u = kernels.kfu_matrix(x_star, hp.inducing.W, out, hp.latent)
        if per_block_weighting:
            kuf_m = sys.fu_blocks[m].K.T
            weights = engine.solve_A(sys, kuf_m @ sys.alpha[m])
            mean[m] = k_star_u @ weights
        else:
            mean[m] = k_star_u @ sys.c
        # B*_m diag + Nystrom-through-A diag + noise
        prior = kernels.kff_diag_value(out, hp.latent)
        kuu_solve = engine.solve_Kuu(sys, k_star_u.T)
        a_solve = engine.solve_A(sys, k_star_u.T)
        b_star = prior - np.sum(k_star_u * kuu_solve.T, axis=1)
        var[m] = b_star + np.sum(k_star_u * a_solve.T, axis=1) + hp.noise.sigma[m] ** 2
    return Prediction(x_star=x_star, mean=mean, var_diag=var)

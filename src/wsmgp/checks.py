"""Verification harnesses shared by the test suite and the CLI.

Each check builds its own oracle (quadrature, finite differences,
exhaustive enumeration) independently of the code path it validates and
returns plain numbers; callers decide the tolerance.
"""

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from . import gradients, kernels, svi
from .bounds import elbo_cvb, exact_marglik_oracle
from .kernels import (
    HyperParams,
    InducingInputs,
    LatentKernelParams,
    NoiseParams,
    OutputKernelParams,
)
from .model import ModelConfig, VariationalState, floor_simplex, init_state, make_dataset
from .trainer import ParamPack


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


def random_instance(seed, n=10, M=2, Q=3, d=1, labeled_frac=0.5, x_span=1.0,
                    sigma=0.3, dense_w=False):
    """A seeded random dataset/config/hyperparameter/state quadruple.

    Assignment probabilities are sampled away from the simplex floor so
    finite-difference checks stay in the smooth region.
    """
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, x_span, size=(n, d))
    y = rng.normal(0.0, 1.5, size=n)
    labels = np.zeros(n, dtype=int)
    n_lab = int(round(labeled_frac * n))
    lab_rows = rng.choice(n, size=n_lab, replace=False)
    labels[lab_rows] = rng.integers(1, M + 1, size=n_lab)
    prior = np.full((n, M), np.nan)
    for i in range(n):
        if labels[i] > 0:
            prior[i] = rng.dirichlet(np.full(M, 5.0))
            # keep the prior leaning toward the observed label
            prior[i, labels[i] - 1] += 1.0
            prior[i] /= prior[i].sum()
    ds = make_dataset(X, y, labels=labels, prior_pi=prior, n_outputs=M)
    cfg = ModelConfig(M=M, Q=Q, alpha0=float(rng.uniform(0.3, 2.0)))
    if dense_w:
        W = np.linspace(-0.08 * x_span, 1.08 * x_span, Q)[:, None]
        if d > 1:
            W = np.hstack([W] + [rng.uniform(0, x_span, (Q, 1)) for _ in range(d - 1)])
    else:
        W = rng.uniform(0.0, x_span, size=(Q, d))
    base = (6.0 / x_span) ** 2
    hp = HyperParams(
        latent=LatentKernelParams(L=np.full(d, base * rng.uniform(0.7, 1.4))),
        outputs=[
            OutputKernelParams(
                S=float(rng.uniform(1.0, 3.0) * rng.choice([-1.0, 1.0])),
                Lm=np.full(d, base * rng.uniform(0.9, 2.2)),
            )
            for _ in range(M)
        ],
        noise=NoiseParams(sigma=np.full(M, sigma)),
        inducing=InducingInputs(W=W),
    )
    state = init_state(ds, cfg, seed, kuu=kernels.kuu_matrix(W, hp.latent))
    # resample pi away from the floor
    state.pi_hat = floor_simplex(rng.dirichlet(np.full(M, 4.0), size=n))
    return ds, cfg, hp, state


# ---------------------------------------------------------------------------
# kernel quadrature oracle
# ---------------------------------------------------------------------------


@dataclass
class QuadratureReport:
    max_rel_err_fu: float
    max_rel_err_ff: float
    n_draws: int


def _quad_fu(x, w, out, lat):
    f = lambda wp: kernels.eval_smoothing(x - wp, out) * kernels.eval_kuu(wp, w, lat)
    val, _ = integrate.quad(f, -np.inf, np.inf, limit=200)
    return val


def _quad_ff(x, x2, out_a, out_b, lat):
    f = lambda wp, w: (
        kernels.eval_smoothing(x - w, out_a)
        * kernels.eval_kuu(w, wp, lat)
        * kernels.eval_smoothing(x2 - wp, out_b)
    )
    val, _ = integrate.dblquad(
        f, -np.inf, np.inf, lambda _: -np.inf, lambda _: np.inf, epsabs=1e-10
    )
    return val


def kernel_quadrature_check(seed=0, n_draws=100):
    """Closed forms vs adaptive quadrature over random d=1 draws.

    The first draw uses the standard two-source generating parameters;
    the rest sample amplitudes, precisions and offsets at random.
    """
    rng = np.random.default_rng(seed)
    worst_fu = 0.0
    worst_ff = 0.0
    for k in range(n_draws):
        if k == 0:
            lat = LatentKernelParams(L=np.array([100.0]))
            out_a = OutputKernelParams(S=4.0, Lm=np.array([120.0]))
            out_b = OutputKernelParams(S=5.0, Lm=np.array([200.0]))
            tau = 0.05
        else:
            lat = LatentKernelParams(L=np.array([rng.uniform(40.0, 350.0)]))
            out_a = OutputKernelParams(
                S=float(rng.uniform(0.5, 6.0) * rng.choice([-1, 1])),
                Lm=np.array([rng.uniform(40.0, 350.0)]),
            )
            out_b = OutputKernelParams(
                S=float(rng.uniform(0.5, 6.0) * rng.choice([-1, 1])),
                Lm=np.array([rng.uniform(40.0, 350.0)]),
            )
            tau = float(rng.uniform(-0.25, 0.25))
        x = np.array([rng.uniform(-0.2, 0.2)])
        w = x - tau
        closed = kernels.eval_cross_fu(x, w, out_a, lat)
        oracle = _quad_fu(float(x[0]), float(w[0]), out_a, lat)
        worst_fu = max(worst_fu, abs(closed - oracle) / max(abs(oracle), 1e-12))
        closed2 = kernels.eval_cross_ff(x, w, out_a, out_b, lat)
        oracle2 = _quad_ff(float(x[0]), float(w[0]), out_a, out_b, lat)
        worst_ff = max(worst_ff, abs(closed2 - oracle2) / max(abs(oracle2), 1e-12))
    return QuadratureReport(worst_fu, worst_ff, n_draws)


# ---------------------------------------------------------------------------
# packed finite-difference checks
# ---------------------------------------------------------------------------


def packed_cvb(ds, cfg, hp, state, with_alpha0=True):
    """(x0, value_fn, grad_fn, pack) for the collapsed bound."""
    pack = ParamPack(ds, cfg, hp, with_pi=True, with_alpha0=with_alpha0)
    x0 = pack.pack(hp, alpha0=cfg.alpha0, state=state)

    def value(x):
        hp_x, a0, pi = pack.unpack(x)
        return elbo_cvb(ds, cfg.with_alpha0(a0), hp_x, VariationalState(pi))

    def grad(x):
        hp_x, a0, pi = pack.unpack(x)
        _, bundle = gradients.elbo_cvb_with_grad(ds, cfg.with_alpha0(a0), hp_x,
                                                 VariationalState(pi))
        return pack.grad_to_vec(bundle)

    return x0, value, grad, pack


def packed_svb(ds, cfg, hp, state, batch=None, with_alpha0=True):
    """(x0, value_fn, grad_fn, pack) for the stochastic bound's hyperparameter block.

    q(pi) and q(u) stay at `state`: the stochastic fit moves them by
    closed-form steps, not along this gradient.
    """
    pack = ParamPack(ds, cfg, hp, with_pi=False, with_alpha0=with_alpha0)
    x0 = pack.pack(hp, alpha0=cfg.alpha0)

    def value(x):
        hp_x, a0 = pack.unpack_hyper(x)
        return svi.elbo_svb(ds, cfg.with_alpha0(a0), hp_x, state, batch=batch)

    def grad(x):
        hp_x, a0 = pack.unpack_hyper(x)
        _, bundle = gradients.elbo_svb_with_grad(ds, cfg.with_alpha0(a0), hp_x, state,
                                                 batch=batch)
        return pack.hyper_grad_to_vec(bundle)

    return x0, value, grad, pack


def gradcheck_cvb(seed, n=10, M=2, Q=3, h=1e-5):
    ds, cfg, hp, state = random_instance(seed, n=n, M=M, Q=Q)
    x0, value, grad, _ = packed_cvb(ds, cfg, hp, state)
    return gradients.finite_diff_check(value, grad, x0, h=h)


def gradcheck_svb(seed, n=10, M=2, Q=3, h=1e-5, batch=None):
    ds, cfg, hp, state = random_instance(seed, n=n, M=M, Q=Q)
    rng = np.random.default_rng(seed + 1)
    A = rng.normal(size=(Q, Q))
    state.Su = 0.5 * np.eye(Q) + A @ A.T / Q
    state.mu_u = rng.normal(size=Q)
    x0, value, grad, _ = packed_svb(ds, cfg, hp, state, batch=batch)
    return gradients.finite_diff_check(value, grad, x0, h=h)


def gradcheck_vterm(seed, n=8, M=2, h=1e-6):
    ds, cfg, hp, state = random_instance(seed, n=n, M=M, Q=3)
    from .bounds import vterm
    from .trainer import logits_to_pi, pi_to_logits

    logits0 = pi_to_logits(state.pi_hat)
    shape = logits0.shape
    x0 = np.concatenate([logits0.ravel(), [np.log(cfg.alpha0)]])

    def value(x):
        pi = logits_to_pi(x[:-1].reshape(shape))
        a0 = float(np.exp(x[-1]))
        return vterm(VariationalState(pi), ds, cfg.with_alpha0(a0), hp.noise)

    def grad(x):
        pi = logits_to_pi(x[:-1].reshape(shape))
        a0 = float(np.exp(x[-1]))
        d_logits, d_a0 = gradients.grad_vterm(VariationalState(pi), ds, cfg.with_alpha0(a0),
                                               hp.noise)
        return np.concatenate([d_logits[:, :-1].ravel(), [d_a0]])

    return gradients.finite_diff_check(value, grad, x0, h=h)


# ---------------------------------------------------------------------------
# bound-validity margins
# ---------------------------------------------------------------------------


def bound_validity_margins(seeds, n_max=8, M=2, Q=24):
    """oracle - elbo_cvb on small dense-inducing instances (should be >= 0)."""
    margins = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, n_max + 1))
        ds, cfg, hp, state = random_instance(
            seed, n=n, M=M, Q=Q, dense_w=True, sigma=0.3
        )
        margins.append(exact_marglik_oracle(ds, cfg, hp) - elbo_cvb(ds, cfg, hp, state))
    return np.asarray(margins)

"""Parameter transforms and the two optimizers.

The collapsed bound is maximized with L-BFGS-B over a single flat vector
of unconstrained parameters (log precisions, log noise, free amplitudes,
row-softmax logits with one pinned logit per row, log alpha0).  The
stochastic bound is handled with variational EM: blocks of mini-batch
Adam steps on the variational parameters (assignment logits, inducing
posterior) with a 1/sqrt(t) step-size decay, alternating with full-batch
L-BFGS-B steps on the hyperparameters.
"""

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import gradients, kernels, svi
from .kernels import (
    HyperParams,
    IndependentSEHyperParams,
    InducingInputs,
    LatentKernelParams,
    NoiseParams,
    OutputKernelParams,
    SEKernelParams,
)
from .model import Dataset, ModelConfig, VariationalState, floor_simplex, init_state, refresh_alpha_hat


@dataclass(frozen=True)
class OptimizerConfig:
    """Optimization settings (none of these are prescribed by the model)."""

    max_iter: int = 200
    tol_rel_bound: float = 1e-7
    em_outer_iters: int = 30
    em_inner_stat_iters: int = 25
    em_inner_hyp_iters: int = 10
    batch_size: int = 0  # 0 means full batch
    step_size: float = 1e-2
    seed: int = 0
    restarts: int = 3
    optimize_alpha0: bool = True

    def __post_init__(self):
        if self.max_iter < 1 or self.em_outer_iters < 1:
            raise ValueError("iteration counts must be positive")


@dataclass
class FitReport:
    """Outcome of one fit (best restart)."""

    bound_trajectory: list
    final_hp: object
    final_state: VariationalState
    final_alpha0: float
    converged: bool
    wall_clock: float
    evaluations: int
    seed: int
    restart_bounds: list = field(default_factory=list)


class NonFiniteBoundError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# parameter packing
# ---------------------------------------------------------------------------


def pi_to_logits(pi):
    """Row logits with the last component pinned to zero."""
    logpi = np.log(floor_simplex(pi))
    return logpi[:, :-1] - logpi[:, -1:]


def logits_to_pi(logits):
    """Stable row softmax of [logits, 0], floored."""
    full = np.concatenate([logits, np.zeros((logits.shape[0], 1))], axis=1)
    full -= full.max(axis=1, keepdims=True)
    e = np.exp(full)
    return floor_simplex(e / e.sum(axis=1, keepdims=True))


class ParamPack:
    """Flat-vector view of the free parameters of one fit.

    Layout (convolved model):
      [log L | per output: S, log Lm | log sigma | log alpha0?
       | pi logits (N x (M-1))? | mu_u?, chol(Su) (log diag + strict lower)?]
    The independent-SE model replaces the first two groups by per-output
    (log amp, log prec) and has no latent block.
    """

    def __init__(self, ds, cfg, hp0, with_pi=True, with_alpha0=False, with_qu=False):
        self.ds = ds
        self.cfg = cfg
        self.kind = (
            "independent" if isinstance(hp0, IndependentSEHyperParams) else "convolved"
        )
        self.with_pi = with_pi
        self.with_alpha0 = with_alpha0
        self.with_qu = with_qu
        self.M = cfg.M
        self.N = ds.n
        if self.kind == "convolved":
            self.d = hp0.latent.L.shape[0]
            self.W = hp0.inducing.W
            self.Q = self.W.shape[0]
        else:
            self.d = hp0.outputs[0].prec.shape[0]
            self.Q = cfg.Q

    def pack(self, hp, alpha0=None, state=None):
        parts = []
        if self.kind == "convolved":
            parts.append(np.log(hp.latent.L))
            for out in hp.outputs:
                parts.append(np.r_[out.S, np.log(out.Lm)])
        else:
            for out in hp.outputs:
                parts.append(np.r_[np.log(out.amp), np.log(out.prec)])
        parts.append(np.log(hp.noise.sigma))
        if self.with_alpha0:
            parts.append(np.r_[np.log(alpha0)])
        if self.with_pi:
            parts.append(pi_to_logits(state.pi_hat).ravel())
        if self.with_qu:
            lc = np.linalg.cholesky(state.Su)
            parts.append(state.mu_u)
            parts.append(np.log(np.diag(lc)))
            parts.append(lc[np.tril_indices(self.Q, -1)])
        return np.concatenate(parts)

    def unpack(self, x):
        """Returns (hp, alpha0, pi or None, mu_u or None, Su or None)."""
        i = 0
        if self.kind == "convolved":
            L = np.exp(x[i : i + self.d])
            i += self.d
            outs = []
            for _ in range(self.M):
                S = x[i]
                Lm = np.exp(x[i + 1 : i + 1 + self.d])
                outs.append(OutputKernelParams(S=S, Lm=Lm))
                i += 1 + self.d
        else:
            outs = []
            for _ in range(self.M):
                amp = np.exp(x[i])
                prec = np.exp(x[i + 1 : i + 1 + self.d])
                outs.append(SEKernelParams(amp=amp, prec=prec))
                i += 1 + self.d
        sigma = np.exp(x[i : i + self.M])
        i += self.M
        noise = NoiseParams(sigma=sigma)
        if self.kind == "convolved":
            hp = HyperParams(
                latent=LatentKernelParams(L=L),
                outputs=outs,
                noise=noise,
                inducing=InducingInputs(W=self.W),
            )
        else:
            hp = IndependentSEHyperParams(outputs=outs, noise=noise)
        alpha0 = self.cfg.alpha0
        if self.with_alpha0:
            alpha0 = float(np.exp(x[i]))
            i += 1
        pi = None
        if self.with_pi:
            k = self.N * (self.M - 1)
            pi = logits_to_pi(x[i : i + k].reshape(self.N, self.M - 1))
            i += k
        mu_u = Su = None
        if self.with_qu:
            mu_u = x[i : i + self.Q]
            i += self.Q
            lc = np.zeros((self.Q, self.Q))
            lc[np.diag_indices(self.Q)] = np.exp(x[i : i + self.Q])
            i += self.Q
            k = self.Q * (self.Q - 1) // 2
            lc[np.tril_indices(self.Q, -1)] = x[i : i + k]
            i += k
            Su = lc @ lc.T
            # roundoff guard: the product must stay factorizable
            Su[np.diag_indices(self.Q)] += 1e-12 * max(float(np.diag(Su).mean()), 1e-30)
        assert i == len(x)
        return hp, alpha0, pi, mu_u, Su

    def grad_to_vec(self, b: gradients.GradientBundle):
        parts = []
        if self.kind == "convolved":
            parts.append(b.d_L)
            for m in range(self.M):
                parts.append(np.r_[b.d_S[m], b.d_Lm[m]])
        else:
            for m in range(self.M):
                parts.append(np.r_[b.d_S[m], b.d_Lm[m]])
        parts.append(b.d_sigma)
        if self.with_alpha0:
            parts.append(np.r_[b.d_alpha0])
        if self.with_pi:
            parts.append(b.d_pi_logits[:, :-1].ravel())
        if self.with_qu:
            parts.append(b.d_mu_u)
            parts.append(np.diag(b.d_su_chol))
            parts.append(b.d_su_chol[np.tril_indices(self.Q, -1)])
        return np.concatenate(parts)

    def block_masks(self):
        """Boolean masks (variational, hyper) over the flat vector for EM."""
        n_hyp = (self.d if self.kind == "convolved" else 0) + self.M * (1 + self.d) + self.M
        n_alpha = 1 if self.with_alpha0 else 0
        n_pi = self.N * (self.M - 1) if self.with_pi else 0
        n_qu = self.Q + self.Q + self.Q * (self.Q - 1) // 2 if self.with_qu else 0
        total = n_hyp + n_alpha + n_pi + n_qu
        stat = np.zeros(total, dtype=bool)
        stat[n_hyp + n_alpha :] = True
        hyp = ~stat
        return stat, hyp

    def box_bounds(self):
        """Sane box constraints keeping log-precisions and log-noise finite.

        Amplitudes, logits and the inducing posterior stay unbounded; the
        limits only rule out degenerate kernels (length scales beyond
        float range), not plausible optima.
        """
        lo_prec, hi_prec = np.log(1e-4), np.log(1e9)
        lo_sig, hi_sig = np.log(1e-4), np.log(1e4)
        bounds = []
        if self.kind == "convolved":
            bounds += [(lo_prec, hi_prec)] * self.d
            for _ in range(self.M):
                bounds += [(None, None)] + [(lo_prec, hi_prec)] * self.d
        else:
            for _ in range(self.M):
                bounds += [(None, None)] + [(lo_prec, hi_prec)] * self.d
        bounds += [(lo_sig, hi_sig)] * self.M
        if self.with_alpha0:
            bounds += [(np.log(1e-4), np.log(1e6))]
        if self.with_pi:
            bounds += [(None, None)] * (self.N * (self.M - 1))
        if self.with_qu:
            n_qu = self.Q + self.Q + self.Q * (self.Q - 1) // 2
            bounds += [(None, None)] * n_qu
        return bounds


def _state_with(ds, cfg, alpha0, pi, mu_u=None, Su=None, template=None):
    state = VariationalState(
        pi_hat=pi,
        alpha_hat=np.empty((ds.n_unlabeled, cfg.M)),
        mu_u=mu_u if mu_u is not None else (template.mu_u if template else None),
        Su=Su if Su is not None else (template.Su if template else None),
    )
    refresh_alpha_hat(state, ds, alpha0)
    return state


# ---------------------------------------------------------------------------
# default hyperparameters and restart jitter
# ---------------------------------------------------------------------------


def default_hyperparams(ds: Dataset, cfg: ModelConfig, kind="convolved"):
    """Data-driven starting hyperparameters (no access to generating values)."""
    span = max(float(np.ptp(ds.X, axis=0).max()), 1e-3)
    ell = span / 8.0
    prec = 1.0 / ell**2
    yvar = max(float(np.var(ds.y)), 1e-6)
    sigma = np.full(cfg.M, 0.3 * np.sqrt(yvar))
    if kind == "independent":
        outs = [
            SEKernelParams(amp=np.sqrt(yvar), prec=np.full(ds.d, prec))
            for _ in range(cfg.M)
        ]
        return IndependentSEHyperParams(outputs=outs, noise=NoiseParams(sigma=sigma))
    L = np.full(ds.d, prec)
    Lm = 1.5 * L
    lat = LatentKernelParams(L=L)
    # choose S so the prior variance of each output matches the data variance
    v = 2.0 / Lm + 1.0 / L
    scale = float(np.prod(1.0 / np.sqrt(L * v)))
    S = np.sqrt(yvar / scale)
    outs = [OutputKernelParams(S=S, Lm=Lm) for _ in range(cfg.M)]
    lo = ds.X.min(axis=0)
    hi = ds.X.max(axis=0)
    if ds.d == 1:
        W = np.linspace(lo[0], hi[0], cfg.Q)[:, None]
    else:
        rng = np.random.default_rng(0)
        W = rng.uniform(lo, hi, size=(cfg.Q, ds.d))
    return HyperParams(
        latent=lat, outputs=outs, noise=NoiseParams(sigma=sigma),
        inducing=InducingInputs(W=W),
    )


def _jitter_hp(hp, rng, amount=0.3):
    """Multiplicative log-normal jitter for restarts; keeps signs and W."""
    g = lambda: float(np.exp(amount * rng.standard_normal()))
    noise = NoiseParams(sigma=hp.noise.sigma * np.array([g() for _ in hp.noise.sigma]))
    if isinstance(hp, IndependentSEHyperParams):
        outs = [
            SEKernelParams(amp=o.amp * g(), prec=o.prec * g()) for o in hp.outputs
        ]
        return IndependentSEHyperParams(outputs=outs, noise=noise)
    outs = [OutputKernelParams(S=o.S * g(), Lm=o.Lm * g()) for o in hp.outputs]
    return HyperParams(
        latent=LatentKernelParams(L=hp.latent.L * g()),
        outputs=outs,
        noise=noise,
        inducing=hp.inducing,
    )


# ---------------------------------------------------------------------------
# collapsed-bound fit
# ---------------------------------------------------------------------------


def _make_cvb_objective(ds, cfg, pack, counter):
    cache = {}

    def objective(x):
        hp, alpha0, pi, _, _ = pack.unpack(x)
        cfg_t = cfg.with_alpha0(alpha0)
        if pack.with_pi:
            state = _state_with(ds, cfg_t, alpha0, pi)
            val, bundle = gradients.elbo_cvb_with_grad(ds, cfg_t, hp, state)
        else:
            val, bundle = gradients.scmgp_loglik_with_grad(ds, cfg_t, hp)
        counter[0] += 1
        cache[x.tobytes()] = val
        return -val, -pack.grad_to_vec(bundle)

    return objective, cache


def fit_cvb(ds, cfg, hp0=None, opt_cfg=None, scmgp=False):
    """Maximize the collapsed bound with seeded multi-start L-BFGS-B.

    With scmgp=True the assignment state is dropped and the exact
    fully-labeled sparse likelihood of the labeled rows is maximized
    instead (same engine, no V term).
    """
    opt_cfg = opt_cfg or OptimizerConfig()
    kind = "independent" if isinstance(hp0, IndependentSEHyperParams) else "convolved"
    if hp0 is None:
        hp0 = default_hyperparams(ds, cfg, kind)
    t0 = time.perf_counter()
    best = None
    restart_bounds = []
    evaluations = 0
    for r in range(max(1, opt_cfg.restarts)):
        rs = opt_cfg.seed + 7919 * r
        rng = np.random.default_rng(rs)
        hp_r = hp0 if r == 0 else _jitter_hp(hp0, rng)
        with_alpha0 = (
            cfg.use_dirichlet
            and opt_cfg.optimize_alpha0
            and not scmgp
            and ds.n_unlabeled > 0
        )
        pack = ParamPack(
            ds, cfg, hp_r, with_pi=not scmgp, with_alpha0=with_alpha0, with_qu=False
        )
        if scmgp:
            x0 = pack.pack(hp_r)
        else:
            kuu = kernels.kuu_matrix(
                hp_r.inducing.W, hp_r.latent
            ) if kind == "convolved" else np.eye(cfg.Q)
            state0 = init_state(ds, cfg, rs, kuu=kuu)
            x0 = pack.pack(hp_r, alpha0=cfg.alpha0, state=state0)
        counter = [0]
        objective, cache = _make_cvb_objective(ds, cfg, pack, counter)
        try:
            f0, _ = objective(x0)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise NonFiniteBoundError(
                "bound evaluation failed at initialization (%s); parameters: %r"
                % (exc, x0)
            )
        if not np.isfinite(f0):
            raise NonFiniteBoundError(
                "non-finite bound at initialization; parameters: %r" % (x0,)
            )
        traj = [-f0]

        def callback(xk):
            key = xk.tobytes()
            if key in cache:
                traj.append(cache[key])
            else:
                traj.append(-objective(xk)[0])

        res = minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=pack.box_bounds(),
            callback=callback,
            options={
                "maxiter": opt_cfg.max_iter,
                "ftol": opt_cfg.tol_rel_bound,
                "gtol": 1e-9,
            },
        )
        evaluations += counter[0]
        final_bound = -res.fun
        restart_bounds.append(final_bound)
        if best is None or final_bound > best[0]:
            best = (final_bound, res.x, pack, traj, bool(res.success), rs)
    bound, x, pack, traj, ok, rs = best
    hp, alpha0, pi, _, _ = pack.unpack(x)
    if scmgp:
        state = None
    else:
        state = _state_with(ds, cfg.with_alpha0(alpha0), alpha0, pi)
        state.mu_u = np.zeros(pack.Q)
        state.Su = np.eye(pack.Q)
    return FitReport(
        bound_trajectory=traj,
        final_hp=hp,
        final_state=state,
        final_alpha0=alpha0,
        converged=ok,
        wall_clock=time.perf_counter() - t0,
        evaluations=evaluations,
        seed=opt_cfg.seed,
        restart_bounds=restart_bounds,
    )


# ---------------------------------------------------------------------------
# stochastic fit (variational EM)
# ---------------------------------------------------------------------------


class _Adam:
    def __init__(self, n, step, b1=0.9, b2=0.999, eps=1e-8):
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0
        self.step = step
        self.b1, self.b2, self.eps = b1, b2, eps

    def update(self, x, g, mask, lr):
        """Ascent step on the masked coordinates."""
        self.t += 1
        self.m[mask] = self.b1 * self.m[mask] + (1 - self.b1) * g[mask]
        self.v[mask] = self.b2 * self.v[mask] + (1 - self.b2) * g[mask] ** 2
        mhat = self.m[mask] / (1 - self.b1**self.t)
        vhat = self.v[mask] / (1 - self.b2**self.t)
        x = x.copy()
        x[mask] += lr * mhat / (np.sqrt(vhat) + self.eps)
        return x


def fit_svb_em(ds, cfg, hp0=None, opt_cfg=None):
    """Variational-EM ascent of the stochastic bound.

    Each round runs em_inner_stat_iters mini-batch Adam steps on the
    variational block (assignment logits, inducing posterior), then a
    deterministic quasi-Newton update of the hyperparameter block
    (em_inner_hyp_iters iterations, state frozen), and finally restores
    the inducing posterior to its closed-form optimum, which is far too
    sensitive to hyperparameter moves to be left stale.  The full-batch
    bound is recorded once per round.
    """
    opt_cfg = opt_cfg or OptimizerConfig()
    if hp0 is None:
        hp0 = default_hyperparams(ds, cfg, "convolved")
    if not isinstance(hp0, HyperParams):
        raise TypeError("the stochastic bound requires the convolved sparse model")
    t0 = time.perf_counter()
    rng = np.random.default_rng(opt_cfg.seed)
    batch = opt_cfg.batch_size or ds.n
    batch = min(batch, ds.n)

    kuu = kernels.kuu_matrix(hp0.inducing.W, hp0.latent)
    state = init_state(ds, cfg, opt_cfg.seed, kuu=kuu)
    mu0, Su0 = svi.optimal_qu(ds, cfg, hp0, state)
    state.mu_u, state.Su = mu0, Su0

    with_alpha0 = cfg.use_dirichlet and opt_cfg.optimize_alpha0 and ds.n_unlabeled > 0
    pack = ParamPack(ds, cfg, hp0, with_pi=True, with_alpha0=with_alpha0, with_qu=True)
    x = pack.pack(hp0, alpha0=cfg.alpha0, state=state)
    stat_mask, hyp_mask = pack.block_masks()
    adam = _Adam(len(x), opt_cfg.step_size)

    def full_bound(xv):
        hp, alpha0, pi, mu_u, Su = pack.unpack(xv)
        cfg_t = cfg.with_alpha0(alpha0)
        st = _state_with(ds, cfg_t, alpha0, pi, mu_u=mu_u, Su=Su)
        return svi.elbo_svb(ds, cfg_t, hp, st)

    def batch_grad(xv, rows):
        hp, alpha0, pi, mu_u, Su = pack.unpack(xv)
        cfg_t = cfg.with_alpha0(alpha0)
        st = _state_with(ds, cfg_t, alpha0, pi, mu_u=mu_u, Su=Su)
        _, bundle = gradients.elbo_svb_with_grad(ds, cfg_t, hp, st, batch=rows)
        return pack.grad_to_vec(bundle)

    def refresh_qu(xv):
        """Closed-form restart of q(u) at the current remaining parameters."""
        hp, alpha0, pi, _, _ = pack.unpack(xv)
        cfg_t = cfg.with_alpha0(alpha0)
        st = _state_with(ds, cfg_t, alpha0, pi, mu_u=np.zeros(pack.Q),
                         Su=np.eye(pack.Q))
        mu, Su = svi.optimal_qu(ds, cfg_t, hp, st)
        st.mu_u, st.Su = mu, Su
        return pack.pack(hp, alpha0=alpha0, state=st)

    initial = full_bound(x)
    if not np.isfinite(initial):
        raise NonFiniteBoundError(
            "non-finite bound at initialization; parameters: %r" % (x,)
        )
    bounds_full = np.array(pack.box_bounds(), dtype=object)
    hyp_bounds = [tuple(b) for b in bounds_full[hyp_mask]]
    eval_counter = [0]

    def hyp_objective(xh, x_base):
        xx = x_base.copy()
        xx[hyp_mask] = xh
        hp_x, alpha0, pi, mu_u, Su = pack.unpack(xx)
        cfg_t = cfg.with_alpha0(alpha0)
        st = _state_with(ds, cfg_t, alpha0, pi, mu_u=mu_u, Su=Su)
        val, bundle = gradients.elbo_svb_with_grad(ds, cfg_t, hp_x, st)
        eval_counter[0] += 1
        return -val, -pack.grad_to_vec(bundle)[hyp_mask]

    traj = [initial]
    evaluations = 0
    for outer in range(opt_cfg.em_outer_iters):
        # 1/sqrt(t) decay damps the mini-batch noise of the E-phase
        lr_stat = opt_cfg.step_size / np.sqrt(outer + 1.0)
        for _ in range(opt_cfg.em_inner_stat_iters):
            rows = rng.choice(ds.n, size=batch, replace=False)
            x = adam.update(x, batch_grad(x, rows), stat_mask, lr_stat)
            evaluations += 1
        res = minimize(
            hyp_objective,
            x[hyp_mask],
            args=(x,),
            jac=True,
            method="L-BFGS-B",
            bounds=hyp_bounds,
            options={"maxiter": opt_cfg.em_inner_hyp_iters},
        )
        x[hyp_mask] = res.x
        evaluations += eval_counter[0]
        eval_counter[0] = 0
        # the inducing posterior is extremely sensitive to hyperparameter
        # moves; its closed-form optimum ends every round (E-step for u)
        x = refresh_qu(x)
        traj.append(full_bound(x))
    final = traj[-1]
    if not final >= initial - 0.5:
        raise RuntimeError(
            "stochastic fit regressed: initial %.6f -> final %.6f" % (initial, final)
        )
    hp, alpha0, pi, mu_u, Su = pack.unpack(x)
    state = _state_with(ds, cfg.with_alpha0(alpha0), alpha0, pi, mu_u=mu_u, Su=Su)
    rel_change = abs(traj[-1] - traj[-2]) / max(1.0, abs(traj[-1]))
    return FitReport(
        bound_trajectory=traj,
        final_hp=hp,
        final_state=state,
        final_alpha0=alpha0,
        converged=rel_change < max(opt_cfg.tol_rel_bound, 1e-6),
        wall_clock=time.perf_counter() - t0,
        evaluations=evaluations,
        seed=opt_cfg.seed,
    )


def transform_params(values, direction, transform):
    """Scalar transform helper: bijections used by the packers.

    transform in {"log", "identity"}; direction in
    {"to_unconstrained", "to_constrained"}.
    """
    v = np.asarray(values, dtype=float)
    if transform == "identity":
        return v
    if transform == "log":
        return np.log(v) if direction == "to_unconstrained" else np.exp(v)
    raise ValueError("unknown transform %r" % transform)

"""Parameter transforms and the two optimizers.

The collapsed bound is maximized with L-BFGS-B over a single flat vector
of unconstrained parameters (log precisions, log noise, free amplitudes,
row-softmax logits with one pinned logit per row, log alpha0).  The
stochastic bound is handled with variational EM; each round of
fit_svb_em has three phases, and each calls only what it moves:
  * E-phase: stochastic variational inference on q(pi) and q(u), with
    no step size to set.  The hyperparameters are fixed, so everything
    that depends on them alone comes from the q(u) restart that ended
    the previous round: Kuu^-1 (engine.cho_inverse) and the row tables
    of svi.row_tables (Phi_m = Kfu_m Kuu^-1 and the Nystrom residuals
    r_m over all N rows, M N Q + M N doubles).  Each mini-batch step
    (svi.batch_step) gathers its rows of the tables once and takes two
    closed-form steps: the batch rows' assignment probabilities go to
    their optimum given q(u) (one mean-field sweep where the Dirichlet
    prior couples a row to its q(Pi_n)), and q(u)'s natural parameters
    move a step rho = |batch| / N toward the batch estimate of their
    optimum.  A step reads q(u)'s moments at its rows from one Cholesky
    factor of Su^-1; Su is formed once, when the E-phase ends.
  * M-phase: full-batch L-BFGS-B on the hyperparameter block with q(pi)
    and q(u) frozen; each evaluation calls gradients.elbo_svb_with_grad,
    the bound and its hyperparameter, sigma and alpha0 blocks: per
    output, the N-row Kfu block, two triangular solves for its row
    constants and two N-row products.
  * q(u) restart (svi.qu_restart): at the new hyperparameters, Kuu^-1
    and the row tables are built once, q(u) is set to the closed form
    they give (the full-batch natural-parameter estimate) and
    svi.elbo_svb records the bound from the same tables.  The same
    tables, Kuu^-1 and q(u) start the next round's E-phase; the same
    step before the first round sets the starting q(u).
W never moves, so the squared differences between the rows and W are
computed once per fit, for every q(u) restart and M-phase evaluation.
"""

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import gradients, kernels, svi
from .bounds import NoLabeledDataError
from .kernels import (
    HyperParams,
    IndependentSEHyperParams,
    InducingInputs,
    LatentKernelParams,
    NoiseParams,
    OutputKernelParams,
    SEKernelParams,
)
from .model import (
    Dataset,
    ModelConfig,
    VariationalState,
    floor_simplex,
    init_state,
    softmax_simplex,
)


@dataclass(frozen=True)
class OptimizerConfig:
    """Optimization settings (none of these are prescribed by the model)."""

    max_iter: int = 200
    tol_rel_bound: float = 1e-7
    em_outer_iters: int = 30
    em_inner_stat_iters: int = 25
    em_inner_hyp_iters: int = 10
    batch_size: int = 0  # 0 means full batch
    seed: int = 0
    restarts: int = 3
    optimize_alpha0: bool = True

    def __post_init__(self):
        if self.max_iter < 1 or self.em_outer_iters < 1:
            raise ValueError("iteration counts must be positive")
        for name in ("batch_size", "em_inner_stat_iters", "em_inner_hyp_iters"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be >= 0, got %r" % (name, getattr(self, name)))


@dataclass
class FitReport:
    """Outcome of one fit (best restart).

    termination holds scipy's stopping record (message, nit, nfev,
    success) of every optimizer run: one per restart of fit_cvb, one per
    hyperparameter phase of fit_svb_em.
    """

    bound_trajectory: list
    final_hp: object
    final_state: VariationalState
    final_alpha0: float
    converged: bool
    wall_clock: float
    evaluations: int
    seed: int
    restart_bounds: list = field(default_factory=list)
    termination: list = field(default_factory=list)


def _termination(res):
    """The stopping record of one scipy.optimize result."""
    return {
        "message": str(res.message),
        "nit": int(res.nit),
        "nfev": int(res.nfev),
        "success": bool(res.success),
    }


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
    return softmax_simplex(np.concatenate([logits, np.zeros((logits.shape[0], 1))], axis=1))


class ParamPack:
    """Flat-vector view of the free parameters of one fit.

    Layout (convolved model):
      [log L | per output: S, log Lm | log sigma | log alpha0? | pi logits (N x (M-1))?]
    The independent-SE model replaces the first two groups by per-output
    (log amp, log prec) and has no latent block.  The hyperparameter
    block (everything up to and including log alpha0) is the head
    x[:n_hyp].
    """

    def __init__(self, ds, cfg, hp0, with_pi=True, with_alpha0=False):
        self.cfg = cfg
        self.kind = (
            "independent" if isinstance(hp0, IndependentSEHyperParams) else "convolved"
        )
        self.with_pi = with_pi
        self.with_alpha0 = with_alpha0
        self.M = cfg.M
        self.N = ds.n
        if self.kind == "convolved":
            self.d = hp0.latent.L.shape[0]
            self.W = hp0.inducing.W
        else:
            self.d = hp0.outputs[0].prec.shape[0]
        n_kernel = (self.d if self.kind == "convolved" else 0) + self.M * (1 + self.d)
        self.n_hyp = n_kernel + self.M + (1 if with_alpha0 else 0)
        self.n_pi = self.N * (self.M - 1) if with_pi else 0
        self.size = self.n_hyp + self.n_pi

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
        return np.concatenate(parts)

    def unpack(self, x):
        """Returns (hp, alpha0, pi or None)."""
        assert len(x) == self.size
        hp, alpha0 = self.unpack_hyper(x)
        return hp, alpha0, self.pi_rows(x) if self.with_pi else None

    def unpack_hyper(self, x):
        """(hp, alpha0) from the hyperparameter block; x may be the block alone."""
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
        return hp, alpha0

    def pi_rows(self, x):
        """Assignment probabilities of all N rows, decoded from their logits."""
        logits = x[self.n_hyp : self.n_hyp + self.n_pi].reshape(self.N, self.M - 1)
        return logits_to_pi(logits)

    def hyper_grad_to_vec(self, b: gradients.GradientBundle):
        """The hyperparameter block of grad_to_vec(b)."""
        parts = []
        if self.kind == "convolved":
            parts.append(b.d_L)
        for m in range(self.M):
            parts.append(np.r_[b.d_S[m], b.d_Lm[m]])
        parts.append(b.d_sigma)
        if self.with_alpha0:
            parts.append(np.r_[b.d_alpha0])
        return np.concatenate(parts)

    def grad_to_vec(self, b: gradients.GradientBundle):
        parts = [self.hyper_grad_to_vec(b)]
        if self.with_pi:
            parts.append(b.d_pi_logits[:, :-1].ravel())
        return np.concatenate(parts)

    def box_bounds(self):
        """Sane box constraints keeping log-precisions and log-noise finite.

        Amplitudes and logits stay unbounded; the
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
        bounds += [(lo_sig, hi_sig)] * self.M
        if self.with_alpha0:
            bounds += [(np.log(1e-4), np.log(1e6))]
        bounds += [(None, None)] * self.n_pi
        return bounds


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
        hp, alpha0, pi = pack.unpack(x)
        cfg_t = cfg.with_alpha0(alpha0)
        if pack.with_pi:
            val, bundle = gradients.elbo_cvb_with_grad(ds, cfg_t, hp, VariationalState(pi))
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
    termination = []
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
        pack = ParamPack(ds, cfg, hp_r, with_pi=not scmgp, with_alpha0=with_alpha0)
        if scmgp:
            x0 = pack.pack(hp_r)
        else:
            x0 = pack.pack(hp_r, alpha0=cfg.alpha0, state=init_state(ds, cfg, rs))
        counter = [0]
        objective, cache = _make_cvb_objective(ds, cfg, pack, counter)
        try:
            f0, _ = objective(x0)
        except NoLabeledDataError:
            raise
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
        termination.append(_termination(res))
        if best is None or final_bound > best[0]:
            best = (final_bound, res.x, pack, traj, bool(res.success), rs)
    bound, x, pack, traj, ok, rs = best
    hp, alpha0, pi = pack.unpack(x)
    return FitReport(
        bound_trajectory=traj,
        final_hp=hp,
        final_state=None if scmgp else VariationalState(pi),
        final_alpha0=alpha0,
        converged=ok,
        wall_clock=time.perf_counter() - t0,
        evaluations=evaluations,
        seed=opt_cfg.seed,
        restart_bounds=restart_bounds,
        termination=termination,
    )


# ---------------------------------------------------------------------------
# stochastic fit (variational EM)
# ---------------------------------------------------------------------------


def fit_svb_em(ds, cfg, hp0=None, opt_cfg=None):
    """Variational-EM ascent of the stochastic bound.

    Each round runs em_inner_stat_iters mini-batch steps of stochastic
    variational inference on q(pi) and q(u) (svi.batch_step), then a
    deterministic quasi-Newton update of the hyperparameter block
    (em_inner_hyp_iters iterations, q(pi) and q(u) frozen), and finally
    sets q(u) to its closed-form optimum, which is far too sensitive to
    hyperparameter moves to be left stale.  The full-batch bound is
    recorded there, once per round.

    A step is two closed-form coordinate steps.  The batch rows' pi go
    to their optimum given q(u): softmax(log prior + c) on labeled rows
    and softmax(c) on unlabeled rows, with c the rows' expected
    log-likelihood terms.  Under the Dirichlet prior an unlabeled row
    takes one mean-field sweep, softmax(c + digamma(alpha0 + pi_old)),
    the exact step of q(Z_n) given q(Pi_n) = Dir(alpha0 + pi_old), so
    the bound, which keeps q(Pi_n) at its optimum, cannot fall.  Then
    q(u)'s natural parameters (Su^-1, Su^-1 mu_u) move to
    (1 - rho) theta + rho theta_hat, where theta_hat is the batch
    estimate of the closed-form optimum's (scaled by N / |batch|) and
    rho = |batch| / N; at the full batch the step is that optimum.

    q(u) is set once per hyperparameter setting, before the first round
    and after each M-phase: Kuu is built and factored, Kuu^-1 is formed,
    the row tables Phi_m = Kfu_m Kuu^-1 and the Nystrom residuals r_m
    are built over all N rows (two N-row triangular solves per output),
    and q(u) is the full-batch estimate from them (svi.qu_restart, the
    form svi.optimal_qu computes).
    The hyperparameters do not move during the E-phase, so the next
    round starts from those same tables, Kuu^-1 and natural parameters.
    A step gathers its rows of the tables once; it builds no kernel
    matrix, makes no Kuu solve, forms no Su and does no O(N) work.  pi,
    mu_u and Su are plain arrays, and only the hyperparameters are
    packed; each M-phase evaluation (gradients.elbo_svb_with_grad, full
    batch) computes only the hyperparameter block L-BFGS-B reads.
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

    state = init_state(ds, cfg, opt_cfg.seed)
    with_alpha0 = cfg.use_dirichlet and opt_cfg.optimize_alpha0 and ds.n_unlabeled > 0
    pack = ParamPack(ds, cfg, hp0, with_pi=False, with_alpha0=with_alpha0)
    x = pack.pack(hp0, alpha0=cfg.alpha0)
    t2 = kernels.sqdiff(ds.X, hp0.inducing.W)  # W never moves

    def set_qu(xh):
        """q(u) to its closed form at xh; (the round's constants, the full-batch bound).

        The constants are the hyperparameters, the config, the row
        tables, Kuu^-1 and q(u)'s NaturalQu, which the next E-phase
        starts from.
        """
        hp, alpha0 = pack.unpack_hyper(xh)
        cfg_x = cfg.with_alpha0(alpha0)
        kuu_inv, tables, qu = svi.qu_restart(ds, hp, state.pi_hat, t2)
        state.mu_u, state.Su = qu.moments()
        return (hp, cfg_x, tables, kuu_inv, qu), svi.elbo_svb(ds, cfg_x, hp, state,
                                                               tables=tables)

    round_, initial = set_qu(x)
    if not np.isfinite(initial):
        raise NonFiniteBoundError(
            "non-finite bound at initialization; parameters: %r" % (x,)
        )
    hyp_bounds = pack.box_bounds()
    eval_counter = [0]

    def hyp_objective(xh):
        hp_x, alpha0 = pack.unpack_hyper(xh)
        val, bundle = gradients.elbo_svb_with_grad(ds, cfg.with_alpha0(alpha0), hp_x, state,
                                                   t2=t2)
        eval_counter[0] += 1
        return -val, -pack.hyper_grad_to_vec(bundle)

    traj = [initial]
    termination = []
    evaluations = 0
    for _ in range(opt_cfg.em_outer_iters):
        hp, cfg_t, tables, kuu_inv, qu = round_
        for _ in range(opt_cfg.em_inner_stat_iters):
            rows = rng.choice(ds.n, size=batch, replace=False)
            qu = svi.batch_step(ds, cfg_t, hp.noise.sigma, tables, kuu_inv, rows,
                                state.pi_hat, qu)
            evaluations += 1
        state.mu_u, state.Su = qu.moments()
        res = minimize(
            hyp_objective,
            x.copy(),
            jac=True,
            method="L-BFGS-B",
            bounds=hyp_bounds,
            options={"maxiter": opt_cfg.em_inner_hyp_iters},
        )
        x = res.x
        termination.append(_termination(res))
        evaluations += eval_counter[0]
        eval_counter[0] = 0
        # the inducing posterior is extremely sensitive to hyperparameter
        # moves; its closed-form optimum ends every round (E-step for u)
        round_, bound = set_qu(x)
        traj.append(bound)
    final = traj[-1]
    if not final >= initial - 0.5:
        raise RuntimeError(
            "stochastic fit regressed: initial %.6f -> final %.6f" % (initial, final)
        )
    hp, alpha0 = pack.unpack_hyper(x)
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
        termination=termination,
    )

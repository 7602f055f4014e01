"""Both fits: L-BFGS-B on the hyperparameters, closed-form steps for the factors.

Each fit moves its hyperparameter block (ParamPack: log precisions,
free amplitudes, log noise and log alpha0) by L-BFGS-B (_m_phase) and
its variational factors by closed-form coordinate steps at fixed
hyperparameters.  The assignment probabilities go to their optimum given
q(f)'s moments at the rows, by the one step both bounds share
(bounds.assignment_rows; one mean-field sweep where the Dirichlet prior
couples a row to its q(Pi_n)), so no step lowers the bound.
  * Collapsed bound (fit_cvb): pi is profiled out of one L-BFGS-B run.
    Each evaluation at the hyperparameters theta takes full-batch pi
    steps (bounds.cvb_pi_step) from the pi the previous one left, and
    returns gradients.elbo_cvb_with_grad at the pi reached.  That pi
    maximises the bound at theta, so by the envelope theorem the
    gradient with pi held is the gradient of L*(theta) = max_pi
    L(theta, pi).  SCMGP has no assignment state: the same run
    maximises the labeled rows' likelihood.
  * Stochastic bound (fit_svb_em): variational EM.  Each round's E-phase
    takes mini-batch steps of stochastic variational inference on q(pi)
    and q(v) (svi.batch_step) at fixed theta, and its M-phase runs
    L-BFGS-B with pi held and q(v) at its optimum for each evaluated
    theta (gradients.elbo_svb_with_grad).
Both bounds are in the whitened inducing variables u = L v, Kuu = L L'
(engine, svi); the stochastic state's (mu_u, Su) is q(v).
An objective returns what it built next to the bound and gradient, and
_m_phase hands on what its last call built when that call was at the
returned point.  X and W never move, so each fit computes the squared
differences it needs between them once.
"""
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.optimize import minimize

from . import bounds, engine, gradients, kernels, svi
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
from .model import Dataset, ModelConfig, VariationalState, init_state


@dataclass(frozen=True)
class OptimizerConfig:
    """Optimization settings (none of these are prescribed by the model)."""

    tol_rel_bound: float = 1e-7
    em_outer_iters: int = 30
    em_inner_stat_iters: int = 25
    em_inner_hyp_iters: int = 10
    batch_size: int = 0  # 0 means full batch
    seed: int = 0
    restarts: int = 3
    optimize_alpha0: bool = True

    def __post_init__(self):
        if self.em_outer_iters < 1:
            raise ValueError("em_outer_iters must be positive")
        for name in ("batch_size", "em_inner_stat_iters", "em_inner_hyp_iters"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be >= 0, got %r" % (name, getattr(self, name)))


@dataclass
class FitReport:
    """Outcome of one fit (best restart).

    termination holds scipy's stopping record (message, nit, nfev,
    success) of every L-BFGS-B run, over all restarts: fit_cvb's two per
    WSMGP restart (round 0 and the profiled run) and one per SCMGP
    restart, and one per round of fit_svb_em.  evaluations counts every
    objective call and every closed-form step; pi_steps counts fit_cvb's
    collapsed pi steps (bounds.cvb_pi_step) among them, 0 for SCMGP and
    for fit_svb_em, whose mini-batch steps are not pi steps.
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
    pi_steps: int = 0


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


class ParamPack:
    """Flat-vector view of the hyperparameters of one fit, the block L-BFGS-B moves.

    Layout (convolved model):
      [log L | per output: S, log Lm | log sigma | log alpha0?]
    The independent-SE model replaces the first two groups by per-output
    (log amp, log prec) and has no latent block.
    """

    def __init__(self, cfg, hp0, with_alpha0=False):
        self.cfg = cfg
        self.kind = (
            "independent" if isinstance(hp0, IndependentSEHyperParams) else "convolved"
        )
        self.with_alpha0 = with_alpha0
        self.M = cfg.M
        if self.kind == "convolved":
            self.d = hp0.latent.L.shape[0]
            self.W = hp0.inducing.W
        else:
            self.d = hp0.outputs[0].prec.shape[0]
        n_kernel = (self.d if self.kind == "convolved" else 0) + self.M * (1 + self.d)
        self.size = n_kernel + self.M + (1 if with_alpha0 else 0)

    def pack(self, hp, alpha0=None):
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
        return np.concatenate(parts)

    def unpack(self, x):
        """(hp, alpha0) from x."""
        assert len(x) == self.size
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

    def grad_to_vec(self, b: gradients.GradientBundle):
        parts = []
        if self.kind == "convolved":
            parts.append(b.d_L)
        for m in range(self.M):
            parts.append(np.r_[b.d_S[m], b.d_Lm[m]])
        parts.append(b.d_sigma)
        if self.with_alpha0:
            parts.append(np.r_[b.d_alpha0])
        return np.concatenate(parts)

    def box_bounds(self):
        """Sane box constraints keeping log-precisions and log-noise finite.

        Amplitudes stay unbounded; the limits only rule out degenerate
        kernels (length scales beyond float range), not plausible optima.
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
        return bounds


# ---------------------------------------------------------------------------
# default hyperparameters and restart jitter
# ---------------------------------------------------------------------------


def default_hyperparams(ds: Dataset, cfg: ModelConfig, kind="convolved"):
    """Data-driven starting hyperparameters (no access to generating values).

    NonFiniteBoundError if the variance of y is not finite in float64,
    since no starting scale, and hence no bound, would be.
    """
    span = max(float(np.ptp(ds.X, axis=0).max()), 1e-3)
    ell = span / 8.0
    prec = 1.0 / ell**2
    with np.errstate(over="ignore", invalid="ignore"):
        yvar = float(np.var(ds.y))
    if not np.isfinite(yvar):
        raise NonFiniteBoundError(
            "the variance of y is not finite in float64 (%r); rescale y" % yvar)
    yvar = max(yvar, 1e-6)
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
# L-BFGS-B on the hyperparameter block
# ---------------------------------------------------------------------------


def _bound_at_start(objective, x):
    """(bound, built) of objective(x) -> (-bound, -gradient, built).

    NonFiniteBoundError if the evaluation fails or the bound is not finite.
    """
    try:
        f, _, built = objective(x)
    except NoLabeledDataError:
        raise
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise NonFiniteBoundError(
            "bound evaluation failed at initialization (%s); parameters: %r" % (exc, x)
        )
    if not np.isfinite(f):
        raise NonFiniteBoundError("non-finite bound at initialization; parameters: %r" % (x,))
    return -f, built


def _m_phase(objective, x, box, options):
    """L-BFGS-B on objective(x) -> (-bound, -gradient, built) from x.

    Returns (x, the bound there, the termination record, objective
    calls, built at x).  The bound is read from the call at the returned
    point: after an abnormal line search scipy returns the best point
    with the previous iterate's res.fun.  built is what the last call
    built when that call was at the returned point, and None otherwise
    (after an abnormal line search, for one).  A trial point whose
    system is not numerically positive definite (LinAlgError, as at
    amplitudes near 1e5 over noise near 1e-3) is infeasible: it reads as
    +inf, so L-BFGS-B stops at its last good point instead of the fit
    dying.
    """
    values = {}
    last = [None, None]

    def recorded(xh):
        try:
            f, g, built = objective(xh)
        except np.linalg.LinAlgError:
            f, g, built = np.inf, np.zeros_like(xh), None
        last[:] = xh.tobytes(), built
        values[last[0]] = f
        return f, g

    res = minimize(recorded, x.copy(), jac=True, method="L-BFGS-B", bounds=box,
                   options=options)
    key = res.x.tobytes()
    built = last[1] if last[0] == key else None
    return res.x, -float(values[key]), _termination(res), int(res.nfev), built


# ---------------------------------------------------------------------------
# collapsed-bound fit
# ---------------------------------------------------------------------------


def fit_cvb(ds, cfg, hp0=None, opt_cfg=None, scmgp=False):
    """Maximize the collapsed bound over the hyperparameters and pi from seeded restarts.

    Each restart is one L-BFGS-B run (_m_phase) on the hyperparameters
    and log alpha0, of at most em_outer_iters * em_inner_hyp_iters
    iterations, that stops on scipy's default relative change (ftol
    2.2e-9), not on tol_rel_bound, so where it ends depends on the bound
    alone.  pi is
    profiled out: each evaluation takes up to em_inner_stat_iters
    full-batch pi steps (bounds.cvb_pi_step) from the pi the previous one
    left, until a step raised the bound by less than tol_rel_bound
    relative, and returns the bound and its gradient at the pi reached.
    The steps share the evaluation's kernel half, in which the rows one
    output holds alone (labeled rows with a one-hot prior, pi exactly 1)
    are conditioned out once (engine.Conditioned).  In one evaluation:
      1. build_cvb_system builds the kernel half at theta, conditioning
         those fixed rows out at their weights 1 / sigma_m^2, and the
         noise half, which factors only the moving rows' block of each
         output;
      2. each pi step reads the value and the moving rows' moments from
         that system (bounds.cvb_pi_step), and the system is rebuilt on
         the same kernel half, its noise half alone;
      3. elbo_cvb_with_grad assembles each output's full factor from the
         two halves and differentiates the last system.
    An evaluation whose system is not numerically positive definite
    (engine's LinAlgError) leaves pi where it found it.  Round 0,
    before the run, fits the start's pi held for at most
    em_inner_hyp_iters iterations: steps taken at the default
    hyperparameters can lock rows into a poor assignment.  The run's
    objective depends on the pi earlier calls left, so if its last call
    was not at the returned point, one more there steps pi at it.

    The trajectory holds the start's bound and each run's final one;
    evaluations count every objective call and every pi step, and
    pi_steps the pi steps alone.  Restart r > 0 starts from perturbed
    hyperparameters and its own seeded pi; the best final bound wins.
    Each output's rows (bounds.cvb_rows) and their squared differences
    (engine.row_sqdiffs) depend on the data and W alone, so they are
    computed once and handed to every build.

    With scmgp=True there is no assignment state: the exact
    fully-labeled sparse likelihood of the labeled rows is maximized
    instead (same engine, no V term) by the same run, without round 0.
    """
    opt_cfg = opt_cfg or OptimizerConfig()
    if hp0 is None:
        hp0 = default_hyperparams(ds, cfg)
    t0 = time.perf_counter()
    with_alpha0 = (cfg.use_dirichlet and opt_cfg.optimize_alpha0 and not scmgp
                   and ds.n_unlabeled > 0)
    tol = opt_cfg.tol_rel_bound
    # X, W (restarts keep it) and each output's rows never move, so the
    # rows and their squared differences are taken once for every build
    W = hp0.inducing.W if isinstance(hp0, HyperParams) else None
    t2 = engine.row_sqdiffs(ds.X, bounds.cvb_rows(ds, cfg, scmgp), W)
    best = None
    restart_bounds = []
    termination = []
    objective_calls = pi_steps = 0
    for r in range(max(1, opt_cfg.restarts)):
        rs = opt_cfg.seed + 7919 * r
        rng = np.random.default_rng(rs)
        hp_r = hp0 if r == 0 else _jitter_hp(hp0, rng)
        pack = ParamPack(cfg, hp_r, with_alpha0=with_alpha0)
        x = pack.pack(hp_r, alpha0=cfg.alpha0)
        box = pack.box_bounds()
        state = None if scmgp else init_state(ds, cfg, rs)

        def objective(x, steps=0):
            nonlocal pi_steps
            hp, alpha0 = pack.unpack(x)
            cfg_x = cfg.with_alpha0(alpha0)
            sys = bounds.build_cvb_system(ds, cfg_x, hp, state, t2=t2)
            if scmgp:
                val, bundle = gradients.scmgp_loglik_with_grad(ds, cfg_x, hp, sys)
                return -val, -pack.grad_to_vec(bundle), sys
            start, before = state.pi_hat.copy(), None
            try:
                for _ in range(steps):
                    bound, state.pi_hat = bounds.cvb_pi_step(ds, cfg_x, hp, state, sys)
                    pi_steps += 1
                    # the step overwrote pi, so the system is rebuilt before
                    # any return: only its noise half, on sys's kernel half
                    sys = bounds.build_cvb_system(ds, cfg_x, hp, state, kernel=sys, t2=t2)
                    if before is not None and bound - before < tol * max(1.0, abs(bound)):
                        break
                    before = bound
                val, bundle = gradients.elbo_cvb_with_grad(ds, cfg_x, hp, state, sys)
            except np.linalg.LinAlgError:
                state.pi_hat = start
                raise
            return -val, -pack.grad_to_vec(bundle), sys

        traj = [_bound_at_start(objective, x)[0]]
        objective_calls += 1
        if not scmgp:
            x, bound, t, calls, _ = _m_phase(objective, x, box,
                                             {"maxiter": opt_cfg.em_inner_hyp_iters})
            traj.append(bound)
            termination.append(t)
            objective_calls += calls
        profiled = partial(objective, steps=opt_cfg.em_inner_stat_iters)
        x, bound, t, calls, built = _m_phase(
            profiled, x, box, {"maxiter": opt_cfg.em_outer_iters * opt_cfg.em_inner_hyp_iters,
                               "gtol": 1e-9})
        objective_calls += calls
        if built is None and not scmgp:
            bound = -profiled(x)[0]
            objective_calls += 1
        traj.append(bound)
        termination.append(t)
        restart_bounds.append(bound)
        if best is None or bound > best[0]:
            best = (bound, x, pack, traj, t["success"], state)
    _, x, pack, traj, ok, state = best
    hp, alpha0 = pack.unpack(x)
    return FitReport(
        bound_trajectory=traj,
        final_hp=hp,
        final_state=state,
        final_alpha0=alpha0,
        converged=ok,
        wall_clock=time.perf_counter() - t0,
        evaluations=objective_calls + pi_steps,
        seed=opt_cfg.seed,
        restart_bounds=restart_bounds,
        termination=termination,
        pi_steps=pi_steps,
    )


# ---------------------------------------------------------------------------
# stochastic fit (variational EM)
# ---------------------------------------------------------------------------


def fit_svb_em(ds, cfg, hp0=None, opt_cfg=None):
    """Variational-EM ascent of the stochastic bound.

    Each round's E-phase starts q(v) at its closed form at the current
    hyperparameters, then runs em_inner_stat_iters mini-batch steps of
    stochastic variational inference on q(pi) and q(v) (svi.batch_step,
    one evaluation each).  The M-phase is _m_phase's L-BFGS-B, for at
    most em_inner_hyp_iters iterations, on the hyperparameter block with
    q(pi) frozen and q(v) at its optimum for each trial point
    (gradients.elbo_svb_with_grad with qu_optimum, full batch): q(v) is
    far too sensitive to hyperparameter moves to be held where the
    E-phase left it.  All em_outer_iters rounds run: between mini-batch
    E-phases the bound's change is partly sampling noise, not a sign of
    convergence.  The trajectory holds the start's bound and each
    M-phase's; evaluations count the start, every step and every
    objective call.

    The hyperparameters do not move during the E-phase, so its steps
    share one set of RowTables over all N rows and the starting q(v)'s
    natural parameters: those the M-phase's last
    evaluation built at the round's hyperparameters (round 0: the
    start's evaluation; only if the M-phase ended elsewhere, one more
    evaluation at its point, not counted).  A step builds no kernel
    matrix, makes no Kuu solve, forms no Su and does no O(N) work.  pi,
    mu_u and Su are plain arrays, and only the hyperparameters are
    packed.  The returned state's q(v) is the closed form at the final
    hyperparameters, from the same source.
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
    pack = ParamPack(cfg, hp0, with_alpha0=with_alpha0)
    t2 = kernels.sqdiff(ds.X, hp0.inducing.W)  # W never moves

    def objective(xh):
        hp_x, alpha0 = pack.unpack(xh)
        val, bundle, built = gradients.elbo_svb_with_grad(
            ds, cfg.with_alpha0(alpha0), hp_x, state, t2=t2, qu_optimum=True)
        return -val, -pack.grad_to_vec(bundle), built

    def products(xh, built):
        """(RowTables, NaturalQu) at xh: the objective's call there, or a new one."""
        return built if built is not None else objective(xh)[2]

    x = pack.pack(hp0, alpha0=cfg.alpha0)
    bound, built = _bound_at_start(objective, x)
    traj, termination, evaluations = [bound], [], 1
    for _ in range(opt_cfg.em_outer_iters):
        # E-phase at x, on what the objective built there
        hp, alpha0 = pack.unpack(x)
        cfg_x = cfg.with_alpha0(alpha0)
        tables, qu = products(x, built)
        for _ in range(opt_cfg.em_inner_stat_iters):
            rows = rng.choice(ds.n, size=batch, replace=False)
            qu = svi.batch_step(ds, cfg_x, hp.noise.sigma, tables, rows, state.pi_hat, qu)
        x, bound, term, calls, built = _m_phase(objective, x, pack.box_bounds(),
                                                {"maxiter": opt_cfg.em_inner_hyp_iters})
        traj.append(bound)
        termination.append(term)
        evaluations += opt_cfg.em_inner_stat_iters + calls
    # converged: the last round changed the bound by less than this relative
    ok = abs(traj[-1] - traj[-2]) / max(1.0, abs(traj[-1])) < max(opt_cfg.tol_rel_bound, 1e-6)
    initial, final = traj[0], traj[-1]
    if not final >= initial - 0.5:
        raise RuntimeError(
            "stochastic fit regressed: initial %.6f -> final %.6f" % (initial, final)
        )
    hp, alpha0 = pack.unpack(x)
    state.mu_u, state.Su = products(x, built)[1].moments()
    return FitReport(
        bound_trajectory=traj,
        final_hp=hp,
        final_state=state,
        final_alpha0=alpha0,
        converged=ok,
        wall_clock=time.perf_counter() - t0,
        evaluations=evaluations,
        seed=opt_cfg.seed,
        termination=termination,
    )

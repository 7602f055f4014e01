"""Both fits: one variational-EM driver with one E-phase per bound.

_variational_em alternates two phases and keeps one bound trajectory,
one scipy termination record per M-phase and one evaluation count:
  * E-phase: the variational factors move by closed-form coordinate
    steps at fixed hyperparameters.  The assignment probabilities go to
    their optimum given q(f)'s moments at the rows, by the one step both
    bounds share (bounds.assignment_rows; one mean-field sweep where the
    Dirichlet prior couples a row to its q(Pi_n)), so no step lowers the
    bound.
      - Collapsed bound (fit_cvb): full-batch pi steps
        (bounds.cvb_pi_step).  Each step's system gives the bound that
        enters the trajectory and, from its factors, the posterior
        moments of f at all N rows (engine.posterior_moments).  The
        hyperparameters do not move, so the steps share one kernel half
        (engine.KernelHalf): the first step reads the system the
        M-phase's last evaluation built at the same point, and every
        later step factors only its noise half.
      - Stochastic bound (fit_svb_em): q(u) starts at its closed form,
        then mini-batch steps of stochastic variational inference on
        q(pi) and q(u) (svi.batch_step) share one set of row tables and
        Kuu^-1; q(u)'s natural parameters move a step rho = |batch| / N
        toward the batch estimate of their optimum.  All three come from
        the M-phase's last evaluation at the same point.
  * M-phase (_m_phase): L-BFGS-B on the hyperparameter block alone
    (ParamPack: log precisions, free amplitudes, log noise and log
    alpha0) with pi held, for at most em_inner_hyp_iters iterations;
    each evaluation is gradients.elbo_cvb_with_grad on the system
    bounds.build_cvb_system built, or gradients.elbo_svb_with_grad with
    q(u) at its optimum for the evaluated hyperparameters.
The hand-off between the phases is explicit: an objective returns what
it built next to the bound and gradient, the M-phase keeps what its
last call built when that call was at the returned point, and the next
E-phase starts from it (round 0 from the start's evaluation).  Without
it (after an abnormal line search) the E-phase builds its own, with the
same results bit for bit.
SCMGP has no assignment state: fit_cvb runs one M-phase on its
likelihood instead.  The collapsed fit stops once a round changes the
bound by less than tol_rel_bound relative; the stochastic fit runs
every round.  X and W never move, so each fit computes the squared
differences it needs between them once.
"""
import time
from dataclasses import dataclass, field

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
    success) of every M-phase, over all restarts.
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
# the variational-EM driver
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


def _variational_em(x, e_phase, objective, box, opt_cfg, tol=0.0):
    """Alternate E-phases with L-BFGS-B M-phases on the hyperparameter block x.

    objective(x) -> (-bound, -gradient, built) returns, as its third
    item, what the evaluation built at x that an E-phase at x can start
    from.  The trajectory starts at the bound at x (_bound_at_start).
    Round k calls e_phase(k, x, traj, built), with built what the
    objective built at x (by the start's call in round 0, by the last
    M-phase's call at its returned point after that, or None, see
    _m_phase); it moves the variational factors at x, appends any bound
    it measures to the trajectory and returns its evaluation count.
    Then an M-phase (_m_phase, at most em_inner_hyp_iters iterations)
    runs on objective, and the bound it ends at is appended.  The driver
    stops after em_outer_iters rounds, or after a round that changed the
    bound by less than tol relative.  Returns (x, trajectory, the
    termination record of every M-phase, evaluations, converged, built
    at x): evaluations counts the start, the E-phases' and every
    objective call, and converged says the last round changed the bound
    by less than max(tol_rel_bound, 1e-6) relative.
    """
    bound, built = _bound_at_start(objective, x)
    traj = [bound]
    termination = []
    evaluations = 1
    rel_change = np.inf
    for k in range(opt_cfg.em_outer_iters):
        before = traj[-1]
        evaluations += e_phase(k, x, traj, built)
        x, bound, term, calls, built = _m_phase(objective, x, box,
                                                {"maxiter": opt_cfg.em_inner_hyp_iters})
        traj.append(bound)
        termination.append(term)
        evaluations += calls
        rel_change = abs(bound - before) / max(1.0, abs(bound))
        if rel_change < tol:
            break
    converged = rel_change < max(opt_cfg.tol_rel_bound, 1e-6)
    return x, traj, termination, evaluations, converged, built


# ---------------------------------------------------------------------------
# collapsed-bound fit
# ---------------------------------------------------------------------------


def fit_cvb(ds, cfg, hp0=None, opt_cfg=None, scmgp=False):
    """Maximize the collapsed bound by variational EM from seeded restarts.

    Each round after the first starts with an E-phase of up to
    em_inner_stat_iters full-batch pi steps (bounds.cvb_pi_step), which
    stops early once a step raised the bound by less than tol_rel_bound
    relative; the first round's M-phase fits the start's pi before any
    step, since steps taken at the default hyperparameters can lock rows
    into a poor assignment.  Each step's bound enters the trajectory and
    counts as an evaluation.  The first step of a round reads the system
    the M-phase's last evaluation built at the round's hyperparameters,
    and each later one factors only the noise half of its system against
    that system's kernel half, so a step builds no kernel block; the
    results are those of a fresh build per step, bit for bit.  The
    M-phase is _variational_em's L-BFGS-B on the hyperparameters and log
    alpha0 with pi held.  Restart r > 0 starts from jittered
    hyperparameters and its own seeded pi; the best final bound wins.
    Each output's rows (bounds.cvb_rows) and their squared differences
    (engine.row_sqdiffs) depend on the data and W alone, so they are
    computed once for all restarts and handed to every build.

    With scmgp=True there is no assignment state: the exact
    fully-labeled sparse likelihood of the labeled rows is maximized
    instead (same engine, no V term) by one L-BFGS-B run of at most
    em_outer_iters * em_inner_hyp_iters iterations that stops on a
    relative change of tol_rel_bound.
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
    evaluations = 0
    for r in range(max(1, opt_cfg.restarts)):
        rs = opt_cfg.seed + 7919 * r
        rng = np.random.default_rng(rs)
        hp_r = hp0 if r == 0 else _jitter_hp(hp0, rng)
        pack = ParamPack(cfg, hp_r, with_alpha0=with_alpha0)
        x0 = pack.pack(hp_r, alpha0=cfg.alpha0)
        state = None if scmgp else init_state(ds, cfg, rs)

        def objective(x):
            hp, alpha0 = pack.unpack(x)
            cfg_x = cfg.with_alpha0(alpha0)
            sys = bounds.build_cvb_system(ds, cfg_x, hp, state, t2=t2)
            if scmgp:
                val, bundle = gradients.scmgp_loglik_with_grad(ds, cfg_x, hp, sys)
            else:
                val, bundle = gradients.elbo_cvb_with_grad(ds, cfg_x, hp, state, sys)
            return -val, -pack.grad_to_vec(bundle), sys

        def pi_steps(k, x, traj, sys):
            if k == 0:
                return 0
            hp, alpha0 = pack.unpack(x)
            cfg_x = cfg.with_alpha0(alpha0)
            for i in range(opt_cfg.em_inner_stat_iters):
                # the first step reads the M-phase's system at (x, pi); later
                # ones factor only the noise half against its kernel half
                if i or sys is None:
                    sys = bounds.build_cvb_system(ds, cfg_x, hp, state, kernel=sys, t2=t2)
                bound, state.pi_hat = bounds.cvb_pi_step(ds, cfg_x, hp, state, sys)
                traj.append(bound)
                if i and traj[-1] - traj[-2] < tol * max(1.0, abs(traj[-1])):
                    return i + 1
            return opt_cfg.em_inner_stat_iters

        if scmgp:
            traj = [_bound_at_start(objective, x0)[0]]
            budget = opt_cfg.em_outer_iters * opt_cfg.em_inner_hyp_iters
            x, bound, term, calls, _ = _m_phase(objective, x0, pack.box_bounds(),
                                                {"maxiter": budget, "ftol": tol, "gtol": 1e-9})
            traj.append(bound)
            term, n_evals, ok = [term], 1 + calls, term["success"]
        else:
            x, traj, term, n_evals, ok, _ = _variational_em(
                x0, pi_steps, objective, pack.box_bounds(), opt_cfg, tol=tol)
        evaluations += n_evals
        termination += term
        restart_bounds.append(traj[-1])
        if best is None or traj[-1] > best[0]:
            best = (traj[-1], x, pack, traj, ok, state)
    _, x, pack, traj, ok, state = best
    hp, alpha0 = pack.unpack(x)
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
        termination=termination,
    )


# ---------------------------------------------------------------------------
# stochastic fit (variational EM)
# ---------------------------------------------------------------------------


def fit_svb_em(ds, cfg, hp0=None, opt_cfg=None):
    """Variational-EM ascent of the stochastic bound.

    Each round's E-phase starts q(u) at its closed form at the current
    hyperparameters, then runs em_inner_stat_iters mini-batch steps of
    stochastic variational inference on q(pi) and q(u) (svi.batch_step,
    one evaluation each).  The M-phase is _variational_em's L-BFGS-B on
    the hyperparameter block with q(pi) frozen and q(u) at its optimum
    for each trial point (gradients.elbo_svb_with_grad with qu_optimum,
    full batch): q(u) is far too sensitive to hyperparameter moves to be
    held where the E-phase left it.  Every round runs: between
    mini-batch E-phases the bound's change is partly sampling noise, not
    a sign of convergence.

    The hyperparameters do not move during the E-phase, so its steps
    share one Kuu^-1, one set of RowTables over all N rows and the
    starting q(u)'s natural parameters: those the M-phase's last
    evaluation built at the round's hyperparameters (round 0: the
    start's evaluation; only if the M-phase ended elsewhere, one more
    evaluation at its point, not counted).  A step builds no kernel
    matrix, makes no Kuu solve, forms no Su and does no O(N) work.  pi,
    mu_u and Su are plain arrays, and only the hyperparameters are
    packed.  The returned state's q(u) is the closed form at the final
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
        """(Kuu^-1, RowTables, NaturalQu) at xh: the objective's call there, or a new one."""
        return built if built is not None else objective(xh)[2]

    def e_phase(k, xh, traj, built):
        hp, alpha0 = pack.unpack(xh)
        cfg_x = cfg.with_alpha0(alpha0)
        kuu_inv, tables, qu = products(xh, built)
        for _ in range(opt_cfg.em_inner_stat_iters):
            rows = rng.choice(ds.n, size=batch, replace=False)
            qu = svi.batch_step(ds, cfg_x, hp.noise.sigma, tables, kuu_inv, rows,
                                state.pi_hat, qu)
        return opt_cfg.em_inner_stat_iters

    x, traj, termination, evaluations, ok, built = _variational_em(
        pack.pack(hp0, alpha0=cfg.alpha0), e_phase, objective, pack.box_bounds(), opt_cfg,
    )
    initial, final = traj[0], traj[-1]
    if not final >= initial - 0.5:
        raise RuntimeError(
            "stochastic fit regressed: initial %.6f -> final %.6f" % (initial, final)
        )
    hp, alpha0 = pack.unpack(x)
    state.mu_u, state.Su = products(x, built)[2].moments()
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

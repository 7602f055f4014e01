"""The KL-corrected bound, its assignment-entropy terms, and exact oracles.

The collapsed bound is

    L = log N(y_sel | 0, B + Kfu Kuu^-1 Kuf + W^-1) + V

where W is block-diagonal with the precision weights
pi_hat[n, m] / sigma_m^2 and V collects

    - KL(q(Z_labeled) || p(Z_labeled | prior))
    - KL(q(Z_unlabeled) q(Pi) || p(Z_unlabeled | Pi) p(Pi))
    + 0.5 * sum_{n,m} log[(2 pi sigma_m^2)^(1 - pi_hat) / pi_hat].

The Gaussian's noise normaliser -1/2 log(2 pi sigma_m^2 / pi_hat) and
V's last term sum to -1/2 pi_hat log 2 pi sigma_m^2 per pair (n, m); V
carries that sum (vterm_rows, with 0 log 0 = 0), so a pair at pi_hat = 0
adds nothing.  With the Dirichlet parameter at its analytic optimum
alpha0 + pi_hat, the unlabeled KL reduces to the closed form
sum pi log pi - log[B(alpha0 + pi) / B(alpha0 * 1)] per row.  A row
sums to 1, so the log ratio is sum_m log poch(alpha0, pi_m) - log(M
alpha0), with poch(a, x) = Gamma(a + x) / Gamma(a): a difference of
log-gammas near 1.3e7 would lose 3e-9 nats a row at alpha0 = 1e6.
Removing the Dirichlet prior replaces it with the plain categorical KL
against a fixed uniform prior.

One function, cvb_rows, says which rows sit under which output, and
cvb_selection adds their precision weights, for the bound and for the
fully-labeled SCMGP alike; build_cvb_system builds the engine's system
over them for the bound, the SCMGP likelihood, both gradients and
predict.posterior_predict.

Both bounds move pi by one closed-form step, assignment_rows, fed q(f)'s
moments at the rows: under q(v) at a batch (svi.batch_step), or under the
collapsed posterior at all N rows (cvb_pi_step).
"""

import numpy as np
from scipy.special import digamma, logsumexp, poch, xlogy

from . import engine, kernels
from .model import Dataset, ModelConfig, VariationalState

_LOG2PI = float(np.log(2.0 * np.pi))

ORACLE_MAX_ASSIGNMENTS = 2**20


# ---------------------------------------------------------------------------
# the V term
# ---------------------------------------------------------------------------


def _sum_last(x):
    """np.sum(x, axis=-1), bit for bit, without a reduction per row.

    numpy adds a row of fewer than 8 entries in index order, so a loop
    over the columns gives the same sums; longer rows keep np.sum.
    """
    M = x.shape[-1]
    if M >= 8:
        return np.sum(x, axis=-1)
    out = x[..., 0].copy()
    for j in range(1, M):
        out += x[..., j]
    return out


def select_rows(state: VariationalState, ds: Dataset, rows=None):
    """(pi_hat, labeled mask, prior) restricted to `rows`; all rows when None.

    Only the selected rows are read, so the per-row parts of V cost
    O(|rows| M) however large the dataset is.
    """
    if rows is None:
        return state.pi_hat, ds.labeled_mask, ds.prior_pi
    return state.pi_hat[rows], ds.labels[rows] > 0, ds.prior_pi[rows]


# Stirling's series log Gamma(z) - (z - 1/2) log z + z - log(2 pi) / 2 = sum_k b_k z^(1 - 2k)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_STIRLING_FROM = 10.0  # the smallest a log_poch takes from the series


def _stirling_tail(z):
    z2 = 1.0 / (z * z)
    tail = _STIRLING[-1]
    for b in _STIRLING[-2::-1]:
        tail = tail * z2 + b
    return tail / z


def log_poch(a, x):
    """log poch(a, x) = log Gamma(a + x) - log Gamma(a) for a scalar a > 0 and x >= 0.

    scipy's poch keeps its log to 5e-16 below a = 10 and above 1e5, but
    loses up to 3e-11 in between (5e-12 at a = 2e3), which V sums over
    every unlabeled entry.  From a = 10 on the difference is taken from
    Stirling's series instead, with no term that cancels:
      x log a + (a + x - 1/2) log1p(x / a) - x + tail(a + x) - tail(a),
    whose truncation is below 1e-16 there.  x = 0 and x = 1 give 0 and
    log a exactly, as poch does, so a one-hot row's log ratio in
    vterm_rows is -log M exactly.
    """
    if a < _STIRLING_FROM:
        return np.log(poch(a, x))
    series = (x * np.log(a) + (a + x - 0.5) * np.log1p(x / a) - x
              + (_stirling_tail(a + x) - _stirling_tail(a)))
    return np.where(x == 1.0, np.log(a), series)


def vterm_rows(state: VariationalState, ds: Dataset, cfg: ModelConfig, noise, rows=None):
    """Per-observation contributions to V, one per entry of `rows` (all N when None).

    Both KL forms are evaluated on every row and each row keeps its own;
    every step is elementwise or a sum within a row, so a row's value
    does not depend on which other rows are selected.
    """
    pi, labeled, prior = select_rows(state, ds, rows)
    log2pis = np.log(2.0 * np.pi * noise.sigma**2)
    norm = -0.5 * _sum_last(pi * log2pis[None, :])
    ent = _sum_last(xlogy(pi, pi))
    # prior is NaN on unlabeled rows, which take the other branch
    kl_labeled = ent - _sum_last(xlogy(pi, prior))
    if cfg.use_dirichlet:
        # log[B(alpha0 + pi) / B(alpha0 * 1)] = sum_m log poch(alpha0, pi_m) - log(M alpha0)
        log_ratio = _sum_last(log_poch(cfg.alpha0, pi)) - np.log(cfg.alpha0)
        kl_unlabeled = ent - log_ratio + np.log(cfg.M)
    else:
        kl_unlabeled = ent + np.log(cfg.M)
    return norm - np.where(labeled, kl_labeled, kl_unlabeled)


def vterm(state, ds, cfg, noise):
    """The V term of both bounds (KL corrections plus the noise normaliser sum)."""
    return float(np.sum(vterm_rows(state, ds, cfg, noise)))


# ---------------------------------------------------------------------------
# collapsed Gaussian term: WSMGP, SCMGP and prediction
# ---------------------------------------------------------------------------


class NoLabeledDataError(ValueError):
    pass


def cvb_rows(ds, cfg, scmgp):
    """Which rows sit under which output: one row-index array per output.

    With a variational state (WSMGP, OMGP, OMGP-WS) output m holds the
    rows its prior allows (every unlabeled row).  The fully-labeled
    SCMGP (scmgp=True) puts each labeled row once, under its label, and
    never reads an unlabeled row.  Both depend on the dataset alone, so a
    fit computes them once, and the pi steps of a fit share one kernel
    half.

    Row order: each output lists first, in index order, the rows it
    alone holds (labeled rows whose prior allows this output only, whose
    pi is exactly 1), then, in index order, the rows it shares.  The
    engine conditions the first ones out once per hyperparameter point
    (engine.Conditioned), so the pi steps factor only the shared rows.
    SCMGP's rows are all of the first kind.
    """
    if not scmgp:
        every = np.arange(ds.n)
        allowed = ~ds.labeled_mask[:, None] | (ds.prior_pi > 0)
        alone = allowed.sum(axis=1) == 1
        rows = []
        for a in allowed.T:
            r = np.concatenate((np.flatnonzero(a & alone), np.flatnonzero(a & ~alone)))
            # outputs that hold every row in index order share one array
            rows.append(every if np.array_equal(r, every) else r)
        return rows
    if ds.n_labeled == 0:
        raise NoLabeledDataError("no labeled observations")
    return [np.flatnonzero(ds.labels == m + 1) for m in range(cfg.M)]


def cvb_selection(ds, cfg, hp, state, rows=None):
    """(rows, weights): cvb_rows, and each row's precision weight under its output.

    The weights are pi_hat[n, m] / sigma_m^2 with a variational state and
    1 / sigma_m^2 without one (SCMGP).  rows, if given, is cvb_rows' result
    for ds and state, computed once by the caller.
    """
    if rows is None:
        rows = cvb_rows(ds, cfg, scmgp=state is None)
    s2 = hp.noise.sigma**2
    if state is not None:
        return rows, [state.pi_hat[r, m] / s2[m] for m, r in enumerate(rows)]
    return rows, [np.full(len(r), 1.0 / s2[m]) for m, r in enumerate(rows)]


def build_cvb_system(ds, cfg, hp, state, kernel=None, t2=None):
    """The engine's stacked system over cvb_selection; state None is SCMGP's.

    kernel is engine.build_system's: the kernel half of an earlier system
    at hp.  t2 is engine.row_sqdiffs over cvb_rows' rows for ds and
    state, computed once per fit; its rows are used as they are.
    """
    rows = None if t2 is None else t2.rows
    return engine.build_system(ds.X, ds.y, hp, *cvb_selection(ds, cfg, hp, state, rows),
                               kernel=kernel, t2=t2)


def scmgp_normaliser(sys, sigma):
    """SCMGP's noise normaliser -1/2 sum_m n_m log 2 pi sigma_m^2 over sys's rows, and -n_m."""
    counts = np.array([len(r) for r in sys.rows], dtype=float)
    return -0.5 * float(np.sum(counts * np.log(2.0 * np.pi * sigma**2))), -counts


def gauss_term_cvb(ds, cfg, hp, state):
    """The collapsed bound's Gaussian term (no V); with state None, SCMGP's likelihood."""
    sys = build_cvb_system(ds, cfg, hp, state)
    value = engine.gauss_loglik(sys)
    if state is None:
        value += scmgp_normaliser(sys, hp.noise.sigma)[0]
    return value


def elbo_cvb(ds, cfg, hp, state):
    """KL-corrected variational bound on the marginal log-likelihood."""
    return gauss_term_cvb(ds, cfg, hp, state) + vterm(state, ds, cfg, hp.noise)


# ---------------------------------------------------------------------------
# the closed-form assignment step of both bounds
# ---------------------------------------------------------------------------


def assignment_rows(mu, var, y, sigma, pi, labeled, log_prior, cfg):
    """The rows' assignment probabilities at their optimum given q(f)'s moments there.

    mu and var are the rows' moments of q(f) (M, rows); y, pi, labeled
    and log_prior are the rows' entries: mu and pi are overwritten.  With
    c_nm = -[((y_n - mu_nm)^2 + var_nm) / sigma_m^2 + log 2 pi sigma_m^2] / 2
    a row's share of either bound is sum_m pi_nm c_nm minus that row's KL,
    with no N / |batch| scale; the collapsed bound is the maximum over a
    Gaussian q(f) of those shares minus KL(q(f) || p(f)), reached at its
    posterior.  So the new row is softmax(log prior + c) on a labeled row
    and softmax(c) on an unlabeled row without the Dirichlet prior.  With it, the bounds hold
    q(Pi_n) at its optimum Dir(alpha0 + pi_n) given the old row, and
    softmax(c + digamma(alpha0 + pi_n)) is the exact coordinate step of
    q(Z_n) given that q(Pi_n); moving q(Pi_n) to its optimum at the new
    row can only raise the bound again, so one such mean-field sweep
    never lowers the bound.  A labeled row's entry whose prior is 0
    (log_prior = -inf) comes out exactly 0.
    """
    s2 = (sigma**2)[:, None]
    c = np.subtract(y, mu, out=mu)
    c *= c
    c += var
    c /= s2
    c += np.log(2.0 * np.pi * s2)
    c *= -0.5
    if cfg.use_dirichlet:
        z = digamma(np.add(pi, cfg.alpha0, out=pi), out=pi)
    else:
        z = np.zeros_like(pi)
    # log_prior is NaN on unlabeled rows, which keep the other term
    np.copyto(z, log_prior, where=labeled[:, None])
    z += c.T
    # a stable row softmax; -inf entries come out exactly 0
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def cvb_pi_step(ds, cfg, hp, state, sys=None):
    """One full-batch pi step of the collapsed bound: (elbo_cvb at state, the stepped pi_hat).

    One system gives both the bound at state.pi_hat and q(f)'s moments at
    each output's moving rows (engine.posterior_moments; 0 elsewhere: at
    a row the prior keeps out of the output and at a row the output holds
    alone the step returns the prior's 0 or 1 whatever the moments), from
    which assignment_rows takes every row to its optimum.  sys is
    build_cvb_system's system at hp and state if the caller has it, such
    as the one a fit's evaluation built at hp, or one whose noise half
    alone was factored on an earlier step's kernel half; otherwise it is
    built here.  It is only read, so the step equals one on a fresh build
    bit for bit.  state.pi_hat is overwritten.
    """
    if sys is None:
        sys = build_cvb_system(ds, cfg, hp, state)
    bound = engine.gauss_loglik(sys) + vterm(state, ds, cfg, hp.noise)
    mu, var = np.zeros((cfg.M, ds.n)), np.zeros((cfg.M, ds.n))
    for m, (mean, v) in enumerate(zip(*engine.posterior_moments(sys))):
        moving = sys.rows[m][sys.fixed[m].n_F:]
        mu[m, moving] = mean
        var[m, moving] = v
    return bound, assignment_rows(mu, var, ds.y, hp.noise.sigma, state.pi_hat,
                                  ds.labeled_mask, ds.log_prior, cfg)


# ---------------------------------------------------------------------------
# exact enumeration oracle
# ---------------------------------------------------------------------------


class OracleTooLargeError(ValueError):
    pass


def assignment_log_weights(ds: Dataset, cfg: ModelConfig):
    """Log prior weight of assigning each row to each output.

    Labeled rows use their prior row; unlabeled rows use the
    Dirichlet-multinomial marginal, which is 1/M for a symmetric prior.
    """
    logw = np.full((ds.n, cfg.M), -np.log(cfg.M))
    labeled = ds.labeled_mask
    logw[labeled] = ds.log_prior[labeled]
    return logw


def _enumerate_mixture(Kpair, sig2, y, logw, chunk=1024):
    """Log-density of every group assignment of a Gaussian mixture-of-rows.

    Kpair : (M, M, N, N) cross-covariance blocks between output pairs.
    sig2  : (M,) per-output noise variances added on the diagonal.
    logw  : (N, M) log prior weight of assigning row n to output m.

    Returns an (M**N,) array; entry t corresponds to the assignment whose
    base-M digits (row 0 least significant) are the per-row output choices.
    Assignments are factored in chunks of `chunk`; Cholesky failures are
    retried with an escalating diagonal jitter.
    """
    M = Kpair.shape[0]
    N = y.shape[0]
    total = M**N
    out = np.empty(total)
    idx = np.arange(N)
    digits = M ** idx
    for start in range(0, total, chunk):
        t = np.arange(start, min(start + chunk, total))
        z = (t[:, None] // digits[None, :]) % M  # (c, N)
        Kz = Kpair[z[:, :, None], z[:, None, :], idx[:, None], idx[None, :]]
        Kz[:, idx, idx] += sig2[z]
        jitter = 0.0
        base = np.mean(Kz[:, idx, idx])
        while True:
            try:
                L = np.linalg.cholesky(Kz + jitter * np.eye(N))
                break
            except np.linalg.LinAlgError:
                jitter = 1e-6 * base if jitter == 0.0 else jitter * 10.0
                if jitter > 1e-2 * base:
                    raise
        a = np.linalg.solve(L, np.broadcast_to(y, (len(t), N))[..., None])[..., 0]
        logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=1, axis2=2)), axis=1)
        quad = np.sum(a * a, axis=1)
        lprior = np.sum(logw[idx[None, :], z], axis=1)
        out[t] = -0.5 * (N * _LOG2PI + logdet + quad) + lprior
    return out


def exact_marglik_oracle(ds, cfg, hp):
    """Exact marginal log-likelihood by enumerating all M^N assignments.

    Uses the dense covariance (no inducing approximation): for an
    assignment z, the data covariance has entries
    k_ff(x_i, x_j; z_i, z_j) + delta_ij sigma_{z_i}^2.  `_enumerate_mixture`
    gives the log-density of every assignment, and the mixture is
    combined with a deterministic log-sum-exp.
    """
    total = cfg.M**ds.n
    if total > ORACLE_MAX_ASSIGNMENTS:
        raise OracleTooLargeError(
            "M^N = %d exceeds the enumeration guard (%d)"
            % (total, ORACLE_MAX_ASSIGNMENTS)
        )
    Kpair = kernels.exact_kff_pairs(ds.X, hp)
    logw = assignment_log_weights(ds, cfg)
    sig2 = hp.noise.sigma**2
    per_assignment = _enumerate_mixture(Kpair, sig2, ds.y, logw)
    return float(logsumexp(per_assignment))

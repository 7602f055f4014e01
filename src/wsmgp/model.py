"""Data containers, label priors, configuration and variational state (q(v) whitened)."""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """Observations with optionally missing group labels.

    labels uses 0 for "unlabeled" and 1..M otherwise.  prior_pi holds one
    simplex row per *labeled* observation (rows of unlabeled observations
    are NaN and never read).  The bounds read it directly; the pi steps
    read log_prior, cached on first use: change prior_pi in place only before that.
    """

    X: np.ndarray
    y: np.ndarray
    labels: np.ndarray
    prior_pi: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float).ravel())
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=int).ravel())
        object.__setattr__(self, "prior_pi", np.asarray(self.prior_pi, dtype=float))

    @property
    def n(self):
        return self.y.shape[0]

    @property
    def d(self):
        return self.X.shape[1]

    @property
    def labeled_mask(self):
        return self.labels > 0

    @property
    def n_labeled(self):
        return int(np.sum(self.labeled_mask))

    @property
    def n_unlabeled(self):
        return self.n - self.n_labeled

    @cached_property
    def log_prior(self):
        """log prior_pi, (N, M), -inf where a prior is zero; read on labeled rows only.

        The priors are fixed data, so the pi steps log them once per
        dataset, on first use, not on every step.
        """
        with np.errstate(divide="ignore"):
            return np.log(self.prior_pi)


def make_dataset(X, y, labels=None, prior_pi=None, n_outputs=None):
    """Build a Dataset, defaulting hard one-hot priors for labeled rows."""
    y = np.asarray(y, dtype=float).ravel()
    n = y.shape[0]
    if labels is None:
        labels = np.zeros(n, dtype=int)
    labels = np.asarray(labels, dtype=int).ravel()
    if n_outputs is None:
        n_outputs = max(int(labels.max(initial=1)), 1)
    if prior_pi is None:
        prior_pi = np.full((n, n_outputs), np.nan)
        labeled = labels > 0
        prior_pi[labeled] = np.eye(n_outputs)[labels[labeled] - 1]
    return Dataset(X=X, y=y, labels=labels, prior_pi=prior_pi)


@dataclass(frozen=True)
class ModelConfig:
    """Model-level configuration.

    use_dirichlet=False removes the Dirichlet prior on unlabeled rows
    (they fall back to a fixed uniform multinomial prior), reproducing
    the no-hyperprior ablation.
    """

    M: int
    Q: int
    alpha0: float = 1.0
    use_dirichlet: bool = True

    def __post_init__(self):
        if self.M < 1 or self.Q < 1:
            raise ValueError("M and Q must be >= 1")
        if not self.alpha0 > 0:
            raise ValueError("alpha0 must be > 0")

    def with_alpha0(self, alpha0):
        return replace(self, alpha0=float(alpha0))


@dataclass
class VariationalState:
    """Variational posterior parameters.

    pi_hat rows live on the simplex; an entry may be exactly 0, such as
    a labeled row's entry where its prior is 0, which no pi step moves
    off 0.  q(Pi) is never stored: the
    bounds hold it at its analytic optimum Dir(alpha0 + pi_hat) of each
    unlabeled row.  mu_u and Su parameterize the stochastic bound's
    Gaussian posterior q(v) = N(mu_u, Su) over the whitened inducing
    variables v, u = L v with Kuu = L L' (svi); they are None in a state
    of the collapsed bound, which integrates u out.
    """

    pi_hat: np.ndarray
    mu_u: np.ndarray = None
    Su: np.ndarray = None


class DatasetError(ValueError):
    """Raised by validate_dataset on any violated invariant."""


def validate_dataset(ds: Dataset, cfg: ModelConfig):
    """Check all Dataset invariants; raises DatasetError with a reason."""
    if ds.X.shape[0] != ds.n or ds.labels.shape[0] != ds.n:
        raise DatasetError("X, y and labels must have matching lengths")
    if not np.all(np.isfinite(ds.X)):
        raise DatasetError("non-finite input locations")
    if not np.all(np.isfinite(ds.y)):
        raise DatasetError("non-finite outputs")
    bad = (ds.labels < 0) | (ds.labels > cfg.M)
    if np.any(bad):
        raise DatasetError(
            "label out of range at row %d: %d (M=%d)"
            % (np.argmax(bad), ds.labels[np.argmax(bad)], cfg.M)
        )
    if ds.prior_pi.shape != (ds.n, cfg.M):
        raise DatasetError(
            "prior_pi must be (N, M) = (%d, %d), got %s"
            % (ds.n, cfg.M, ds.prior_pi.shape)
        )
    for i in np.flatnonzero(ds.labeled_mask):
        row = ds.prior_pi[i]
        if np.any(~np.isfinite(row)) or np.any(row < 0):
            raise DatasetError("prior row %d has negative or non-finite entries" % i)
        if abs(row.sum() - 1.0) > 1e-12:
            raise DatasetError(
                "prior row %d sums to %.15g, not a simplex row" % (i, row.sum())
            )


def init_state(ds: Dataset, cfg: ModelConfig, seed, kuu=None):
    """Deterministic initial variational state.

    Labeled rows start at their prior; unlabeled rows at the
    uniform distribution perturbed by seeded Dirichlet(1) noise mixed at
    weight 0.05.  Given kuu, q(v) starts at its prior N(0, I): mu_u = 0
    and Su the identity of Kuu's size; without it the state has no q(v).
    """
    rng = np.random.default_rng(seed)
    M = cfg.M
    labeled = ds.labeled_mask
    pi = np.empty((ds.n, M))
    pi[labeled] = ds.prior_pi[labeled]
    # one draw per unlabeled row, in row order
    noise = rng.dirichlet(np.ones(M), size=ds.n_unlabeled)
    pi[~labeled] = 0.95 * np.full(M, 1.0 / M) + 0.05 * noise
    state = VariationalState(pi_hat=pi)
    if kuu is not None:
        state.Su = np.eye(len(kuu))
        state.mu_u = np.zeros(len(kuu))
    return state

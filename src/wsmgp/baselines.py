"""Reference models expressed as configurations of the shared engine.

* OMGP: independent per-output squared-exponential kernels, labels
  discarded (every row gets the fixed uniform assignment prior), no
  Dirichlet hyperprior; assignment probabilities are still optimized.
* OMGP-WS: as OMGP but labeled rows keep a hard one-hot prior, so each
  sits under its label's output alone (bounds.cvb_selection) and its
  assignment row equals the prior exactly.
* SCMGP: the fully-labeled sparse convolved model fitted on labeled
  rows only; unlabeled rows are never read.

Because all three reuse the same engine, the only differences from the
weakly-supervised model are exactly the documented configuration deltas.
"""

from dataclasses import replace

import numpy as np

from .bounds import NoLabeledDataError
from .model import Dataset, ModelConfig, make_dataset
from .trainer import OptimizerConfig, default_hyperparams, fit_cvb


def strip_labels(ds: Dataset):
    """Copy of the dataset with all labels removed: the data OMGP fits and predicts from."""
    return make_dataset(ds.X, ds.y, labels=np.zeros(ds.n, dtype=int),
                        n_outputs=ds.prior_pi.shape[1])


def fit_omgp(ds, cfg: ModelConfig, opt_cfg: OptimizerConfig = None, hp0=None):
    """Independent-kernel mixture fit that provably ignores labels.

    It fits strip_labels(ds), so a prediction from its fit conditions on
    that dataset (experiments.fit_inputs), not on ds.
    """
    ds_blind = strip_labels(ds)
    cfg_omgp = replace(cfg, use_dirichlet=False)
    if hp0 is None:
        hp0 = default_hyperparams(ds_blind, cfg_omgp, kind="independent")
    return fit_cvb(ds_blind, cfg_omgp, hp0, opt_cfg)


def fit_omgp_ws(ds, cfg: ModelConfig, opt_cfg: OptimizerConfig = None, hp0=None):
    """OMGP with hard one-hot priors on labeled rows (uniform elsewhere)."""
    cfg_ws = replace(cfg, use_dirichlet=False)
    if hp0 is None:
        hp0 = default_hyperparams(ds, cfg_ws, kind="independent")
    return fit_cvb(ds, cfg_ws, hp0, opt_cfg)


def fit_scmgp(ds, cfg: ModelConfig, opt_cfg: OptimizerConfig = None, hp0=None):
    """Sparse convolved model on the labeled rows only (exact likelihood)."""
    if hp0 is None:
        # fit_cvb raises the same error, but the defaults are fitted to the
        # labeled rows first, and zero rows have no span to fit
        if ds.n_labeled == 0:
            raise NoLabeledDataError("SCMGP requires at least one labeled observation")
        keep = ds.labeled_mask
        hp0 = default_hyperparams(make_dataset(ds.X[keep], ds.y[keep]), cfg, kind="convolved")
    # the selection without a state (bounds.cvb_selection) reads the labeled rows only
    return fit_cvb(ds, cfg, hp0, opt_cfg, scmgp=True)


"""The baselines: each is the documented configuration of the shared fit."""

import numpy as np
import pytest

from wsmgp import baselines, experiments
from wsmgp.experiments import SyntheticConfig, generate_synthetic
from wsmgp.model import Dataset, ModelConfig, make_dataset
from wsmgp.predict import posterior_predict
from wsmgp.trainer import OptimizerConfig

CFG = ModelConfig(M=2, Q=8, alpha0=0.3)
GRID = np.linspace(-1.0, 1.0, 25)[:, None]


def _synthetic(seed):
    """SyntheticConfig of _data."""
    return SyntheticConfig(M=2, per_source_count=20, gamma=0.5, l_frac=0.3, seed=seed)


def _data(seed):
    """N = 30, 9 rows labeled with hard one-hot priors."""
    return generate_synthetic(_synthetic(seed))[0]


def _relabellings(ds, seed):
    """ds with its labels permuted, swapped between the two outputs, and removed."""
    rng = np.random.default_rng(seed)
    return [make_dataset(ds.X, ds.y, labels=rng.permutation(ds.labels), n_outputs=2),
            make_dataset(ds.X, ds.y, labels=np.where(ds.labels > 0, 3 - ds.labels, 0),
                         n_outputs=2),
            make_dataset(ds.X, ds.y, n_outputs=2)]


def _curves(name, ds, rep):
    """(mean, var) of the fit's predictions on GRID, given the data the fit read."""
    pred = posterior_predict(*experiments.fit_inputs(name, ds, CFG), rep.final_hp,
                             rep.final_state, GRID)
    return pred.mean, pred.var_diag


def _opt(seed):
    return OptimizerConfig(seed=seed, restarts=2, em_outer_iters=4)


def _assert_same_fit(a, b):
    assert a.bound_trajectory == b.bound_trajectory
    assert a.restart_bounds == b.restart_bounds
    for out_a, out_b in zip(a.final_hp.outputs, b.final_hp.outputs):
        assert out_a.amp == out_b.amp
        np.testing.assert_array_equal(out_a.prec, out_b.prec)
    np.testing.assert_array_equal(a.final_hp.noise.sigma, b.final_hp.noise.sigma)


@pytest.mark.parametrize("seed", [0, 1])
def test_omgp_ignores_the_labels(seed):
    ds = _data(seed)
    ref = baselines.fit_omgp(ds, CFG, _opt(seed))
    ref_curves = _curves("omgp", ds, ref)
    # conditioning on the labeled rows instead would move the curves
    assert not np.array_equal(
        posterior_predict(ds, CFG, ref.final_hp, ref.final_state, GRID).mean, ref_curves[0])
    for other in _relabellings(ds, seed):
        rep = baselines.fit_omgp(other, CFG, _opt(seed))
        _assert_same_fit(rep, ref)
        for got, want in zip(_curves("omgp", other, rep), ref_curves):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 1])
def test_omgp_cell_ignores_the_labels(seed, monkeypatch):
    # run_cell scores the curves of the fit on its drawn data; hand it the
    # same draw relabelled, and its scores and bound stay as they were
    ds, truth = generate_synthetic(_synthetic(seed))
    cells = []
    for data in [ds] + _relabellings(ds, seed):
        monkeypatch.setattr(experiments, "generate_synthetic", lambda sc, data=data: (data, truth))
        cells.append(experiments.run_cell(0.5, 0.3, "omgp", 0, CFG, _opt(seed), _synthetic(seed)))
    for cell in cells[1:]:
        assert cell.status == "ok" and cell.bound == cells[0].bound
        assert cell.label_acc == cells[0].label_acc
        np.testing.assert_array_equal(cell.rmse, cells[0].rmse)
        np.testing.assert_array_equal(cell.rmse_heldout, cells[0].rmse_heldout)


@pytest.mark.parametrize("seed", [0, 1])
def test_omgp_ws_keeps_labeled_rows_at_their_prior(seed):
    ds = _data(seed)
    rep = baselines.fit_omgp_ws(ds, CFG, _opt(seed))
    labeled = ds.labeled_mask
    pi = rep.final_state.pi_hat
    # one-hot priors, kept exactly: the other output's entry is 0
    assert np.all(np.sum(ds.prior_pi[labeled] == 0.0, axis=1) == 1)
    np.testing.assert_array_equal(pi[labeled], ds.prior_pi[labeled])
    # while the pi steps moved unlabeled rows away from the start's near-uniform rows
    assert np.sum(pi[~labeled].max(axis=1) > 0.9) >= 5


@pytest.mark.parametrize("seed", [0, 1])
def test_scmgp_reads_no_unlabeled_output(seed):
    ds = _data(seed)
    ref = baselines.fit_scmgp(ds, CFG, _opt(seed))
    y = ds.y.copy()
    y[~ds.labeled_mask] += np.random.default_rng(seed).normal(0.0, 10.0, ds.n_unlabeled)
    other = Dataset(X=ds.X, y=y, labels=ds.labels, prior_pi=ds.prior_pi)
    rep = baselines.fit_scmgp(other, CFG, _opt(seed))
    assert rep.final_state is None
    assert rep.bound_trajectory == ref.bound_trajectory
    np.testing.assert_array_equal(rep.final_hp.noise.sigma, ref.final_hp.noise.sigma)
    np.testing.assert_array_equal(rep.final_hp.latent.L, ref.final_hp.latent.L)
    for out, out_ref in zip(rep.final_hp.outputs, ref.final_hp.outputs):
        assert out.S == out_ref.S
        np.testing.assert_array_equal(out.Lm, out_ref.Lm)

"""Synthetic-data generation, evaluation metrics, and the benchmark grid.

The generator draws exact joint samples from the dense multi-output
prior (no sparse approximation): one Cholesky factorization of the
joint covariance of every source's inputs and grid, in scipy's
OpenBLAS, with the dense covariance and its factor (two n x n arrays)
the only large allocations.  It then thins the first source to a gamma
fraction, keeps an l fraction of labels per source, optionally flips
retained labels, and adds a constant bias to the second source.  The
ground truth keeps the noiseless latent curves on an evaluation grid so
prediction error can be measured against the true functions.
"""

import csv
import itertools
import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import dtrmv

from . import kernels
from .baselines import fit_omgp, fit_omgp_ws, fit_scmgp, strip_labels
from .kernels import (
    HyperParams,
    InducingInputs,
    LatentKernelParams,
    NoiseParams,
    OutputKernelParams,
)
from .model import Dataset, ModelConfig, VariationalState, make_dataset
from .predict import Prediction, posterior_predict
from .trainer import OptimizerConfig, fit_cvb, fit_svb_em

EVAL_GRID_SIZE = 200


def paper_generating_hyperparams(M=2, Q=30):
    """The two-source generating kernel parameters used across experiments.

    Third and later outputs reuse the second source's amplitude with a
    slightly different smoothing precision, giving nearly-identical
    latent curves (the hard-to-separate scenario).
    """
    outs = [
        OutputKernelParams(S=4.0, Lm=np.array([120.0])),
        OutputKernelParams(S=5.0, Lm=np.array([200.0])),
    ]
    for _ in range(M - 2):
        outs.append(OutputKernelParams(S=5.0, Lm=np.array([150.0])))
    return HyperParams(
        latent=LatentKernelParams(L=np.array([100.0])),
        outputs=outs[:M],
        noise=NoiseParams(sigma=np.full(M, 0.25)),
        inducing=InducingInputs(W=np.linspace(-1.0, 1.0, Q)[:, None]),
    )


@dataclass(frozen=True)
class SyntheticConfig:
    M: int = 2
    per_source_count: int = 120
    gamma: float = 1.0  # source-1 count ratio
    l_frac: float = 1.0  # labeled fraction per source
    bias: float = 0.0  # constant mean added to source 2
    hp: HyperParams = None  # generating kernel parameters
    noise_label_flip: float = 0.0
    x_range: tuple = (-1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must be in (0, 1]")
        if not (0.0 <= self.l_frac <= 1.0):
            raise ValueError("l_frac must be in [0, 1]")
        if self.per_source_count < 1:
            raise ValueError("per_source_count must be >= 1")
        if self.hp is None:
            object.__setattr__(self, "hp", paper_generating_hyperparams(self.M))


@dataclass
class GroundTruth:
    """True labels plus noiseless latent curves (and a noisy copy) on a grid."""

    grid: np.ndarray  # (G, d)
    curves: np.ndarray  # (M, G) noiseless latent functions (bias included)
    labels: np.ndarray  # (N,) true source of every kept observation
    heldout_y: np.ndarray  # (M, G) noisy observations of the curves


def joint_latent_draw(X_blocks, outputs, lat, rng):
    """One exact draw of the given output blocks jointly at their inputs.

    Returns f = L z split into the blocks, where L L^T = K + jitter I is
    the dense joint prior covariance K of every block at its inputs,
    factored once by `kernels.chol_jitter` (in scipy's OpenBLAS), and z
    is the generator's next sum(sizes) standard normals.  For n inputs in
    all, it holds two dense n x n arrays at its peak: K, built in Fortran
    order so the factor's working copy is a plain copy, and the factor.
    The draw (`dtrmv`) reads only the factor's lower triangle in place.
    """
    sizes = [np.asarray(x).shape[0] for x in X_blocks]
    total = sum(sizes)
    K = np.empty((total, total), order="F")
    offs = np.cumsum([0] + sizes)
    for a in range(len(X_blocks)):
        for b in range(a, len(X_blocks)):
            Kab = kernels.kff_matrix(X_blocks[a], X_blocks[b], outputs[a], outputs[b], lat)
            K[offs[a] : offs[a + 1], offs[b] : offs[b + 1]] = Kab
            K[offs[b] : offs[b + 1], offs[a] : offs[a + 1]] = Kab.T
    (c, _), _ = kernels.chol_jitter(K)
    f = dtrmv(c, rng.standard_normal(total), lower=1)
    return [f[offs[i] : offs[i + 1]] for i in range(len(X_blocks))]


def flip_labels(labels, p, M, seed):
    """Flip each retained label with probability p (seeded).

    The new label is a deterministic cyclic shift, m -> m % M + 1.  For
    two sources that swaps the label, so flipping twice with the same
    seed restores the original labels.
    """
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels, dtype=int).copy()
    retained = labels > 0
    mask = retained & (rng.random(labels.shape[0]) < p)
    labels[mask] = (labels[mask] % M) + 1
    return labels


def generate_synthetic(sc: SyntheticConfig):
    """Draw one dataset and its ground truth from the dense prior."""
    rng = np.random.default_rng(sc.seed)
    M = sc.M
    hp = sc.hp
    lo, hi = sc.x_range
    grid = np.linspace(lo, hi, EVAL_GRID_SIZE)[:, None]
    X_data = [
        np.sort(rng.uniform(lo, hi, sc.per_source_count))[:, None] for _ in range(M)
    ]
    # joint draw over every source's data inputs and every source's grid copy
    blocks = X_data + [grid] * M
    f_blocks = joint_latent_draw(blocks, list(hp.outputs) * 2, hp.latent, rng)
    f_data = f_blocks[:M]
    curves = np.stack(f_blocks[M:])
    if M >= 2:
        f_data[1] = f_data[1] + sc.bias
        curves[1] = curves[1] + sc.bias

    # observation noise, thinning, label retention
    Xs, ys, labels = [], [], []
    for m in range(M):
        y_m = f_data[m] + hp.noise.sigma[m] * rng.standard_normal(len(f_data[m]))
        keep = np.arange(sc.per_source_count)
        if m == 0 and sc.gamma < 1.0:
            n_keep = math.ceil(sc.gamma * sc.per_source_count)
            keep = np.sort(rng.choice(sc.per_source_count, n_keep, replace=False))
        Xs.append(X_data[m][keep])
        ys.append(y_m[keep])
        labels.append(np.full(len(keep), m + 1))
    X = np.vstack(Xs)
    y = np.concatenate(ys)
    true_labels = np.concatenate(labels)

    observed = np.zeros_like(true_labels)
    for m in range(M):
        rows = np.flatnonzero(true_labels == m + 1)
        n_lab = math.ceil(sc.l_frac * len(rows))
        chosen = rng.choice(rows, size=min(n_lab, len(rows)), replace=False)
        observed[chosen] = m + 1
    if sc.noise_label_flip > 0:
        observed = flip_labels(observed, sc.noise_label_flip, M, sc.seed + 101)

    heldout = curves + hp.noise.sigma[:, None] * rng.standard_normal(curves.shape)
    ds = make_dataset(X, y, labels=observed, n_outputs=M)
    truth = GroundTruth(grid=grid, curves=curves, labels=true_labels, heldout_y=heldout)
    return ds, truth


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def rmse_eval(pred: Prediction, truth_curves):
    """Per-source RMSE of the predictive mean against the true latent curves."""
    truth_curves = np.atleast_2d(np.asarray(truth_curves, dtype=float))
    if pred.mean.shape != truth_curves.shape:
        raise ValueError(
            "prediction/truth shape mismatch: %s vs %s"
            % (pred.mean.shape, truth_curves.shape)
        )
    return np.sqrt(np.mean((pred.mean - truth_curves) ** 2, axis=1))


def label_accuracy(state: VariationalState, true_labels):
    """Fraction of rows whose argmax assignment matches the true label.

    Ties break toward the lowest output index (np.argmax convention).
    """
    true_labels = np.asarray(true_labels, dtype=int).ravel()
    if state.pi_hat.shape[0] != true_labels.shape[0]:
        raise ValueError("state and label vector sizes disagree")
    guess = np.argmax(state.pi_hat, axis=1) + 1
    return float(np.mean(guess == true_labels))


# ---------------------------------------------------------------------------
# benchmark grid
# ---------------------------------------------------------------------------

# the baselines fit the collapsed bound only
_BASELINE_FITS = {"omgp": fit_omgp, "omgp-ws": fit_omgp_ws, "scmgp": fit_scmgp}
# every name fit_model knows, which are also the choices of `wsmgp fit --model`
MODEL_NAMES = ("wsmgp", "wsmgp-nodir") + tuple(_BASELINE_FITS)


def fit_inputs(name, ds, cfg: ModelConfig):
    """(dataset, ModelConfig) that the named model's fit reads; predict from the same pair.

    OMGP reads ds with its labels removed (baselines.strip_labels), and
    the models without the Dirichlet hyperprior (wsmgp-nodir, OMGP and
    OMGP-WS) read cfg with use_dirichlet off; the others read both as
    they are.
    """
    if name not in MODEL_NAMES:
        raise ValueError("unknown model %r (expected one of %s)" % (name, MODEL_NAMES))
    if name == "omgp":
        ds = strip_labels(ds)
    if name in ("wsmgp-nodir", "omgp", "omgp-ws"):
        cfg = replace(cfg, use_dirichlet=False)
    return ds, cfg


def fit_model(name, ds, cfg: ModelConfig, opt_cfg: OptimizerConfig, bound="cvb"):
    """Dispatch a model name (one of MODEL_NAMES) to its fit routine, on fit_inputs' pair."""
    ds, cfg = fit_inputs(name, ds, cfg)
    if name in _BASELINE_FITS:
        if bound == "svb":
            raise ValueError("baseline %r supports the collapsed bound only" % name)
        return _BASELINE_FITS[name](ds, cfg, opt_cfg)
    fit = fit_svb_em if bound == "svb" else fit_cvb
    return fit(ds, cfg, None, opt_cfg)


@dataclass
class ExperimentResult:
    gamma: float
    l_frac: float
    model: str
    replicate: int
    seed: int
    rmse: np.ndarray  # per source, vs noiseless curves
    rmse_heldout: np.ndarray  # per source, vs noisy held-out draws
    # a failed cell keeps these defaults, with its error as the status
    label_acc: float = math.nan
    bound: float = math.nan
    wall_clock: float = 0.0
    status: str = "ok"


def run_cell(gamma, l_frac, model, replicate, base_cfg, opt_cfg, synth: SyntheticConfig):
    seed = synth.seed + replicate
    sc = replace(synth, gamma=gamma, l_frac=l_frac, seed=seed)
    ds, truth = generate_synthetic(sc)
    opt = replace(opt_cfg, seed=seed)
    t0 = time.perf_counter()
    report = fit_model(model, ds, base_cfg, opt)
    pred = posterior_predict(*fit_inputs(model, ds, base_cfg), report.final_hp,
                             report.final_state, truth.grid)
    result = ExperimentResult(gamma, l_frac, model, replicate, seed, rmse_eval(pred, truth.curves),
                              rmse_eval(pred, truth.heldout_y), bound=report.bound_trajectory[-1])
    if report.final_state is not None:  # SCMGP assigns no rows
        result.label_acc = label_accuracy(report.final_state, truth.labels)
    result.wall_clock = time.perf_counter() - t0
    return result


def run_benchmark(gammas, l_fracs, models, replicates, base_cfg, opt_cfg, synth):
    """Full (gamma, l, model, replicate) grid; failed cells are flagged, not fatal."""
    results = []
    for gamma, l_frac, model, rep in itertools.product(gammas, l_fracs, models, range(replicates)):
        try:
            results.append(run_cell(gamma, l_frac, model, rep, base_cfg, opt_cfg, synth))
        except Exception as exc:  # noqa: BLE001 - cell isolation
            nan = np.full(base_cfg.M, np.nan)
            results.append(ExperimentResult(gamma, l_frac, model, rep, synth.seed + rep, nan, nan,
                                            status="error: %s" % exc))
    return results


def summarize_results(results):
    """Per-cell means and standard deviations, for write_json."""
    cells = {}
    for r in results:
        cells.setdefault((r.gamma, r.l_frac, r.model), []).append(r)
    out = []
    for (gamma, l_frac, model), rs in sorted(cells.items(), key=lambda kv: kv[0]):
        ok = [r for r in rs if r.status == "ok"]
        entry = {
            "gamma": gamma,
            "l": l_frac,
            "model": model,
            "replicates": len(rs),
            "failed": len(rs) - len(ok),
        }
        if ok:
            rmse = np.stack([r.rmse for r in ok])
            entry["rmse_mean"] = rmse.mean(axis=0)
            entry["rmse_sd"] = rmse.std(axis=0)
            accs = np.array([r.label_acc for r in ok])
            if not np.all(np.isnan(accs)):
                entry["label_accuracy_mean"] = float(np.nanmean(accs))
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# the files of the CLI chain: the dataset CSV, the write_table tables, JSON
# ---------------------------------------------------------------------------


class CsvFormatError(ValueError):
    pass


def _csv_rows(path):
    """(header, rows) of a CSV file whose every row has the header's cell count."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CsvFormatError("%s: empty file" % path)
        rows = list(reader)
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise CsvFormatError("%s: line %d has %d cells, expected %d"
                                 % (path, lineno, len(row), len(header)))
    return header, rows


def ingest_csv(path, n_outputs=None):
    """Read a dataset CSV: x columns, y, label (empty = unlabeled), pi_* priors.

    The header row is required; row order is preserved; malformed cells
    raise with their 1-based line number.  pi_* cells may be empty on
    unlabeled rows only.
    """
    header, rows = _csv_rows(path)
    x_cols = [i for i, h in enumerate(header) if h == "x" or h.startswith("x_")]
    if not x_cols or "y" not in header:
        raise CsvFormatError("%s: header must contain x (or x_*) and y columns" % path)
    y_col = header.index("y")
    label_col = header.index("label") if "label" in header else None
    pi_cols = [i for i, h in enumerate(header) if h.startswith("pi_")]
    X, y, labels, priors = [], [], [], []
    for lineno, row in enumerate(rows, start=2):
        try:
            X.append([float(row[i]) for i in x_cols])
            y.append(float(row[y_col]))
        except ValueError as exc:
            raise CsvFormatError("%s: line %d: %s" % (path, lineno, exc))
        lab = 0
        if label_col is not None and row[label_col].strip() != "":
            try:
                lab = int(row[label_col])
            except ValueError:
                raise CsvFormatError(
                    "%s: line %d: bad label %r" % (path, lineno, row[label_col])
                )
        labels.append(lab)
        if pi_cols:
            # unlabeled rows carry no prior, and write_csv leaves their cells empty
            try:
                priors.append([
                    np.nan if lab == 0 and row[i].strip() == "" else float(row[i])
                    for i in pi_cols
                ])
            except ValueError as exc:
                raise CsvFormatError("%s: line %d: %s" % (path, lineno, exc))
    X = np.asarray(X)
    labels = np.asarray(labels, dtype=int)
    M = n_outputs or (len(pi_cols) if pi_cols else max(int(labels.max(initial=1)), 1))
    if np.any(labels > M):
        bad = int(np.argmax(labels > M))
        raise CsvFormatError(
            "%s: line %d: label %d exceeds number of groups %d"
            % (path, bad + 2, labels[bad], M)
        )
    prior_pi = None
    if pi_cols:
        prior_pi = np.asarray(priors)
        prior_pi[labels == 0] = np.nan
    return make_dataset(X, y, labels=labels, prior_pi=prior_pi, n_outputs=M)


def write_csv(ds: Dataset, path):
    """Write a dataset in the ingest_csv schema (exact float round trip)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = (["x"] if ds.d == 1 else ["x_%d" % (j + 1) for j in range(ds.d)]) + ["y", "label"]
        M = ds.prior_pi.shape[1]
        writer.writerow(header + ["pi_%d" % (m + 1) for m in range(M)])
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.X[i]] + [repr(float(ds.y[i]))]
            if ds.labels[i] > 0:
                row += [str(ds.labels[i])] + [repr(float(v)) for v in ds.prior_pi[i]]
            else:
                row += [""] * (M + 1)
            writer.writerow(row)


def write_table(path, columns):
    """Write `columns` (name -> equal-length values) as a CSV with a header row.

    Ints are written as ints, floats by the repr of Python floats (an
    exact round trip, nan and +-inf included) and strings as they are.
    """
    cells = [np.asarray(v).tolist() for v in columns.values()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(zip(*cells, strict=True))  # raises on unequal lengths


def _parse_column(cells):
    for cast in (int, float):
        try:
            return np.array([cast(c) for c in cells])
        except ValueError:
            pass
    return cells


def read_table(path):
    """The columns of a write_table file: name -> int array, float array or list of strings."""
    header, rows = _csv_rows(path)
    return {name: _parse_column([r[j] for r in rows]) for j, name in enumerate(header)}


def _per_output(prefix, rows):
    """Columns prefix_1 ... prefix_M holding the rows of an (M, n) array."""
    return {"%s_%d" % (prefix, m + 1): row for m, row in enumerate(rows)}


def _stacked(table, prefix):
    """The (M, n) array of a table's columns prefix_1 ... prefix_M."""
    return np.array([v for k, v in table.items() if k.rpartition("_")[0] == prefix])


def write_json(doc, path):
    """Write `doc` as indented JSON with sorted keys; returns the text written.

    numpy arrays and scalars are written as the lists and numbers they hold.
    """
    text = json.dumps(doc, indent=2, sort_keys=True, default=lambda a: a.tolist()) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def write_truth(truth: GroundTruth, curves_path, labels_path):
    """The curves file (x, f_m, y_heldout_m) and the labels file (row, label)."""
    write_table(curves_path, {"x": truth.grid[:, 0], **_per_output("f", truth.curves),
                              **_per_output("y_heldout", truth.heldout_y)})
    write_table(labels_path, {"row": np.arange(len(truth.labels)), "label": truth.labels})


def read_truth_curves(path):
    """The grid x (G,), and the (M, G) noiseless curves and held-out draws on it, of write_truth."""
    table = read_table(path)
    return table["x"], _stacked(table, "f"), _stacked(table, "y_heldout")


def read_truth_labels(path):
    """Inverse of write_truth for the labels file: the true label of every row."""
    return read_table(path)["label"]


def write_prediction_csv(pred: Prediction, path):
    """The curves file: x, mean_m and var_m on the prediction grid."""
    write_table(path, {"x": pred.x_star[:, 0], **_per_output("mean", pred.mean),
                       **_per_output("var", pred.var_diag)})


def read_prediction_csv(path):
    table = read_table(path)
    return Prediction(x_star=table["x"][:, None], mean=_stacked(table, "mean"),
                      var_diag=_stacked(table, "var"))


def write_pihat_csv(state: VariationalState, path):
    """The assignment file: row and pi_m, the fitted probability of each output."""
    write_table(path, {"row": np.arange(state.pi_hat.shape[0]),
                       **_per_output("pi", state.pi_hat.T)})


def read_pihat_csv(path):
    return _stacked(read_table(path), "pi").T


def write_results(results, M, path):
    """One row per benchmark cell, ordered by (gamma, l, model, replicate)."""
    rs = sorted(results, key=lambda r: (r.gamma, r.l_frac, r.model, r.replicate))
    write_table(path, {
        "gamma": [r.gamma for r in rs], "l": [r.l_frac for r in rs],
        "model": [r.model for r in rs], "replicate": [r.replicate for r in rs],
        "seed": [r.seed for r in rs],
        **_per_output("rmse", np.reshape([r.rmse for r in rs], (-1, M)).T),
        **_per_output("rmse_heldout", np.reshape([r.rmse_heldout for r in rs], (-1, M)).T),
        "label_accuracy": [r.label_acc for r in rs], "bound": [r.bound for r in rs],
        "wall_clock": [r.wall_clock for r in rs], "status": [r.status for r in rs],
    })

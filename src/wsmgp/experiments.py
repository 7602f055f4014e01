"""Synthetic-data generation, evaluation metrics, and the benchmark grid.

The generator draws exact joint samples from the dense multi-output
prior (no sparse approximation), thins the first source to a gamma
fraction, keeps an l fraction of labels per source, optionally flips
retained labels, and adds a constant bias to the second source.  The
ground truth keeps the noiseless latent curves on an evaluation grid so
prediction error can be measured against the true functions.
"""

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .baselines import BaselineKind, fit_baseline
from .kernels import (
    HyperParams,
    InducingInputs,
    LatentKernelParams,
    NoiseParams,
    OutputKernelParams,
)
from .model import Dataset, ModelConfig, VariationalState, make_dataset
from .predict import Prediction, posterior_predict
from .trainer import OptimizerConfig, default_hyperparams, fit_cvb, fit_svb_em

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
    """One exact draw of the given output blocks jointly at their inputs."""
    sizes = [np.asarray(x).shape[0] for x in X_blocks]
    total = sum(sizes)
    K = np.empty((total, total))
    offs = np.cumsum([0] + sizes)
    for a in range(len(X_blocks)):
        for b in range(a, len(X_blocks)):
            Kab = kernels.kff_matrix(X_blocks[a], X_blocks[b], outputs[a], outputs[b], lat)
            K[offs[a] : offs[a + 1], offs[b] : offs[b + 1]] = Kab
            K[offs[b] : offs[b + 1], offs[a] : offs[a + 1]] = Kab.T
    cho, jitter = kernels.chol_jitter(K)
    Lc = np.linalg.cholesky(K + jitter * np.eye(total))
    f = Lc @ rng.standard_normal(total)
    return [f[offs[i] : offs[i + 1]] for i in range(len(X_blocks))]


def flip_labels(labels, p, M, seed):
    """Flip each retained label with probability p (seeded).

    For two sources a flip swaps the label, so flipping twice with the
    same seed restores the original labels; with more sources the new
    label is a deterministic cyclic shift.
    """
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels, dtype=int).copy()
    retained = labels > 0
    mask = retained & (rng.random(labels.shape[0]) < p)
    if M == 2:
        labels[mask] = 3 - labels[mask]
    else:
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


def rmse_eval(pred: Prediction, truth_curves, grid=None):
    """Per-source RMSE of the predictive mean against the true latent curves."""
    truth_curves = np.atleast_2d(np.asarray(truth_curves, dtype=float))
    if grid is not None and pred.x_star.shape[0] != np.asarray(grid).shape[0]:
        raise ValueError("prediction and truth grids do not match")
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

MODEL_NAMES = ("wsmgp", "wsmgp-nodir", "omgp", "omgp-ws", "scmgp")


def fit_model(name, ds, cfg: ModelConfig, opt_cfg: OptimizerConfig, bound="cvb"):
    """Dispatch a model name to its fit routine."""
    if name == "wsmgp":
        if bound == "svb":
            return fit_svb_em(ds, cfg, None, opt_cfg)
        return fit_cvb(ds, cfg, None, opt_cfg)
    if name == "wsmgp-nodir":
        cfg_nd = replace(cfg, use_dirichlet=False)
        if bound == "svb":
            return fit_svb_em(ds, cfg_nd, None, opt_cfg)
        return fit_cvb(ds, cfg_nd, None, opt_cfg)
    if name in ("omgp", "omgp-ws", "scmgp"):
        if bound == "svb":
            raise ValueError("baseline %r supports the collapsed bound only" % name)
        return fit_baseline(BaselineKind(name), ds, cfg, opt_cfg)
    raise ValueError("unknown model %r (expected one of %s)" % (name, MODEL_NAMES))


@dataclass
class ExperimentResult:
    gamma: float
    l_frac: float
    model: str
    replicate: int
    seed: int
    rmse: np.ndarray  # per source, vs noiseless curves
    rmse_heldout: np.ndarray  # per source, vs noisy held-out draws
    label_acc: float
    bound: float
    wall_clock: float
    status: str = "ok"


def run_cell(gamma, l_frac, model, replicate, base_cfg, opt_cfg, synth: SyntheticConfig):
    seed = synth.seed + replicate
    sc = replace(synth, gamma=gamma, l_frac=l_frac, seed=seed)
    ds, truth = generate_synthetic(sc)
    opt = replace(opt_cfg, seed=seed)
    t0 = time.perf_counter()
    report = fit_model(model, ds, base_cfg, opt)
    pred = posterior_predict(ds, base_cfg, report.final_hp, report.final_state, truth.grid)
    rmse = rmse_eval(pred, truth.curves)
    rmse_h = rmse_eval(pred, truth.heldout_y)
    acc = (
        label_accuracy(report.final_state, truth.labels)
        if report.final_state is not None
        else float("nan")
    )
    return ExperimentResult(
        gamma=gamma,
        l_frac=l_frac,
        model=model,
        replicate=replicate,
        seed=seed,
        rmse=rmse,
        rmse_heldout=rmse_h,
        label_acc=acc,
        bound=report.bound_trajectory[-1],
        wall_clock=time.perf_counter() - t0,
    )


def run_benchmark(gammas, l_fracs, models, replicates, base_cfg, opt_cfg, synth):
    """Full (gamma, l, model, replicate) grid; failed cells are flagged, not fatal."""
    results = []
    for gamma in gammas:
        for l_frac in l_fracs:
            for model in models:
                for rep in range(replicates):
                    try:
                        results.append(
                            run_cell(gamma, l_frac, model, rep, base_cfg, opt_cfg, synth)
                        )
                    except Exception as exc:  # noqa: BLE001 - cell isolation
                        results.append(
                            ExperimentResult(
                                gamma=gamma,
                                l_frac=l_frac,
                                model=model,
                                replicate=rep,
                                seed=synth.seed + rep,
                                rmse=np.full(base_cfg.M, np.nan),
                                rmse_heldout=np.full(base_cfg.M, np.nan),
                                label_acc=float("nan"),
                                bound=float("nan"),
                                wall_clock=0.0,
                                status="error: %s" % exc,
                            )
                        )
    return results


def results_to_csv(results, M):
    """Deterministic CSV text for a result list."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["gamma", "l", "model", "replicate", "seed"]
    header += ["rmse_%d" % (m + 1) for m in range(M)]
    header += ["rmse_heldout_%d" % (m + 1) for m in range(M)]
    header += ["label_accuracy", "bound", "wall_clock", "status"]
    writer.writerow(header)
    for r in sorted(results, key=lambda r: (r.gamma, r.l_frac, r.model, r.replicate)):
        row = [repr(r.gamma), repr(r.l_frac), r.model, r.replicate, r.seed]
        row += [repr(float(v)) for v in r.rmse]
        row += [repr(float(v)) for v in r.rmse_heldout]
        row += [repr(float(r.label_acc)), repr(float(r.bound)), repr(float(r.wall_clock)), r.status]
        writer.writerow(row)
    return buf.getvalue()


def summarize_results(results, M):
    """Per-cell means and standard deviations, JSON-ready."""
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
            entry["rmse_mean"] = [float(v) for v in rmse.mean(axis=0)]
            entry["rmse_sd"] = [float(v) for v in rmse.std(axis=0)]
            accs = np.array([r.label_acc for r in ok])
            if not np.all(np.isnan(accs)):
                entry["label_accuracy_mean"] = float(np.nanmean(accs))
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# CSV dataset interchange
# ---------------------------------------------------------------------------


class CsvFormatError(ValueError):
    pass


def ingest_csv(path, n_outputs=None):
    """Read a dataset CSV: x columns, y, label (empty = unlabeled), pi_* priors.

    The header row is required; row order is preserved; malformed cells
    raise with their 1-based line number.  pi_* cells may be empty on
    unlabeled rows only.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("%s: empty file" % path)
        rows = list(reader)
    x_cols = [i for i, h in enumerate(header) if h == "x" or h.startswith("x_")]
    if not x_cols or "y" not in header:
        raise CsvFormatError("%s: header must contain x (or x_*) and y columns" % path)
    y_col = header.index("y")
    label_col = header.index("label") if "label" in header else None
    pi_cols = [i for i, h in enumerate(header) if h.startswith("pi_")]
    X, y, labels, priors = [], [], [], []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise CsvFormatError("%s: line %d has %d cells, expected %d"
                                 % (path, lineno, len(row), len(header)))
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


def write_csv(ds: Dataset, path, with_priors=True):
    """Write a dataset in the ingest_csv schema (exact float round trip)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = (["x"] if ds.d == 1 else ["x_%d" % (j + 1) for j in range(ds.d)]) + ["y", "label"]
        M = ds.prior_pi.shape[1]
        if with_priors:
            header += ["pi_%d" % (m + 1) for m in range(M)]
        writer.writerow(header)
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.X[i]] + [repr(float(ds.y[i]))]
            row.append(str(ds.labels[i]) if ds.labels[i] > 0 else "")
            if with_priors:
                if ds.labels[i] > 0:
                    row += [repr(float(v)) for v in ds.prior_pi[i]]
                else:
                    row += [""] * M
            writer.writerow(row)


def write_truth(truth: GroundTruth, curves_path, labels_path):
    with open(curves_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        M = truth.curves.shape[0]
        writer.writerow(["x"] + ["f_%d" % (m + 1) for m in range(M)]
                        + ["y_heldout_%d" % (m + 1) for m in range(M)])
        for g in range(truth.grid.shape[0]):
            row = [repr(float(truth.grid[g, 0]))]
            row += [repr(float(truth.curves[m, g])) for m in range(M)]
            row += [repr(float(truth.heldout_y[m, g])) for m in range(M)]
            writer.writerow(row)
    with open(labels_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["row", "label"])
        for i, lab in enumerate(truth.labels):
            writer.writerow([i, int(lab)])


def read_truth_curves(path):
    """Inverse of write_truth for the curves file: (grid, curves, heldout)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    M = sum(1 for h in header if h.startswith("f_"))
    grid = np.array([[float(r[0])] for r in rows])
    curves = np.array([[float(r[1 + m]) for r in rows] for m in range(M)])
    heldout = np.array([[float(r[1 + M + m]) for r in rows] for m in range(M)])
    return grid, curves, heldout


def write_prediction_csv(pred: Prediction, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        M = pred.mean.shape[0]
        writer.writerow(
            ["x"]
            + ["mean_%d" % (m + 1) for m in range(M)]
            + ["var_%d" % (m + 1) for m in range(M)]
        )
        for g in range(pred.x_star.shape[0]):
            row = [repr(float(pred.x_star[g, 0]))]
            row += [repr(float(pred.mean[m, g])) for m in range(M)]
            row += [repr(float(pred.var_diag[m, g])) for m in range(M)]
            writer.writerow(row)


def write_pihat_csv(state: VariationalState, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        M = state.pi_hat.shape[1]
        writer.writerow(["row"] + ["pi_%d" % (m + 1) for m in range(M)])
        for i in range(state.pi_hat.shape[0]):
            writer.writerow([i] + [repr(float(v)) for v in state.pi_hat[i]])


def write_summary_json(summary, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

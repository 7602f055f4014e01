"""Command-line surface: generate / fit / predict / evaluate / benchmark
plus the gradcheck and oracle-check verification commands.

Configuration files are flat ``key = value`` text; keys mirror the
ModelConfig / OptimizerConfig / SyntheticConfig field names in camelCase
(``_KNOWN_KEY`` below lists every key some subcommand reads), lists are
comma-separated, and ``#`` starts a comment.

The files of the chain; ``experiments`` writes and reads the CSV tables
(header row first; m = 1..M runs over the outputs) and writes the JSON:

  file              columns or keys                        written by    read by
  dataset.csv       x (or x_1..x_d), y, label, pi_m (label  generate      fit, predict
                    and pi_m empty on unlabeled rows)
  truth_curves.csv  x, f_m (noiseless), y_heldout_m        generate      evaluate
  truth_labels.csv  row, label (the true source)           generate      evaluate
  model.json        hp, alpha0, config, state, data hash   fit           predict
  fitreport.json    bound_trajectory, evaluations, ...     fit           -
  curves.csv        x, mean_m, var_m on the grid           fit, predict  evaluate
  pihat.csv         row, pi_m (fitted; none for SCMGP)     fit           evaluate
  metrics.json      rmse, rmse_heldout, label_accuracy     evaluate      -
  results.csv       gamma, l, model, replicate, seed,      benchmark     -
                    rmse_m, rmse_heldout_m, label_accuracy,
                    bound, wall_clock, status (ok or the error)
  summary.json      per (gamma, l, model) cell: failed,    benchmark     -
                    replicates, rmse_mean, rmse_sd, ...
"""

import argparse
import hashlib
import json
import os
import re
import sys
from dataclasses import fields, replace

import numpy as np

from . import checks
from .experiments import (
    EVAL_GRID_SIZE,
    MODEL_NAMES,
    SyntheticConfig,
    fit_model,
    generate_synthetic,
    ingest_csv,
    label_accuracy,
    paper_generating_hyperparams,
    read_pihat_csv,
    read_prediction_csv,
    read_truth_curves,
    read_truth_labels,
    rmse_eval,
    run_benchmark,
    summarize_results,
    write_csv,
    write_json,
    write_pihat_csv,
    write_prediction_csv,
    write_results,
    write_truth,
)
from .kernels import (
    HyperParams,
    IndependentSEHyperParams,
    InducingInputs,
    LatentKernelParams,
    NoiseParams,
    OutputKernelParams,
    SEKernelParams,
)
from .model import DatasetError, ModelConfig, VariationalState, validate_dataset
from .predict import posterior_predict
from .trainer import OptimizerConfig


# the keys some subcommand reads, so that one file can serve generate, fit and
# benchmark; S<m>, Lm<m> and sigma<m> are the synthetic config's per-output keys
_KNOWN_KEY = re.compile(
    r"M|Q|alpha0|useDirichlet|tolRelBound|emOuterIters|emInnerStatIters"
    r"|emInnerHypIters|batchSize|restarts|optimizeAlpha0|perSourceCount|gamma|lFrac|bias"
    r"|noiseLabelFlip|L|xRange|gammas|lFracs|models|replicates|(S|Lm|sigma)[1-9][0-9]*")


def _check_keys(keys, where=None):
    """Raise ValueError naming the first of `keys` no subcommand reads (and `where` it was read)."""
    for key in keys:
        if not _KNOWN_KEY.fullmatch(key):
            raise ValueError("%sunknown config key %r" % (where + ": " if where else "", key))


def parse_config(path):
    """Flat key/value config: `key = value`, `#` comments, commas for lists."""
    out = {}
    if path is None:
        return out
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            for sep in ("=", ":"):
                if sep in line:
                    key, _, value = line.partition(sep)
                    key = key.strip()
                    _check_keys([key], "%s: line %d" % (path, lineno))
                    out[key] = value.strip()
                    break
            else:
                raise ValueError("%s: line %d is not `key = value`" % (path, lineno))
    return out


_BOOLS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}


def _get(cfg, key, cast, default):
    if key not in cfg:
        return default
    v = cfg[key]
    if cast is bool:
        word = v.strip().lower()
        if word not in _BOOLS:
            raise ValueError("config key %s: %r is not a boolean (true/false, yes/no, on/off, 1/0)"
                             % (key, v))
        return _BOOLS[word]
    return cast(v)


def _get_list(cfg, key, cast, default):
    if key not in cfg:
        return default
    return [cast(v.strip()) for v in cfg[key].split(",") if v.strip()]


def model_config_from(cfg_map, args):
    _check_keys(cfg_map)
    alpha0 = args.alpha0 if args.alpha0 is not None else _get(cfg_map, "alpha0", float, 0.3)
    return ModelConfig(
        M=_get(cfg_map, "M", int, 2),
        Q=_get(cfg_map, "Q", int, 30),
        alpha0=alpha0,
        use_dirichlet=_get(cfg_map, "useDirichlet", bool, True),
    )


def optimizer_config_from(cfg_map, seed):
    """OptimizerConfig(seed=seed) with the fields the file sets; the others keep their defaults."""
    _check_keys(cfg_map)
    given = {}
    for f in fields(OptimizerConfig):
        key = re.sub(r"_([a-z0-9])", lambda m: m.group(1).upper(), f.name)
        if key in cfg_map:
            given[f.name] = _get(cfg_map, key, f.type, None)
    return OptimizerConfig(seed=seed, **given)


def synthetic_config_from(cfg_map, seed):
    _check_keys(cfg_map)
    M = _get(cfg_map, "M", int, 2)
    xr = _get_list(cfg_map, "xRange", float, [-1.0, 1.0])
    hp = paper_generating_hyperparams(M)
    outs = []
    for m in range(M):
        S = _get(cfg_map, "S%d" % (m + 1), float, hp.outputs[m].S)
        Lm = _get(cfg_map, "Lm%d" % (m + 1), float, float(hp.outputs[m].Lm[0]))
        outs.append(OutputKernelParams(S=S, Lm=np.array([Lm])))
    L = _get(cfg_map, "L", float, float(hp.latent.L[0]))
    sigma = [_get(cfg_map, "sigma%d" % (m + 1), float, 0.25) for m in range(M)]
    # the paper's inducing inputs, the configured kernel and noise
    hp = replace(hp, latent=LatentKernelParams(L=np.array([L])), outputs=outs,
                 noise=NoiseParams(sigma=np.array(sigma)))
    return SyntheticConfig(
        M=M,
        per_source_count=_get(cfg_map, "perSourceCount", int, 120),
        gamma=_get(cfg_map, "gamma", float, 1.0),
        l_frac=_get(cfg_map, "lFrac", float, 1.0),
        bias=_get(cfg_map, "bias", float, 0.0),
        hp=hp,
        noise_label_flip=_get(cfg_map, "noiseLabelFlip", float, 0.0),
        x_range=(xr[0], xr[1]),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# model (de)serialization
# ---------------------------------------------------------------------------


def hp_to_json(hp):
    if isinstance(hp, IndependentSEHyperParams):
        return {
            "kind": "independent",
            "outputs": [{"amp": o.amp, "prec": o.prec} for o in hp.outputs],
            "sigma": hp.noise.sigma,
        }
    return {
        "kind": "convolved",
        "L": hp.latent.L,
        "outputs": [{"S": o.S, "Lm": o.Lm} for o in hp.outputs],
        "sigma": hp.noise.sigma,
        "W": hp.inducing.W,
    }


def hp_from_json(d):
    if d["kind"] == "independent":
        return IndependentSEHyperParams(
            outputs=[SEKernelParams(amp=o["amp"], prec=np.array(o["prec"])) for o in d["outputs"]],
            noise=NoiseParams(sigma=np.array(d["sigma"])),
        )
    return HyperParams(
        latent=LatentKernelParams(L=np.array(d["L"])),
        outputs=[OutputKernelParams(S=o["S"], Lm=np.array(o["Lm"])) for o in d["outputs"]],
        noise=NoiseParams(sigma=np.array(d["sigma"])),
        inducing=InducingInputs(W=np.array(d["W"])),
    )


class DataMismatchError(ValueError):
    """The dataset given to predict is not the one the model was fitted to."""


def data_fingerprint(ds):
    """N and a sha256 over the shapes and bytes of X, y and the labels."""
    h = hashlib.sha256()
    for a in (ds.X.astype("<f8"), ds.y.astype("<f8"), ds.labels.astype("<i8")):
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return {"n": int(ds.n), "sha256": h.hexdigest()}


def save_model(path, report, cfg, ds):
    """Write model.json, recording the fingerprint of the data `ds` it was fitted to."""
    doc = {
        "hp": hp_to_json(report.final_hp),
        "alpha0": report.final_alpha0,
        "config": {"M": cfg.M, "Q": cfg.Q, "useDirichlet": cfg.use_dirichlet},
        "bound": report.bound_trajectory[-1],
        "data": data_fingerprint(ds),
    }
    if report.final_state is not None:  # pi_hat, and q(v) after a stochastic fit
        doc["state"] = {k: v for k, v in vars(report.final_state).items() if v is not None}
    write_json(doc, path)


def _describe(fp):
    if fp is None:
        return "no data fingerprint"
    return "N=%d sha256=%s" % (fp["n"], fp["sha256"])


def load_model(path):
    """(hp, cfg, state, fingerprint of the training data or None) from model.json."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    hp = hp_from_json(doc["hp"])
    cfg = ModelConfig(
        M=doc["config"]["M"],
        Q=doc["config"]["Q"],
        alpha0=doc["alpha0"],
        use_dirichlet=doc["config"]["useDirichlet"],
    )
    state = None
    if "state" in doc:
        state = VariationalState(**{k: np.array(v) for k, v in doc["state"].items()})
    return hp, cfg, state, doc.get("data")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args):
    cfg_map = parse_config(args.config)
    sc = synthetic_config_from(cfg_map, args.seed)
    ds, truth = generate_synthetic(sc)
    os.makedirs(args.out, exist_ok=True)
    write_csv(ds, os.path.join(args.out, "dataset.csv"))
    write_truth(
        truth,
        os.path.join(args.out, "truth_curves.csv"),
        os.path.join(args.out, "truth_labels.csv"),
    )
    print("generated N=%d observations (%d labeled) -> %s" % (ds.n, ds.n_labeled, args.out))
    return 0


def _read_dataset(path, n_outputs):
    """The dataset CSV at `path`; the grid and files of fit and predict are one-dimensional."""
    ds = ingest_csv(path, n_outputs=n_outputs)
    if ds.d != 1:
        raise DatasetError("%s has %d input columns; fit and predict take one" % (path, ds.d))
    return ds


def _write_curves(cfg_map, ds, cfg, hp, state, out):
    """Predict on the evaluation grid over xRange (default: the data's span) into curves.csv."""
    xr = _get_list(cfg_map, "xRange", float, [float(ds.X.min()), float(ds.X.max())])
    grid = np.linspace(xr[0], xr[1], EVAL_GRID_SIZE)[:, None]
    pred = posterior_predict(ds, cfg, hp, state, grid)
    os.makedirs(out, exist_ok=True)
    write_prediction_csv(pred, os.path.join(out, "curves.csv"))


def cmd_fit(args):
    cfg_map = parse_config(args.config)
    ds = _read_dataset(args.data, _get(cfg_map, "M", int, None))
    cfg = model_config_from(cfg_map, args)
    validate_dataset(ds, cfg)
    opt = optimizer_config_from(cfg_map, args.seed)
    report = fit_model(args.model, ds, cfg, opt, bound=args.bound)
    os.makedirs(args.out, exist_ok=True)
    save_model(os.path.join(args.out, "model.json"), report, cfg, ds)
    _write_curves(cfg_map, ds, cfg, report.final_hp, report.final_state, args.out)
    if report.final_state is not None:
        write_pihat_csv(report.final_state, os.path.join(args.out, "pihat.csv"))
    keys = ("bound_trajectory", "converged", "wall_clock", "evaluations", "pi_steps", "seed",
            "termination")
    write_json(dict({k: getattr(report, k) for k in keys}, alpha0=report.final_alpha0),
               os.path.join(args.out, "fitreport.json"))
    print(
        "fit %s (%s): bound %.6f after %d evaluations (%.1fs)"
        % (args.model, args.bound, report.bound_trajectory[-1], report.evaluations,
           report.wall_clock)
    )
    return 0


def cmd_predict(args):
    cfg_map = parse_config(args.config)
    hp, cfg, state, fitted_to = load_model(args.params)
    ds = _read_dataset(args.data, cfg.M)
    given = data_fingerprint(ds)
    if fitted_to != given:
        raise DataMismatchError(
            "%s was fitted to other data: the model records %s, %s is %s"
            % (args.params, _describe(fitted_to), args.data, _describe(given))
        )
    _write_curves(cfg_map, ds, cfg, hp, state, args.out)
    print("wrote predictions for %d outputs -> %s" % (cfg.M, args.out))
    return 0


def cmd_evaluate(args):
    curves, heldout = read_truth_curves(args.truth)
    pred = read_prediction_csv(args.pred)
    metrics = {"rmse": rmse_eval(pred, curves), "rmse_heldout": rmse_eval(pred, heldout)}
    if args.pihat:  # main() requires --truth-labels with it
        metrics["label_accuracy"] = label_accuracy(
            VariationalState(read_pihat_csv(args.pihat)), read_truth_labels(args.truth_labels))
    os.makedirs(args.out, exist_ok=True)
    sys.stdout.write(write_json(metrics, os.path.join(args.out, "metrics.json")))
    return 0


def cmd_benchmark(args):
    cfg_map = parse_config(args.config)
    gammas = _get_list(cfg_map, "gammas", float, [0.2, 0.3, 0.5])
    l_fracs = _get_list(cfg_map, "lFracs", float, [0.2, 0.3, 0.5])
    models = _get_list(cfg_map, "models", str, ["wsmgp", "omgp", "omgp-ws", "scmgp"])
    replicates = _get(cfg_map, "replicates", int, 10)
    cfg = model_config_from(cfg_map, args)
    opt = optimizer_config_from(cfg_map, args.seed)
    synth = synthetic_config_from(cfg_map, args.seed)
    results = run_benchmark(gammas, l_fracs, models, replicates, cfg, opt, synth)
    os.makedirs(args.out, exist_ok=True)
    write_results(results, cfg.M, os.path.join(args.out, "results.csv"))
    write_json(summarize_results(results), os.path.join(args.out, "summary.json"))
    n_fail = sum(1 for r in results if r.status != "ok")
    print("benchmark finished: %d cells, %d failed -> %s" % (len(results), n_fail, args.out))
    return 1 if n_fail else 0


def cmd_gradcheck(args):
    failures = 0
    for name, fn in (
        ("cvb", checks.gradcheck_cvb),
        ("svb", checks.gradcheck_svb),
        ("vterm", checks.gradcheck_vterm),
    ):
        if args.bound and name != args.bound and name != "vterm":
            continue
        report = fn(args.seed)
        status = "PASS" if report.max_rel_error < 1e-4 else "FAIL"
        print("gradcheck %-5s: max rel err %.3e  %s" % (name, report.max_rel_error, status))
        failures += status == "FAIL"
    return 1 if failures else 0


def cmd_oracle_check(args):
    rep = checks.kernel_quadrature_check(seed=args.seed, n_draws=20)
    ok1 = max(rep.max_rel_err_fu, rep.max_rel_err_ff) < 1e-6
    print(
        "kernel quadrature: fu %.3e ff %.3e over %d draws  %s"
        % (rep.max_rel_err_fu, rep.max_rel_err_ff, rep.n_draws, "PASS" if ok1 else "FAIL")
    )
    margins = checks.bound_validity_margins(range(args.seed, args.seed + 10))
    ok2 = np.all(margins >= -1e-8)
    print(
        "bound validity: min margin %.6f over %d instances  %s"
        % (margins.min(), len(margins), "PASS" if ok2 else "FAIL")
    )
    return 0 if (ok1 and ok2) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wsmgp",
        description="Weakly-supervised multi-output GP regression toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, text, data=False, params=False):
        p = sub.add_parser(name, help=text)
        p.set_defaults(fn=fn)
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out")
        if data:
            p.add_argument("--data", required=True, help="dataset CSV")
        if params:
            p.add_argument("--params", required=True, help="model.json from fit")
        return p

    command("generate", cmd_generate, "draw a synthetic dataset")

    p = command("fit", cmd_fit, "fit a model to a dataset CSV", data=True)
    p.add_argument("--model", default="wsmgp", choices=MODEL_NAMES)
    p.add_argument("--bound", default="cvb", choices=["cvb", "svb"])
    p.add_argument("--alpha0", type=float, default=None)

    command("predict", cmd_predict, "predict on a grid from a saved model", data=True, params=True)

    evaluate = command("evaluate", cmd_evaluate, "RMSE/label metrics from prediction files")
    evaluate.add_argument("--pred", required=True, help="curves.csv from fit/predict")
    evaluate.add_argument("--truth", required=True, help="truth_curves.csv from generate")
    evaluate.add_argument("--pihat", default=None)
    evaluate.add_argument("--truth-labels", dest="truth_labels", default=None)

    p = command("benchmark", cmd_benchmark, "run the (gamma, l, model) grid")
    p.add_argument("--alpha0", type=float, default=None)

    p = command("gradcheck", cmd_gradcheck, "finite-difference gradient verification")
    p.add_argument("--bound", default=None, choices=["cvb", "svb"])

    command("oracle-check", cmd_oracle_check, "kernel quadrature and bound validity")

    args = parser.parse_args(argv)
    if args.command == "evaluate" and (args.pihat is None) != (args.truth_labels is None):
        evaluate.error("label accuracy needs --pihat and --truth-labels; %s is missing"
                       % ("--pihat" if args.pihat is None else "--truth-labels"))
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

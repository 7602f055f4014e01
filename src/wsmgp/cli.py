"""Command-line surface: generate / fit / predict / evaluate / benchmark
plus the gradcheck and oracle-check verification commands.

Configuration files are flat ``key = value`` text; keys mirror the
ModelConfig / OptimizerConfig / SyntheticConfig field names (camelCase as
documented in the README), lists are comma-separated, and ``#`` starts a
comment.
"""

import argparse
import hashlib
import json
import os
import re
import sys

import numpy as np

from . import checks
from .experiments import (
    EVAL_GRID_SIZE,
    SyntheticConfig,
    fit_model,
    generate_synthetic,
    ingest_csv,
    label_accuracy,
    paper_generating_hyperparams,
    read_truth_curves,
    results_to_csv,
    rmse_eval,
    run_benchmark,
    summarize_results,
    write_csv,
    write_pihat_csv,
    write_prediction_csv,
    write_summary_json,
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
from .model import ModelConfig, VariationalState
from .predict import posterior_predict
from .trainer import OptimizerConfig


# the keys some subcommand reads, so that one file can serve generate, fit and
# benchmark; S<m>, Lm<m> and sigma<m> are the synthetic config's per-output keys
_KNOWN_KEY = re.compile(
    r"M|Q|alpha0|useDirichlet|maxIter|tolRelBound|emOuterIters|emInnerStatIters"
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


def _get(cfg, key, cast, default):
    if key not in cfg:
        return default
    v = cfg[key]
    if cast is bool:
        return v.strip().lower() in ("1", "true", "yes", "on")
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
    _check_keys(cfg_map)
    return OptimizerConfig(
        max_iter=_get(cfg_map, "maxIter", int, 200),
        tol_rel_bound=_get(cfg_map, "tolRelBound", float, 1e-7),
        em_outer_iters=_get(cfg_map, "emOuterIters", int, 30),
        em_inner_stat_iters=_get(cfg_map, "emInnerStatIters", int, 25),
        em_inner_hyp_iters=_get(cfg_map, "emInnerHypIters", int, 10),
        batch_size=_get(cfg_map, "batchSize", int, 0),
        seed=seed,
        restarts=_get(cfg_map, "restarts", int, 3),
        optimize_alpha0=_get(cfg_map, "optimizeAlpha0", bool, False),
    )


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
    sigma = np.array(
        [_get(cfg_map, "sigma%d" % (m + 1), float, 0.25) for m in range(M)]
    )
    hp = HyperParams(
        latent=LatentKernelParams(L=np.array([L])),
        outputs=outs,
        noise=NoiseParams(sigma=sigma),
        inducing=hp.inducing,
    )
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
            "outputs": [
                {"amp": o.amp, "prec": o.prec.tolist()} for o in hp.outputs
            ],
            "sigma": hp.noise.sigma.tolist(),
        }
    return {
        "kind": "convolved",
        "L": hp.latent.L.tolist(),
        "outputs": [{"S": o.S, "Lm": o.Lm.tolist()} for o in hp.outputs],
        "sigma": hp.noise.sigma.tolist(),
        "W": hp.inducing.W.tolist(),
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
    state = report.final_state
    if state is not None:
        doc["state"] = {"pi_hat": state.pi_hat.tolist()}
        if state.mu_u is not None:
            doc["state"].update(mu_u=state.mu_u.tolist(), Su=state.Su.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
        st = doc["state"]
        state = VariationalState(np.array(st["pi_hat"]))
        if "mu_u" in st:
            state.mu_u, state.Su = np.array(st["mu_u"]), np.array(st["Su"])
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


def cmd_fit(args):
    cfg_map = parse_config(args.config)
    ds = ingest_csv(args.data, n_outputs=_get(cfg_map, "M", int, None))
    cfg = model_config_from(cfg_map, args)
    opt = optimizer_config_from(cfg_map, args.seed)
    report = fit_model(args.model, ds, cfg, opt, bound=args.bound)
    os.makedirs(args.out, exist_ok=True)
    save_model(os.path.join(args.out, "model.json"), report, cfg, ds)
    xr = _get_list(cfg_map, "xRange", float, [float(ds.X.min()), float(ds.X.max())])
    grid = np.linspace(xr[0], xr[1], EVAL_GRID_SIZE)[:, None]
    pred = posterior_predict(ds, cfg, report.final_hp, report.final_state, grid)
    write_prediction_csv(pred, os.path.join(args.out, "curves.csv"))
    if report.final_state is not None:
        write_pihat_csv(report.final_state, os.path.join(args.out, "pihat.csv"))
    with open(os.path.join(args.out, "fitreport.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "bound_trajectory": [float(v) for v in report.bound_trajectory],
                "converged": bool(report.converged),
                "wall_clock": report.wall_clock,
                "evaluations": report.evaluations,
                "seed": report.seed,
                "alpha0": report.final_alpha0,
                "termination": report.termination,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    print(
        "fit %s (%s): bound %.6f after %d evaluations (%.1fs)"
        % (args.model, args.bound, report.bound_trajectory[-1], report.evaluations,
           report.wall_clock)
    )
    return 0


def cmd_predict(args):
    cfg_map = parse_config(args.config)
    hp, cfg, state, fitted_to = load_model(args.params)
    ds = ingest_csv(args.data, n_outputs=cfg.M)
    given = data_fingerprint(ds)
    if fitted_to != given:
        raise DataMismatchError(
            "%s was fitted to other data: the model records %s, %s is %s"
            % (args.params, _describe(fitted_to), args.data, _describe(given))
        )
    xr = _get_list(cfg_map, "xRange", float, [float(ds.X.min()), float(ds.X.max())])
    grid = np.linspace(xr[0], xr[1], EVAL_GRID_SIZE)[:, None]
    pred = posterior_predict(ds, cfg, hp, state, grid)
    os.makedirs(args.out, exist_ok=True)
    write_prediction_csv(pred, os.path.join(args.out, "curves.csv"))
    print("wrote predictions for %d outputs -> %s" % (cfg.M, args.out))
    return 0


def cmd_evaluate(args):
    grid, curves, heldout = read_truth_curves(args.truth)
    import csv as _csv

    with open(args.pred, newline="", encoding="utf-8") as fh:
        reader = _csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    M = sum(1 for h in header if h.startswith("mean_"))
    mean = np.array([[float(r[1 + m]) for r in rows] for m in range(M)])
    var = np.array([[float(r[1 + M + m]) for r in rows] for m in range(M)])
    from .predict import Prediction

    pred = Prediction(x_star=grid, mean=mean, var_diag=var)
    metrics = {
        "rmse": [float(v) for v in rmse_eval(pred, curves)],
        "rmse_heldout": [float(v) for v in rmse_eval(pred, heldout)],
    }
    if args.pihat and args.truth_labels:
        pihat = np.loadtxt(args.pihat, delimiter=",", skiprows=1)[:, 1:]
        labels = np.loadtxt(args.truth_labels, delimiter=",", skiprows=1)[:, 1].astype(int)
        metrics["label_accuracy"] = label_accuracy(VariationalState(pihat), labels)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "metrics.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(metrics, indent=2, sort_keys=True))
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
    with open(os.path.join(args.out, "results.csv"), "w", encoding="utf-8") as fh:
        fh.write(results_to_csv(results, cfg.M))
    write_summary_json(
        summarize_results(results, cfg.M), os.path.join(args.out, "summary.json")
    )
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

    def common(p, data=False, params=False):
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out")
        if data:
            p.add_argument("--data", required=True, help="dataset CSV")
        if params:
            p.add_argument("--params", required=True, help="model.json from fit")

    p = sub.add_parser("generate", help="draw a synthetic dataset")
    common(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("fit", help="fit a model to a dataset CSV")
    common(p, data=True)
    p.add_argument("--model", default="wsmgp",
                   choices=["wsmgp", "wsmgp-nodir", "omgp", "omgp-ws", "scmgp"])
    p.add_argument("--bound", default="cvb", choices=["cvb", "svb"])
    p.add_argument("--alpha0", type=float, default=None)
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("predict", help="predict on a grid from a saved model")
    common(p, data=True, params=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("evaluate", help="RMSE/label metrics from prediction files")
    common(p)
    p.add_argument("--pred", required=True, help="curves.csv from fit/predict")
    p.add_argument("--truth", required=True, help="truth_curves.csv from generate")
    p.add_argument("--pihat", default=None)
    p.add_argument("--truth-labels", dest="truth_labels", default=None)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("benchmark", help="run the (gamma, l, model) grid")
    common(p)
    p.add_argument("--alpha0", type=float, default=None)
    p.set_defaults(fn=cmd_benchmark)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    common(p)
    p.add_argument("--bound", default=None, choices=["cvb", "svb"])
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("oracle-check", help="kernel quadrature and bound validity")
    common(p)
    p.set_defaults(fn=cmd_oracle_check)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

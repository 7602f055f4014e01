"""The CLI chain generate -> fit -> predict -> evaluate on the files it writes itself."""

import argparse
import json

import numpy as np
import pytest

from wsmgp import cli
from wsmgp.experiments import write_csv
from wsmgp.model import DatasetError, make_dataset
from wsmgp.trainer import OptimizerConfig

CONFIG = """\
M = 2
Q = 6
perSourceCount = 12
gamma = 1.0
lFrac = 0.5
restarts = 1
emOuterIters = 2
emInnerStatIters = 4
emInnerHypIters = 2
batchSize = 10
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "cfg.txt").write_text(CONFIG)
    return tmp_path


def _run(*argv):
    assert cli.main([str(a) for a in argv]) == 0


def _generate(wd, name, seed):
    _run("generate", "--config", wd / "cfg.txt", "--seed", seed, "--out", wd / name)
    return wd / name


def _fit(wd, data_dir, bound, model="wsmgp"):
    out = wd / ("fit_%s_%s" % (model, bound))
    _run("fit", "--config", wd / "cfg.txt", "--data", data_dir / "dataset.csv",
         "--model", model, "--bound", bound, "--out", out)
    return out


@pytest.mark.parametrize("model,bound", [
    ("wsmgp", "cvb"), ("wsmgp", "svb"), ("wsmgp-nodir", "cvb"), ("wsmgp-nodir", "svb"),
    ("omgp", "cvb"), ("omgp-ws", "cvb"), ("scmgp", "cvb"),
])
def test_round_trip(workdir, model, bound):
    gen = _generate(workdir, "gen", 3)
    fit = _fit(workdir, gen, bound, model)
    doc = json.loads((fit / "model.json").read_text())
    assert doc["data"]["n"] == 24
    # the model and the configuration its fit used: no Dirichlet hyperprior
    # in the ablation and the two OMGP baselines
    assert doc["model"] == model
    assert doc["config"] == {"M": 2, "Q": 6,
                             "useDirichlet": model not in ("wsmgp-nodir", "omgp", "omgp-ws")}
    # only a stochastic fit has a q(u); a collapsed one integrates u out
    state = doc.get("state", {})
    assert ("mu_u" in state) == ("Su" in state) == (bound == "svb")
    # one stopping record per L-BFGS-B run (restarts = 1): a stochastic fit
    # runs one per EM round (emOuterIters = 2), a collapsed WSMGP, OMGP or
    # OMGP-WS fit round 0 and its profiled run, and SCMGP its single run
    termination = json.loads((fit / "fitreport.json").read_text())["termination"]
    assert len(termination) == (1 if model == "scmgp" else 2)
    assert all(set(t) == {"message", "nit", "nfev", "success"} for t in termination)
    pred = workdir / "pred"
    _run("predict", "--config", workdir / "cfg.txt", "--data", gen / "dataset.csv",
         "--params", fit / "model.json", "--out", pred)
    # predicting on the training data reproduces the fit's own curves
    assert (pred / "curves.csv").read_text() == (fit / "curves.csv").read_text()
    ev = workdir / "eval"
    labels = []
    if (fit / "pihat.csv").exists():  # every model but SCMGP assigns the rows
        labels = ["--pihat", fit / "pihat.csv", "--truth-labels", gen / "truth_labels.csv"]
    _run("evaluate", "--pred", pred / "curves.csv", "--truth", gen / "truth_curves.csv",
         *labels, "--out", ev)
    metrics = json.loads((ev / "metrics.json").read_text())
    assert len(metrics["rmse"]) == 2 and np.all(np.isfinite(metrics["rmse"]))
    assert (model == "scmgp") == ("label_accuracy" not in metrics)
    if labels:
        assert 0.0 <= metrics["label_accuracy"] <= 1.0


def _relabel(lines, change):
    """dataset.csv lines with every label swapped between the two outputs, or removed."""
    out = [lines[0]]
    for line in lines[1:]:
        x, y, label, *pi = line.split(",")
        if label and change == "swap":
            label, pi = str(3 - int(label)), pi[::-1]
        elif label:
            label, pi = "", [""] * len(pi)
        out.append(",".join([x, y, label, *pi]))
    return out


def test_omgp_curves_ignore_the_labels(workdir):
    # OMGP fits the data without its labels, and fit and predict both
    # predict from that data, so the labels change no byte of curves.csv
    gen = _generate(workdir, "gen", 3)
    lines = (gen / "dataset.csv").read_text().splitlines()
    curves = []
    for change in ("none", "swap", "remove"):
        data = workdir / ("%s.csv" % change)
        data.write_text("\n".join(lines if change == "none" else _relabel(lines, change)) + "\n")
        fit, pred = workdir / ("fit_" + change), workdir / ("pred_" + change)
        _run("fit", "--config", workdir / "cfg.txt", "--data", data, "--model", "omgp",
             "--out", fit)
        _run("predict", "--config", workdir / "cfg.txt", "--data", data,
             "--params", fit / "model.json", "--out", pred)
        curves.append((fit / "curves.csv").read_text())
        assert (pred / "curves.csv").read_text() == curves[-1]
    assert lines != _relabel(lines, "swap") != _relabel(lines, "remove")
    assert curves[1] == curves[0] and curves[2] == curves[0]


def _edit(lines, change):
    """dataset.csv lines with one change: another y, a label removed, or a row dropped."""
    header, rows = lines[0], [r.split(",") for r in lines[1:]]
    if change == "y":
        rows[0][1] = repr(float(rows[0][1]) + 1e-9)
    elif change == "label":
        i = next(i for i, r in enumerate(rows) if r[2])
        rows[i][2:] = [""] * (len(rows[i]) - 2)
    else:
        rows = rows[:-1]
    return [header] + [",".join(r) for r in rows]


@pytest.mark.parametrize("change", ["y", "label", "rows"])
def test_predict_rejects_other_data(workdir, change):
    gen = _generate(workdir, "gen", 3)
    fit = _fit(workdir, gen, "cvb")
    other = workdir / "other.csv"
    lines = (gen / "dataset.csv").read_text().splitlines()
    other.write_text("\n".join(_edit(lines, change)) + "\n")
    fitted = json.loads((fit / "model.json").read_text())["data"]
    given = cli.data_fingerprint(cli.ingest_csv(other, n_outputs=2))
    assert given["sha256"] != fitted["sha256"]
    assert (given["n"] == fitted["n"]) == (change != "rows")
    with pytest.raises(cli.DataMismatchError) as exc:
        cli.main(["predict", "--data", str(other), "--params", str(fit / "model.json"),
                  "--out", str(workdir / "pred")])
    assert fitted["sha256"] in str(exc.value) and given["sha256"] in str(exc.value)
    assert not (workdir / "pred").exists()


@pytest.mark.parametrize("key,field", [
    ("batchSize", "batch_size"), ("emInnerStatIters", "em_inner_stat_iters"),
    ("emInnerHypIters", "em_inner_hyp_iters"),
])
def test_negative_counts_are_rejected_by_name(key, field):
    with pytest.raises(ValueError, match=field):
        cli.optimizer_config_from({key: "-5"}, seed=0)


def test_optimizer_defaults_are_the_config_class_defaults():
    assert cli.optimizer_config_from({}, 7) == OptimizerConfig(seed=7)
    # a key the file sets is read; the others keep their defaults
    assert cli.optimizer_config_from({"optimizeAlpha0": "false"}, 7) == OptimizerConfig(
        seed=7, optimize_alpha0=False)


_NO_ALPHA0 = argparse.Namespace(alpha0=None)  # no --alpha0 on the command line


@pytest.mark.parametrize("word, value", [
    ("true", True), ("Yes", True), (" on ", True), ("1", True),
    ("false", False), ("NO", False), ("off", False), ("0", False),
])
def test_booleans_read_the_listed_words(word, value):
    assert cli.optimizer_config_from({"optimizeAlpha0": word}, 0).optimize_alpha0 is value
    assert cli.model_config_from({"useDirichlet": word}, _NO_ALPHA0).use_dirichlet is value


@pytest.mark.parametrize("word", ["flase", "ture", "", "2", "none"])
def test_other_boolean_words_are_rejected_by_key_and_value(word):
    # an unrecognised word used to read as false
    with pytest.raises(ValueError, match="optimizeAlpha0: %r" % word):
        cli.optimizer_config_from({"optimizeAlpha0": word}, 0)
    with pytest.raises(ValueError, match="useDirichlet: %r" % word):
        cli.model_config_from({"useDirichlet": word}, _NO_ALPHA0)


@pytest.mark.parametrize("key", ["stepSize", "batchsize"])
def test_unknown_config_keys_are_rejected_by_name(workdir, key):
    # a deleted option and a misspelt one; neither may fall back to the defaults
    with pytest.raises(ValueError, match="unknown config key '%s'" % key):
        cli.optimizer_config_from({key: "10"}, seed=0)
    bad = workdir / "bad.txt"
    bad.write_text(CONFIG + "%s = 10\n" % key)
    with pytest.raises(ValueError, match="line %d: unknown config key '%s'"
                       % (CONFIG.count("\n") + 1, key)) as exc:
        cli.main(["fit", "--config", str(bad), "--data", str(workdir / "dataset.csv")])
    assert str(bad) in str(exc.value)
    # per-output keys of the synthetic config are known for any output index
    good = workdir / "good.txt"
    good.write_text(CONFIG + "S1 = 4\nLm2 = 150\nsigma2 = 0.3\n")
    assert cli.parse_config(good)["sigma2"] == "0.3"


@pytest.mark.parametrize("prior", [("0.3", "0.3"), ("-0.5", "1.5")])
def test_fit_rejects_an_invalid_label_prior_by_row(workdir, prior):
    data = workdir / "bad_prior.csv"
    rows = ["0.1,0.5,,,", "0.2,0.4,1,0.9,0.1", "0.3,0.2,2,%s,%s" % prior, "0.4,0.1,,,"]
    data.write_text("x,y,label,pi_1,pi_2\n" + "\n".join(rows) + "\n")
    with pytest.raises(DatasetError, match="prior row 2 "):
        cli.main(["fit", "--config", str(workdir / "cfg.txt"), "--data", str(data),
                  "--out", str(workdir / "fit")])
    assert not (workdir / "fit").exists()


def test_fit_and_predict_reject_two_input_columns(workdir):
    # their grid and files are one-dimensional; a 1-column grid would
    # broadcast against 2-column data into finite but wrong curves
    rng = np.random.default_rng(0)
    data = workdir / "two_columns.csv"
    write_csv(make_dataset(rng.uniform(-1, 1, (20, 2)), rng.normal(size=20),
                           labels=np.tile([0, 1, 2, 0], 5), n_outputs=2), str(data))
    with pytest.raises(DatasetError, match="2 input columns"):
        cli.main(["fit", "--config", str(workdir / "cfg.txt"), "--data", str(data),
                  "--out", str(workdir / "fit2")])
    assert not (workdir / "fit2").exists()
    fit = _fit(workdir, _generate(workdir, "gen", 3), "cvb")
    with pytest.raises(DatasetError, match="2 input columns"):
        cli.main(["predict", "--data", str(data), "--params", str(fit / "model.json"),
                  "--out", str(workdir / "pred2")])
    assert not (workdir / "pred2").exists()


@pytest.mark.parametrize("given,missing", [("--pihat", "--truth-labels"),
                                           ("--truth-labels", "--pihat")])
def test_evaluate_names_a_missing_label_file(workdir, capsys, given, missing):
    # label accuracy needs both files; one alone must not drop it silently
    gen = _generate(workdir, "gen", 3)
    fit = _fit(workdir, gen, "cvb")
    files = {"--pihat": fit / "pihat.csv", "--truth-labels": gen / "truth_labels.csv"}
    with pytest.raises(SystemExit) as exc:
        cli.main(["evaluate", "--pred", str(fit / "curves.csv"),
                  "--truth", str(gen / "truth_curves.csv"), given, str(files[given]),
                  "--out", str(workdir / "eval")])
    assert exc.value.code == 2
    assert missing in capsys.readouterr().err
    assert not (workdir / "eval").exists()


def test_benchmark_keeps_a_failed_cell(workdir):
    # with no labeled rows SCMGP raises NoLabeledDataError; its cell is
    # recorded as failed and the run exits 1 after the other cells
    cfg = workdir / "bench.txt"
    cfg.write_text(CONFIG + "gammas = 1.0\nlFracs = 0.0\nmodels = scmgp, wsmgp\nreplicates = 1\n")
    out = workdir / "bench"
    assert cli.main(["benchmark", "--config", str(cfg), "--seed", "5", "--out", str(out)]) == 1
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == ("gamma,l,model,replicate,seed,rmse_1,rmse_2,rmse_heldout_1,"
                        "rmse_heldout_2,label_accuracy,bound,wall_clock,status")
    assert len(lines) == 3
    failed, ok = (line.split(",") for line in lines[1:])
    assert failed == (["1.0", "0.0", "scmgp", "0", "5"] + ["nan"] * 6
                      + ["0.0", "error: SCMGP requires at least one labeled observation"])
    assert ok[:5] == ["1.0", "0.0", "wsmgp", "0", "5"] and ok[-1] == "ok"
    assert np.all(np.isfinite([float(v) for v in ok[5:12]]))
    summary = json.loads((out / "summary.json").read_text())
    assert [(e["model"], e["replicates"], e["failed"]) for e in summary] == [
        ("scmgp", 1, 1), ("wsmgp", 1, 0)]


def test_default_chain_predicts_on_the_truth_grid(workdir):
    # without xRange, generate's truth grid and fit's curves.csv share one span
    gen = _generate(workdir, "gen", 3)
    fit = _fit(workdir, gen, "cvb")
    truth = (gen / "truth_curves.csv").read_text().splitlines()
    curves = (fit / "curves.csv").read_text().splitlines()
    assert len(truth) == len(curves) == 201
    assert [r.split(",")[0] for r in curves] == [r.split(",")[0] for r in truth]


def test_evaluate_rejects_curves_on_another_grid(workdir, capsys):
    # curves predicted over another xRange are not scored against the truth
    gen = _generate(workdir, "gen", 3)
    fit = _fit(workdir, gen, "cvb")
    narrow = workdir / "narrow.txt"
    narrow.write_text(CONFIG + "xRange = -0.5, 0.5\n")
    _run("predict", "--config", narrow, "--data", gen / "dataset.csv",
         "--params", fit / "model.json", "--out", workdir / "pred")
    capsys.readouterr()
    code = cli.main(["evaluate", "--pred", str(workdir / "pred" / "curves.csv"),
                     "--truth", str(gen / "truth_curves.csv"), "--out", str(workdir / "eval")])
    assert code == 2
    err = capsys.readouterr().err
    assert "200 points over [-0.5, 0.5]" in err and "200 points over [-1.0, 1.0]" in err
    assert not (workdir / "eval").exists()

"""Which functions of the program the traced run wraps, and the per-layer metrics.

Layer names are the program's module names.  Every workload reports
every metric listed by `spec`; a layer a workload never calls reports 0.
"""

from collections import defaultdict

from perfbench.stats import median
from perfbench.tracing import SpanStats, Target, self_times, summarize


def _svb_span(args, kwargs):
    batch = kwargs.get("batch", args[4] if len(args) > 4 else None)
    return "gradients.elbo_svb_with_grad." + ("full" if batch is None else "batch")


def _array_bytes(args, kwargs, result):
    return {"bytes": sum(getattr(a, "nbytes", 0) for a in result)}


def _minimize_outcome(args, kwargs, res):
    return {
        "message": str(res.message),
        "nit": int(res.nit),
        "nfev": int(res.nfev),
        "fun": float(res.fun),
    }


def _t(module, attr, **kw):
    return Target("wsmgp." + module, attr, "%s.%s" % (module, attr), **kw)


TARGETS = [
    _t("kernels", "kuu_matrix"),
    _t("kernels", "kfu_matrix"),
    _t("kernels", "kff_matrix"),
    _t("kernels", "kuu_matrix_grads"),
    _t("kernels", "kfu_matrix_grads"),
    _t("kernels", "kff_matrix_grads", observe=_array_bytes),
    _t("kernels", "chol_jitter"),
    # only chol_jitter's own Cholesky attempts: a failed one is a jitter retry
    _t("kernels", "cho_factor", everywhere=False),
    _t("engine", "build_system"),
    _t("engine", "gauss_loglik"),
    _t("engine", "gauss_loglik_grads"),
    _t("bounds", "build_cvb_system"),
    _t("bounds", "vterm_rows"),
    _t("gradients", "elbo_cvb_with_grad"),
    _t("gradients", "scmgp_loglik_with_grad"),
    _t("gradients", "elbo_svb_with_grad", namer=_svb_span),
    _t("gradients", "_chain_convolved"),
    _t("gradients", "vterm_partials"),
    _t("svi", "optimal_qu"),
    _t("svi", "elbo_svb"),
    _t("trainer", "fit_cvb"),
    _t("trainer", "fit_svb_em"),
    _t("trainer", "minimize", observe=_minimize_outcome),
    _t("baselines", "fit_scmgp"),
    _t("predict", "posterior_predict"),
    _t("experiments", "generate_synthetic"),
]

SVB_SPANS = ["gradients.elbo_svb_with_grad.batch", "gradients.elbo_svb_with_grad.full"]
CALL_SPANS = [t.span for t in TARGETS if t.namer is None] + SVB_SPANS
SHARE_SPANS = [
    "engine.build_system",
    "engine.gauss_loglik_grads",
    "gradients._chain_convolved",
    "gradients.vterm_partials",
    "gradients.elbo_svb_with_grad.batch",
    "bounds.vterm_rows",
    "trainer.minimize",
    "kernels",
]
T1_SPANS = [
    "engine.build_system",
    "engine.gauss_loglik_grads",
    "gradients._chain_convolved",
    "kernels",
    "trainer.minimize",
]
CVB_SIZES = (144, 288, 720)
SVB_SIZES = (1000, 4000)


def spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in CALL_SPANS:
        out.append((name + ".calls", "count", "lower"))
        out.append((name + ".self_ms", "ms", "lower"))
    out.append(("kernels.self_ms", "ms", "lower"))
    for name in SVB_SPANS:
        out.append((name + ".p50_ms", "ms", "lower"))
    out += [
        ("kernels.kff_matrix_grads.bytes", "B", "lower"),
        ("kernels.chol_jitter.escalations", "count", "lower"),
        ("engine.build_system.failed", "count", "lower"),
        ("trainer.minimize.nfev", "count", "lower"),
        ("trainer.minimize.abnormal", "count", "lower"),
        ("trainer.restarts.best_share", "fraction", "higher"),
    ]
    for name in SHARE_SPANS:
        out.append((name + ".share", "fraction", "lower"))
    for name in T1_SPANS:
        out.append((name + ".self_ms.t1", "ms", "lower"))
    out += [
        ("t1.unit_s", "s", "lower"),
        ("t1.failed", "count", "lower"),
        ("t1.bound_differs", "flag", "lower"),
        ("t1.bound_rel_diff", "fraction", "lower"),
        ("t1.evals_differs", "flag", "lower"),
    ]
    for n in CVB_SIZES:
        out.append(("scaling.cvb_eval_ms.n%d" % n, "ms", "lower"))
    out.append(("scaling.cvb_eval_ms.exponent", "1", "lower"))
    for n in SVB_SIZES:
        out.append(("scaling.svb_step_ms.n%d" % n, "ms", "lower"))
    out.append(("scaling.svb_step_ms.exponent", "1", "lower"))
    out += [
        ("trace.wall_s", "s", "lower"),
        ("trace.self_sum_s", "s", "lower"),
        ("trace.bench_overhead_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_share", "fraction", "lower"),
    ]
    return out


def _kernels_self_ms(stats):
    return 1e3 * sum(st.self_s for name, st in stats.items() if name.startswith("kernels."))


def restart_best_share(spans):
    """Evaluations of the winning restart over all restart evaluations.

    Restarts are the `trainer.minimize` spans directly under one
    `trainer.fit_cvb` span; the winner has the lowest final objective, as
    `fit_cvb` chooses it (the first one on a tie).
    """
    runs = defaultdict(list)
    for s in spans:
        parent = s[3]
        if s[0] == "trainer.minimize" and s[4] and "nfev" in s[4] and parent >= 0:
            if spans[parent][0] == "trainer.fit_cvb":
                runs[parent].append(s[4])
    best = total = 0
    for outcomes in runs.values():
        best += min(outcomes, key=lambda o: o["fun"])["nfev"]
        total += sum(o["nfev"] for o in outcomes)
    return best / total if total else 0.0


def span_metrics(spans, wall_s):
    """Per-layer metrics of one traced run; `wall_s` is its traced wall time."""
    stats = summarize(spans)
    get = lambda name: stats.get(name, SpanStats())  # noqa: E731
    m = {}
    for name in CALL_SPANS:
        m[name + ".calls"] = get(name).calls
        m[name + ".self_ms"] = 1e3 * get(name).self_s
    m["kernels.self_ms"] = _kernels_self_ms(stats)
    for name in SVB_SPANS:
        durations = get(name).durations
        m[name + ".p50_ms"] = 1e3 * median(durations) if durations else 0.0
    m["kernels.kff_matrix_grads.bytes"] = sum(a["bytes"] for a in get("kernels.kff_matrix_grads").attrs)
    m["kernels.chol_jitter.escalations"] = get("kernels.cho_factor").failed
    m["engine.build_system.failed"] = get("engine.build_system").failed
    runs = [a for a in get("trainer.minimize").attrs if "nfev" in a]
    m["trainer.minimize.nfev"] = sum(a["nfev"] for a in runs)
    m["trainer.minimize.abnormal"] = sum("ABNORMAL" in a["message"] for a in runs)
    m["trainer.restarts.best_share"] = restart_best_share(spans)
    for name in SHARE_SPANS:
        m[name + ".share"] = m[name + ".self_ms"] / 1e3 / wall_s if wall_s > 0 else 0.0
    return m


def t1_metrics(layers_t1, unit_s_t1, failed_t1, outcome, outcome_t1):
    """Single-thread figures and whether the result changed with the thread count.

    `layers_t1` are the `span_metrics` of the run at one BLAS thread;
    `outcome` and `outcome_t1` are (bound, evaluations) at the default and
    at one thread, None when that run failed.
    """
    m = {name + ".self_ms.t1": layers_t1[name + ".self_ms"] for name in T1_SPANS}
    m["t1.unit_s"] = unit_s_t1
    m["t1.failed"] = failed_t1
    if outcome is None or outcome_t1 is None:
        differs = int((outcome is None) != (outcome_t1 is None))
        m["t1.bound_differs"] = m["t1.evals_differs"] = differs
        m["t1.bound_rel_diff"] = 0.0
    else:
        (b, n), (b1, n1) = outcome, outcome_t1
        m["t1.bound_differs"] = int(b != b1)
        m["t1.bound_rel_diff"] = abs(b - b1) / max(abs(b), 1e-300)
        m["t1.evals_differs"] = int(n != n1)
    return m


def coverage(spans, phase_idx):
    """(wall, sum of self times of the program's spans, benchmark's own time) of a phase span."""
    selfs = self_times(spans)
    wall = spans[phase_idx][2] - spans[phase_idx][1]
    inside = set([phase_idx])
    program = 0.0
    for i, s in enumerate(spans):
        if s[3] in inside:
            inside.add(i)
            program += selfs[i]
    return wall, program, wall - program

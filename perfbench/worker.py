"""One benchmark process: set up a workload, then measure or trace it.

``perfbench/run.py`` starts this module as ``python -m perfbench.worker``
from the repository root, with the BLAS thread count already fixed in its
environment.  It prints a ready line when set-up is done and one result
line, JSON, at the end.

Modes:
  setup    set up (imports, data, one warm-up call) and exit;
  measure  repeat the workload's unit of work for --seconds, then check it;
  trace    run the unit once more with every layer wrapped; with
           --compare 1, first run it untraced (for the tracing overhead)
           and afterwards record the N-scaling figures.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
READY = "@@perfbench ready"
RESULT = "@@perfbench result "


def _measure(wl, ctx, ledger, seconds):
    units = []
    deadline = time.perf_counter() + seconds
    while True:
        t = time.perf_counter()
        units.append(wl.unit(ctx, ledger))
        last = time.perf_counter() - t
        # never start a unit that would end past the deadline, except the first
        if time.perf_counter() + last > deadline:
            break
    metrics = wl.report(units)
    metrics.update(wl.check(ctx, ledger, units))
    return {"metrics": metrics, "units": len(units)}


def _scaling(seed):
    from perfbench import layers, stats, workloads

    m = {}
    cvb = [workloads.cvb_eval_ms(n // 2, seed) for n in layers.CVB_SIZES]
    svb = [workloads.svb_step_ms(n // 2, seed) for n in layers.SVB_SIZES]
    for n, v in zip(layers.CVB_SIZES, cvb):
        m["scaling.cvb_eval_ms.n%d" % n] = v
    m["scaling.cvb_eval_ms.exponent"] = stats.loglog_slope(layers.CVB_SIZES, cvb)
    for n, v in zip(layers.SVB_SIZES, svb):
        m["scaling.svb_step_ms.n%d" % n] = v
    m["scaling.svb_step_ms.exponent"] = stats.loglog_slope(layers.SVB_SIZES, svb)
    return m


def _trace(wl, ctx, ledger, args):
    from perfbench import layers
    from perfbench.tracing import Tracer, wrapped_attributes

    out = {}
    if args.compare:
        plain = [wl.unit(ctx, ledger) for _ in range(wl.trace_units)]
        out["untraced_unit_s"] = wl.unit_seconds(plain)
    modules = [m for n, m in sorted(sys.modules.items()) if n == "wsmgp" or n.startswith("wsmgp.")]
    tracer = Tracer()
    ledger.last_span = tracer.last_span
    tracer.install(modules, layers.TARGETS)
    try:
        with tracer.span("bench.setup") as setup_idx:
            wl.setup(args.seed)
        with tracer.span("bench.unit") as unit_idx:
            units = [wl.unit(ctx, ledger) for _ in range(wl.trace_units)]
    finally:
        tracer.remove()
    left = wrapped_attributes(modules)
    if left:
        raise RuntimeError("tracing wrappers still installed: %s" % ", ".join(left))
    ledger.last_span = lambda exc=None: None
    out["metrics"] = wl.check(ctx, ledger, units)
    phases = [layers.coverage(tracer.spans, i) for i in (setup_idx, unit_idx)]
    wall = sum(p[0] for p in phases)
    out["layers"] = layers.span_metrics(tracer.spans, wall)
    out["layers"]["trace.wall_s"] = wall
    out["layers"]["trace.self_sum_s"] = sum(p[1] for p in phases)
    out["layers"]["trace.bench_overhead_s"] = sum(p[2] for p in phases)
    out["traced_unit_s"] = wl.unit_seconds(units)
    out["outcome"] = wl.outcome(units)
    if args.compare:
        overhead = out["traced_unit_s"] - out["untraced_unit_s"]
        out["layers"]["trace.overhead_s"] = overhead
        out["layers"]["trace.overhead_share"] = overhead / out["untraced_unit_s"]
        out["layers"].update(_scaling(args.seed))
    tracer.dump(args.spans, {"workload": wl.name, "seed": args.seed,
                             "phases": {"setup": setup_idx, "unit": unit_idx}})
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--compare", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from perfbench import workloads
    from perfbench.envinfo import environment
    from perfbench.ledger import Ledger

    wl = workloads.WORKLOADS[args.workload]
    ctx = wl.setup(args.seed)
    print(READY, flush=True)
    if args.mode == "setup":
        return 0
    ledger = Ledger()
    if args.mode == "measure":
        out = _measure(wl, ctx, ledger, args.seconds)
    else:
        out = _trace(wl, ctx, ledger, args)
    out.update(
        workload=wl.name,
        mode=args.mode,
        params=wl.params(args.seed),
        env=environment(ROOT, SRC),
        attempted=ledger.attempted,
        failed=ledger.failed,
        correct=ledger.correct,
        failures=ledger.failures,
        checks=ledger.checks,
    )
    print(RESULT + json.dumps(out, default=lambda o: o.item() if hasattr(o, "item") else str(o)),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

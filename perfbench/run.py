"""Benchmark entry point for the wsmgp package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: paper_cell, svb_em_n4000 (see
perfbench/README.md).  Each workload runs closed-loop,
one call at a time, in worker processes whose OpenBLAS thread count this
script sets to the number of usable cores, whatever the caller's
environment says.

--trace 0 measures the end-to-end metrics; --trace 1 runs the workload
with every layer wrapped, again at one BLAS thread, and records the
N-scaling figures.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Full results and spans are written under
.perfbench/ in the repository root.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.stats import median  # noqa: E402
from perfbench.worker import READY, RESULT  # noqa: E402

WORKLOADS = ("paper_cell", "svb_em_n4000")
END_TO_END = (("setup_s", "s"), ("evals_per_s", "1/s"))
SETUP_REPEATS = 3
BUDGET_S = 170.0  # every worker must end within this many seconds of the start
OUT_DIR = ROOT / ".perfbench"


class WorkerError(RuntimeError):
    pass


def usable_cores():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_worker(args, threads, deadline):
    """Run one worker to completion; returns (seconds until ready, result or None)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    cmd = [sys.executable, "-m", "perfbench.worker"] + [str(a) for a in args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith(READY):
                ready = time.perf_counter() - start
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
            else:
                sys.stderr.write(line)
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise WorkerError("worker %s exited with code %s" % (" ".join(cmd[3:]), proc.returncode))
    return ready, result


def untraced(args, threads, deadline):
    base = ["--workload", args.workload, "--seed", args.seed]
    ready, res = run_worker(base + ["--mode", "measure", "--seconds", args.seconds],
                            threads, deadline)
    setups = [ready]
    for _ in range(SETUP_REPEATS - 1):
        setups.append(run_worker(base + ["--mode", "setup"], threads, deadline)[0])
    if "evals_per_s" not in res["metrics"]:
        raise WorkerError("no fit completed, so evals_per_s was not measured")
    values = {"setup_s": median(setups), "evals_per_s": res["metrics"]["evals_per_s"]["value"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    detail = {"setup_samples_s": setups, "threads": threads, "worker": res}
    return metrics, [res], detail


def traced(args, threads, deadline):
    base = ["--workload", args.workload, "--seed", args.seed, "--mode", "trace"]
    spans = OUT_DIR / ("spans-%s-seed%s-t%d.json" % (args.workload, args.seed, threads))
    spans1 = OUT_DIR / ("spans-%s-seed%s-t1.json" % (args.workload, args.seed))
    _, res = run_worker(base + ["--compare", 1, "--spans", spans], threads, deadline)
    _, res1 = run_worker(base + ["--compare", 0, "--spans", spans1], 1, deadline)
    values = dict(res["layers"])
    values.update(layers.t1_metrics(res1["layers"], res1["traced_unit_s"], res1["failed"],
                                    res["outcome"], res1["outcome"]))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.spec()}
    detail = {"threads": threads, "worker": res, "worker_t1": res1,
              "spans": [str(spans.relative_to(ROOT)), str(spans1.relative_to(ROOT))]}
    return metrics, [res, res1], detail


def _fmt(v):
    return ("%.6g" % v) if isinstance(v, float) else str(v)


def report(args, metrics, results):
    res = results[0]
    env = res["env"]
    print("workload %s  seed %s  trace %s" % (args.workload, args.seed, args.trace))
    print("env: %s, nproc %s, %s %s, OPENBLAS_NUM_THREADS=%s (numpy %s, scipy %s at run time), "
          "numpy %s, scipy %s, python %s, git %s" % (
              env["cpu_model"], env["nproc"], env["blas"]["name"], env["blas"]["version"],
              env["blas"]["OPENBLAS_NUM_THREADS"], env["blas"]["numpy_runtime_threads"],
              env["blas"]["scipy_runtime_threads"], env["numpy"], env["scipy"], env["python"],
              env["git_sha"] or "-"))
    print("params: %s" % json.dumps(res["params"], sort_keys=True))
    for name, m in metrics.items():
        print("  %-44s %14s %s" % (name, _fmt(m["value"]), m["unit"]))
    for r in results:
        threads = r["env"]["blas"]["OPENBLAS_NUM_THREADS"]
        for name, m in r.get("metrics", {}).items():
            print("  %-44s %14s %s  (%s BLAS threads)" % (name, _fmt(m["value"]), m["unit"], threads))
        for f in r["failures"]:
            print("  FAILED %s at %s BLAS threads: %s %s (last span %s)" % (
                f["op"], threads, f["type"], f.get("check") or f.get("message", ""),
                f["last_span"]))


def main(argv=None):
    p = argparse.ArgumentParser(description="wsmgp benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "wsmgp" / "__init__.py").is_file():
        print("perfbench: program sources not found under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    try:
        run = traced if args.trace else untraced
        metrics, results, detail = run(args, usable_cores(), deadline)
    except WorkerError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    out = OUT_DIR / ("result-%s-seed%s-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"result": final, "detail": detail}, fh, indent=1)
    report(args, metrics, results)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

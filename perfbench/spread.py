"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload paper_cell --seeds 1 2 3 4 5

Runs ``perfbench/run.py --trace 0`` once per seed, one after another, and
prints each metric's median and the distance between its first and third
quartiles (statistics.quantiles, n=4) as a share of the median, next to
the bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        print("seed %d: correct %s attempted %d failed %d  %s" % (
            seed, res["correct"], res["attempted"], res["failed"],
            "  ".join("%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items())), flush=True)
        for name in values:
            values[name].append(res["metrics"][name]["value"])
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        print("%-14s median %-10.4g spread %.3f  bound %.2f" % (m["name"], med, (q3 - q1) / med, m["bound"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

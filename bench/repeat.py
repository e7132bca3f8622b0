"""Run the benchmark once per seed, each in a fresh process, and summarise.

    python3 bench/repeat.py --workload reconstruct --seeds 1-10 [--seconds 30] [--trace 1]

Prints, per metric, the first quartile, the median and the third quartile
over the runs (as `statistics.quantiles(values, n=4)` gives them) and the
quartile spread as a share of the median, as a Markdown table.  Exits 1 if
any run fails.  The runs go one after another, so they never share a core.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args(argv)

    values, units, ok = {}, {}, True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        traced = re.search(r"^traced: .*ops_per_s=(\S+)$", proc.stderr, re.M)
        if traced:   # throughput with the layers wrapped, to set against untraced runs
            values.setdefault("traced_ops_per_s", []).append(float(traced[1]))
            units["traced_ops_per_s"] = "ops/s"

    print(f"| {args.workload} | unit | q1 | median | q3 | spread |")
    print("|---|---|---|---|---|---|")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"| {name} | {units[name]} | {q1:.4g} | {med:.4g} | {q3:.4g} | {spread:.3f} |")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

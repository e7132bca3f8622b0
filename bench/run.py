"""Seeded benchmark for bifree.

    python3 bench/run.py --workload long-moments --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the benchmark imports `bifree` from
`src/` next to this directory.  It draws every input from --seed, then runs
whole rounds of the workload's ops until --seconds have passed (and at least
MIN_ROUNDS rounds are done).  Every round starts from a fresh import of `bifree`,
so its process-wide caches start empty as in one CLI invocation; the import
and the building of the program's objects are timed as set-up.  The ops run
one at a time on this thread; their CPU times are scaled to a reference speed
(see CAL_REF).  Each op's output must equal the same op's
output in the first round, and the first round's outputs are checked against
the independent reference (`reference.py`) or a stated property.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics; --trace 1 wraps the
layers (`spans.py`) and reports per-layer metrics instead, and writes the
first round's spans to bench/out/.  The exit code is 1 if any op failed.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

# Standard modules that bifree imports, loaded first so that every round's
# timed import does the same work.
import contextlib  # noqa: F401
import dataclasses  # noqa: F401
import fractions
import functools  # noqa: F401
import math  # noqa: F401
import random  # noqa: F401

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
MIN_ROUNDS = 3          # so that a median over rounds has a middle
LAST_ROUND_START = 120  # seconds; no round starts later, so a run ends well within 180 s
# Ops and set-up are timed in CPU time of this thread: on a shared machine the
# time the scheduler gives to other processes is not the program's cost.
clock = time.thread_time
# On a shared machine even CPU time swings by up to 2x over seconds, as other
# processes load it.  So a fixed calibration loop is timed at least every CAL_EVERY
# seconds of op time, and every time is scaled by CAL_REF / (the mean of the
# calibrations just before and just after it): times are reported at the speed
# at which the calibration loop takes CAL_REF seconds.
CAL_EVERY = 0.01
CAL_REF = 0.001


class Raised:
    """The output of an op that raised."""

    def __init__(self, text):
        self.text = text

    def __repr__(self):
        return f"raised {self.text}"


def fresh_bifree():
    """Import bifree anew, with empty module-level caches."""
    for name in [n for n in sys.modules if n == "bifree" or n.startswith("bifree.")]:
        del sys.modules[name]
    bf = importlib.import_module("bifree")
    importlib.import_module("bifree.cli")
    return bf


def calibrate() -> float:
    """CPU seconds that a fixed loop of Fraction sums takes at the machine's current speed."""
    start = clock()
    total = fractions.Fraction(0)
    for i in range(1, 270):
        total += fractions.Fraction(i % 7 + 1, i % 11 + 1)
    return clock() - start


def run_round(workload, tracer):
    """One cold round: set-up, then every op once.

    Returns (setup_s, op times, outputs), times scaled to the reference speed
    (see CAL_REF), and the raw CPU time of the round's ops.
    """
    gc.collect()
    before = calibrate()
    t0 = clock()
    bf = fresh_bifree()
    if tracer is not None:
        tracer.install(bf)
    state = workload.setup(bf)
    setup_s = clock() - t0
    cal = [calibrate()]
    setup_s *= 2 * CAL_REF / (before + cal[0])
    raw, last_cal, outputs = [], [], []
    since_cal = 0.0
    for k, (_, op) in enumerate(workload.ops):
        if since_cal >= CAL_EVERY:
            cal.append(calibrate())
            since_cal = 0.0
        last_cal.append(len(cal) - 1)
        span = tracer.begin_op(k) if tracer is not None else None
        start = clock()
        try:
            out = op(state)
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            out = Raised(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        raw.append(clock() - start)
        since_cal += raw[-1]
        if span is not None:
            tracer.end_op(span)
        outputs.append(out)
    cal.append(calibrate())
    if tracer is not None:
        tracer.end_round()
    times = [t * 2 * CAL_REF / (cal[c] + cal[c + 1]) for t, c in zip(raw, last_cal)]
    return setup_s, times, outputs, sum(raw)


def measure(workload, seconds, tracer=None) -> dict:
    """Whole rounds until `seconds` have passed and MIN_ROUNDS are done."""
    setups, times, raw, first = [], [], [], None
    diverged = [0] * len(workload.ops)   # rounds whose output differs from the first
    begin = time.perf_counter()
    while True:
        setup_s, round_times, outputs, raw_s = run_round(workload, tracer)
        setups.append(setup_s)
        times.append(round_times)
        raw.append(raw_s)
        if first is None:
            first = outputs
        else:
            for k, (a, b) in enumerate(zip(first, outputs)):
                if isinstance(b, Raised) or a != b:
                    diverged[k] += 1
        elapsed = time.perf_counter() - begin
        if elapsed >= LAST_ROUND_START or (elapsed >= seconds and len(times) >= MIN_ROUNDS):
            break
    return {"setups": setups, "times": times, "raw": raw, "first": first, "diverged": diverged,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def failures(workload, result) -> dict:
    """Op index -> (failed rounds, reason).

    The first round is checked against the reference; later rounds were
    compared with it.  A wrong first output fails the op in every round.
    """
    rounds = len(result["times"])
    first = result["first"]
    out = {}
    for k, output in enumerate(first):
        err = repr(output) if isinstance(output, Raised) else workload.check(k, first)
        if err is not None:
            out[k] = (rounds, err)
        elif result["diverged"][k]:
            out[k] = (result["diverged"][k], "output differs from the first round")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bifree", "__init__.py")):
        print(f"error: no bifree sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    from spans import Tracer

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, os.path.join(OUT, f"{args.workload}-{args.seed}"))
    tracer = Tracer() if args.trace else None
    result = measure(workload, args.seconds, tracer)
    failed = failures(workload, result)
    for k, (n, reason) in sorted(failed.items()):
        print(f"FAILED op {k} {workload.ops[k][0]} in {n} rounds: {reason}", file=sys.stderr)

    # Each op's time is its median over the rounds; a round's op time is the
    # sum over its ops.  Medians keep one disturbed round from moving a figure.
    times = result["times"]
    rounds = len(times)
    op_times = [statistics.median(column) for column in zip(*times)]
    ops_per_s = len(workload.ops) / statistics.median(sum(r) for r in times)
    if tracer is not None:
        metrics = tracer.metrics()
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.txt.gz"))
        print(f"traced: rounds={rounds} ops_per_s={ops_per_s:.6g}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(result["setups"]), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
            "op_p50_ms": {"value": statistics.median(op_times) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": statistics.quantiles(op_times, n=10)[8] * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    n_failed = sum(n for n, _ in failed.values())
    print(f"rounds={rounds} ops/round={len(workload.ops)} unscaled "
          f"ops_per_s={len(workload.ops) / statistics.median(result['raw']):.6g}", file=sys.stderr)
    print(json.dumps({"correct": n_failed == 0, "attempted": rounds * len(workload.ops),
                      "failed": n_failed, "metrics": metrics}))
    return 0 if n_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

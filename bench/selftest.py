"""Self-tests of the benchmark: the reference on known cases, and failure accounting.

    python3 bench/selftest.py

Run from the root of a source checkout; the failure-accounting tests run
a few rounds of `cli-scans` against `src/bifree`.
"""
from __future__ import annotations

import itertools
import json
import os
import random
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
from spans import metric_names  # noqa: E402
from workloads import WORKLOADS, CliScans, Reconstruct, _reference_family  # noqa: E402


def set_partitions(elements):
    """Every set partition of a list, by placing each element in turn."""
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def random_pure(rng, left, right, degree):
    sides = {left: "l", right: "r"}
    table = {w: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             for n in range(1, degree + 1) for w in itertools.product((left, right), repeat=n)}
    return ref.Pure(sides, moments=table, theta=dict(table))


class ReferenceKnownCases(unittest.TestCase):
    def test_bnc_count_is_catalan(self):
        rng = random.Random(1)
        for n in range(1, 9):
            for chi in {"l" * n, "r" * n, "".join(rng.choice("lr") for _ in range(n))}:
                parts = ref.Family({}).bnc(chi)
                self.assertEqual(len(parts), ref.catalan(n), chi)
                self.assertEqual(len({tuple(p for p, _ in part) for part in parts}), len(parts))

    def test_pruned_enumeration_matches_brute_force(self):
        for n in range(1, 7):
            for chi in ("".join(s) for s in itertools.product("lr", repeat=n)):
                grown = {tuple(sorted(pos for pos, _ in part)) for part in ref.Family({}).bnc(chi)}
                brute = {tuple(sorted(tuple(sorted(b)) for b in part))
                         for part in set_partitions(list(range(1, n + 1)))
                         if ref.is_bi_non_crossing(part, chi)}
                self.assertEqual(grown, brute, chi)

    def test_eight_letter_example(self):
        chi = "rlllrrlr"
        self.assertEqual(ref.chi_order(chi), [2, 3, 4, 7, 8, 6, 5, 1])
        blocks = [(1,), (2, 5, 7), (3, 4), (6, 8)]
        self.assertTrue(ref.is_bi_non_crossing(blocks, chi))
        rank = {p: k for k, p in enumerate(ref.chi_order(chi))}
        ranked = [[rank[x] for x in b] for b in blocks]
        labels = {b: "inner" if ref.is_inner(r, ranked) else "outer"
                  for b, r in zip(blocks, ranked)}
        self.assertEqual(labels, {(1,): "outer", (2, 5, 7): "outer",
                                  (3, 4): "inner", (6, 8): "inner"})
        self.assertFalse(ref.is_bi_non_crossing([(1, 3), (2, 4), (5,), (6,), (7,), (8,)], "llllllll"))

    def test_four_letter_product_identity(self):
        rng = random.Random(30)
        for _ in range(10):
            fam = ref.Family({"0": random_pure(rng, "x", "w", 2),
                              "1": random_pure(rng, "y", "z", 2)})

            def m(word):
                return fam.pures[fam.pair_of[word[0]]].moments[word]

            self.assertEqual(fam.phi(("x", "y", "z", "w")),
                             m(("x", "w")) * m(("y",)) * m(("z",))
                             + m(("x",)) * m(("w",)) * m(("y", "z"))
                             - m(("x",)) * m(("w",)) * m(("y",)) * m(("z",)))
            self.assertEqual(fam.phi(("w", "x", "y", "z")), m(("w", "x")) * m(("y", "z")))

    def test_perturbation_follows_commutation_class(self):
        fam = ref.Family({"a": random_pure(random.Random(2), "al", "ar", 2),
                          "b": random_pure(random.Random(3), "bl", "br", 2)},
                         {("al", "br"): Fraction(1)})
        base = ref.Family(fam.pures)
        self.assertEqual(fam.phi(("br", "al")) - base.phi(("br", "al")), 1)
        self.assertEqual(fam.phi(("bl", "al")), base.phi(("bl", "al")))


class MetricNames(unittest.TestCase):
    def test_benchmark_json_matches_reports(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], metric_names())
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         {"setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"})
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))


class FailureAccounting(unittest.TestCase):
    """Corrupted outputs must be reported as failed ops, in every round."""

    def test_corrupted_outputs_fail(self):
        wl = CliScans(0, os.path.join(run.OUT, "selftest"))
        labels = [label for label, _ in wl.ops]
        moment = next(k for k, l in enumerate(labels) if l.startswith("moment") and "bifree" in l)
        holds = next(k for k, l in enumerate(labels) if "--method cumulants --max-len 4" in l)
        raises = next(k for k, l in enumerate(labels) if l.startswith("bnc enum"))

        def off_by_one(op):
            def run_op(state):
                code, out = op(state)
                return code, f"{Fraction(out.strip()) + 1}\n"
            return run_op

        def wrong_count(op):
            def run_op(state):
                code, out = op(state)
                n = int(out.split("=")[1])
                return code, f"HOLDS checked={n + 1}\n"
            return run_op

        def raising(state):
            raise RuntimeError("deliberate")

        wl.ops[moment] = (labels[moment], off_by_one(wl.ops[moment][1]))
        wl.ops[holds] = (labels[holds], wrong_count(wl.ops[holds][1]))
        wl.ops[raises] = (labels[raises], raising)
        result = run.measure(wl, 0)
        rounds = len(result["times"])
        failed = run.failures(wl, result)
        self.assertEqual(sorted(failed), sorted([moment, holds, raises]))
        self.assertTrue(all(n == rounds for n, _ in failed.values()))

    def test_reconstruction_checks(self):
        wl = Reconstruct(0, None)
        n = len(wl.words)
        k = wl.words.index(("al", "bl"))
        good = _reference_family(wl.pairs).phi(("al", "bl"))
        outputs = [None] * (2 * n)
        outputs[k] = outputs[k + n] = good
        self.assertIsNone(wl.check(k, outputs))
        outputs[k] = good + 1
        self.assertIsNotNone(wl.check(k, outputs))
        outputs[k], outputs[k + n] = good, good + 1   # right under one seed only
        self.assertIsNotNone(wl.check(k, outputs))


if __name__ == "__main__":
    unittest.main()

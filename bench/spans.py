"""Spans around the public functions of each `bifree` layer, recorded from outside.

`Tracer.install(bf)` wraps every function in `FUNCTIONS` at each name it is
bound to in the freshly imported `bifree` modules (so `bifree.cumulants.
enumerate_bnc` is wrapped as well as `bifree.bnc.enumerate_bnc`), and the two
methods in `METHODS` on their classes.  A span is (name, start, end, parent
span, op id); spans stay in flat arrays in memory.  At the end of a round the
self time of each span is its duration minus that of its child spans, and
calls and self time are summed per name.
"""
from __future__ import annotations

import gzip
import json
import statistics
import sys
from array import array
from time import perf_counter

FUNCTIONS = {
    "bnc": ("enumerate_bnc_leq_eps", "enumerate_bnc", "classify_blocks",
            "maximal_mono_intervals"),
    "cumulants": ("bifree_product_moment", "conditional_product_theta",
                  "kappa_from_phi", "kappa", "conditional_kappa_from"),
    "words": ("canonical_word", "shifted_product_expansion", "subword"),
    "vaccine": ("centred_shifts", "vaccine_reconstruct_moment", "vaccine_test"),
    "liberation": ("taur", "eval_tensor", "replacement_expand", "taur_test"),
    "specfile": ("load_family",),
    "cli": ("main",),
}
# metric name -> (module, class, method)
METHODS = {
    "distributions.phi": ("distributions", "BifreeProduct", "phi"),
    "distributions.pure_cumulant": ("distributions", "PureDistribution", "cumulant"),
}
COUNTERS = ("bnc.partitions", "words.expansion_terms", "liberation.taur_terms",
            "vaccine.skipped")
# layer functions reported by call count alone
CALLS_ONLY = ("bnc.maximal_mono_intervals",)


# layer -> (counter, what its result adds to the counter)
RESULT_COUNTERS = {
    "bnc.enumerate_bnc": ("bnc.partitions", len),
    "bnc.enumerate_bnc_leq_eps": ("bnc.partitions", len),
    "words.shifted_product_expansion": ("words.expansion_terms", lambda r: len(r.terms)),
    "liberation.taur": ("liberation.taur_terms", lambda r: len(r.terms)),
    "vaccine.vaccine_test": ("vaccine.skipped", lambda r: r.skipped),
}


def layer_names():
    names = [f"{m}.{f}" for m, fs in FUNCTIONS.items() for f in fs]
    return names + list(METHODS)


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in layer_names():
        out.append((f"{name}.calls", "count"))
        if name not in CALLS_ONLY:
            out.append((f"{name}.self_s", "s"))
    out += [(c, "count") for c in COUNTERS]
    out += [("distributions.phi_memo_hit_ratio", "ratio"),
            ("distributions.pure_cumulant_memo_hit_ratio", "ratio")]
    return out


class Tracer:
    """Spans and counters of one run, aggregated round by round."""

    def __init__(self):
        self.names = ["op"] + layer_names()
        self.name_id = {n: k for k, n in enumerate(self.names)}
        self.rounds = []          # per round: metric name -> value
        self.first_spans = None   # the first round's spans, written out at the end
        self._reset()

    def _reset(self):
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack = [-1]
        self.op = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.cumulant_misses = 0

    # recording ------------------------------------------------------------
    def _open(self, name_id) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1])
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.span_end[idx] = perf_counter()
        self.stack.pop()

    def begin_op(self, k):
        self.op = k
        return self._open(0)

    def end_op(self, idx):
        self._close(idx)
        self.op = -1

    def _wrap(self, name, fn, before=None):
        name_id = self.name_id[name]
        after = RESULT_COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                counter, size = after
                tracer.counters[counter] += size(result)
            return result

        return traced

    def _cumulant_lookup(self, args):
        pure, word = args[0], args[1]
        if word not in pure._cumulant_memo:
            self.cumulant_misses += 1

    def install(self, bf):
        """Wrap the layers of a freshly imported `bifree` at every binding of their names."""
        modules = [m for n, m in sys.modules.items() if n == "bifree" or n.startswith("bifree.")]
        for module_name, functions in FUNCTIONS.items():
            module = sys.modules[f"bifree.{module_name}"]
            for fname in functions:
                original = getattr(module, fname)
                traced = self._wrap(f"{module_name}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, traced)
        for name, (module_name, cls_name, method) in METHODS.items():
            cls = getattr(sys.modules[f"bifree.{module_name}"], cls_name)
            before = self._cumulant_lookup if method == "cumulant" else None
            setattr(cls, method, self._wrap(name, cls.__dict__[method], before))

    # aggregation ----------------------------------------------------------
    def end_round(self):
        """Self time and calls per name for this round's spans, then clear them."""
        n = len(self.span_name)
        names, start, end, parent = self.span_name, self.span_start, self.span_end, self.span_parent
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            calls[names[i]] += 1
            self_s[names[i]] += end[i] - start[i] - child[i]
        values = {}
        for k, name in enumerate(self.names[1:], 1):
            values[f"{name}.calls"] = calls[k]
            values[f"{name}.self_s"] = self_s[k]
        values.update(self.counters)
        phi_calls = values["distributions.phi.calls"]
        product_calls = values["cumulants.bifree_product_moment.calls"]
        values["distributions.phi_memo_hit_ratio"] = (
            1 - product_calls / phi_calls if phi_calls else 0.0)
        cum_calls = values["distributions.pure_cumulant.calls"]
        values["distributions.pure_cumulant_memo_hit_ratio"] = (
            1 - self.cumulant_misses / cum_calls if cum_calls else 0.0)
        self.rounds.append(values)
        if self.first_spans is None:
            self.first_spans = (names, start, end, parent, self.span_op)
        self._reset()

    def metrics(self) -> dict:
        """Median over rounds of every per-layer metric; rounds repeat the same ops.

        The lower median keeps counts whole.
        """
        return {name: {"value": statistics.median_low(r[name] for r in self.rounds), "unit": unit}
                for name, unit in metric_names()}

    def write(self, path):
        """The first round's spans as gzipped text.

        A JSON header line names the span names and columns, then one line per
        span: name id, start and end in ns from the first span, parent span
        index (-1 for none) and op index.
        """
        names, start, end, parent, op = self.first_spans
        t0 = start[0] if len(start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names,
                                 "columns": ["name", "start_ns", "end_ns", "parent", "op"]}) + "\n")
            fh.writelines(f"{n} {round((s - t0) * 1e9)} {round((e - t0) * 1e9)} {p} {o}\n"
                          for n, s, e, p, o in zip(names, start, end, parent, op))

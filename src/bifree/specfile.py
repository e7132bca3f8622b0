"""Loading distribution specification files (restricted JSON).

Top level: "pairs" (list).  Each pair: id, left_generators, right_generators,
max_degree, and exactly one of "moments" / "cumulants" (mapping from
space-separated symbol words to rationals written "p/q" or integers), plus an
optional "theta_moments" layer.  Symbols must be globally unique.

An optional top-level "perturbations" mapping (same word syntax) adds rational
deltas to mixed moments of the bi-free product; it is how a spec file
expresses the table-with-perturbation mode.
"""
from __future__ import annotations

import json
from fractions import Fraction

from .distributions import (
    BifreeProduct,
    CumulantTablePure,
    MomentTablePure,
    PerturbedJoint,
)


def parse_rational(v) -> Fraction:
    if isinstance(v, bool):
        raise ValueError(f"not a rational: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise ValueError(f"rationals must be integers or 'p/q' strings, got {v!r}")


def _parse_table(mapping):
    out = {}
    for text, v in mapping.items():
        key = tuple(text.split())
        out[key] = parse_rational(v)
    return out


class Family:
    """A loaded family of pure distributions plus its symbol registry."""

    def __init__(self, pures, perturbations=None):
        self.pures = dict(pures)
        self.perturbations = dict(perturbations or {})
        self.by_symbol = {}
        for pure in self.pures.values():
            for letter in pure.letters:
                if letter.symbol in self.by_symbol:
                    raise ValueError(f"duplicate symbol {letter.symbol!r}")
                self.by_symbol[letter.symbol] = letter

    def word(self, text: str):
        """Parse a space-separated symbol word against the registry."""
        letters = []
        for sym in text.split():
            if sym not in self.by_symbol:
                raise KeyError(f"unknown symbol {sym!r}")
            letters.append(self.by_symbol[sym])
        return tuple(letters)

    def joint(self) -> BifreeProduct:
        d = BifreeProduct(self.pures)
        if self.perturbations:
            deltas = {self.word(" ".join(k)): v for k, v in self.perturbations.items()}
            return PerturbedJoint(d, deltas)
        return d


def load_family(source) -> Family:
    """Load a Family from a path, file object, or already-parsed dict."""
    if isinstance(source, dict):
        data = source
    elif hasattr(source, "read"):
        data = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)

    pures = {}
    for spec in data["pairs"]:
        pair = spec["id"]
        if pair in pures:
            raise ValueError(f"duplicate pair id {pair!r}")
        left = tuple(spec.get("left_generators", ()))
        right = tuple(spec.get("right_generators", ()))
        max_degree = spec.get("max_degree")
        theta = _parse_table(spec["theta_moments"]) if "theta_moments" in spec else None
        has_m, has_c = "moments" in spec, "cumulants" in spec
        if has_m == has_c:
            raise ValueError(f"pair {pair!r} needs exactly one of moments/cumulants")
        if has_m:
            pures[pair] = MomentTablePure(
                pair, left, right, max_degree, _parse_table(spec["moments"]),
                theta_table=theta)
        else:
            pures[pair] = CumulantTablePure(
                pair, left, right, max_degree, _parse_table(spec["cumulants"]),
                theta_table=theta)

    perturbations = _parse_table(data.get("perturbations", {}))
    fam = Family(pures, perturbations)
    # validate perturbation symbols eagerly
    for key in perturbations:
        fam.word(" ".join(key))
    return fam

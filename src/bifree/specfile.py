"""Loading distribution specification files (restricted JSON).

Top level: "pairs" (list).  Each pair: id, left_generators, right_generators,
max_degree, and exactly one of "moments" / "cumulants" (mapping from
nonempty space-separated words over the pair's own generators to rationals
written as integers or "p/q" strings), plus an optional "theta_moments" layer.
Symbols must be globally unique.

An optional top-level "perturbations" mapping (same word syntax) adds rational
deltas to mixed moments of the bi-free product; it is how a spec file
expresses the table-with-perturbation mode.

A file of any other shape raises SpecError.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction

from .distributions import (
    BifreeProduct,
    CumulantTablePure,
    MomentTablePure,
    PerturbedJoint,
)
from .errors import SpecError


_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?", re.ASCII)


def parse_rational(v) -> Fraction:
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    m = _RATIONAL.fullmatch(v) if isinstance(v, str) else None
    if m is None:
        raise SpecError(f"rationals must be integers or 'p/q' strings, got {v!r}")
    try:
        return Fraction(int(m[1]), int(m[2] or 1))
    except ZeroDivisionError:
        raise SpecError(f"not a rational: {v!r}") from None


def _parse_table(mapping, what, symbols):
    """A table whose keys are nonempty words over `symbols`."""
    if not isinstance(mapping, dict):
        raise SpecError(f"{what} must be an object, got {type(mapping).__name__}")
    table = {}
    for text, v in mapping.items():
        key = tuple(text.split())
        if not key or not symbols.issuperset(key):
            raise SpecError(f"{what} key {text!r} is not a word over {sorted(symbols)}")
        table[key] = parse_rational(v)
    return table


def _symbols(spec, key):
    symbols = spec.get(key, [])
    if not isinstance(symbols, list) or any(
            not isinstance(s, str) or s.split() != [s] for s in symbols):
        raise SpecError(f"{key} must be a list of symbols without spaces, got {symbols!r}")
    return tuple(symbols)


class Family:
    """A loaded family of pure distributions plus its symbol registry."""

    def __init__(self, pures, perturbations=None):
        self.pures = dict(pures)
        self.perturbations = dict(perturbations or {})
        self.by_symbol = {}
        for pure in self.pures.values():
            for letter in pure.letters:
                if letter.symbol in self.by_symbol:
                    raise SpecError(f"duplicate symbol {letter.symbol!r}")
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

    if not isinstance(data, dict) or not isinstance(data.get("pairs"), list):
        raise SpecError('a spec must be an object whose "pairs" is a list')
    pures = {}
    for spec in data["pairs"]:
        if not isinstance(spec, dict):
            raise SpecError(f"a pair must be an object, got {type(spec).__name__}")
        pair = spec.get("id")
        if not isinstance(pair, str):
            raise SpecError(f"a pair id must be a string, got {pair!r}")
        if pair in pures:
            raise SpecError(f"duplicate pair id {pair!r}")
        left = _symbols(spec, "left_generators")
        right = _symbols(spec, "right_generators")
        max_degree = spec.get("max_degree")
        if max_degree is not None and (type(max_degree) is not int or max_degree < 0):
            raise SpecError(f"max_degree must be a nonnegative integer, got {max_degree!r}")
        def table(name):
            return _parse_table(spec[name], f"pair {pair!r} {name}", set(left + right))
        theta = table("theta_moments") if "theta_moments" in spec else None
        has_m, has_c = "moments" in spec, "cumulants" in spec
        if has_m == has_c:
            raise SpecError(f"pair {pair!r} needs exactly one of moments/cumulants")
        if has_m:
            pures[pair] = MomentTablePure(
                pair, left, right, max_degree, table("moments"), theta_table=theta)
        else:
            pures[pair] = CumulantTablePure(
                pair, left, right, max_degree, table("cumulants"), theta_table=theta)

    symbols = {letter.symbol for pure in pures.values() for letter in pure.letters}
    return Family(pures, _parse_table(data.get("perturbations", {}), "perturbations", symbols))

"""Loading distribution specification files (restricted JSON).

Top level: "pairs" (list).  Each pair: id, left_generators, right_generators,
max_degree, and exactly one of "moments" / "cumulants" (mapping from
nonempty space-separated words over the pair's own generators to rationals
written as integers or "p/q" strings), plus an optional "theta_moments" layer.
Symbols must be globally unique.

An optional top-level "perturbations" mapping (same word syntax) adds rational
deltas to mixed moments of the bi-free product; it is how a spec file
expresses the table-with-perturbation mode.

A file of any other shape raises SpecError, and so does a file that is not
JSON or nests too deeply to decode.  Every key and value is checked at load,
but a pure's table keeps each value as the literal it was written as: the
pure distribution converts an entry to a Fraction each time it reads it and
stores nothing back, so a query pays only for the entries it reads.  The
perturbations, all of which the joint reads, are Fractions from the start.
A pair's moments or cumulants whose keys are its theta_moments keys in the
same order, each a different word, take the theta table's words as keys:
those key texts are split and checked once, and every value is checked.
"""
from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from itertools import chain

from .distributions import (
    BifreeProduct,
    CumulantTablePure,
    MomentTablePure,
    PerturbedJoint,
)
from .errors import SpecError, UnknownSymbolError


_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?", re.ASCII)

# Fraction(v) reads such a string exactly as parse_rational(v) does, and
# without error: it has a nonzero denominator, and no part can pass the
# interpreter's limit on reading an integer, which is never set below 640
# digits (sys.int_info.str_digits_check_threshold).
_SAFE_LITERAL = re.compile(r"[+-]?\d+(?:/0*[1-9]\d*)?", re.ASCII)
_SAFE_LENGTH = 640
# safe literals joined by newlines, which no literal holds
_SAFE_LITERALS = re.compile(rf"{_SAFE_LITERAL.pattern}(?:\n{_SAFE_LITERAL.pattern})*", re.ASCII)


def parse_rational(v) -> Fraction:
    """The value of a spec literal: an integer, or a "p" or "p/q" string."""
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    m = _RATIONAL.fullmatch(v) if isinstance(v, str) else None
    if m is None:
        raise SpecError(f"rationals must be integers or 'p/q' strings, got {v!r}")
    try:
        return Fraction(int(m[1]), int(m[2] or 1))
    except ZeroDivisionError:
        raise SpecError(f"not a rational: {v!r}") from None
    except ValueError:  # a part past the interpreter's limit on reading an integer
        raise SpecError(
            f"a rational of {len(v)} characters has a part of more than "
            f"{sys.get_int_max_str_digits()} digits, the interpreter's limit "
            "for reading an integer") from None


def _literal(v):
    """v itself when Fraction(v) reads it as parse_rational(v), else parse_rational(v)."""
    if type(v) is int or (
            type(v) is str and len(v) <= _SAFE_LENGTH and _SAFE_LITERAL.fullmatch(v)):
        return v
    return parse_rational(v)


def _parse_table(mapping, what, symbols, texts=(), words=()):
    """A table whose keys are nonempty words over `symbols`, with checked literals.

    One check in C passes a table that `_literal` keeps as it is; the loop over
    the entries converts any other and raises for its first bad entry.  When
    the keys are `texts` in their order and `words` holds one word per text,
    as a table parsed from `texts` over `symbols` does, its words are the keys."""
    if not isinstance(mapping, dict):
        raise SpecError(f"{what} must be an object, got {type(mapping).__name__}")
    values = mapping.values()
    types = {*map(type, values)}
    reuse = len(words) == len(texts) and [*mapping] == [*texts]
    # `_literal` keeps every int as it is, so only the strings are matched
    strings = values if types <= {str} else [v for v in values if type(v) is str]
    joined = "\n".join(strings)
    try:  # a key that is not a string is left to the loop
        keys = [*words] if reuse else [*map(tuple, map(str.split, mapping))]
    except TypeError:
        keys = [()]  # which the key check refuses
    if (types <= {int, str}
            and (reuse or () not in keys and symbols.issuperset(chain.from_iterable(keys)))
            and (not strings or joined.count("\n") == len(strings) - 1
                 and (len(joined) <= _SAFE_LENGTH or max(map(len, strings)) <= _SAFE_LENGTH)
                 and _SAFE_LITERALS.fullmatch(joined))):
        return dict(zip(keys, values))
    table = {}
    for text, v in mapping.items():
        key = tuple(text.split()) if isinstance(text, str) else ()
        if not key or not symbols.issuperset(key):
            raise SpecError(f"{what} key {text!r} is not a word over {sorted(symbols)}")
        table[key] = _literal(v)
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
                raise UnknownSymbolError(f"unknown symbol {sym!r}")
            letters.append(self.by_symbol[sym])
        return tuple(letters)

    def joint(self) -> BifreeProduct:
        d = BifreeProduct(self.pures)
        if self.perturbations:
            deltas = {self.word(" ".join(k)): v for k, v in self.perturbations.items()}
            return PerturbedJoint(d, deltas)
        return d


def _decode(fh):
    """The JSON value read from fh; text that JSON cannot decode is a SpecError."""
    try:
        return json.load(fh)
    except RecursionError:
        raise SpecError("the spec nests too deeply to decode as JSON") from None
    except ValueError as exc:  # not JSON, or an integer past the digit limit
        raise SpecError(str(exc)) from None


def load_family(source) -> Family:
    """Load a Family from a path, file object, or already-parsed dict."""
    if isinstance(source, dict):
        data = source
    elif hasattr(source, "read"):
        data = _decode(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            data = _decode(fh)

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
        def table(name, texts=(), words=()):
            return _parse_table(
                spec[name], f"pair {pair!r} {name}", set(left + right), texts, words)
        theta = table("theta_moments") if "theta_moments" in spec else None
        has_m, has_c = "moments" in spec, "cumulants" in spec
        if has_m == has_c:
            raise SpecError(f"pair {pair!r} needs exactly one of moments/cumulants")
        kind, name = (MomentTablePure, "moments") if has_m else (CumulantTablePure, "cumulants")
        # the table often lists the theta table's words, which it then shares
        pures[pair] = kind(pair, left, right, max_degree,
                           table(name, spec.get("theta_moments", ()), theta or ()),
                           theta_table=theta)

    symbols = {letter.symbol for pure in pures.values() for letter in pure.letters}
    # joint() reads every delta, so the perturbations are converted here
    perturbations = _parse_table(data.get("perturbations", {}), "perturbations", symbols)
    return Family(pures, {key: Fraction(v) for key, v in perturbations.items()})

"""Letters, words, and formal rational combinations of words.

A letter is a generator symbol tagged with its pair-id and side; a word is a
tuple of letters (the empty tuple is the unit).  Opposite-side letters of
different pairs commute; `canonical_word` picks the lexicographically least
representative of that commutation class, which is what moment tables key on.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Letter:
    symbol: str
    pair: str
    side: str  # "l" or "r"

    def __post_init__(self):
        if self.side not in ("l", "r"):
            raise ValueError(f"side must be 'l' or 'r', got {self.side!r}")


Word = tuple  # tuple of Letter


def word_text(w: Word) -> str:
    return " ".join(letter.symbol for letter in w) if w else "1"


def chi_of(w: Word) -> str:
    return "".join(letter.side for letter in w)


def eps_of(w: Word) -> tuple:
    return tuple(letter.pair for letter in w)


def subword(w: Word, indices) -> Word:
    """Letters at the given 1-based indices, in increasing natural order."""
    n = len(w)
    idx = sorted(indices)
    if idx and not (1 <= idx[0] and idx[-1] <= n):
        raise IndexError(f"indices {idx} out of range for word of length {n}")
    return tuple(w[i - 1] for i in idx)


def _key(a: Letter):
    return (a.symbol, a.pair, a.side)


def canonical_word(w: Word) -> Word:
    """Lexicographically least word in the commutation class of w.

    The lexicographic normal form of the trace monoid: repeatedly emit the
    least letter that commutes with every letter before it.  Only two letters
    can: the first one, and the first one of the other side when no letter
    before it shares its pair (those letters all lie on the first one's side).
    """
    rest = list(w)
    out = []
    while rest:
        pick = 0
        for i, b in enumerate(rest):
            if b.side != rest[0].side:
                if all(a.pair != b.pair for a in rest[:i]) and _key(b) < _key(rest[0]):
                    pick = i
                break
        out.append(rest.pop(pick))
    return tuple(out)


class ScalarWordSum:
    """A formal rational linear combination of words; zero coefficients dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for w, c in terms.items() if isinstance(terms, dict) else terms:
                self.add(w, c)

    @classmethod
    def word(cls, w: Word, coeff=1):
        s = cls()
        s.add(w, coeff)
        return s

    def add(self, w: Word, coeff):
        coeff = Fraction(coeff)
        if coeff == 0:
            return self
        new = self.terms.get(w, 0) + coeff
        if new == 0:
            self.terms.pop(w, None)
        else:
            self.terms[w] = new
        return self

    def __add__(self, other):
        s = ScalarWordSum(dict(self.terms))
        for w, c in other.terms.items():
            s.add(w, c)
        return s

    def scaled(self, coeff):
        coeff = Fraction(coeff)
        s = ScalarWordSum()
        if coeff != 0:
            for w, c in self.terms.items():
                s.terms[w] = c * coeff
        return s

    def items(self):
        return self.terms.items()

    def __eq__(self, other):
        return isinstance(other, ScalarWordSum) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "ScalarWordSum(0)"
        bits = [f"{c}*[{word_text(w)}]" for w, c in sorted(self.terms.items(), key=lambda t: word_text(t[0]))]
        return "ScalarWordSum(" + " + ".join(bits) + ")"


def shifted_product_expansion(w: Word, shifts) -> ScalarWordSum:
    """Expansion of prod_i (z_i - c_i) as a word sum.

    `shifts` maps 1-based position -> rational shift (missing = 0).
    """
    n = len(w)
    out = ScalarWordSum()
    # iterate over subsets kept as letters; complement contributes prod(-c_i)
    for mask in range(1 << n):
        coeff = Fraction(1)
        kept = []
        for i in range(n):
            if mask >> i & 1:
                kept.append(w[i])
            else:
                c = Fraction(shifts.get(i + 1, 0))
                if c == 0:
                    coeff = 0
                    break
                coeff *= -c
        if coeff != 0:
            out.add(tuple(kept), coeff)
    return out

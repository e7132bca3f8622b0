"""Letters, words, and formal rational linear combinations.

A letter is a generator symbol tagged with its pair-id and side; a word is a
tuple of letters (the empty tuple is the unit).  Opposite-side letters of
different pairs commute; `canonical_word` picks the lexicographically least
representative of that commutation class, which is what moment tables key on.
`scan` is the one exhaustive loop of the property checks over those words.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import product
from math import gcd

from .errors import DomainError, PositionError, SizeError


class Letter(namedtuple("Letter", "symbol pair side")):
    """A generator: symbol, pair id and side ("l" or "r").  Letters order as tuples."""

    __slots__ = ()

    def __new__(cls, symbol, pair, side):
        if side not in ("l", "r"):
            raise DomainError(f"side must be 'l' or 'r', got {side!r}")
        return super().__new__(cls, symbol, pair, side)


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
        raise PositionError(f"indices {idx} out of range for word of length {n}")
    return tuple(w[i - 1] for i in idx)


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
                if all(a.pair != b.pair for a in rest[:i]) and b < rest[0]:
                    pick = i
                break
        out.append(rest.pop(pick))
    return tuple(out)


def words_up_to(letters, max_len, mixed_only=False):
    """Every word of 1..max_len letters, by length and then in alphabet order.

    mixed_only keeps only the words with letters from more than one pair.
    """
    for n in range(1, max_len + 1):
        for w in product(letters, repeat=n):
            if not mixed_only or len(set(eps_of(w))) > 1:
                yield w


def check_scan(letters, max_len, mixed_only=True):
    """Refuse max_len outside 1..8 (SizeError) and a scan with no word to check."""
    if not 1 <= max_len <= 8:
        raise SizeError(f"max_len must be in 1..8, got {max_len}")
    mixed_words = max_len >= 2 and len({l.pair for l in letters}) >= 2
    if not letters or mixed_only and not mixed_words:
        raise DomainError("vacuous scan: no word to check (mixed words need "
                          "two pairs and max_len of at least 2)")


class ScanVerdict(namedtuple("ScanVerdict", "checked word values certified",
                             defaults=(None, None, True))):
    """How many words a scan checked and, if one failed, that word and its values."""

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return self.word is None

    def render(self) -> str:
        suffix = "" if self.certified else " uncertified"
        if self.holds:
            return f"HOLDS checked={self.checked}{suffix}"
        values = "".join(f" {name}={v}" for name, v in self.values.items())
        return f"COUNTEREXAMPLE word={word_text(self.word)}{values}{suffix}"


def scan(letters, max_len, failure, mixed_only=True, certified=True) -> ScanVerdict:
    """Check the words up to max_len over every letter, ordered by (pair, side, symbol).

    failure(w) returns the values that show w fails, or None; the scan stops there.
    failure must take one value per commutation class: it is called on the first
    spelling of each class, and a later spelling of a class that passed is counted
    in `checked` without a call.
    """
    letters = sorted(letters, key=lambda l: (l.pair, l.side, l.symbol))
    check_scan(letters, max_len, mixed_only)
    checked = 0
    passed = set()
    for w in words_up_to(letters, max_len, mixed_only):
        checked += 1
        if (key := canonical_word(w)) not in passed:
            if values := failure(w):
                return ScanVerdict(checked, w, values, certified)
            passed.add(key)
    return ScanVerdict(checked, certified=certified)


class LinearSum:
    """A formal rational linear combination: hashable key -> nonzero Fraction.

    Keys are words for scalar sums and (left word, right word) pairs for
    tensor sums.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {key: c if isinstance(c, Fraction) else Fraction(c)
                      for key, c in (terms or {}).items() if c}

    @classmethod
    def word(cls, w: Word, coeff=1):
        return cls().add(w, coeff)

    def add(self, key, coeff):
        coeff = Fraction(coeff)
        if coeff == 0:
            return self
        new = self.terms.get(key, 0) + coeff
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new
        return self

    def __add__(self, other):
        s = LinearSum(self.terms)
        for key, c in other.items():
            s.add(key, c)
        return s

    def scaled(self, coeff):
        coeff = Fraction(coeff)
        return LinearSum({key: c * coeff for key, c in self.terms.items()})

    def items(self):
        return self.terms.items()

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, LinearSum) and self.terms == other.terms

    def evaluate(self, f) -> Fraction:
        """The linear extension of f: the sum of c * f(key) over the terms.

        f is called once per term, in term order, and may return a Fraction
        or an int.  The sum is kept as integers num/den over the lcm of the
        denominators so far, and reduced once at the end.
        """
        return Fraction(*_sum_products(self.terms, f))

    def render(self) -> str:
        """For a tensor sum: one `±p/q · [left] ⊗ [right]` line per term, sorted."""
        lines = []
        for (lw, rw), c in sorted(
                self.terms.items(),
                key=lambda kv: (word_text(kv[0][0]), word_text(kv[0][1]))):
            sign = "+" if c > 0 else "-"
            lines.append(f"{sign}{abs(c)} · [{word_text(lw)}] ⊗ [{word_text(rw)}]")
        return "\n".join(lines) if lines else "0"


ScalarWordSum = TensorSum = LinearSum


def _sum_products(terms, f):
    """(num, den) of the sum of c * f(key) over the nonzero c of terms.

    terms maps keys to ints or Fractions; f is called once per nonzero term,
    in term order.  num/den is kept over the lcm of the denominators so far.
    """
    num, den = 0, 1
    for key, c in terms.items():
        if a := c.numerator:
            v = f(key)
            if p := a * v.numerator:
                q = c.denominator * v.denominator
                g = gcd(den, q)
                num = num * (q // g) + p * (den // g)
                den = den // g * q
    return num, den


def _centred_terms(w, shifts):
    """prod_i (q_i z_i - p_i) as (kept word -> int coefficient, Q = prod_i q_i).

    c_i = p_i/q_i is shifts[i] (1-based, missing = 0).  The binomials are
    multiplied in one at a time, so the kept words share their prefixes.  A
    zero shift extends every kept word by its letter: Q does not change and,
    the kept words being distinct, no two extended words collide.
    """
    terms = {(): 1}
    big_q = 1
    for i, letter in enumerate(w, 1):
        c = shifts.get(i, 0)
        if not c:
            terms = {kept + (letter,): coeff for kept, coeff in terms.items()}
            continue
        if not isinstance(c, Fraction):
            c = Fraction(c)
        p, q = c.numerator, c.denominator
        big_q *= q
        step = {}
        for kept, coeff in terms.items():
            longer = kept + (letter,)
            step[longer] = step.get(longer, 0) + q * coeff
            step[kept] = step.get(kept, 0) - p * coeff
        terms = step
    return terms, big_q


def _evaluate_centred(w, shifts, f) -> Fraction:
    """shifted_product_expansion(w, shifts).evaluate(f), with no Fraction per term."""
    terms, big_q = _centred_terms(w, shifts)
    num, den = _sum_products(terms, f)
    return Fraction(num, den * big_q)


def shifted_product_expansion(w: Word, shifts) -> LinearSum:
    """Expansion of prod_i (z_i - c_i) as a word sum.

    `shifts` maps 1-based position -> rational shift (missing = 0).  With
    c_i = p_i/q_i the product is prod_i (q_i z_i - p_i) / Q, Q = prod_i q_i
    (`_centred_terms`), and each coefficient is divided by Q once.  A zero
    shift leaves only the branch that keeps its letter.
    """
    terms, big_q = _centred_terms(w, shifts)
    return LinearSum({key: Fraction(coeff, big_q) for key, coeff in terms.items() if coeff})

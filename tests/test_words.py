import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bifree import (
    InsufficientDataError,
    Letter,
    ScalarWordSum,
    canonical_word,
    chi_of,
    eps_of,
    eval_tensor,
    kappa,
    load_family,
    replacement_expand,
    shifted_product_expansion,
    subword,
    taur,
    word_text,
    words_up_to,
)

from bifree.words import ScanVerdict, _centred_terms, _evaluate_centred, scan

from conftest import SWAPS, apply_swaps, commutes

DATA = os.path.join(os.path.dirname(__file__), "data")

XL = Letter("x", "a", "l")
YR = Letter("y", "b", "r")
ZL = Letter("z", "b", "l")


def test_letter_validation():
    with pytest.raises(ValueError):
        Letter("q", "a", "left")


def test_projections():
    w = (XL, YR)
    assert chi_of(w) == "lr"
    assert eps_of(w) == ("a", "b")
    assert chi_of(()) == ""
    assert eps_of(()) == ()
    assert word_text(w) == "x y"
    assert word_text(()) == "1"


def test_subword():
    w = (XL, YR, ZL)
    assert subword(w, set()) == ()
    assert subword(w, {1, 2, 3}) == w
    assert subword(w, {3, 1}) == (XL, ZL)
    with pytest.raises(IndexError):
        subword(w, {4})


def test_canonical_word_commutation():
    # opposite sides, different pairs: commute; x < y so x moves left
    assert canonical_word((YR, XL)) == (XL, YR)
    assert canonical_word((XL, YR)) == (XL, YR)
    # same side letters never swap
    assert canonical_word((ZL, XL)) == (ZL, XL)
    # same pair letters never swap
    assert canonical_word((YR, ZL)) == (YR, ZL)
    # canonical form is a class invariant
    assert canonical_word((YR, XL, ZL)) == canonical_word((XL, YR, ZL))
    # a1 commutes with b1 but c1 does not, so b1 must pass c1 a1 as a unit
    c1 = Letter("c1", "q", "r")
    a1 = Letter("a1", "q", "r")
    b1 = Letter("b1", "p", "l")
    assert canonical_word((c1, a1, b1)) == canonical_word((b1, c1, a1)) == (b1, c1, a1)


ALPHABET = (XL, YR, ZL, Letter("u", "a", "r"), Letter("v", "c", "l"),
            Letter("c1", "q", "r"), Letter("a1", "q", "r"), Letter("b1", "p", "l"))


def _commutation_class(w):
    seen, todo = {w}, [w]
    while todo:
        v = todo.pop()
        for i in range(len(v) - 1):
            if commutes(v[i], v[i + 1]):
                u = v[:i] + (v[i + 1], v[i]) + v[i + 2:]
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
    return seen


def _key(w):
    return [(a.symbol, a.pair, a.side) for a in w]


words = st.lists(st.sampled_from(ALPHABET), max_size=7).map(tuple)


@settings(max_examples=200, deadline=None)
@given(words, SWAPS)
def test_canonical_word_invariant_under_allowed_swaps(w, swaps):
    assert canonical_word(apply_swaps(w, swaps)) == canonical_word(w)


@settings(max_examples=100, deadline=None)
@given(words)
def test_canonical_word_is_least_in_its_class(w):
    assert canonical_word(w) == min(_commutation_class(w), key=_key)


def test_scalar_word_sum():
    s = ScalarWordSum()
    s.add((XL,), Fraction(1, 2)).add((XL,), Fraction(1, 2))
    assert s.terms == {(XL,): Fraction(1)}
    s.add((XL,), -1)
    assert s.terms == {}
    t = ScalarWordSum.word((YR,), 3) + ScalarWordSum.word((YR,), -1)
    assert t.terms == {(YR,): Fraction(2)}
    assert t.scaled(0).terms == {}
    # a Fraction coefficient is kept as it is, not wrapped again
    half = Fraction(1, 2)
    assert ScalarWordSum({(XL,): half}).terms[(XL,)] is half


def test_shifted_product_expansion():
    w = (XL, YR)
    shifts = {1: Fraction(2), 2: Fraction(3)}
    s = shifted_product_expansion(w, shifts)
    # (x - 2)(y - 3) = xy - 3x - 2y + 6
    assert s.terms == {
        (XL, YR): Fraction(1),
        (XL,): Fraction(-3),
        (YR,): Fraction(-2),
        (): Fraction(6),
    }
    # zero shift prunes the subsets dropping that letter
    s0 = shifted_product_expansion(w, {2: Fraction(3)})
    assert s0.terms == {(XL, YR): Fraction(1), (XL,): Fraction(-3)}


def _subset_expansion(w, shifts):
    """prod_i (z_i - c_i) as an explicit sum over the 2^n subsets of kept letters."""
    n = len(w)
    out = ScalarWordSum()
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


BIG = 10 ** 30
# denominators that are small, share prime factors, or run to 30 digits, so
# common denominators both collapse and grow
denominators = st.one_of(st.integers(1, 12),
                         st.builds(lambda a, b: 2 ** a * 3 ** b, st.integers(0, 60), st.integers(0, 40)),
                         st.integers(1, BIG))
big_fractions = st.builds(Fraction, st.integers(-BIG, BIG), denominators)

# few letters, so words repeat letters and some subsets share their kept word
shift_values = st.one_of(st.just(0), st.integers(-5, 5),
                         st.fractions(min_value=-3, max_value=3, max_denominator=4), big_fractions)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from((XL, YR, ZL)), max_size=7).map(tuple),
       st.dictionaries(st.integers(1, 7), shift_values))
def test_shifted_product_expansion_matches_subset_sum(w, shifts):
    s = shifted_product_expansion(w, shifts)
    assert s == _subset_expansion(w, shifts)
    assert all(type(c) is Fraction for c in s.terms.values())


# sums with negative and 30-digit coefficients, and what a moment oracle may
# return for a key: a Fraction, an int or 0
word_sums = st.dictionaries(st.lists(st.sampled_from(ALPHABET), max_size=4).map(tuple),
                            big_fractions.filter(bool), max_size=12).map(ScalarWordSum)
oracle_values = st.one_of(st.just(0), st.integers(-BIG, BIG), big_fractions)


@settings(max_examples=200, deadline=None)
@given(word_sums, st.data())
def test_evaluate_is_the_fraction_sum_read_once_in_term_order(s, data):
    table = {key: data.draw(oracle_values) for key in s.terms}
    reads = []

    def f(key):
        reads.append(key)
        return table[key]

    value = s.evaluate(f)
    assert value == sum((c * table[k] for k, c in s.items()), Fraction(0))
    assert type(value) is Fraction
    assert reads == list(s.terms)


@settings(max_examples=100, deadline=None)
@given(word_sums.filter(lambda s: not s.is_zero()), st.data())
def test_evaluate_stops_at_the_first_missing_entry(s, data):
    k = data.draw(st.integers(1, len(s.terms)))
    reads = []

    def f(key):
        reads.append(key)
        if len(reads) == k:
            raise InsufficientDataError(word_text(key))
        return Fraction(1)

    with pytest.raises(InsufficientDataError):
        s.evaluate(f)
    assert reads == list(s.terms)[:k]


def test_shifted_product_expansion_cancels_repeated_letters():
    # (x - 1)(x + 1) = x x - 1: the two one-letter terms cancel and are dropped
    s = shifted_product_expansion((XL, XL), {1: 1, 2: -1})
    assert s.terms == {(XL, XL): Fraction(1), (): Fraction(-1)}
    # and the integer evaluator does not read the cancelled word
    reads = []
    assert _evaluate_centred((XL, XL), {1: 1, 2: -1}, lambda key: reads.append(key) or 3) == 0
    assert reads == [(XL, XL), ()]


def test_zero_shift_extends_every_kept_word():
    # x (y - 3/2) = (2 x y - 3 x) / 2: the zero shift of x leaves Q = 2
    terms, big_q = _centred_terms((XL, YR), {1: Fraction(0), 2: Fraction(3, 2)})
    assert (terms, big_q) == ({(XL, YR): 2, (XL,): -3}, 2)
    assert _centred_terms((XL, YR), {2: Fraction(3, 2)}) == (terms, big_q)
    assert _centred_terms((XL, YR, XL), {}) == ({(XL, YR, XL): 1}, 1)


# shifts that often repeat with either sign, so that terms of repeated letters cancel
cancelling_shifts = st.one_of(st.sampled_from((1, -1, Fraction(1, 2), Fraction(-1, 2))),
                              shift_values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from((XL, YR, ZL)), max_size=8).map(tuple),
       st.dictionaries(st.integers(1, 8), cancelling_shifts), st.data())
def test_integer_evaluator_reads_and_raises_as_the_expansion(w, shifts, data):
    """_evaluate_centred gives the value of the public expansion's evaluate,
    reads the same keys in the same order, and stops at the same missing one."""
    stop = data.draw(st.one_of(st.none(), st.integers(1, 2 ** len(w))))
    values = {}

    def run(evaluate):
        reads = []

        def f(key):
            reads.append(key)
            if len(reads) == stop:
                raise InsufficientDataError(word_text(key))
            if key not in values:
                values[key] = data.draw(oracle_values)
            return values[key]

        try:
            value = evaluate(f)
            assert type(value) is Fraction
        except InsufficientDataError as err:
            value = ("missing", str(err))
        return value, reads

    expected = run(shifted_product_expansion(w, shifts).evaluate)
    assert run(lambda f: _evaluate_centred(w, shifts, f)) == expected


def test_words_up_to_order():
    assert list(words_up_to((XL, YR), 2)) == [
        (XL,), (YR,), (XL, XL), (XL, YR), (YR, XL), (YR, YR)]
    assert list(words_up_to((XL, YR), 2, mixed_only=True)) == [(XL, YR), (YR, XL)]
    assert list(words_up_to((XL, ZL), 2, mixed_only=True)) == [(XL, ZL), (ZL, XL)]


def test_letters_order_as_tuples():
    assert Letter("a", "q", "r") < Letter("b", "p", "l")
    assert Letter("a", "p", "r") > Letter("a", "p", "l")
    assert hash(Letter("a", "p", "l")) == hash(("a", "p", "l"))


def _scanned_values(path, w):
    """What the three exhaustive checks compute on w, each on a freshly loaded family:
    kappa, then per pair the tensor map and the replacement expansion.  A missing
    table entry reads as InsufficientDataError."""
    def fresh(f):
        fam = load_family(path)
        try:
            return f(fam)
        except InsufficientDataError:
            return InsufficientDataError
    values = [fresh(lambda fam: kappa(fam.joint(), w))]
    for iota in sorted(load_family(path).pures):
        values.append(fresh(lambda fam: eval_tensor(fam.joint(), taur(w, iota))))
        values.append(fresh(lambda fam: replacement_expand(fam.pures, w, iota)))
    return values


@pytest.mark.parametrize("spec", ["two_pairs.json", "perturbed.json", "sec4.json"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_commuting_swap_keeps_every_scanned_value(spec, data):
    """scan checks one spelling per commutation class, which rests on this: swapping
    an adjacent left and right letter of different pairs changes none of the values.
    On sec4.json's truncated tables both spellings miss an entry or neither does."""
    path = os.path.join(DATA, spec)
    letters = sorted(load_family(path).by_symbol.values())
    w = data.draw(st.lists(st.sampled_from(letters), max_size=4).map(tuple))
    k = data.draw(st.integers(0, len(w)))
    a, b = data.draw(st.sampled_from(
        [(a, b) for a in letters for b in letters if commutes(a, b)]))
    values = _scanned_values(path, w[:k] + (a, b) + w[k:])
    assert _scanned_values(path, w[:k] + (b, a) + w[k:]) == values
    if spec != "sec4.json":
        assert InsufficientDataError not in values


# scan order puts P (pair a) first, the canonical order puts Q (symbol y) first
P, Q, R = Letter("z", "a", "l"), Letter("y", "b", "r"), Letter("x", "b", "l")


def test_scan_calls_failure_once_per_commutation_class():
    calls = []
    verdict = scan((P, Q, R), 3, lambda w: calls.append(w), mixed_only=False)
    every = list(words_up_to((P, R, Q), 3))
    assert verdict == ScanVerdict(len(every))
    assert ScanVerdict(5).holds and ScanVerdict(5).certified
    assert ScanVerdict(5).render() == "HOLDS checked=5"
    classes = {canonical_word(w) for w in every}
    assert len(calls) == len(classes) < len(every)
    assert {canonical_word(w) for w in calls} == classes
    # each call is on the first spelling of its class in scan order
    assert calls == [w for i, w in enumerate(every)
                     if canonical_word(w) not in map(canonical_word, every[:i])]


def test_scan_names_the_first_spelling_of_a_failing_class():
    failing = canonical_word((P, Q, R))
    assert failing == (Q, P, R) and len(_commutation_class(failing)) == 2
    calls = []

    def failure(w):
        calls.append(w)
        return {"value": 1} if canonical_word(w) == failing else None
    verdict = scan((P, Q, R), 3, failure)
    mixed = list(words_up_to((P, R, Q), 3, mixed_only=True))
    assert verdict.word == (P, Q, R) == calls[-1]
    assert verdict.checked == mixed.index((P, Q, R)) + 1
    assert verdict.render() == "COUNTEREXAMPLE word=z y x value=1"

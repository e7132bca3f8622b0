import math
import os
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from bifree import (
    BifreeProduct,
    CumulantTablePure,
    DomainError,
    ExpPoly,
    InsufficientDataError,
    Letter,
    ModeError,
    PerturbedJoint,
    ReplacementContext,
    TensorSum,
    eval_tensor,
    free_delta,
    liberation_test,
    load_family,
    maximal_mono_intervals,
    replacement_expand,
    taur,
    taur_test,
    ubm_eval,
    ubm_moment,
    ubm_power_expansion,
)
from bifree.bnc import chi_interval, chi_precedes, s_chi_permutation
from bifree.words import chi_of, eps_of, subword

from conftest import (
    SWAPS,
    apply_swaps,
    rand_fraction,
    random_family,
    random_moment_pure,
    random_table_joint,
    words_up_to,
)


def test_taur_singleton():
    a = Letter("a", "p1", "l")
    ts = taur((a,), "p1")
    assert ts.terms == {((), (a,)): Fraction(1), ((a,), ()): Fraction(-1)}
    # no iota letters: kernel
    assert taur((a,), "p0").is_zero()
    assert taur((), "p1").is_zero()


def test_taur_ten_letter_golden():
    # lefts {2,5,6,7,8}, color 1 on {4,6,7}: the worked eight-term figure
    chi = "rlrrllllrr"
    eps = ("0", "0", "0", "1", "0", "1", "1", "0", "0", "0")
    w = tuple(Letter(f"z{i + 1}", eps[i], chi[i]) for i in range(10))
    z = {i + 1: w[i] for i in range(10)}

    def word(*ids):
        return tuple(z[i] for i in ids)

    ts = taur(w, "1")
    expected = {
        (word(*range(1, 11)), ()): Fraction(-2),
        (word(1, 2, 3, 4, 5, 8, 9, 10), word(6, 7)): Fraction(1),
        (word(1, 2, 3, 4, 5), word(6, 7, 8, 9, 10)): Fraction(-1),
        (word(1, 2, 3, 5), word(4, 6, 7, 8, 9, 10)): Fraction(1),
        (word(1, 2, 3, 4, 5, 6, 7), word(8, 9, 10)): Fraction(1),
        (word(1, 2, 3, 5, 6, 7), word(4, 8, 9, 10)): Fraction(-1),
        (word(1, 2, 3, 5, 6, 7, 8, 9, 10), word(4,)): Fraction(1),
    }
    assert ts.terms == expected


def test_taur_terms_never_split_mono_intervals():
    rng = random.Random(0)
    for _ in range(30):
        n = rng.randint(2, 6)
        letters = tuple(
            Letter(f"g{i}", rng.choice(("p0", "p1")), rng.choice("lr"))
            for i in range(n))
        pos_of = {letters[i]: i + 1 for i in range(n)}
        if len(set(pos_of)) < n:
            continue  # need distinct letters to recover positions
        ts = taur(letters, "p1")
        intervals = maximal_mono_intervals(chi_of(letters), eps_of(letters))
        for (lw, rw), _ in ts.items():
            right = {pos_of[l] for l in rw}
            for interval in intervals:
                inside = set(interval) & right
                assert not inside or set(interval) <= right


def test_eval_tensor_two_letters():
    rng = random.Random(1)
    pures = random_family(rng, max_degree=4)
    base = BifreeProduct(pures)
    x = pures["a"].letters[0]
    y = pures["b"].letters[0]
    assert eval_tensor(base, TensorSum()) == 0
    assert eval_tensor(base, taur((x, y), "b")) == 0
    d = PerturbedJoint(base, {(x, y): Fraction(1)})
    assert eval_tensor(d, taur((x, y), "b")) == -1


# pair a has two left generators and pair b two right ones
MULTI = (Letter("al0", "a", "l"), Letter("al1", "a", "l"), Letter("ar", "a", "r"),
         Letter("bl", "b", "l"), Letter("br0", "b", "r"), Letter("br1", "b", "r"))
MULTI_JOINT = random_table_joint(MULTI, random.Random(2), max_len=5)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(MULTI), min_size=1, max_size=5).map(tuple), SWAPS)
def test_taur_well_defined_under_commutation(w, swaps):
    """A random table is no bi-free product, so the values compared are not all 0."""
    v = apply_swaps(w, swaps)
    for iota in ("a", "b"):
        assert eval_tensor(MULTI_JOINT, taur(v, iota)) == \
            eval_tensor(MULTI_JOINT, taur(w, iota))


def _taur_by_intervals(w, iota):
    """The definition: chi_precedes picks the pairs, chi_interval the four intervals."""
    out = TensorSum()
    chi = chi_of(w)
    positions = [i for i, letter in enumerate(w, 1) if letter.pair == iota]
    everything = set(range(1, len(w) + 1))
    for i in positions:
        for j in positions:
            if i != j and not chi_precedes(chi, i, j):
                continue
            for left_closed, right_closed, sign in (
                    (True, True, 1), (True, False, -1),
                    (False, True, -1), (False, False, 1)):
                interval = chi_interval(chi, i, j, left_closed, right_closed)
                out.add((subword(w, everything - interval), subword(w, interval)), sign)
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(MULTI), max_size=7).map(tuple), st.sampled_from("ab"))
def test_taur_matches_interval_definition(w, iota):
    assert taur(w, iota).terms == _taur_by_intervals(w, iota).terms


def _taur_pairs(w, iota):
    """The pairwise loop: four chi-order slices for each pair of iota chi-ranks a <= b."""
    out = TensorSum()
    order = s_chi_permutation(chi_of(w)) if w else ()
    ranks = [k for k, i in enumerate(order) if w[i - 1].pair == iota]
    for a, b in combinations_with_replacement(ranks, 2):
        for lo, hi, sign in ((a, b + 1, 1), (a, b, -1), (a + 1, b + 1, -1), (a + 1, b, 1)):
            # the open interval (i, i) is empty: lo > hi, and the complement is everything
            out.add((subword(w, order[:lo] + order[max(lo, hi):]),
                     subword(w, order[lo:hi])), sign)
    return out.terms


# three pairs, each with a left and a right generator; pair "z" is in no word
THREE = tuple(Letter(f"{p}{side}", p, side) for p in "abc" for side in "lr")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(THREE), max_size=8).map(tuple), st.sampled_from("abcz"))
def test_taur_closed_form_matches_pairwise_loop(w, iota):
    assert taur(w, iota).terms == _taur_pairs(w, iota)


def test_taur_of_one_long_iota_run_has_two_terms():
    """499 al then bl: 2 terms, where summing pair by pair adds about 500,000."""
    fam = load_family(os.path.join(os.path.dirname(__file__), "data", "two_pairs.json"))
    w = fam.word(" ".join(["al"] * 499 + ["bl"]))
    assert taur(w, "a").terms == {(w[-1:], w[:-1]): 1, (w, ()): -1}


def test_taur_test_verdicts():
    rng = random.Random(3)
    pures = random_family(rng, max_degree=6)
    base = BifreeProduct(pures)
    verdict = taur_test(base, "b", max_len=3)
    assert verdict.holds and verdict.certified
    assert verdict.render() == f"HOLDS checked={verdict.checked}"
    x = pures["a"].letters[0]
    y = pures["b"].letters[0]
    d = PerturbedJoint(base, {(x, y): Fraction(1)})
    bad = taur_test(d, "b", max_len=3)
    assert not bad.holds
    assert bad.render().startswith("COUNTEREXAMPLE word=")
    # a pair the distribution does not have would check every word vacuously
    with pytest.raises(DomainError):
        taur_test(base, "zzz", max_len=3)
    with pytest.raises(ValueError):
        taur_test(base, "b", max_len=0)


def test_taur_test_uncertified_beyond_two_pairs():
    rng = random.Random(4)
    d = BifreeProduct(random_family(rng, pairs=("a", "b", "c"), max_degree=4))
    verdict = taur_test(d, "a", max_len=2)
    assert not verdict.certified
    assert verdict.render().endswith(" uncertified")


def test_free_delta():
    a = Letter("a", "p1", "l")
    b = Letter("b", "p0", "l")
    ts = free_delta((a,), "p1")
    assert ts.terms == {((), (a,)): Fraction(-1), ((a,), ()): Fraction(1)}
    assert free_delta((b,), "p1").is_zero()
    ts2 = free_delta((a, b), "p1")
    assert ts2.terms == {((), (a, b)): Fraction(-1), ((a,), (b,)): Fraction(1)}
    with pytest.raises(DomainError):
        free_delta((Letter("r", "p1", "r"),), "p1")


def test_tensor_sum_render():
    a = Letter("a", "p1", "l")
    ts = taur((a,), "p1")
    assert ts.render() == "+1 · [1] ⊗ [a]\n-1 · [a] ⊗ [1]"
    assert TensorSum().render() == "0"


def test_exp_poly():
    p = ExpPoly({Fraction(-1): (Fraction(1), Fraction(-1))})
    assert p.render() == "(1 - t) * exp(-t)"
    assert p.taylor1() == (Fraction(1), Fraction(-2))
    assert abs(p.eval(0.5) - 0.5 * math.exp(-0.5)) < 1e-15
    q = ExpPoly()
    q.add_term(Fraction(0), (Fraction(1),))
    q.add_term(Fraction(0), (Fraction(-1),))
    assert q.render() == "0"


def test_ubm_moments():
    with pytest.raises(DomainError):
        ubm_moment(-1)
    assert ubm_moment(1).render() == "(1) * exp(-1/2*t)"
    assert ubm_moment(2).render() == "(1 - t) * exp(-t)"
    assert ubm_moment(0).render() == "(1)"
    assert abs(ubm_eval(1, 1.0) - 0.6065306597126334) < 1e-12
    assert ubm_eval(2, 1.0) == pytest.approx(0.0, abs=1e-15)
    for n in range(1, 9):
        assert ubm_eval(n, 0.0) == pytest.approx(1.0, rel=1e-12)
    for t in (-1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError):
            ubm_eval(1, t)


def _ubm_closed_form(n):
    """The docstring's sum, each coefficient computed on its own."""
    if n == 0:
        return ExpPoly({Fraction(0): (Fraction(1),)})
    return ExpPoly({Fraction(-n, 2): tuple(
        Fraction((-1) ** k, math.factorial(k)) * Fraction(n) ** (k - 1) * math.comb(n, k + 1)
        for k in range(n))})


def test_ubm_moment_matches_closed_form():
    for n in range(61):
        assert ubm_moment(n) == _ubm_closed_form(n)


def _ubm_exact(n, t):
    """phi(U(t)^n) to 40 digits: the polynomial exactly at t, times exp(-nt/2) in Decimal."""
    (rate, coeffs), = ubm_moment(n).terms.items()
    p = sum(c * Fraction(t) ** k for k, c in enumerate(coeffs))
    with localcontext() as ctx:
        ctx.prec = 40
        e = (Decimal(rate.numerator) * Decimal(t) / rate.denominator).exp()
        return float(Decimal(p.numerator) / p.denominator * e)


def test_ubm_eval_matches_exact_evaluation():
    # The alternating terms c*t^k cancel; |phi(U(t)^n)| <= 1 for a unitary.
    for n in range(1, 61):
        for t in (0.5, 1.0, 5.0):
            value = ubm_eval(n, t)
            assert value == pytest.approx(_ubm_exact(n, t), rel=1e-10, abs=1e-300)
            assert abs(value) <= 1


def test_ubm_taylor_matches_replacement():
    for m in range(1, 7):
        a0, a1 = ubm_moment(m).taylor1()
        assert (a0, a1) == (Fraction(1), Fraction(-m, 2) - math.comb(m, 2))
        assert ubm_power_expansion(m) == (a0, a1)


def test_replacement_no_iota_letters():
    rng = random.Random(5)
    pures = random_family(rng, max_degree=4)
    d = BifreeProduct(pures)
    w = (pures["a"].letters[0], pures["a"].letters[1])
    c0, c1 = replacement_expand(pures, w, "b")
    assert c0 == d.phi(w)
    assert c1 == 0


def test_replacement_names_a_pair_with_no_pure():
    """Checked before the fold, which would not read a letter whose every
    partition has a zero block elsewhere."""
    pures = random_family(random.Random(5), max_degree=4)
    w = (Letter("z", "zz", "l"), pures["b"].letters[0])
    with pytest.raises(KeyError, match="no pure distribution for pair 'zz'"):
        replacement_expand(pures, w, "b")


def test_replacement_names_the_entry_that_c0_misses_first():
    """The fold meets the missing al al al first; the product moment of the
    letters, which the pairwise loop takes first, meets bl bl bl."""
    rng = random.Random(3)
    pures = {p: random_moment_pure(p, rng, max_degree=2) for p in "ab"}
    al, bl = pures["a"].letters[0], pures["b"].letters[0]
    with pytest.raises(InsufficientDataError, match="word: bl bl bl$"):
        replacement_expand(pures, (al, al, al, bl, bl, bl), "a")


def test_replacement_two_letter_closed_form():
    rng = random.Random(6)
    pures = random_family(rng, max_degree=4)
    d = BifreeProduct(pures)
    x = pures["a"].letters[0]
    y = pures["b"].letters[0]
    c0, c1 = replacement_expand(pures, (x, y), "b")
    assert c0 == d.phi((x, y))
    assert c1 == d.phi((x,)) * d.phi((y,)) - d.phi((x, y))


def test_liberation_check_small():
    rng = random.Random(7)
    pures = random_family(rng, max_degree=5)
    d = BifreeProduct(pures)
    for iota in ("a", "b"):
        verdict = liberation_test(d, iota, 3)
        assert verdict.holds and verdict.checked == len(
            list(words_up_to(d.letters, 3, mixed_only=True)))
    # a moment table has no pure distributions to conjugate
    with pytest.raises(ModeError):
        liberation_test(random_table_joint(d.letters, rng, max_len=2), "a", 2)


def _tokens(w, iota):
    """Each iota letter x as U_side x U_side^*: (side, psi) with psi = +1 for U_l and
    U_r^*, -1 for U_l^* and U_r."""
    tokens = []
    for letter in w:
        if letter.pair == iota:
            psi = 1 if letter.side == "l" else -1
            tokens += [(letter.side, psi), letter, (letter.side, -psi)]
        else:
            tokens.append(letter)
    return tokens


def _expand_pairwise(ctx, tokens):
    """The expansion one pair of S picks at a time: c0 is the product moment of
    the letters, and each pair (p, q) of unitary factors adds one product moment
    of the family with the semicircular pair adjoined, of the letters with S
    letters at p and q."""
    extended = BifreeProduct({**ctx.pures, ctx.sem.pair: ctx.sem})
    c0 = extended.phi(tuple(t for t in tokens if isinstance(t, Letter)))
    us = [k for k, t in enumerate(tokens) if not isinstance(t, Letter)]
    c1 = Fraction(-len(us), 2) * c0
    for p, q in combinations(us, 2):
        word = tuple(ctx.s_letter[t[0]] if k in (p, q) else t
                     for k, t in enumerate(tokens) if k in (p, q) or isinstance(t, Letter))
        c1 -= tokens[p][1] * tokens[q][1] * extended.phi(word)
    return c0, c1


def _random_pure(pair, rng, kind, degree):
    """A moment table up to degree, or a cumulant table (zero past degree)."""
    if kind == "moments":
        return random_moment_pure(pair, rng, max_degree=degree)
    syms = (f"{pair}l", f"{pair}r")
    table = {key: rand_fraction(rng) for n in range(1, degree + 1)
             for key in product(syms, repeat=n)}
    return CumulantTablePure(pair, syms[:1], syms[1:], None, table)


@st.composite
def expansion_cases(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    pures = {pair: _random_pure(pair, rng, draw(st.sampled_from(("moments", "cumulants"))),
                                draw(st.integers(1, 6))) for pair in "ab"}
    letters = [letter for pure in pures.values() for letter in pure.letters]
    w = tuple(draw(st.lists(st.sampled_from(letters), min_size=1, max_size=6)))
    return pures, w, draw(st.sampled_from("ab"))


def _outcome(expand):
    try:
        return expand()
    except InsufficientDataError as err:
        return InsufficientDataError, err.word_text


@settings(max_examples=200, deadline=None)
@given(expansion_cases())
def test_one_fold_matches_pairwise_expansion(case):
    """Both orders from one fold equal c0 and a product moment per pair of picks,
    and a missing table entry raises in both or in neither, naming the same word."""
    pures, w, iota = case
    want = _outcome(lambda: _expand_pairwise(ReplacementContext(pures), _tokens(w, iota)))
    assert _outcome(lambda: replacement_expand(pures, w, iota)) == want

import functools
import itertools
import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bifree import (
    BifreeProduct,
    BncPartition,
    Letter,
    ModeError,
    SetPartition,
    bifree_product_moment,
    builtin_semicircular_pair,
    chi_of,
    classify_blocks,
    conditional_kappa,
    InsufficientDataError,
    conditional_product_theta,
    enumerate_bnc,
    enumerate_bnc_leq_eps,
    eps_of,
    kappa,
    kappa_via_mobius,
    moments_from_cumulants,
    phi_pi,
    subword,
    word_text,
)
from bifree import cumulants
from bifree.bnc import s_chi_permutation
from bifree.cumulants import conditional_kappa_from, kappa_from_phi

from conftest import (
    rand_fraction,
    random_family,
    random_moment_pure,
    random_table_joint,
    words_up_to,
)


def test_kappa_short_words():
    rng = random.Random(1)
    x = Letter("x", "a", "l")
    y = Letter("y", "b", "r")
    d = random_table_joint((x, y), rng, max_len=3)
    assert kappa(d, (x,)) == d.phi((x,))
    assert kappa(d, (x, y)) == d.phi((x, y)) - d.phi((x,)) * d.phi((y,))
    assert kappa_via_mobius(d, (x,)) == d.phi((x,))
    assert kappa_via_mobius(d, (x, y)) == kappa(d, (x, y))
    with pytest.raises(ValueError):
        kappa(d, ())
    # plain callables: no ModeError (also a ValueError) can stand in for it
    with pytest.raises(ValueError) as err:
        conditional_kappa_from(lambda w: Fraction(1), lambda w: Fraction(0), ())
    assert type(err.value) is ValueError


def test_semicircular_fourth_cumulant_vanishes():
    s = builtin_semicircular_pair("p", {"ll": 1, "lr": 1, "rr": 1})
    sl, sr = s.letters
    d = BifreeProduct({"p": s})
    assert d.phi((sl, sl, sr, sr)) == 2
    assert kappa(d, (sl, sl, sr, sr)) == 0
    assert kappa(d, (sl, sr)) == 1


def test_phi_pi():
    rng = random.Random(2)
    x = Letter("x", "a", "l")
    y = Letter("y", "b", "r")
    d = random_table_joint((x, y), rng, max_len=4)
    w = (x, y, x, y)
    chi = "lrlr"
    full = BncPartition(SetPartition.full(4), chi)
    disc = BncPartition(SetPartition.discrete(4), chi)
    assert phi_pi(d, full, w) == d.phi(w)
    assert phi_pi(d, disc, w) == d.phi((x,)) ** 2 * d.phi((y,)) ** 2


def test_roundtrip_and_dual_route_small():
    rng = random.Random(3)
    x = Letter("x", "a", "l")
    y = Letter("y", "b", "r")
    for _ in range(2):
        d = random_table_joint((x, y), rng, max_len=4)
        for w in words_up_to((x, y), 4):
            assert kappa(d, w) == kappa_via_mobius(d, w)
            back = moments_from_cumulants(lambda sub: kappa(d, sub), w)
            assert back == d.phi(w)
    assert moments_from_cumulants(lambda sub: Fraction(1), ()) == 1


def test_bifree_product_two_letters():
    rng = random.Random(4)
    pures = random_family(rng, max_degree=3)
    x = pures["a"].letters[0]
    y = pures["b"].letters[1]
    assert bifree_product_moment(pures, (x, y)) == \
        pures["a"].moment((x,)) * pures["b"].moment((y,))
    with pytest.raises(KeyError):
        bifree_product_moment(pures, (Letter("q", "zz", "l"),))


def test_mixed_cumulants_vanish():
    rng = random.Random(5)
    pures = random_family(rng, max_degree=4)
    d = BifreeProduct(pures)
    for w in words_up_to(d.letters, 4, mixed_only=True):
        assert kappa(d, w) == 0


def test_chi_order_invariance():
    # swapping adjacent opposite-side different-pair letters preserves moments
    rng = random.Random(6)
    pures = random_family(rng, max_degree=4)
    d = BifreeProduct(pures)
    for w in words_up_to(d.letters, 4, mixed_only=True):
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a.pair != b.pair and a.side != b.side:
                swapped = w[:i] + (b, a) + w[i + 2:]
                assert d.phi(w) == d.phi(swapped)


def test_one_letter_subtraction_reads_only_its_value():
    """x(w) for one letter is value(w) as a Fraction; no block weight is read."""
    x = Letter("x", "a", "l")
    reads = []

    def phi(w):
        reads.append(w)
        return 3

    def unread(w):
        raise AssertionError(f"read {w}")

    got = kappa_from_phi(phi, (x,))
    assert got == 3 and type(got) is Fraction and reads == [(x,)]
    got = conditional_kappa_from(lambda w: -2, unread, (x,))
    assert got == -2 and type(got) is Fraction


def test_conditional_two_letters():
    rng = random.Random(7)
    pure = random_moment_pure("a", rng, max_degree=3, with_theta=True)
    w = pure.letters[:1] * 2
    theta = pure.theta
    got = conditional_kappa_from(theta, pure.cumulant, w)
    assert got == theta(w) - theta(w[:1]) * theta(w[1:])


def test_conditional_three_letter_expansion():
    # all-left, colors (0,1,0): theta(a)theta(b)theta(a') +
    # (theta(aa') - theta(a)theta(a')) * phi(b)
    rng = random.Random(8)
    pures = random_family(rng, max_degree=4, with_theta=True)
    a = pures["a"].letters[0]
    b = pures["b"].letters[0]
    w = (a, b, a)
    got = conditional_product_theta(pures, w)
    ta = pures["a"].theta
    pa = pures["a"].moment
    tb = pures["b"].theta
    pb = pures["b"].moment
    expected = (ta((a,)) * tb((b,)) * ta((a,))
                + (ta((a, a)) - ta((a,)) * ta((a,))) * pb((b,)))
    assert got == expected


def test_conditional_degenerates_to_bifree():
    # theta layer identical to phi layer reproduces plain product moments
    rng = random.Random(9)
    pures = {}
    for pair in ("a", "b"):
        pure = random_moment_pure(pair, rng, max_degree=4)
        pure.theta_table = dict(pure.table)
        pures[pair] = pure
    for w in words_up_to(pures["a"].letters + pures["b"].letters, 4):
        assert conditional_product_theta(pures, w) == bifree_product_moment(pures, w)


def test_conditional_kappa_requires_theta():
    rng = random.Random(10)
    d = BifreeProduct(random_family(rng, max_degree=2))
    with pytest.raises(ModeError):
        conditional_kappa(d, d.letters[:1])


# Property tests of the interval recursion against the explicit sum over
# enumerate_bnc_leq_eps, with classify_blocks telling outer from inner blocks.
# Like the loops the recursion replaced, the explicit sums read a partition's
# blocks in order and stop at the first zero factor.

def _partition_sum(pures, w, conditional):
    chi = chi_of(w)
    total = Fraction(0)
    for part in enumerate_bnc_leq_eps(chi, eps_of(w)):
        labels = classify_blocks(BncPartition(part, chi))
        prod = Fraction(1)
        for b in part.blocks:
            sub = subword(w, b)
            pure = pures[sub[0].pair]
            outer = conditional and labels[b] == "outer"
            prod *= pure.conditional_cumulant(sub) if outer else pure.cumulant(sub)
            if prod == 0:
                break
        total += prod
    return total


def _kappa_sum(phi, w, memo):
    """kappa(w) = phi(w) minus the explicit sum over the non-full BNC partitions."""
    if w not in memo:
        val = phi(w)
        for bp in enumerate_bnc(chi_of(w)):
            if len(bp.partition) == 1:
                continue
            prod = Fraction(1)
            for b in bp.partition.blocks:
                prod *= _kappa_sum(phi, subword(w, b), memo)
                if prod == 0:
                    break
            val -= prod
        memo[w] = val
    return memo[w]


@functools.lru_cache(maxsize=None)
def _theta_family(pairs, seed):
    return random_family(random.Random(seed), pairs=pairs, max_degree=8, with_theta=True)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["ab", "abc"]), st.integers(0, 2), st.data())
def test_product_moments_match_partition_sum(pairs, seed, data):
    pures = _theta_family(tuple(pairs), seed)
    letters = [l for p in pairs for l in pures[p].letters]
    w = tuple(data.draw(st.lists(st.sampled_from(letters), min_size=1, max_size=8)))
    assert bifree_product_moment(pures, w) == _partition_sum(pures, w, False)
    assert conditional_product_theta(pures, w) == _partition_sum(pures, w, True)
    if len(set(eps_of(w))) == 1:
        # a pure word: the sums give back the pure tables the cumulants came from
        pure = pures[w[0].pair]
        assert _partition_sum(pures, w, False) == pure.moment(w)
        assert _partition_sum(pures, w, True) == pure.theta(w)


LETTERS = (Letter("x", "a", "l"), Letter("y", "b", "r"), Letter("z", "b", "l"))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(LETTERS), min_size=1, max_size=8), st.integers(0, 10**6))
def test_kappa_from_phi_inverts_moments_from_cumulants(w, seed):
    def kc(sub):
        return rand_fraction(random.Random(f"{seed}:{word_text(sub)}"))

    phi = functools.partial(moments_from_cumulants, kc)
    assert kappa_from_phi(phi, tuple(w)) == kc(tuple(w))


@functools.lru_cache(maxsize=None)
def _table_joint(seed):
    return random_table_joint(LETTERS, random.Random(seed), max_len=6)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.lists(st.sampled_from(LETTERS), min_size=1, max_size=6))
def test_kappa_matches_mobius_route(seed, w):
    d = _table_joint(seed)
    assert kappa(d, tuple(w)) == kappa_via_mobius(d, tuple(w))


def _primes_above(lo, count):
    primes, p = [], lo
    while len(primes) < count:
        p += 1
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            primes.append(p)
    return primes


_PRIMES = _primes_above(10**4, 600)


class _CoprimeTable:
    """A word -> n/p table: p is a prime above 10^4, a different one for each word read.

    Tables that share one iterator of primes have pairwise coprime denominators,
    so a sum that drops or mixes up a denominator cannot come out right by luck.
    """

    def __init__(self, seed, primes):
        self.seed, self.primes, self.dens = seed, primes, {}

    def __call__(self, sub):
        text = word_text(sub)
        if text not in self.dens:
            self.dens[text] = next(self.primes)
        return Fraction(random.Random(f"{self.seed}:{text}").randint(-9, 9), self.dens[text])


ONE_PAIR = (Letter("x", "a", "l"), Letter("y", "a", "r"), Letter("z", "a", "l"))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(ONE_PAIR), min_size=1, max_size=7), st.integers(0, 10**6))
def test_sums_with_coprime_denominators_match_partition_sum(w, seed):
    # One pair, so every partition of BNC(chi) is eps-monochromatic and
    # _partition_sum runs over all of it.
    w, primes = tuple(w), iter(_PRIMES)
    pure = types.SimpleNamespace(cumulant=_CoprimeTable(f"{seed}:kappa", primes),
                                 conditional_cumulant=_CoprimeTable(f"{seed}:theta", primes))
    pures = {"a": pure}
    assert moments_from_cumulants(pure.cumulant, w) == _partition_sum(pures, w, False)
    theta = functools.partial(_partition_sum, pures, conditional=True)
    assert conditional_kappa_from(theta, pure.cumulant, w) == pure.conditional_cumulant(w)
    phi = _CoprimeTable(f"{seed}:phi", primes)
    assert kappa_from_phi(phi, w) == _kappa_sum(phi, w, {})


class _TruncatedTable:
    """A word -> value table with many zeros and about a quarter of its entries missing.

    With fill=None a missing entry raises InsufficientDataError; with an
    integer fill it reads as a nonzero value that depends on fill.
    """

    def __init__(self, seed, fill=None):
        self.seed, self.fill = seed, fill

    def __call__(self, sub):
        text = word_text(sub)
        rng = random.Random(f"{self.seed}:{text}")
        if rng.random() < 0.25:
            if self.fill is None:
                raise InsufficientDataError(text)
            return Fraction(random.Random(f"{self.fill}:{self.seed}:{text}").randint(1, 9), 7)
        return rng.choice((Fraction(0), Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)))


class _TablePure:
    def __init__(self, seed, fill=None):
        self.cumulant = _TruncatedTable(f"{seed}:kappa", fill)
        self.conditional_cumulant = _TruncatedTable(f"{seed}:theta", fill)


def _outcome(fn, *args):
    """fn(*args), or None if it raises InsufficientDataError."""
    try:
        return fn(*args)
    except InsufficientDataError:
        return None


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["ab", "abc"]), st.integers(0, 10**6), st.data())
def test_truncated_tables_raise_only_where_partition_sum_raises(pairs, seed, data):
    # A value the recursion gives must not depend on the entries it was
    # missing: it equals the explicit sum under every filling of them.
    def pures(fill):
        return {p: _TablePure(f"{seed}:{p}", fill) for p in pairs}

    letters = [Letter(f"{p}{side}", p, side) for p in pairs for side in "lr"]
    w = tuple(data.draw(st.lists(st.sampled_from(letters), min_size=1, max_size=8)))
    for fn, conditional in ((bifree_product_moment, False), (conditional_product_theta, True)):
        got = _outcome(fn, pures(None), w)
        if got is None:
            assert _outcome(_partition_sum, pures(None), w, conditional) is None
        else:
            for fill in (1, 2):
                assert got == _partition_sum(pures(fill), w, conditional)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(LETTERS), min_size=1, max_size=6), st.integers(0, 10**6))
def test_truncated_phi_kappa_raises_only_where_partition_sum_raises(w, seed):
    w = tuple(w)
    got = _outcome(kappa_from_phi, _TruncatedTable(seed), w)
    if got is None:
        assert _outcome(_kappa_sum, _TruncatedTable(seed), w, {}) is None
    else:
        for fill in (1, 2):
            assert got == _kappa_sum(_TruncatedTable(seed, fill), w, {})


def test_kernel_chi_order_is_s_chi(monkeypatch):
    """_nc_sum reads the chi-order off the letters' sides; with one pair per
    letter, the colours it hands the fold name the positions in that order."""
    colours = []
    monkeypatch.setattr(cumulants, "_nc_fold", lambda colour, *args: colours.append(colour))
    for n in range(1, 9):
        for chi in itertools.product("lr", repeat=n):
            w = tuple(Letter("x", str(p), side) for p, side in enumerate(chi, 1))
            cumulants._nc_sum(w, lambda sub: Fraction(1), by_pair=True)
            assert colours.pop() == [str(p) for p in s_chi_permutation("".join(chi))]


def test_kernel_refuses_a_side_other_than_l_or_r():
    x = Letter("x", "a", "l")
    bad = Letter._make(("y", "a", "m"))  # past the check in Letter()
    for w in ((bad,), (x, bad), (bad, x, x)):
        with pytest.raises(ValueError, match="chi must be"):
            moments_from_cumulants(lambda sub: Fraction(1), w)
        with pytest.raises(ValueError, match="chi must be"):
            kappa_from_phi(lambda sub: Fraction(1), w)


def test_conditional_cumulant_reads_its_memo_before_the_subtraction(monkeypatch):
    pure = random_moment_pure("a", random.Random(12), max_degree=4, with_theta=True)
    w = pure.letters + pure.letters[:1] + pure.letters[1:]
    entered = []
    subtraction = cumulants._subtraction
    monkeypatch.setattr(cumulants, "_subtraction",
                        lambda value, word, *args: entered.append(word)
                        or subtraction(value, word, *args))
    first = pure.conditional_cumulant(w)
    assert w in entered
    entered.clear()
    assert pure.conditional_cumulant(w) == first and entered == []

import collections
import functools
import gc
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
    CumulantTablePure,
    Letter,
    ModeError,
    MomentTablePure,
    SetPartition,
    SizeError,
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
from bifree.bnc import _nc_fold, s_chi_permutation
from bifree.cumulants import _EXACT, conditional_kappa_from, kappa_from_phi

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
    for route in (kappa, kappa_via_mobius):
        with pytest.raises(ValueError, match="length >= 1"):
            route(d, ())
    # plain callables: no ModeError (also a ValueError) can stand in for it
    with pytest.raises(ValueError) as err:
        conditional_kappa_from(lambda w: Fraction(1), lambda w: Fraction(0), ())
    assert type(err.value) is SizeError


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
    for other in ((x, x, y, y), (x, y, x)):
        with pytest.raises(SizeError, match="chi"):
            phi_pi(d, full, other)


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


def test_long_word_of_distinct_pairs_is_the_product_of_means():
    """1,500 letters, each the one letter of its own pair: the only partition
    with monochromatic blocks is the one of singletons, so the sum is linear
    and the fold must not grow the stack with the word."""
    n = 1500
    pures = {f"p{k}": CumulantTablePure(
        f"p{k}", *(((f"x{k}",), ()) if k % 2 else ((), (f"x{k}",))), 1,
        {(f"x{k}",): Fraction(k + 2, k + 1)}) for k in range(n)}
    w = tuple(p.letters[0] for p in pures.values())
    assert bifree_product_moment(pures, w) == n + 1  # the means telescope
    assert BifreeProduct(pures).phi(w) == n + 1


def test_long_word_of_distinct_moment_pairs_is_the_product_of_means():
    """The same 1,500 letters over moment tables: each pair inverts its one
    moment once, and grouping the letters by pair before the fold stays
    linear in the word."""
    n = 1500
    pures = {f"p{k}": MomentTablePure(
        f"p{k}", *(((f"x{k}",), ()) if k % 2 else ((), (f"x{k}",))), 1,
        {(f"x{k}",): Fraction(k + 2, k + 1)}) for k in range(n)}
    w = tuple(p.letters[0] for p in pures.values())
    assert bifree_product_moment(pures, w) == n + 1
    assert all(len(p._cumulant_memo) == 1 for p in pures.values())
    assert BifreeProduct(pures).phi(w) == n + 1


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


# Property tests of the interval fold against the explicit sum over
# enumerate_bnc_leq_eps, with classify_blocks telling outer from inner blocks.
# Like the loops the fold replaced, the explicit sums read a partition's
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


def test_kernel_chi_order_is_s_chi():
    """The fold reads the chi-order off the word's sides: with one pair per
    letter it weighs the one-letter blocks by first rank, last to first, so
    their positions, reversed, are s_chi."""
    for n in range(1, 9):
        for chi in itertools.product("lr", repeat=n):
            w = tuple(Letter("x", str(p), side) for p, side in enumerate(chi, 1))
            reads = []
            cumulants._nc_sum(w, lambda sub: reads.append(sub) or Fraction(1), by_pair=True)
            assert [int(sub[0].pair) for sub in reversed(reads)] == list(
                s_chi_permutation("".join(chi)))


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


# The recursive subtraction that the one-pass _subtraction replaced, which
# solved each subword by its own fold, and the two options of _nc_sum that only
# it used, kept verbatim as the oracle.
def _nc_sum(w, weight, top_weight=None, by_pair=False, skip_full=False, raw=False):
    """Sum over pi in BNC(chi_of(w)) of the product of the block weights of pi.

    A block weighs weight(block subword), or top_weight(block subword) when
    top_weight is given and the block is outer (no other block chi-surrounds
    it: in chi-order, outer blocks are the blocks at the top level).
    by_pair keeps only the partitions whose blocks are eps-monochromatic;
    skip_full leaves out the one-block partition; raw returns an unreduced
    (num, den) pair instead of a Fraction.

    The sum is bnc._nc_fold over the letters in chi-order, read off their
    sides, and a block's weight is read once per top flag.  A weight that
    raises InsufficientDataError marks its block missing, and the sum raises
    only if some partition has a missing block and no block of weight 0.
    The explicit sum, which reads each partition's blocks up to the first 0,
    raises on that partition too.
    """
    n = len(w)
    order = [p for p in range(n) if w[p].side == "l"] + [
        p for p in range(n - 1, -1, -1) if w[p].side == "r"]
    if len(order) != n:
        raise ValueError(f"chi must be a string over 'l'/'r', got {chi_of(w)!r}")
    memos = ({}, {})  # block of ranks -> (num, den, flag) or None, per top flag
    if skip_full:
        memos[top_weight is not None][tuple(range(n))] = None

    def leaf(block, top):
        memo = memos[top]
        if (entry := memo.get(block, memo)) is memo:
            sub = tuple([w[p] for p in sorted([order[k] for k in block])])
            try:
                v = (top_weight if top else weight)(sub)
                entry = (num, v.denominator, True) if (num := v.numerator) else None
            except InsufficientDataError as err:
                entry = (0, 1, err)
            memo[block] = entry
        return entry

    colour = [w[p].pair if by_pair else None for p in order]
    num, den, flag = _nc_fold("l" * n, colour, leaf, _EXACT,
                              top_weight is not None) or (0, 1, True)
    if flag is not True:
        raise flag
    return (num, den) if raw else Fraction(num, den)


def recursive_subtraction(value, w, memo, inner=None) -> Fraction:
    """x(w) = value(w) - sum over non-full pi in BNC(chi) of block weight products.

    Every block weighs x; with inner given, inner blocks weigh inner and outer
    blocks x.  value(w) is read before the sum, and memo holds x.  A one-letter
    word has no non-full partition, so there x is value alone.
    """
    if len(w) == 0:
        raise ValueError("cumulants are defined for words of length >= 1")
    if memo is None:
        memo = {}

    def x(word):
        if (v := memo.get(word)) is None:
            p, q = value(word).as_integer_ratio()  # value - sum, built as one Fraction
            num, den = _nc_sum(word, weight, top_weight=top, skip_full=True, raw=True)
            memo[word] = v = Fraction(p * den - num * q, q * den)
        return v

    weight, top = (x, None) if inner is None else (inner, x)
    return x(w)


def _logged(table, reads):
    def read(sub):
        reads.add(sub)
        return table(sub)
    return read


def _subtraction_run(subtraction, value, inner, w, memo):
    """The outcome of one subtraction, the words it read and the memo it left."""
    value_reads, inner_reads, memo = set(), set(), dict(memo)
    logged_inner = None if inner is None else _logged(inner, inner_reads)
    try:
        got = subtraction(_logged(value, value_reads), w, memo, logged_inner)
    except InsufficientDataError as err:
        got = ("raised", str(err))
    return got, value_reads, inner_reads, memo


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 7), st.integers(0, 10**6), st.booleans(), st.booleans(), st.data())
def test_subtraction_pass_matches_recursive_oracle(n, seed, coprime, conditional, data):
    """The pass gives the recursion's value, or its error message, reads the
    same words of value and inner, and leaves the same memo, on tables with
    zeros and missing entries and on tables with coprime denominators, from an
    empty memo and from one that an earlier subword filled."""
    w = tuple(data.draw(st.lists(st.sampled_from(LETTERS), min_size=n, max_size=n)))
    if coprime:
        primes = iter(_PRIMES)
        value, inner = (_CoprimeTable(f"{seed}:{kind}", primes) for kind in ("value", "inner"))
    else:
        value, inner = (_TruncatedTable(f"{seed}:{kind}") for kind in ("value", "inner"))
    inner = inner if conditional else None
    memo = {}
    if data.draw(st.booleans()):
        keep = data.draw(st.lists(st.booleans(), min_size=len(w), max_size=len(w)))
        part = tuple(letter for letter, k in zip(w, keep) if k)
        if part:
            _outcome(recursive_subtraction, value, part, memo, inner)
    assert (_subtraction_run(cumulants._subtraction, value, inner, w, memo)
            == _subtraction_run(recursive_subtraction, value, inner, w, memo))


@pytest.mark.parametrize("conditional", [False, True])
def test_subtraction_pass_matches_recursive_oracle_on_seven_letters(conditional):
    """Seven letters and no zero or missing entry, where every subword is solved
    and most of the pass's interval sums are read again by later subwords."""
    rng = random.Random(16)
    for k in range(8):
        w = tuple(rng.choices(LETTERS, k=7))
        primes = iter(_PRIMES)
        value, inner = (_CoprimeTable(f"{k}:{kind}", primes) for kind in ("value", "inner"))
        inner = inner if conditional else None
        assert (_subtraction_run(cumulants._subtraction, value, inner, w, {})
                == _subtraction_run(recursive_subtraction, value, inner, w, {}))


@pytest.mark.parametrize("conditional", [False, True])
@pytest.mark.parametrize("missing, named", [(("p", "q", "r"), "r"), (("q r",), "q r")])
def test_subtraction_pass_rereads_an_interval_whose_solve_raised(missing, named, conditional):
    """The fold of p q r meets its interval q r, whose leaf starts x(q r), and
    that raises: through its fold's missing x(r), where every other value is
    0, or through its own missing value.  The fold then reads the interval
    again.  The pass raises the recursion's message, which the interval's sum
    decides, reads the same words and leaves the same memo."""
    w = tuple(Letter(s, "a", "l") for s in "pqr")
    primes = iter(_PRIMES)
    table, inner = (_CoprimeTable(f"raised:{kind}", primes) for kind in ("value", "inner"))

    def value(sub):
        if (text := word_text(sub)) in missing:
            raise InsufficientDataError(text)
        return table(sub) if len(missing) == 1 else Fraction(0)

    inner = inner if conditional else None
    got = _subtraction_run(cumulants._subtraction, value, inner, w, {})
    assert got[0] == ("raised", f"insufficient pure data for word: {named}")
    assert got == _subtraction_run(recursive_subtraction, value, inner, w, {})


class _CountingTable(dict):
    """A table that counts the reads of each key."""

    def __init__(self, table):
        super().__init__(table)
        self.reads = collections.Counter()

    def __getitem__(self, key):
        self.reads[key] += 1
        return super().__getitem__(key)


def test_cold_phi_then_theta_solves_each_pair_in_one_pass(monkeypatch):
    """A 12-letter word with 4 letters in each of 3 pairs: phi enters the
    subtraction once per pair and theta once more, and no table entry is read
    twice."""
    pures = random_family(random.Random(13), pairs=("a", "b", "c"), max_degree=4,
                          with_theta=True)
    for pure in pures.values():
        pure.table = _CountingTable(pure.table)
        pure.theta_table = _CountingTable(pure.theta_table)
    rng = random.Random(14)
    w = [letter for pure in pures.values() for letter in rng.choices(pure.letters, k=4)]
    rng.shuffle(w)
    entered = collections.Counter()
    subtraction = cumulants._subtraction
    monkeypatch.setattr(cumulants, "_subtraction",
                        lambda value, word, *args: entered.update([word[0].pair])
                        or subtraction(value, word, *args))
    d = BifreeProduct(pures)
    d.phi(tuple(w))
    assert entered == {"a": 1, "b": 1, "c": 1}
    d.theta(tuple(w))
    assert entered == {"a": 2, "b": 2, "c": 2}
    for pure in pures.values():
        assert pure.table.reads and max(pure.table.reads.values()) == 1
        assert pure.theta_table.reads and max(pure.theta_table.reads.values()) == 1


def test_projections_are_asked_for_by_first_letter():
    """conditional_product_theta names the pair of the word's first letter
    when no pair has a theta layer, whatever the hash seed; the fold alone
    would name the pair of the letter last in chi-order."""
    pures = random_family(random.Random(15), pairs=("a", "b", "c"), max_degree=3)
    a, b, c = (pures[p].letters[0] for p in "abc")
    for w, first in (((b, c, a, a, b, c), "b"), ((c, a, b, b, c, a), "c"),
                     ((a, b, c, c, a, b), "a")):
        with pytest.raises(ModeError, match=f"pair '{first}'"):
            conditional_product_theta(pures, w)


def test_subtraction_leaves_no_garbage():
    """The pass frees its tables on return and leaves the collector nothing."""
    w = tuple(Letter(f"{p}{side}", p, side) for p, side in zip("abbaabab", "lrrllrlr"))
    gc.collect()
    gc.disable()
    try:
        kappa_from_phi(lambda s: Fraction(len(s), 3), w)
        assert gc.collect() == 0
        conditional_kappa_from(lambda s: Fraction(len(s), 3), lambda s: Fraction(1, len(s)), w)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_subtraction_runs_no_fold_and_reads_each_word_once(monkeypatch):
    """The pass sums each subword top-down over its bitmasks: on a 6-letter
    one-pair word it calls bnc._nc_fold in neither pass, and reads no word of
    value twice.  A fold per subword made 30 calls here in each pass."""
    folds = []
    fold = cumulants._nc_fold
    monkeypatch.setattr(cumulants, "_nc_fold", lambda *args, **kwargs: folds.append(args)
                        or fold(*args, **kwargs))
    al, ar = Letter("al", "a", "l"), Letter("ar", "a", "r")
    w = (al, ar) * 3
    for inner in (None, lambda s: Fraction(1, len(s) + 1)):
        reads = collections.Counter()

        def value(sub):
            reads[sub] += 1
            return Fraction(len(sub) + 1, 3)

        if inner is None:
            kappa_from_phi(value, w)
        else:
            conditional_kappa_from(value, inner, w)
        assert folds == []
        assert w in reads and max(reads.values()) == 1


def test_two_letter_projections_enter_no_plain_subtraction(monkeypatch):
    """A cold conditional_product_theta on a word whose pairs have two letters
    each asks them only for the conditional cumulant: its subtraction reads no
    plain cumulant, and in chi-order no block of this word nests in another."""
    def family():
        return random_family(random.Random(16), pairs=("a", "b", "c"), max_degree=3,
                             with_theta=True)

    warm = family()
    (al, _), (bl, br), (_, cr) = (warm[p].letters for p in "abc")
    w = (al, al, bl, cr, cr, br)  # in chi-order: al al bl br cr cr
    for pair, sub in (("a", (al, al)), ("b", (bl, br)), ("c", (cr, cr))):
        warm[pair].cumulant(sub)
    expected = conditional_product_theta(warm, w)
    subtracted = []

    def plain(phi, sub, memo=None):
        subtracted.append(sub)
        return kappa_from_phi(phi, sub, memo)

    monkeypatch.setattr(cumulants, "kappa_from_phi", plain)
    assert conditional_product_theta(family(), w) == expected
    assert subtracted == []

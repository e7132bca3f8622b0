import gc
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bifree import (
    BncPartition,
    DomainError,
    InsufficientDataError,
    Letter,
    OrderError,
    SetPartition,
    SizeError,
    bnc_join,
    bnc_meet,
    bnc_mobius,
    chi_interval,
    chi_precedes,
    classify_blocks,
    enumerate_bnc,
    enumerate_bnc_leq_eps,
    enumerate_set_partitions,
    is_bi_non_crossing,
    join,
    lattice_mobius,
    maximal_mono_intervals,
    meet,
    moments_from_cumulants,
    refines,
    s_chi_permutation,
)
from bifree.bnc import _LISTS, _chi_order, _nc_fold, _ranks
from bifree.cumulants import _EXACT

# worked eight-point example: lefts {2,3,4,7}, rights {1,5,6,8},
# color 0 on {1,2,4,7,8} and color 1 on {3,5,6}
CHI8 = "rlllrrlr"
EPS8 = ("0", "0", "1", "0", "1", "1", "0", "0")
P8 = SetPartition.of(8, [(1,), (2, 5, 7), (3, 4), (6, 8)])


def four_point_crossing(p, chi):
    """Independent oracle: the four-point condition on the chi-order."""
    ranks = _ranks(chi)
    bmap = p.block_map()
    labels = [None] * p.n
    for elem, k in ranks.items():
        labels[k] = bmap[elem]
    n = p.n
    for i, j, k, l in itertools.combinations(range(n), 4):
        if labels[i] == labels[k] and labels[j] == labels[l] \
                and labels[i] != labels[j]:
            return True
    return False


def random_chis(rng, n, count):
    return ["".join(rng.choice("lr") for _ in range(n)) for _ in range(count)]


def test_s_chi_examples():
    assert s_chi_permutation("lll") == (1, 2, 3)
    assert s_chi_permutation("rr") == (2, 1)
    assert s_chi_permutation(CHI8) == (2, 3, 4, 7, 8, 6, 5, 1)


def test_a_bad_chi_is_a_domain_error():
    """One chi-order for words and chi-maps: the empty chi-map has the empty
    order, and a side other than l or r is a DomainError, also a ValueError."""
    assert _chi_order("") == [] and _chi_order("rlr") == [1, 2, 0]
    for chi in ("lx", "", "l r"):
        with pytest.raises(DomainError, match="chi must be"):
            s_chi_permutation(chi)
    for call in (enumerate_bnc, lambda chi: maximal_mono_intervals(chi, ("a",) * 2)):
        with pytest.raises(DomainError):
            call("lx")


def test_chi_precedes():
    for i in range(1, 5):
        for j in range(1, 5):
            assert chi_precedes("llll", i, j) == (i < j)
    assert chi_precedes(CHI8, 8, 6)
    assert not chi_precedes(CHI8, 6, 8)
    assert not chi_precedes(CHI8, 3, 3)
    with pytest.raises(IndexError):
        chi_precedes("lr", 1, 3)


def test_chi_interval():
    assert chi_interval("llll", 2, 2) == frozenset({2})
    assert chi_interval("llll", 2, 2, False, False) == frozenset()
    assert chi_interval("llll", 2, 4) == frozenset({2, 3, 4})
    assert chi_interval(CHI8, 4, 8) == frozenset({4, 7, 8})
    # rays
    assert chi_interval(CHI8, None, 4) == frozenset({2, 3, 4})
    assert chi_interval(CHI8, 8, None) == frozenset({8, 6, 5, 1})
    with pytest.raises(OrderError):
        chi_interval(CHI8, 6, 8)


def test_chi_interval_matches_chi_precedes():
    """Membership read from chi_precedes, for every i <= j, the rays and all flags."""
    rng = random.Random(9)
    for n in range(1, 9):
        for chi in random_chis(rng, n, 3):
            elems = range(1, n + 1)
            for i, j in itertools.product((None, *elems), repeat=2):
                if i is not None and j is not None and chi_precedes(chi, j, i):
                    continue
                for lc, rc in itertools.product((True, False), repeat=2):
                    want = {k for k in elems
                            if (i is None or chi_precedes(chi, i, k) or (lc and k == i))
                            and (j is None or chi_precedes(chi, k, j) or (rc and k == j))}
                    assert chi_interval(chi, i, j, lc, rc) == want


def test_is_bi_non_crossing_examples():
    for chi in ("llll", "rlrl", CHI8):
        n = len(chi)
        assert is_bi_non_crossing(SetPartition.discrete(n), chi)
        assert is_bi_non_crossing(SetPartition.full(n), chi)
    assert is_bi_non_crossing(P8, CHI8)
    # the same partition is crossing in the plain (all-left) order
    assert not is_bi_non_crossing(P8, "llllllll")
    assert not is_bi_non_crossing(SetPartition.of(4, [(1, 3), (2, 4)]), "llll")
    with pytest.raises(SizeError):
        is_bi_non_crossing(P8, "lll")


def test_four_point_condition_agrees():
    rng = random.Random(5)
    for n in (3, 4, 5, 6):
        parts = enumerate_set_partitions(n)
        for chi in set(random_chis(rng, n, 4)) | {"l" * n}:
            for p in parts:
                assert is_bi_non_crossing(p, chi) == (not four_point_crossing(p, chi))


def test_enumerate_bnc_counts():
    assert len(enumerate_bnc("l")) == 1
    catalan = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132}
    rng = random.Random(9)
    for n, c in catalan.items():
        for chi in set(random_chis(rng, n, 3)):
            assert len(enumerate_bnc(chi)) == c
    with pytest.raises(SizeError):
        enumerate_bnc("l" * 13)
    with pytest.raises(SizeError):
        enumerate_bnc_leq_eps(("lr" * 7)[:13], ("a",) * 13)


def test_fold_leaves_no_garbage():
    """A fold frees its interval sums on return and leaves the collector nothing."""
    w = tuple(Letter(f"{p}{side}", p, side) for p, side in zip("abbaabab", "lrrllrlr"))
    gc.collect()
    gc.disable()
    try:
        enumerate_bnc("lrlrlrlr")
        assert gc.collect() == 0
        moments_from_cumulants(lambda s: Fraction(len(s), 3), w)
        assert gc.collect() == 0
    finally:
        gc.enable()


# The recursive fold that the bottom-up loop replaced, kept verbatim as the oracle.
def recursive_nc_fold(colour, leaf, ring, top=False):
    """Sum over the non-crossing partitions of range(len(colour)) with
    monochromatic blocks of the product of leaf(block of ranks, outer) over
    their blocks.  ring is (one, mul, add, close); None is the absorbing zero,
    which the fold skips, so mul and add never see it.

    Recursion on the block of lo, whose gaps and tail are partitioned
    independently; each interval sum is closed and memoised on (lo, hi, top).
    The tail is summed first and the leaf read only if the tail is not zero.
    Empty intervals and memo hits are read inline, without a call (a miss reads
    back the memo itself, since None is a memoised zero); later[i] holds the
    ranks after i of the colour of i.
    """
    one, mul, add, close = ring
    n = len(colour)
    later = [[j for j in range(i + 1, n) if colour[j] == colour[i]] for i in range(n)]
    sums = {}

    def total(lo, hi, top):
        acc = None
        # Partial blocks holding lo: (ranks, last rank, product of the gap sums).
        pending = [((lo,), lo, one)]
        while pending:
            block, last, coeff = pending.pop()
            start = last + 1
            if (tail := one if start == hi else sums.get((start, hi, top), sums)) is sums:
                tail = total(start, hi, top)
            if tail is not None and (weight := leaf(block, top)) is not None:
                term = mul(mul(coeff, tail), weight)
                acc = term if acc is None else add(acc, term)
            for j in later[last]:
                if j >= hi:
                    break
                if (gap := one if j == start else sums.get((start, j, False), sums)) is sums:
                    gap = total(start, j, False)
                if gap is not None:
                    pending.append((block + (j,), j, mul(coeff, gap)))
        sums[lo, hi, top] = entry = None if acc is None else close(acc)
        return entry

    try:
        return total(0, n, top) if n else one
    finally:
        total = None  # break total's self-reference, so the memo is freed on return


def logged_leaf(seed, ring, errors, reads):
    """A leaf that logs every read and is deterministic per (block, outer):
    a zero, a missing entry (in the exact ring) or a value."""
    def leaf(block, outer):
        reads.append((block, outer))
        rng = random.Random(f"{seed}:{block}:{outer}")
        kind = rng.randrange(6)
        if kind == 0:
            return None
        if ring is _LISTS:
            return ((block,),)
        if kind == 1:
            return 0, 1, errors.setdefault((block, outer), InsufficientDataError(str(block)))
        return rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4), True
    return leaf


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.lists(st.integers(0, k - 1), max_size=9)),
       st.booleans(), st.integers(0, 2**32))
def test_fold_matches_recursive_oracle(colour, top, seed):
    """Same sum and same multiset of leaf reads as the recursion, and the same
    partitions in the same order."""
    for ring in (_EXACT, _LISTS):
        errors, reads, oracle_reads = {}, [], []
        got = _nc_fold(colour, logged_leaf(seed, ring, errors, reads), ring, top)
        want = recursive_nc_fold(colour, logged_leaf(seed, ring, errors, oracle_reads), ring, top)
        assert got == want
        assert Counter(reads) == Counter(oracle_reads)

# The bottom-up loop as it was before it took caps, kept as the oracle of the
# order in which the uncapped fold reads its leaves.
def uncapped_nc_fold(colour, leaf, ring, top=False):
    one, mul, add, close = ring
    n = len(colour)
    later = [[j for j in range(i + 1, n) if colour[j] == colour[i]] for i in range(n)]
    lows = [colour.index(c) for c in colour] + [-1]
    sums = [[one] * (n + 1) for _ in range(n + 1)]
    for hi in range(1, n + 1):
        outer = top and hi == n
        for lo in range(hi - 1, lows[hi], -1):
            acc = None
            pending = [((lo,), lo, one)]
            while pending:
                block, last, coeff = pending.pop()
                start = last + 1
                tail = sums[start][hi]
                if tail is not None and (weight := leaf(block, outer)) is not None:
                    term = mul(mul(coeff, tail), weight)
                    acc = term if acc is None else add(acc, term)
                for j in later[last]:
                    if j >= hi:
                        break
                    if (gap := sums[start][j]) is not None:
                        pending.append((block + (j,), j, mul(coeff, gap)))
            sums[lo][hi] = None if acc is None else close(acc)
    return sums[0][n]


def _settled(ring, total):
    """A fold's sum up to the order of its terms: the value and whether it is
    missing an entry, or the multiset of partitions."""
    if total is None or ring is _EXACT:
        return total and (total[:2], total[2] is True)
    return Counter(tuple(sorted(p)) for p in total)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
           st.lists(st.integers(0, k - 1), max_size=9),
           st.dictionaries(st.integers(0, k - 1), st.integers(1, 3)))),
       st.booleans(), st.integers(0, 2**32))
def test_capped_fold_sums_without_the_blocks_past_the_cap(colour_caps, top, seed):
    """Capped, the fold never reads a block past its colour's cap and sums what
    the uncapped fold sums when those blocks weigh zero; with no caps it reads
    the leaves in the order it read them before it took caps."""
    colour, caps = colour_caps
    for ring in (_EXACT, _LISTS):
        errors, reads, capped_reads, today_reads = {}, [], [], []

        def cut(reads):
            """The logged leaf, read as zero past the cap."""
            logged = logged_leaf(seed, ring, errors, reads)
            def leaf(block, outer):
                weight = logged(block, outer)
                return None if len(block) > caps.get(colour[block[0]], 9) else weight
            return leaf

        want = _nc_fold(colour, cut(reads), ring, top)
        got = _nc_fold(colour, cut(capped_reads), ring, top, caps)
        assert _settled(ring, got) == _settled(ring, want)
        assert all(len(block) <= caps.get(colour[block[0]], 9) for block, _ in capped_reads)
        assert want == uncapped_nc_fold(colour, cut(today_reads), ring, top)
        assert reads == today_reads


@pytest.mark.parametrize("build, fields, text", [
    (lambda: SetPartition.of(2, [(2, 1)]), ("n", "blocks"),
     "SetPartition(n=2, blocks=((1, 2),))"),
    (lambda: BncPartition.of(SetPartition.of(3, [(1, 3), (2,)]), "lrl"), ("partition", "chi"),
     "BncPartition(partition=SetPartition(n=3, blocks=((1, 3), (2,))), chi='lrl')"),
], ids=["SetPartition", "BncPartition"])
def test_partitions_are_frozen_records(build, fields, text):
    """Equal and hashed by their fields, as memo keys; the hash of the field tuple
    fixes set and dict order, and so the printed order of every result."""
    p, rebuilt = build(), build()
    assert p == rebuilt and p is not rebuilt
    assert hash(p) == hash(rebuilt) == hash(tuple(getattr(p, f) for f in fields))
    assert {p: 1}[rebuilt] == 1
    assert repr(p) == text
    for f in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(p, f, None)


def test_enumerate_bnc_matches_filter():
    rng = random.Random(11)
    for n in (3, 4, 5):
        for chi in random_chis(rng, n, 3):
            expected = {p for p in enumerate_set_partitions(n)
                        if is_bi_non_crossing(p, chi)}
            got = {bp.partition for bp in enumerate_bnc(chi)}
            assert got == expected
    for n in range(1, 7):
        for chi in random_chis(rng, n, 4):
            eps = tuple(rng.choice("ab" if n < 4 else "abc") for _ in range(n))
            expected = {p for p in enumerate_set_partitions(n)
                        if is_bi_non_crossing(p, chi)
                        and all(len({eps[x - 1] for x in b}) == 1 for b in p.blocks)}
            got = enumerate_bnc_leq_eps(chi, eps)
            assert len(got) == len(expected) and set(got) == expected


def brute_bnc_join(p, q):
    """Oracle: minimum over enumerated BNC upper bounds."""
    candidates = [bp.partition for bp in enumerate_bnc(p.chi)
                  if refines(p.partition, bp.partition)
                  and refines(q.partition, bp.partition)]
    best = max(candidates, key=len)
    # the LUB must be unique: everything else must be coarser than best
    for c in candidates:
        assert refines(best, c)
    return best


def test_bnc_join_against_brute_force():
    rng = random.Random(13)
    for n in (4, 5):
        for chi in random_chis(rng, n, 2):
            bncs = enumerate_bnc(chi)
            for _ in range(40):
                p, q = rng.choice(bncs), rng.choice(bncs)
                j = bnc_join(p, q)
                assert is_bi_non_crossing(j.partition, chi)
                assert j.partition == brute_bnc_join(p, q)
                assert bnc_meet(p, q).partition.n == n
    d = BncPartition(SetPartition.discrete(4), "lrlr")
    for bp in enumerate_bnc("lrlr"):
        assert bnc_join(bp, d).partition == bp.partition


def _two_chis():
    return tuple(BncPartition(SetPartition.discrete(2), chi) for chi in ("ll", "lr"))


@pytest.mark.parametrize("call, error, message", [
    (lambda: chi_interval("lr", 1, 3), IndexError, "index 3 out of range"),
    (lambda: enumerate_bnc_leq_eps("lr", ("a",)), SizeError, "eps length 1 != chi length 2"),
    (lambda: bnc_meet(*_two_chis()), SizeError, "chi maps differ"),
    (lambda: bnc_join(*_two_chis()), SizeError, "chi maps differ"),
    (lambda: meet(SetPartition.discrete(2), SetPartition.discrete(3)), SizeError,
     "sizes differ: 2 != 3"),
    (lambda: join(SetPartition.discrete(2), SetPartition.discrete(3)), SizeError,
     "sizes differ: 2 != 3"),
], ids=["chi-interval-index", "eps-length", "bnc-meet", "bnc-join", "meet", "join"])
def test_mismatched_arguments_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_join_with_interval_partition_is_plain_join():
    # interval partitions in chi-order: joins with them never need closure
    rng = random.Random(17)
    for chi in random_chis(rng, 5, 3):
        order = s_chi_permutation(chi)
        cut = rng.randint(1, 4)
        blocks = [tuple(sorted(order[:cut])), tuple(sorted(order[cut:]))]
        jpart = SetPartition.of(5, blocks)
        assert is_bi_non_crossing(jpart, chi)
        j = BncPartition(jpart, chi)
        for bp in enumerate_bnc(chi):
            assert bnc_join(bp, j).partition == join(bp.partition, jpart)


def test_maximal_mono_intervals():
    assert maximal_mono_intervals("lrl", ("x", "x", "x")) == ((1, 2, 3),)
    # ten-point worked example: lefts {2,5,6,7,8}, color 1 on {4,6,7}
    chi10 = "rlrrllllrr"
    eps10 = ("0", "0", "0", "1", "0", "1", "1", "0", "0", "0")
    got = set(maximal_mono_intervals(chi10, eps10))
    assert got == {(2, 5), (6, 7), (8, 9, 10), (4,), (1, 3)}
    assert (4, 7, 8) in maximal_mono_intervals(CHI8, EPS8)
    with pytest.raises(SizeError):
        maximal_mono_intervals("lr", ("x",))


def test_classify_blocks():
    labels = classify_blocks(BncPartition.of(P8, CHI8))
    assert labels[(2, 5, 7)] == "outer"
    assert labels[(1,)] == "outer"
    assert labels[(3, 4)] == "inner"
    assert labels[(6, 8)] == "inner"
    full = BncPartition(SetPartition.full(4), "lrlr")
    assert classify_blocks(full) == {(1, 2, 3, 4): "outer"}
    disc = BncPartition(SetPartition.discrete(5), "lllll")
    labels = classify_blocks(disc)
    assert all(v == "outer" for v in labels.values())
    nested = BncPartition(SetPartition(3, (((1, 3), (2,)))), "lll")
    assert classify_blocks(nested) == {(1, 3): "outer", (2,): "inner"}


def test_classify_blocks_transport_invariance():
    rng = random.Random(23)
    for chi in random_chis(rng, 5, 3):
        ranks = _ranks(chi)
        for bp in enumerate_bnc(chi):
            labels = classify_blocks(bp)
            transported = SetPartition.of(
                5, [tuple(ranks[x] + 1 for x in b) for b in bp.partition.blocks])
            tlabels = classify_blocks(BncPartition(transported, "l" * 5))
            for b in bp.partition.blocks:
                tb = tuple(sorted(ranks[x] + 1 for x in b))
                assert labels[b] == tlabels[tb]


def test_bnc_mobius():
    chi = "llll"
    d = BncPartition(SetPartition.discrete(4), chi)
    f = BncPartition(SetPartition.full(4), chi)
    assert bnc_mobius(d, d) == 1
    assert bnc_mobius(f, f) == 1
    assert bnc_mobius(d, f) == -5
    d2 = BncPartition(SetPartition.discrete(2), "lr")
    f2 = BncPartition(SetPartition.full(2), "lr")
    assert bnc_mobius(d2, f2) == -1
    for n, expected in ((8, -429), (12, -58786), (13, 208012)):
        chi = ("lr" * n)[:n]
        d = BncPartition(SetPartition.discrete(n), chi)
        f = BncPartition(SetPartition.full(n), chi)
        assert bnc_mobius(d, f) == expected
    crossing = BncPartition(SetPartition.of(4, [(1, 3), (2, 4)]), "llll")
    full = BncPartition(SetPartition.full(4), "llll")
    with pytest.raises(ValueError):
        bnc_mobius(crossing, full)
    with pytest.raises(OrderError):
        bnc_mobius(full, BncPartition(SetPartition.discrete(4), "llll"))
    with pytest.raises(SizeError):
        bnc_mobius(full, BncPartition(SetPartition.full(4), "lrlr"))


def test_bnc_mobius_inversion_identity():
    chi = "lrlr"
    bncs = enumerate_bnc(chi)
    for pi in bncs:
        for sigma in bncs:
            if not refines(pi.partition, sigma.partition):
                continue
            total = sum(
                bnc_mobius(rho, sigma) for rho in bncs
                if refines(pi.partition, rho.partition)
                and refines(rho.partition, sigma.partition))
            assert total == (1 if pi.partition == sigma.partition else 0)


def test_bnc_mobius_matches_lattice_mobius():
    rng = random.Random(29)
    chis = ["".join(c) for n in (1, 2, 3, 4) for c in itertools.product("lr", repeat=n)]
    for chi in chis + random_chis(rng, 5, 4):
        bncs = enumerate_bnc(chi)
        universe = [bp.partition for bp in bncs]
        for lower in bncs:
            for upper in bncs:
                if refines(lower.partition, upper.partition):
                    assert bnc_mobius(lower, upper) == lattice_mobius(
                        lower.partition, upper.partition, universe)


def test_mobius_to_full_sums_to_delta():
    # sum over rho >= pi of mu(rho, 1) is 1 at pi = 1 and 0 below it
    rng = random.Random(31)
    for chi in random_chis(rng, 6, 3):
        bncs = enumerate_bnc(chi)
        full = BncPartition(SetPartition.full(6), chi)
        for pi in bncs:
            total = sum(bnc_mobius(rho, full) for rho in bncs
                        if refines(pi.partition, rho.partition))
            assert total == (1 if pi.partition == full.partition else 0)

"""Moment <-> cumulant transforms over the bi-non-crossing lattice.

Everything here is duck-typed over moment oracles: a "phi" is any callable
Word -> Fraction with phi(()) == 1, and a pure distribution is any object
with .cumulant / .conditional_cumulant methods (see distributions.py).

Moments from cumulants and the product sums go through `_nc_sum`, which is
`bnc._nc_fold` over exact integer fractions: BNC(chi) is NC(n) carried
through the chi-order, so a sum over BNC(chi) is a sum over non-crossing
partitions of the letters read in chi-order, and the fold splits it at the
block of the first letter into its gaps and its tail.  The subtraction that
inverts moments into cumulants, `_subtraction`, makes the same split
top-down instead: one pass over the subsets of a word's letters, kept as
bitmasks, sums each subword it solves, reading every tail and gap from one
table of closed interval sums that the whole pass shares.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd

from .bnc import BncPartition, _chi_order, _mobius, _nc_fold, enumerate_bnc
from .errors import InsufficientDataError, SizeError, UnknownPairError
from .partitions import SetPartition
from .words import ScanVerdict, chi_of, scan, subword


# A sum over a set of partitions is carried as (num, den, flag): its value is
# num/den, kept unreduced while products and sums build up, and reduced once
# per memo entry.  None stands for the sums where every partition has a block
# of weight 0.  Otherwise flag is an InsufficientDataError when some
# partition has a missing block and no block of weight 0, else True; a
# missing block adds 0 to the value.  Products and sums keep the error.
_EXACT = ((1, 1, True),
          lambda a, b: (a[0] * b[0], a[1] * b[1], b[2] if a[2] is True else a[2]),
          lambda a, b: (a[0] * b[1] + b[0] * a[1], a[1] * b[1], b[2] if a[2] is True else a[2]),
          lambda a: (a[0] // (g := gcd(a[0], a[1])), a[1] // g, a[2]))


def _nc_sum(w, weight, top_weight=None, by_pair=False):
    """Sum over pi in BNC(chi_of(w)) of the product of the block weights of pi.

    A block weighs weight(block subword), or top_weight(block subword) when
    top_weight is given and the block is outer (no other block chi-surrounds
    it: in chi-order, outer blocks are the blocks at the top level).
    by_pair keeps only the partitions whose blocks are eps-monochromatic.

    The sum is bnc._nc_fold over the letters in chi-order, read off their
    sides, and a block's weight is read once per top flag.  A weight that
    raises InsufficientDataError marks its block missing, and the sum raises
    only if some partition has a missing block and no block of weight 0.
    The explicit sum, which reads each partition's blocks up to the first 0,
    raises on that partition too.
    """
    order = _chi_order(chi_of(w))
    memos = ({}, {})  # block of ranks -> (num, den, flag) or None, per top flag

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
    num, den, flag = _nc_fold(colour, leaf, _EXACT, top_weight is not None) or (0, 1, True)
    if flag is not True:
        raise flag
    return Fraction(num, den)


def _pure_cumulant(pures):
    return lambda sub: pures[sub[0].pair].cumulant(sub)


def phi_pi(d, p: BncPartition, w) -> Fraction:
    """Product over the blocks of p of phi applied to the block subwords."""
    if len(w) != p.n or chi_of(w) != p.chi:
        raise SizeError("word does not match the partition's chi")
    prod = Fraction(1)
    for b in p.partition.blocks:
        prod *= d.phi(subword(w, b))
        if prod == 0:
            break
    return prod


def _subtraction(value, w, memo, inner=None) -> Fraction:
    """x(w) = value(w) - sum over non-full pi in BNC(chi) of block weight products.

    Every block weighs x; with inner given, inner blocks weigh inner and outer
    blocks x.  memo holds x, and every x solved on the way goes into it.

    One pass solves every subword the sum reads, a bitmask of w's positions,
    with one table of closed interval sums, keyed by an interval's bits and
    its kind: outer if it ends the subword in chi-order.  x(S) reads value(S),
    then sums S with its full block weighing zero, top-down over S's ranks:
    the block of the first rank grows through the later ones, tail before
    leaf and only through nonzero gaps, in bnc._nc_fold's order of products,
    which would build every interval of S to sum S alone.  Tails and gaps are
    read from the table by a prefix-mask difference: a tail per block, the
    gaps once per last rank.  On a miss the sum reads the interval's
    full-block weight first, which solves an outer interval, and looks again;
    only then does it sum the interval and store it.  Solving S seeds its
    entry as the sum plus x, which is value(S): what a sum over S as an outer
    interval gives, since its full block's term comes last.  So the pass reads
    the same words of value, inner and memo as a fold per subword and meets
    the same first missing entry.  If x(S) raises, S keeps its stored sum: it
    carries the error already, and the missing full block adds nothing else.
    A solve nests an interval, a weight and the next solve, about 4 frames
    per letter: a value read at 12 letters runs 48 frames below the caller.
    """
    if len(w) == 0:
        raise SizeError("cumulants are defined for words of length >= 1")
    if memo is None:
        memo = {}
    if (v := memo.get(w)) is not None:
        return v
    chi_bits = [1 << p for p in _chi_order(chi_of(w))]
    bit_letters = [(1 << p, letter) for p, letter in enumerate(w)]
    # per kind (inner, outer): mask -> block weight entry, and mask -> closed interval sum
    weights = ({}, {}) if inner is not None else ({},) * 2
    closed = ({}, {}) if inner is not None else ({},) * 2
    gaps = closed[0]
    one, mul, add, close = _EXACT

    def solve(mask, sub):
        p, q = value(sub).as_integer_ratio()  # value - sum, built as one Fraction
        top, num, den = None, 0, 1
        if mask & (mask - 1):  # one letter's only partition is its full block
            weights[1][mask] = None  # the sum takes every other partition
            units = [bit for bit in chi_bits if mask & bit]
            if top := interval(units, [*accumulate(units, initial=0)], 0, len(units), True):
                num, den, flag = top
                if flag is not True:
                    raise flag
        memo[sub] = v = Fraction(p * den - num * q, q * den)
        closed[1][mask] = (p, q, True) if v else top  # the sum + x, over every partition
        return v

    def interval(units, prefix, lo, hi, outer):
        """The closed sum over units[lo:hi], which the table misses: looked up
        again after the full block's weight, else summed and stored."""
        table, whole = closed[outer], prefix[hi] - prefix[lo]
        weight(whole, outer)
        if (acc := table.get(whole, table)) is not table:
            return acc
        acc, rows = None, [None] * hi
        # Partial blocks holding lo: (mask, last rank, product of the gap sums).
        pending = [(units[lo], lo, one)]
        while pending:
            block, last, coeff = pending.pop()
            if (start := last + 1) == hi:
                tail = one
            elif (tail := table.get(prefix[hi] - prefix[start], table)) is table:
                tail = interval(units, prefix, start, hi, outer)
            if tail is not None and (factor := weight(block, outer)) is not None:
                term = mul(tail if coeff is one else coeff if tail is one
                           else mul(coeff, tail), factor)
                acc = term if acc is None else add(acc, term)
            if start == hi:
                continue
            if (nexts := rows[last]) is None:  # the ranks after last and their gap sums
                nexts = rows[last] = [(units[start], start, one)]  # an empty gap
                for j in range(start + 1, hi):
                    if (gap := gaps.get(prefix[j] - prefix[start], gaps)) is gaps:
                        gap = interval(units, prefix, start, j, False)
                    if gap is not None:
                        nexts.append((units[j], j, gap))
            for unit, j, gap in nexts:
                pending.append((block + unit, j, gap if coeff is one else
                                coeff if gap is one else mul(coeff, gap)))
        table[whole] = acc = None if acc is None else close(acc)
        return acc

    def weight(mask, outer):
        table = weights[outer]
        if (entry := table.get(mask, table)) is table:
            sub = tuple([letter for bit, letter in bit_letters if mask & bit])
            try:
                if outer or inner is None:
                    if (v := memo.get(sub)) is None:
                        v = solve(mask, sub)
                else:
                    v = inner(sub)
                entry = (num, v.denominator, True) if (num := v.numerator) else None
            except InsufficientDataError as err:
                entry = (0, 1, err)
            table[mask] = entry
        return entry

    try:
        return solve((1 << len(w)) - 1, w)
    finally:
        interval = weight = None  # the three refer to each other: free them on return


def kappa_from_phi(phi, w, memo=None) -> Fraction:
    """Bi-free cumulant of w: the subtraction from phi(w) of block cumulant products."""
    return _subtraction(phi, w, memo)


def kappa(d, w) -> Fraction:
    """Bi-free cumulant of w under the joint distribution d (memoized on d)."""
    return kappa_from_phi(d.phi, w, d._kappa_memo)


def cumulant_test(d, max_len) -> ScanVerdict:
    """Scan every mixed word up to max_len for a nonzero bi-free cumulant under d."""
    def failure(w):
        value = kappa(d, w)
        return {"value": value} if value else None
    return scan(d.letters, max_len, failure)


def kappa_via_mobius(d, w) -> Fraction:
    """Same value as kappa, via Mobius inversion: sum_pi mu(pi, full) phi_pi."""
    if len(w) == 0:
        raise SizeError("cumulants are defined for words of length >= 1")
    chi = chi_of(w)
    full = SetPartition.full(len(w))
    # mu(pi, full) is never 0 on a non-crossing lattice, so phi_pi reads what is needed
    return sum((_mobius(bp.partition, full, chi) * phi_pi(d, bp, w)
                for bp in enumerate_bnc(chi)), Fraction(0))


def moments_from_cumulants(kc, w) -> Fraction:
    """phi(w) = sum over pi in BNC(chi) of products of block cumulants."""
    return _nc_sum(w, kc)


def bifree_product_moment(pures, w) -> Fraction:
    """Mixed moment of the bi-free product of the given pure distributions.

    Sum over bi-non-crossing partitions with eps-monochromatic blocks of the
    products of blockwise pure cumulants.
    """
    _solve_projections(pures, w, conditional=False)
    return _nc_sum(w, _pure_cumulant(pures), by_pair=True)


def _solve_projections(pures, w, conditional):
    """Ask each pair for the cumulant of its letters in w (and, if conditional,
    for the conditional cumulant) before the fold does.  Two letters, if
    conditional, ask only for the conditional one: its subtraction reads no
    plain cumulant, and the fold asks for one itself if their block nests.

    The fold reads short blocks first, and each would start a subtraction of
    its own; asked first, one subtraction per pair solves every block of it
    that the fold reads.  The pairs go by their first letter in w; a pair
    with one letter has nothing to share and is left to the fold, and so is
    a missing entry, which the fold raises only if it needs it.
    """
    projections = {}
    for letter in w:
        projections.setdefault(letter.pair, []).append(letter)
    for pair in projections:
        if pair not in pures:
            raise UnknownPairError(f"no pure distribution for pair {pair!r}")
    for pair, letters in projections.items():
        if len(letters) > 1:
            pure, sub = pures[pair], tuple(letters)
            asks = (pure.conditional_cumulant,) if len(sub) == 2 else (
                pure.cumulant, pure.conditional_cumulant)
            for ask in asks if conditional else (pure.cumulant,):
                try:
                    ask(sub)
                except InsufficientDataError:
                    pass


def conditional_kappa_from(theta, kappa_fn, w, memo=None) -> Fraction:
    """Conditional cumulant of w: the subtraction from theta(w), with kappa_fn on
    inner blocks and conditional cumulants on outer blocks."""
    return _subtraction(theta, w, memo, kappa_fn)


def conditional_kappa(d, w) -> Fraction:
    """Mixed conditional cumulant of w under a joint distribution with a theta layer."""
    return conditional_kappa_from(d.theta, lambda word: kappa(d, word), w, d._ckappa_memo)


def conditional_product_theta(pures, w) -> Fraction:
    """Mixed theta-moment of the conditionally bi-free product.

    Sum over eps-monochromatic bi-non-crossing partitions with blockwise pure
    kappa on inner blocks and pure conditional cumulants on outer blocks.
    """
    _solve_projections(pures, w, conditional=True)
    return _nc_sum(w, _pure_cumulant(pures),
                   top_weight=lambda sub: pures[sub[0].pair].conditional_cumulant(sub),
                   by_pair=True)

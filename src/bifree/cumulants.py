"""Moment <-> cumulant transforms over the bi-non-crossing lattice.

Everything here is duck-typed over moment oracles: a "phi" is any callable
Word -> Fraction with phi(()) == 1, and a pure distribution is any object
with .cumulant / .conditional_cumulant methods (see distributions.py).

Every moment-cumulant sum goes through `_nc_sum`, which is `bnc._nc_fold`
over exact integer fractions: BNC(chi) is NC(n) carried through the
chi-order, so a sum over BNC(chi) is a sum over non-crossing partitions of
the letters read in chi-order, and the fold splits it at the block of the
first letter into its gaps and its tail.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from .bnc import BncPartition, _mobius, _nc_fold, enumerate_bnc, s_chi_permutation
from .errors import InsufficientDataError, SizeError
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


def _nc_sum(w, weight, top_weight=None, by_pair=False, skip_full=False) -> Fraction:
    """Sum over pi in BNC(chi_of(w)) of the product of the block weights of pi.

    A block weighs weight(block subword), or top_weight(block subword) when
    top_weight is given and the block is outer (no other block chi-surrounds
    it: in chi-order, outer blocks are the blocks at the top level).
    by_pair keeps only the partitions whose blocks are eps-monochromatic;
    skip_full leaves out the one-block partition.

    The sum is bnc._nc_fold over the letters in chi-order.  A weight that
    raises InsufficientDataError marks its block missing, and the sum raises
    only if some partition has a missing block and no block of weight 0.
    The explicit sum, which reads each partition's blocks up to the first 0,
    raises on that partition too.
    """
    n = len(w)
    order = s_chi_permutation(chi_of(w)) if n else ()
    weights = {}

    def leaf(block, top):
        if skip_full and len(block) == n:
            return None
        if (block, top) not in weights:
            sub = subword(w, [order[k] for k in block])
            try:
                v = (top_weight if top else weight)(sub)
                weights[block, top] = (v.numerator, v.denominator, True) if v else None
            except InsufficientDataError as err:
                weights[block, top] = (0, 1, err)
        return weights[block, top]

    colour = [w[p - 1].pair if by_pair else None for p in order]
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
    blocks x.  value(w) is read before the sum, and memo holds x.  A one-letter
    word has no non-full partition, so there x is value alone.
    """
    if len(w) == 0:
        raise ValueError("cumulants are defined for words of length >= 1")
    if memo is None:
        memo = {}

    def x(word):
        if word not in memo:
            v = value(word)
            memo[word] = (Fraction(v) if len(word) == 1 else
                          v - _nc_sum(word, weight, top_weight=top, skip_full=True))
        return memo[word]

    weight, top = (x, None) if inner is None else (inner, x)
    return x(w)


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
        raise ValueError("cumulants are defined for words of length >= 1")
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
    for letter in w:
        if letter.pair not in pures:
            raise KeyError(f"no pure distribution for pair {letter.pair!r}")
    return _nc_sum(w, _pure_cumulant(pures), by_pair=True)


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
    return _nc_sum(w, _pure_cumulant(pures),
                   top_weight=lambda sub: pures[sub[0].pair].conditional_cumulant(sub),
                   by_pair=True)

"""Chi-maps, the chi-order, chi-intervals, and the bi-non-crossing lattice.

A chi-map is a string over {l, r} giving the side of each position 1..n.
An eps-map is a tuple of pair-color labels of the same length.
The chi-order lists left positions ascending, then right positions descending.
A chi-interval is a contiguous slice of the chi-order.  BNC(chi) is NC(n)
carried through the chi-order, and `_nc_fold` is the one recursion over it,
generic in the semiring: it enumerates and it sums.  Nothing is cached across
calls.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby
from math import comb

from .errors import OrderError, SizeError
from .partitions import (
    MAX_GROUND_SET,
    SetPartition,
    _canonical,
    join as partition_join,
    meet as partition_meet,
    refines,
)


def _check_chi(chi: str):
    if not chi or any(c not in "lr" for c in chi):
        raise ValueError(f"chi must be a nonempty string over 'l'/'r', got {chi!r}")


def s_chi_permutation(chi: str):
    """The permutation s_chi: position k holds the k-th element in chi-order."""
    _check_chi(chi)
    lefts = [i for i, c in enumerate(chi, 1) if c == "l"]
    rights = [i for i, c in enumerate(chi, 1) if c == "r"]
    return tuple(lefts + rights[::-1])


def _ranks(chi: str) -> dict:
    """Element -> 0-based rank in chi-order."""
    return {elem: k for k, elem in enumerate(s_chi_permutation(chi))}


def chi_precedes(chi: str, i: int, j: int) -> bool:
    """True iff i strictly precedes j in chi-order."""
    ranks = _ranks(chi)
    if i not in ranks or j not in ranks:
        raise IndexError(f"index out of range for chi of length {len(chi)}")
    return ranks[i] < ranks[j]


def chi_interval(chi, i, j, left_closed=True, right_closed=True) -> frozenset:
    """Indices between i and j in chi-order, endpoint inclusion per the flags.

    Passing None for i (resp. j) gives the ray from the chi-first (resp. to
    the chi-last) position; the adjacent closure flag is then ignored.
    """
    ranks = _ranks(chi)
    for end in (i, j):
        if end is not None and end not in ranks:
            raise IndexError(f"index {end} out of range")
    if i is not None and j is not None and ranks[i] > ranks[j]:
        raise OrderError(f"{j} chi-precedes {i}")
    lo = 0 if i is None else ranks[i] + (0 if left_closed else 1)
    hi = len(chi) if j is None else ranks[j] + (1 if right_closed else 0)
    return frozenset(s_chi_permutation(chi)[lo:hi])


def is_bi_non_crossing(p: SetPartition, chi: str) -> bool:
    """True iff transporting p through the chi-order yields a non-crossing partition."""
    _check_chi(chi)
    if p.n != len(chi):
        raise SizeError(f"partition size {p.n} != chi length {len(chi)}")
    return _crossing_pair(chi, p.blocks) is None


@dataclass(frozen=True)
class BncPartition:
    """A set partition remembered together with its chi-map."""

    partition: SetPartition
    chi: str

    @staticmethod
    def of(partition: SetPartition, chi: str) -> "BncPartition":
        if not is_bi_non_crossing(partition, chi):
            raise ValueError(f"partition {partition.blocks} is crossing for chi={chi}")
        return BncPartition(partition, chi)

    @property
    def n(self):
        return self.partition.n


def _nc_fold(colour, leaf, ring, top=False):
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


# Lists of partitions (tuples of blocks); add extends the fold's fresh product.
_LISTS = (((),), lambda a, b: [x + y for x in a for y in b], list.__iadd__, tuple)


def enumerate_bnc(chi: str):
    """All bi-non-crossing partitions for chi, in canonical order."""
    parts = sorted(_bnc_fold(chi, (0,) * len(chi)), key=lambda p: p.blocks)
    return tuple(BncPartition(p, chi) for p in parts)


def enumerate_bnc_leq_eps(chi: str, eps: tuple):
    """Bi-non-crossing partitions for chi whose blocks are all eps-monochromatic."""
    return tuple(_bnc_fold(chi, eps))


def _bnc_fold(chi, eps):
    _check_chi(chi)
    if len(eps) != len(chi):
        raise SizeError(f"eps length {len(eps)} != chi length {len(chi)}")
    if len(chi) > MAX_GROUND_SET:
        raise SizeError(f"chi length {len(chi)} exceeds cap {MAX_GROUND_SET}")
    order = s_chi_permutation(chi)

    def leaf(block, outer):
        return ((tuple(sorted(order[k] for k in block)),),)

    parts = _nc_fold([eps[elem - 1] for elem in order], leaf, _LISTS)
    return (SetPartition(len(chi), tuple(sorted(blocks))) for blocks in parts)


def _blocks_cross(ranks, a, b) -> bool:
    # Two blocks cross iff their rank-sorted merge alternates at least 3 times.
    merged = sorted([(ranks[x], 0) for x in a] + [(ranks[x], 1) for x in b])
    switches = sum(1 for s, t in zip(merged, merged[1:]) if s[1] != t[1])
    return switches >= 3


def _crossing_pair(chi, blocks):
    """The first two blocks that cross in chi-order, or None."""
    ranks = _ranks(chi)
    return next(((a, b) for a, b in combinations(blocks, 2) if _blocks_cross(ranks, a, b)),
                None)


def bnc_meet(p: BncPartition, q: BncPartition) -> BncPartition:
    if p.chi != q.chi:
        raise SizeError("chi maps differ")
    return BncPartition(partition_meet(p.partition, q.partition), p.chi)


def bnc_join(p: BncPartition, q: BncPartition) -> BncPartition:
    """Least element of BNC(chi) that both p and q refine.

    Partition-lattice join followed by the non-crossing closure (repeatedly
    merging crossing block pairs).
    """
    if p.chi != q.chi:
        raise SizeError("chi maps differ")
    blocks = list(partition_join(p.partition, q.partition).blocks)
    while (pair := _crossing_pair(p.chi, blocks)) is not None:
        blocks.remove(pair[0])
        blocks.remove(pair[1])
        blocks.append(pair[0] + pair[1])
    return BncPartition(SetPartition(p.n, _canonical(blocks)), p.chi)


def maximal_mono_intervals(chi: str, eps: tuple):
    """The partition of {1..n} into maximal runs of constant eps-color along chi-order.

    Returned as tuples in natural increasing order, listed in chi-run order.
    """
    _check_chi(chi)
    if len(eps) != len(chi):
        raise SizeError(f"eps length {len(eps)} != chi length {len(chi)}")
    runs = groupby(s_chi_permutation(chi), key=lambda elem: eps[elem - 1])
    return tuple(tuple(sorted(run)) for _, run in runs)


def classify_blocks(p: BncPartition) -> dict:
    """Label each block inner or outer.

    A block is inner when another block chi-surrounds it: some other block has
    elements strictly chi-before and strictly chi-after everything in it.
    """
    ranks = _ranks(p.chi)
    spans = [(min(ranks[x] for x in b), max(ranks[x] for x in b)) for b in p.partition.blocks]
    out = {}
    for i, b in enumerate(p.partition.blocks):
        lo, hi = spans[i]
        inner = any(
            j != i and spans[j][0] < lo and spans[j][1] > hi
            for j in range(len(spans))
        )
        out[b] = "inner" if inner else "outer"
    return out


def bnc_mobius(lower: BncPartition, upper: BncPartition) -> int:
    """Mobius value over the BNC(chi) interval [lower, upper]."""
    if lower.chi != upper.chi:
        raise SizeError("chi maps differ")
    for bp in (lower, upper):
        BncPartition.of(bp.partition, bp.chi)  # a crossing argument raises ValueError
    if not refines(lower.partition, upper.partition):
        raise OrderError("lower does not refine upper")
    return _mobius(lower.partition, upper.partition, lower.chi)


def _mobius(lower: SetPartition, upper: SetPartition, chi: str) -> int:
    """mu(lower, upper) in closed form; both bi-non-crossing, lower refining upper.

    In chi-order the interval is one of NC(n), and [pi, sigma] in NC(n) is the
    product over the blocks W of sigma of the NC(|V|) for the blocks V of the
    Kreweras complement of pi restricted to W.  Those blocks are the cycles of
    pi^-1 gamma on the ranks of W, where pi cycles each block in increasing
    order and gamma is the cycle (1 2 ... |W|).  So mu is the product of
    mu(0, 1) in NC(|V|), which is (-1)^(|V|-1) C_(|V|-1) (Nica-Speicher,
    Lectures on the Combinatorics of Free Probability, Lectures 9-11).
    """
    ranks = _ranks(chi)
    lower_map = lower.block_map()
    mu = 1
    for w in upper.blocks:
        pos = {x: k for k, x in enumerate(sorted(w, key=ranks.__getitem__))}
        prev = [0] * len(w)  # pi^-1 on the positions of w
        for b in {lower.blocks[lower_map[x]] for x in w}:
            ks = sorted(pos[x] for x in b)
            for k, after in zip(ks[-1:] + ks, ks):
                prev[after] = k
        unseen = set(range(len(w)))
        while unseen:
            k, size = unseen.pop(), 1
            while (k := prev[(k + 1) % len(w)]) in unseen:
                unseen.remove(k)
                size += 1
            mu *= (-1) ** (size - 1) * (comb(2 * size - 2, size - 1) // size)
    return mu

"""Chi-maps, the chi-order, chi-intervals, and the bi-non-crossing lattice.

A chi-map is a string over {l, r} giving the side of each position 1..n.
An eps-map is a tuple of pair-color labels of the same length.
The chi-order lists left positions ascending, then right positions descending.
A chi-interval is a contiguous slice of the chi-order.  BNC(chi) is NC(n)
carried through the chi-order, and `_nc_fold` is the loop over it that
enumerates and that sums products: a bottom-up sum over chi-order intervals,
generic in the semiring, whose tables live for one call.  The
moment-cumulant subtraction sums top-down instead (`cumulants._subtraction`),
since it shares its interval sums across every subword of one pass.
"""
from __future__ import annotations

from collections import namedtuple
from itertools import combinations, groupby
from math import comb

from .errors import DomainError, OrderError, PositionError, SizeError
from .partitions import (
    MAX_GROUND_SET,
    SetPartition,
    _canonical,
    join as partition_join,
    meet as partition_meet,
    refines,
)


def _chi_order(chi) -> list:
    """The 0-based positions of a chi-map in chi-order: its left positions
    ascending, then its right positions descending.  chi is any sequence of
    sides, the empty one included."""
    n = len(chi)
    order = [p for p in range(n) if chi[p] == "l"] + [
        p for p in range(n - 1, -1, -1) if chi[p] == "r"]
    if len(order) != n:
        raise DomainError(f"chi must be a string over 'l'/'r', got {''.join(chi)!r}")
    return order


def s_chi_permutation(chi: str):
    """The permutation s_chi: position k holds the k-th element in chi-order."""
    if not chi:
        raise DomainError("chi must be a nonempty string over 'l'/'r', got ''")
    return tuple([p + 1 for p in _chi_order(chi)])


def _ranks(chi: str) -> dict:
    """Element -> 0-based rank in chi-order."""
    return {elem: k for k, elem in enumerate(s_chi_permutation(chi))}


def chi_precedes(chi: str, i: int, j: int) -> bool:
    """True iff i strictly precedes j in chi-order."""
    ranks = _ranks(chi)
    if i not in ranks or j not in ranks:
        raise PositionError(f"index out of range for chi of length {len(chi)}")
    return ranks[i] < ranks[j]


def chi_interval(chi, i, j, left_closed=True, right_closed=True) -> frozenset:
    """Indices between i and j in chi-order, endpoint inclusion per the flags.

    Passing None for i (resp. j) gives the ray from the chi-first (resp. to
    the chi-last) position; the adjacent closure flag is then ignored.
    """
    ranks = _ranks(chi)
    for end in (i, j):
        if end is not None and end not in ranks:
            raise PositionError(f"index {end} out of range")
    if i is not None and j is not None and ranks[i] > ranks[j]:
        raise OrderError(f"{j} chi-precedes {i}")
    lo = 0 if i is None else ranks[i] + (0 if left_closed else 1)
    hi = len(chi) if j is None else ranks[j] + (1 if right_closed else 0)
    return frozenset(s_chi_permutation(chi)[lo:hi])


def is_bi_non_crossing(p: SetPartition, chi: str) -> bool:
    """True iff transporting p through the chi-order yields a non-crossing partition."""
    s_chi_permutation(chi)  # a bad chi is refused before a size mismatch
    if p.n != len(chi):
        raise SizeError(f"partition size {p.n} != chi length {len(chi)}")
    return _crossing_pair(chi, p.blocks) is None


class BncPartition(namedtuple("BncPartition", "partition chi")):
    """A set partition remembered together with its chi-map."""

    __slots__ = ()

    @staticmethod
    def of(partition: SetPartition, chi: str) -> "BncPartition":
        if not is_bi_non_crossing(partition, chi):
            raise DomainError(f"partition {partition.blocks} is crossing for chi={chi}")
        return BncPartition(partition, chi)

    @property
    def n(self):
        return self.partition.n


def _nc_fold(colour, leaf, ring, top=False, caps=None):
    """Sum over the non-crossing partitions of range(len(colour)) with
    monochromatic blocks of the product of leaf(block, outer) over their
    blocks, a block being the tuple of its ranks.  ring is (one, mul, add,
    close); None is the absorbing zero, which the fold skips, so mul and add
    never see it.  caps maps a colour to the most ranks a block of it may
    hold: a block at its cap is not extended, so the sum is the uncapped one
    when every longer block weighs None.

    The block of lo splits the ranks lo..hi-1 into its gaps and its tail, which
    are partitioned independently; sums[lo][hi] is that interval's closed sum.
    One loop fills it bottom-up: by hi, then by lo descending, so every tail
    and gap a block reads is already closed.  With top, the intervals that end
    at n are the outer ones.  The leaf is read only if the tail is not zero.
    An interval with hi < n is read only within a gap that ends at hi, so it
    is summed only when a rank of hi's colour precedes lo; grow[i] holds the
    ranks of the colour of i after i and below hi.  sums starts as one
    everywhere: the empty intervals keep it, and every other entry read is
    written first.  A product with one itself, an empty gap or tail or the
    coefficient of a block with no gap yet, is not formed, so mul(one, x)
    and mul(x, one) must be worth x.
    """
    one, mul, add, close = ring
    n = len(colour)
    units = [(k,) for k in range(n)]
    lows = [*map(colour.index, colour), -1]  # per hi, lo stays above this rank
    grow = [[] for _ in range(n)]
    growing = {}  # colour -> the growth lists of its ranks below hi
    sums = [[one] * (n + 1) for _ in range(n + 1)]
    stop = [()] * n  # the growth table of a capped interval: no block grows in its loop
    for hi in range(1, n + 1):
        outer = top and hi == n
        lists = growing.setdefault(colour[hi - 1], [])
        for later in lists:
            later.append(hi - 1)
        lists.append(grow[hi - 1])
        for lo in range(hi - 1, lows[hi], -1):
            acc = None
            # Partial blocks holding lo: (block, last rank, product of the gap sums).
            pending, nexts = [(units[lo], lo, one)], grow
            if caps and (cap := caps.get(colour[lo])):
                # every block up to the cap is grown here, and none in the loop below
                nexts, level = stop, pending
                for _ in range(cap - 1):
                    level = [(block + units[j], j, mul(coeff, gap)) for block, last, coeff in level
                             for j in grow[last] if (gap := sums[last + 1][j]) is not None]
                    pending += level
            while pending:
                block, last, coeff = pending.pop()
                row = sums[last + 1]
                if (tail := row[hi]) is not None and (weight := leaf(block, outer)) is not None:
                    term = mul(tail if coeff is one else coeff if tail is one
                               else mul(coeff, tail), weight)
                    acc = term if acc is None else add(acc, term)
                for j in nexts[last]:
                    if (gap := row[j]) is not None:
                        pending.append((block + units[j], j, gap if coeff is one else
                                        coeff if gap is one else mul(coeff, gap)))
            sums[lo][hi] = None if acc is None else close(acc)
    return sums[0][n]


# Lists of partitions (tuples of blocks); add extends the fold's fresh product.
_LISTS = (((),), lambda a, b: [x + y for x in a for y in b], list.__iadd__, tuple)


def bnc_blocks(chi: str) -> list:
    """The canonical blocks of each partition `enumerate_bnc` lists, in its order."""
    return sorted(_bnc_fold(chi, (0,) * len(chi)))


def enumerate_bnc(chi: str):
    """All bi-non-crossing partitions for chi, in canonical order."""
    return tuple(BncPartition(SetPartition(len(chi), blocks), chi) for blocks in bnc_blocks(chi))


def enumerate_bnc_leq_eps(chi: str, eps: tuple):
    """Bi-non-crossing partitions for chi whose blocks are all eps-monochromatic."""
    return tuple(SetPartition(len(chi), blocks) for blocks in _bnc_fold(chi, eps))


def _bnc_fold(chi, eps):
    order = s_chi_permutation(chi)
    if len(eps) != len(chi):
        raise SizeError(f"eps length {len(eps)} != chi length {len(chi)}")
    if len(chi) > MAX_GROUND_SET:
        raise SizeError(f"chi length {len(chi)} exceeds cap {MAX_GROUND_SET}")

    def leaf(block, outer):
        return ((tuple(sorted(order[k] for k in block)),),)

    parts = _nc_fold([eps[elem - 1] for elem in order], leaf, _LISTS)
    return map(tuple, map(sorted, parts))


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
    order = s_chi_permutation(chi)
    if len(eps) != len(chi):
        raise SizeError(f"eps length {len(eps)} != chi length {len(chi)}")
    runs = groupby(order, key=lambda elem: eps[elem - 1])
    return tuple(tuple(sorted(run)) for _, run in runs)


def classify_blocks(p: BncPartition) -> dict:
    """Label each block inner or outer.

    A block is inner when another block chi-surrounds it: some other block has
    elements strictly chi-before and strictly chi-after everything in it.
    """
    ranks = _ranks(p.chi)
    spans = [(min(ranks[x] for x in b), max(ranks[x] for x in b)) for b in p.partition.blocks]
    return {b: "inner" if any(first < lo and last > hi for first, last in spans) else "outer"
            for b, (lo, hi) in zip(p.partition.blocks, spans)}


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

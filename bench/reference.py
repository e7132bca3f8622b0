"""An independent reference for the benchmark's checks.

Nothing here imports `bifree`.  The chi-order, the bi-non-crossing test, the
partition enumeration and the inner/outer test are written from their
definitions, by different means than the library uses:

- partitions are grown one element at a time along the chi-order and pruned
  the moment a block would cross an earlier one (the library recurses on the
  block of the first element instead);
- the bi-non-crossing test looks for an alternating quadruple a < b < c < d
  between every pair of blocks (the library scans with a stack);
- a block is inner when some other block is still open where it begins (the
  library compares block spans).

Words are tuples of generator symbols; a `Family` knows each symbol's pair
and side.  All arithmetic is exact `Fraction` arithmetic.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def chi_order(chi: str) -> list:
    """Positions 1..n in chi-order: left positions ascending, then right descending."""
    lefts = [i + 1 for i, side in enumerate(chi) if side == "l"]
    rights = [i + 1 for i, side in enumerate(chi) if side == "r"]
    return lefts + rights[::-1]


def _alternate(a, b) -> bool:
    """True iff some x1 < y1 < x2 < y2 has x1, x2 in a and y1, y2 in b, or the reverse."""
    for x1 in a:
        for y1 in b:
            if y1 <= x1:
                continue
            for x2 in a:
                if x2 <= y1:
                    continue
                if any(y2 > x2 for y2 in b):
                    return True
    return False


def is_bi_non_crossing(blocks, chi: str) -> bool:
    """True iff no two blocks alternate once their positions are read in chi-order."""
    rank = {pos: k for k, pos in enumerate(chi_order(chi))}
    ranked = [[rank[x] for x in b] for b in blocks]
    return not any(
        _alternate(ranked[i], ranked[j]) or _alternate(ranked[j], ranked[i])
        for i in range(len(ranked)) for j in range(i + 1, len(ranked)))


def nc_partitions(colors) -> list:
    """Non-crossing partitions of ranks 0..n-1 whose blocks are single-colored.

    Rank t either opens a new block or joins an open block B of its color.
    Joining B is refused when another block has a rank between B's last rank
    and t while having started before that last rank: that block and B would
    alternate.  Blocks are returned as lists of ranks.
    """
    n = len(colors)
    out = []
    blocks = []

    def grow(t):
        if t == n:
            out.append([list(b) for b in blocks])
            return
        for b in blocks:
            if colors[b[0]] != colors[t]:
                continue
            last = b[-1]
            if any(other is not b and other[0] < last and other[-1] > last
                   for other in blocks):
                continue
            b.append(t)
            grow(t + 1)
            b.pop()
        blocks.append([t])
        grow(t + 1)
        blocks.pop()

    grow(0)
    return out


def is_inner(block_ranks, blocks_ranks) -> bool:
    """A block is inner when, at its first rank, another block has begun and not ended."""
    start = min(block_ranks)
    return any(other is not block_ranks and min(other) < start < max(other)
               for other in blocks_ranks)


class Pure:
    """One pair of faces: its symbols and a moment table or a cumulant table."""

    def __init__(self, sides, moments=None, cumulants=None, theta=None):
        self.sides = dict(sides)            # symbol -> "l" / "r"
        self.moments = moments              # symbol tuple -> Fraction, complete
        self.cumulant_table = cumulants     # symbol tuple -> Fraction, absent = 0
        self.theta = theta
        self._kappa = {}
        self._ckappa = {}


class Family:
    """Pure pairs of faces taken bi-freely, plus optional moment perturbations."""

    def __init__(self, pures, perturbations=None):
        self.pures = dict(pures)
        self.pair_of = {}
        self.side_of = {}
        for pair, pure in self.pures.items():
            for sym, side in pure.sides.items():
                self.pair_of[sym] = pair
                self.side_of[sym] = side
        self.perturbations = dict(perturbations or {})
        self._nc = {}
        self._phi = {}

    # lattice ------------------------------------------------------------
    def chi(self, word) -> str:
        return "".join(self.side_of[s] for s in word)

    def bnc(self, chi: str, colors=None) -> list:
        """Bi-non-crossing partitions for chi, blocks as (positions, ranks) pairs."""
        order = chi_order(chi)
        ranked_colors = tuple(colors[p - 1] for p in order) if colors else (0,) * len(chi)
        key = (chi, ranked_colors)
        if key not in self._nc:
            self._nc[key] = [
                [(tuple(sorted(order[r] for r in b)), b) for b in part]
                for part in nc_partitions(ranked_colors)]
        return self._nc[key]

    # pure cumulants ---------------------------------------------------
    def kappa(self, word) -> Fraction:
        """Cumulant of a single-pair word: moment minus the non-full partitions."""
        pure = self.pures[self.pair_of[word[0]]]
        if word in pure._kappa:
            return pure._kappa[word]
        if pure.cumulant_table is not None:
            value = pure.cumulant_table.get(word, Fraction(0))
        else:
            value = pure.moments[word]
            for part in self.bnc(self.chi(word)):
                if len(part) > 1:
                    value -= self._product(word, part, lambda sub, _: self.kappa(sub))
        pure._kappa[word] = value
        return value

    def ckappa(self, word) -> Fraction:
        """Conditional cumulant of a single-pair word from its theta table."""
        pure = self.pures[self.pair_of[word[0]]]
        if word in pure._ckappa:
            return pure._ckappa[word]
        value = pure.theta[word]
        for part in self.bnc(self.chi(word)):
            if len(part) > 1:
                value -= self._conditional_product(word, part)
        pure._ckappa[word] = value
        return value

    @staticmethod
    def _product(word, part, fn) -> Fraction:
        prod = Fraction(1)
        for positions, ranks in part:
            prod *= fn(tuple(word[p - 1] for p in positions), ranks)
            if not prod:
                break
        return prod

    def _conditional_product(self, word, part) -> Fraction:
        all_ranks = [ranks for _, ranks in part]
        return self._product(
            word, part,
            lambda sub, ranks: self.kappa(sub) if is_inner(ranks, all_ranks)
            else self.ckappa(sub))

    # mixed moments ------------------------------------------------------
    def colors(self, word) -> tuple:
        return tuple(self.pair_of[s] for s in word)

    def phi(self, word) -> Fraction:
        """Moment of the bi-free product, plus any perturbation of the word's class."""
        word = tuple(word)
        if not word:
            return Fraction(1)
        if word not in self._phi:
            total = Fraction(0)
            for part in self.bnc(self.chi(word), self.colors(word)):
                total += self._product(word, part, lambda sub, _: self.kappa(sub))
            self._phi[word] = total + self.perturbation(word)
        return self._phi[word]

    def theta(self, word) -> Fraction:
        """Conditional moment: inner blocks take cumulants, outer ones conditional cumulants."""
        word = tuple(word)
        if not word:
            return Fraction(1)
        return sum((self._conditional_product(word, part)
                    for part in self.bnc(self.chi(word), self.colors(word))),
                   Fraction(0))

    # commutation --------------------------------------------------------
    def commute(self, a, b) -> bool:
        return self.pair_of[a] != self.pair_of[b] and self.side_of[a] != self.side_of[b]

    def commutation_class(self, word) -> set:
        """Every word reachable from `word` by swapping adjacent commuting letters."""
        seen = {tuple(word)}
        todo = [tuple(word)]
        while todo:
            w = todo.pop()
            for i in range(len(w) - 1):
                if self.commute(w[i], w[i + 1]):
                    v = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                    if v not in seen:
                        seen.add(v)
                        todo.append(v)
        return seen

    def perturbation(self, word) -> Fraction:
        return sum((delta for key, delta in self.perturbations.items()
                    if len(key) == len(word) and word in self.commutation_class(key)),
                   Fraction(0))

    # the four-term interval map ---------------------------------------
    def taur(self, word, iota) -> dict:
        """(complement, interval) -> coefficient over chi-ordered pairs of iota letters."""
        order = chi_order(self.chi(word))
        marked = [k for k, p in enumerate(order) if self.pair_of[word[p - 1]] == iota]
        out = {}
        for a in marked:
            for b in marked:
                if b < a:
                    continue
                for lo, hi, sign in ((a, b, 1), (a, b - 1, -1), (a + 1, b, -1), (a + 1, b - 1, 1)):
                    inside = set(order[lo:hi + 1]) if hi >= lo else set()
                    left = tuple(s for p, s in enumerate(word, 1) if p not in inside)
                    right = tuple(s for p, s in enumerate(word, 1) if p in inside)
                    out[(left, right)] = out.get((left, right), 0) + sign
        return {k: c for k, c in out.items() if c}

    def tensor_value(self, word, iota) -> Fraction:
        """(phi tensor phi) of the interval map."""
        return sum((c * self.phi(left) * self.phi(right)
                    for (left, right), c in self.taur(word, iota).items()),
                   Fraction(0))


"""Set partitions of {1..n}, the refinement lattice, and a generic Mobius function.

Partitions are kept in canonical form (blocks sorted by least element,
elements ascending within a block) so they are hashable and comparable.
"""
from __future__ import annotations

from collections import namedtuple

from .errors import DomainError, OrderError, SizeError

# Bell(12) ~ 4.2M is the practical enumeration ceiling on a desk machine.
MAX_GROUND_SET = 12

Blocks = tuple  # tuple of tuples of int, canonical order


def _canonical(blocks) -> Blocks:
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


class SetPartition(namedtuple("SetPartition", "n blocks")):
    """A partition of {1..n} into disjoint nonempty blocks covering 1..n."""

    __slots__ = ()

    @staticmethod
    def of(n: int, blocks) -> "SetPartition":
        blocks = _canonical(tuple(b) for b in blocks if len(tuple(b)) > 0)
        elements = sorted(x for b in blocks for x in b)
        if elements != list(range(1, n + 1)):
            raise DomainError(f"blocks do not partition 1..{n}: {blocks}")
        return SetPartition(n, blocks)

    @staticmethod
    def discrete(n: int) -> "SetPartition":
        return SetPartition(n, tuple((i,) for i in range(1, n + 1)))

    @staticmethod
    def full(n: int) -> "SetPartition":
        return SetPartition(n, (tuple(range(1, n + 1)),))

    def block_map(self) -> dict:
        """Element -> index of its block (in canonical block order)."""
        out = {}
        for k, b in enumerate(self.blocks):
            for x in b:
                out[x] = k
        return out

    def __len__(self):
        return len(self.blocks)


def enumerate_set_partitions(n: int):
    """All partitions of {1..n} in canonical order, via restricted-growth strings."""
    if not 1 <= n <= MAX_GROUND_SET:
        raise SizeError(f"ground-set size must be in 1..{MAX_GROUND_SET}, got {n}")
    out = []

    def grow(rgs, maxval):
        i = len(rgs)
        if i == n:
            nblocks = maxval + 1
            blocks = [[] for _ in range(nblocks)]
            for pos, b in enumerate(rgs, 1):
                blocks[b].append(pos)
            out.append(SetPartition(n, tuple(tuple(b) for b in blocks)))
            return
        for b in range(maxval + 2):
            grow(rgs + [b], max(maxval, b))

    grow([0], 0)
    return out


def refines(p: SetPartition, q: SetPartition) -> bool:
    """True iff every block of p is contained in some block of q."""
    if p.n != q.n:
        raise SizeError(f"partition sizes differ: {p.n} != {q.n}")
    qmap = q.block_map()
    for b in p.blocks:
        k = qmap[b[0]]
        if any(qmap[x] != k for x in b[1:]):
            return False
    return True


def meet(p: SetPartition, q: SetPartition) -> SetPartition:
    """Coarsest common refinement: blockwise intersections."""
    if p.n != q.n:
        raise SizeError(f"partition sizes differ: {p.n} != {q.n}")
    qmap = q.block_map()
    blocks = {}
    pmap = p.block_map()
    for x in range(1, p.n + 1):
        blocks.setdefault((pmap[x], qmap[x]), []).append(x)
    return SetPartition(p.n, _canonical(blocks.values()))


def join(p: SetPartition, q: SetPartition) -> SetPartition:
    """Finest common coarsening: transitive closure of the union of block relations."""
    if p.n != q.n:
        raise SizeError(f"partition sizes differ: {p.n} != {q.n}")
    groups = []  # disjoint; each block merges with every group it meets
    for b in p.blocks + q.blocks:
        merged, rest = set(b), []
        for g in groups:
            if g & merged:
                merged |= g
            else:
                rest.append(g)
        groups = rest + [merged]
    return SetPartition(p.n, _canonical(groups))


def lattice_mobius(lower: SetPartition, upper: SetPartition, universe) -> int:
    """Mobius value mu(lower, upper) over the sub-lattice given by `universe`.

    Standard recursion: mu(x,x) = 1, mu(x,y) = -sum_{x <= z < y} mu(x,z).
    `universe` must contain every element of the interval [lower, upper].
    """
    if not refines(lower, upper):
        raise OrderError("lower does not refine upper")
    interval = [z for z in universe if refines(lower, z) and refines(z, upper)]
    memo = {lower: 1}

    def mu(y):
        if y in memo:
            return memo[y]
        val = -sum(mu(z) for z in interval if z != y and refines(z, y))
        memo[y] = val
        return val

    return mu(upper)


def parse_partition(text: str, n: int) -> SetPartition:
    """Parse the CLI partition syntax, e.g. "1|2 5 7|3 4|6 8"."""
    blocks = []
    for part in text.split("|"):
        part = part.strip()
        if not part:
            raise DomainError(f"empty block in partition text: {text!r}")
        block = []
        for tok in part.split():
            try:
                block.append(int(tok))
            except ValueError:
                raise DomainError(f"token {tok!r} is not an integer in partition "
                                  f"text: {text!r}") from None
        blocks.append(tuple(block))
    return SetPartition.of(n, blocks)


def format_partition(p: SetPartition) -> str:
    return "|".join(" ".join(str(x) for x in b) for b in p.blocks)

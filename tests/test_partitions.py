import itertools
import random

import pytest

from bifree import (
    SetPartition,
    SizeError,
    OrderError,
    enumerate_set_partitions,
    format_partition,
    join,
    lattice_mobius,
    meet,
    parse_partition,
    refines,
)


def brute_force_partitions(n):
    """Independent oracle: all block-label assignments, deduplicated."""
    seen = set()
    for labels in itertools.product(range(n), repeat=n):
        blocks = {}
        for pos, lab in enumerate(labels, 1):
            blocks.setdefault(lab, []).append(pos)
        key = tuple(sorted(tuple(b) for b in blocks.values()))
        seen.add(key)
    return seen


def test_enumerate_counts_against_oracle():
    assert [p.blocks for p in enumerate_set_partitions(1)] == [((1,),)]
    for n in (3, 4):
        got = {tuple(sorted(p.blocks)) for p in enumerate_set_partitions(n)}
        assert got == brute_force_partitions(n)
    assert len(enumerate_set_partitions(3)) == 5
    assert len(enumerate_set_partitions(4)) == 15


def test_enumerate_canonical_and_unique():
    parts = enumerate_set_partitions(4)
    assert len(parts) == len(set(parts))
    for p in parts:
        assert p.blocks == tuple(sorted((tuple(sorted(b)) for b in p.blocks),
                                        key=lambda b: b[0]))


def test_enumerate_size_guard():
    with pytest.raises(SizeError):
        enumerate_set_partitions(0)
    with pytest.raises(SizeError):
        enumerate_set_partitions(13)


def test_refines_examples():
    d2 = SetPartition.discrete(2)
    f2 = SetPartition.full(2)
    assert refines(d2, f2)
    assert refines(f2, f2)
    p = SetPartition.of(3, [(1, 2), (3,)])
    q = SetPartition.of(3, [(1, 3), (2,)])
    assert len(p) == 2  # len() counts the blocks
    assert not refines(p, q)
    with pytest.raises(SizeError):
        refines(d2, SetPartition.full(3))


def test_join_meet_examples():
    d2 = SetPartition.discrete(2)
    assert join(d2, d2) == d2
    p = SetPartition.of(3, [(1, 2), (3,)])
    q = SetPartition.of(3, [(2, 3), (1,)])
    assert join(p, q) == SetPartition.full(3)
    assert meet(SetPartition.full(3), p) == p


def test_lattice_properties_exhaustive_n4():
    parts = enumerate_set_partitions(4)
    for p, q in itertools.product(parts, repeat=2):
        m, j = meet(p, q), join(p, q)
        assert refines(m, p) and refines(m, q)
        assert refines(p, j) and refines(q, j)
        assert meet(q, p) == m and join(q, p) == j
        assert join(p, p) == p and meet(p, p) == p


def test_mobius_base_and_chain():
    parts2 = enumerate_set_partitions(2)
    d2, f2 = SetPartition.discrete(2), SetPartition.full(2)
    for p in parts2:
        assert lattice_mobius(p, p, parts2) == 1
    assert lattice_mobius(d2, f2, parts2) == -1


def test_mobius_full_partition_lattice():
    # mu(discrete, full) over the full partition lattice of n is (-1)^(n-1) (n-1)!
    for n, expected in ((2, -1), (3, 2), (4, -6)):
        parts = enumerate_set_partitions(n)
        val = lattice_mobius(SetPartition.discrete(n), SetPartition.full(n), parts)
        assert val == expected


def test_mobius_delta_identity():
    parts = enumerate_set_partitions(4)
    rng = random.Random(0)
    pairs = [(p, q) for p in parts for q in parts
             if p != q and refines(p, q)]
    for lower, upper in rng.sample(pairs, 20):
        total = sum(lattice_mobius(lower, z, parts)
                    for z in parts if refines(lower, z) and refines(z, upper))
        assert total == 0


def test_mobius_order_guard():
    parts = enumerate_set_partitions(3)
    p = SetPartition.of(3, [(1, 2), (3,)])
    q = SetPartition.of(3, [(1, 3), (2,)])
    with pytest.raises(OrderError):
        lattice_mobius(p, q, parts)


def test_parse_format_roundtrip():
    p = parse_partition("1|2 5 7|3 4|6 8", 8)
    assert p.blocks == ((1,), (2, 5, 7), (3, 4), (6, 8))
    assert format_partition(p) == "1|2 5 7|3 4|6 8"
    with pytest.raises(ValueError):
        parse_partition("1|2||3", 3)
    with pytest.raises(ValueError):
        parse_partition("1|2", 3)

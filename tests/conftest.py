"""Shared factories for randomized rational test families and spec files."""
import functools
import itertools
import json
from fractions import Fraction

from hypothesis import strategies as st

from bifree import MomentTablePure, TableJoint, words_up_to

# positions at which to try swapping neighbours, for apply_swaps
SWAPS = st.lists(st.integers(0, 5), max_size=20)


def rand_fraction(rng, lo=-4, hi=4, dmax=3):
    return Fraction(rng.randint(lo, hi), rng.randint(1, dmax))


def random_moment_pure(pair, rng, max_degree=6, n_left=1, n_right=1,
                       with_theta=False, value=rand_fraction):
    """A pure distribution with a complete random moment table up to max_degree.

    value(rng) draws each table entry.
    """
    left = tuple(f"{pair}l{k}" if n_left > 1 else f"{pair}l" for k in range(n_left))
    right = tuple(f"{pair}r{k}" if n_right > 1 else f"{pair}r" for k in range(n_right))
    syms = left + right
    table = {}
    theta = {} if with_theta else None
    for n in range(1, max_degree + 1):
        for combo in itertools.product(syms, repeat=n):
            table[combo] = value(rng)
            if with_theta:
                theta[combo] = value(rng)
    return MomentTablePure(pair, left, right, max_degree, table, theta_table=theta)


def random_family(rng, pairs=("a", "b"), max_degree=6, with_theta=False,
                  extra_left=(), value=rand_fraction):
    """Pure tables for the given pair ids; extra_left pairs get 2 left generators."""
    pures = {}
    for pair in pairs:
        n_left = 2 if pair in extra_left else 1
        pures[pair] = random_moment_pure(pair, rng, max_degree=max_degree,
                                         n_left=n_left, with_theta=with_theta,
                                         value=value)
    return pures


def random_table_joint(letters, rng, max_len=6):
    """A joint moment table with one random value per commutation class."""
    table = {}
    for w in words_up_to(letters, max_len):
        table.setdefault(w, rand_fraction(rng))
    return TableJoint(letters, table)


def commutes(a, b):
    """Opposite-side letters of different pairs commute."""
    return a.pair != b.pair and a.side != b.side


def apply_swaps(w, swaps):
    """w with the neighbours at each position in swaps exchanged where they commute."""
    for i in swaps:
        if i + 1 < len(w) and commutes(w[i], w[i + 1]):
            w = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
    return w


def json_paths(node, path=()):
    """Every position in a parsed JSON value, as a tuple of keys and indices."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from json_paths(child, path + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5)


@st.composite
def mutated_specs(draw, spec):
    """A copy of the parsed spec with any one position replaced or deleted."""
    spec = json.loads(json.dumps(spec))
    path = draw(st.sampled_from(list(json_paths(spec))))
    value = draw(JSON_VALUES)
    if not path:
        return value
    parent = functools.reduce(lambda node, key: node[key], path[:-1], spec)
    if draw(st.booleans()):
        parent[path[-1]] = value
    else:
        del parent[path[-1]]
    return spec

import functools
import io
import itertools
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bifree import (
    BiFreeError,
    BifreeProduct,
    DomainError,
    InsufficientDataError,
    Letter,
    ModeError,
    PerturbedJoint,
    ScalarWordSum,
    SpecError,
    builtin_haar_pair,
    builtin_semicircular_pair,
    evaluate,
    evaluate_theta,
    load_family,
    parse_rational,
    words_up_to,
)

from conftest import SWAPS, apply_swaps, random_family, random_moment_pure, random_table_joint


def test_semicircular_pair():
    s = builtin_semicircular_pair("p", {"ll": 1, "lr": 1, "rr": 1})
    sl, sr = s.letters
    assert s.moment((sl,)) == 0
    assert s.moment((sl, sr)) == 1
    assert s.moment((sl, sl, sr, sr)) == 2
    assert s.moment((sl,) * 3) == 0
    assert s.cumulant((sl, sl, sr)) == 0
    asym = builtin_semicircular_pair("q", {"ll": 2})
    al, ar = asym.letters
    assert asym.moment((al, al)) == 2
    assert asym.moment((ar, ar)) == 0
    # three distinct covariances: a mixed order read off the wrong key shows
    dist = builtin_semicircular_pair("c", {"ll": 2, "lr": 3, "rr": 5})
    cl, cr = dist.letters
    assert dist.cumulant((cl, cr)) == dist.cumulant((cr, cl)) == 3
    assert dist.cumulant((cl, cl)) == 2
    assert dist.cumulant((cr, cr)) == 5
    for w in [(cl,), (cr,)] + list(itertools.product((cl, cr), repeat=3)):
        assert dist.cumulant(w) == 0
    assert dist.moment((cl, cr, cl, cr)) == 2 * 5 + 3 ** 2


@pytest.mark.parametrize("key", ["rl", "LR", "lrr", ""])
def test_semicircular_pair_refuses_unknown_cov_keys(key):
    with pytest.raises(DomainError, match="'ll', 'lr' and 'rr'"):
        builtin_semicircular_pair("p", {"ll": 1, key: 1})


def test_semicircular_pair_converts_cov_when_built():
    with pytest.raises(ValueError):
        builtin_semicircular_pair("p", {"lr": "one"})
    assert builtin_semicircular_pair("p", {"lr": "1/3", "rr": 0.5}).table[
        ("s_p_l", "s_p_r")] == Fraction(1, 3)


def test_haar_pair():
    h = builtin_haar_pair("u")
    ul, uls, ur, urs = h.letters
    assert h.moment((ul, ur)) == 1
    assert h.moment((ul,)) == 0
    assert h.moment((ul, uls)) == 1
    assert h.moment((ul, ul, ur)) == 0
    assert h.moment((ul, ul, ur, ur)) == 1
    # commuting within the pair: order of letters is irrelevant
    rng = random.Random(0)
    for _ in range(20):
        w = [rng.choice(h.letters) for _ in range(5)]
        base = h.moment(tuple(w))
        rng.shuffle(w)
        assert h.moment(tuple(w)) == base


def test_moment_table_hard_errors():
    rng = random.Random(1)
    pures = random_family(rng, max_degree=2)
    a = pures["a"]
    with pytest.raises(InsufficientDataError) as exc:
        a.moment(a.letters[:1] * 3)
    assert "insufficient pure data" in str(exc.value)


def test_evaluate_linearity():
    rng = random.Random(2)
    x = Letter("x", "a", "l")
    y = Letter("y", "b", "r")
    d = random_table_joint((x, y), rng, max_len=3)
    assert evaluate(d, ScalarWordSum.word((), 1)) == 1
    s = ScalarWordSum.word((x, y), Fraction(2, 3))
    s.add((x,), -1)
    assert evaluate(d, s) == Fraction(2, 3) * d.phi((x, y)) - d.phi((x,))


def test_perturbed_joint():
    rng = random.Random(3)
    pures = random_family(rng, max_degree=3)
    base = BifreeProduct(pures)
    x = pures["a"].letters[0]
    y = pures["b"].letters[0]
    d = PerturbedJoint(base, {(x, y): Fraction(1)})
    assert d.phi((x, y)) == base.phi((x, y)) + 1
    assert d.phi((x,)) == base.phi((x,))
    # the delta applies to the whole commutation class
    yr = pures["b"].letters[1]
    d2 = PerturbedJoint(base, {(x, yr): Fraction(1)})
    assert d2.phi((yr, x)) == base.phi((yr, x)) + 1


SPEC = {
    "pairs": [
        {
            "id": "a",
            "left_generators": ["x"],
            "right_generators": ["xr"],
            "max_degree": 3,
            "moments": {
                "x": "1/2", "xr": 0,
                "x x": 1, "x xr": "1/3", "xr x": "1/3", "xr xr": 2,
                "x x x": 0, "x x xr": 0, "x xr x": 0, "x xr xr": 0,
                "xr x x": 0, "xr x xr": 0, "xr xr x": 0, "xr xr xr": 0,
            },
        },
        {
            "id": "b",
            "left_generators": ["y"],
            "right_generators": [],
            "cumulants": {"y": 1, "y y": "3/2"},
        },
    ]
}


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(-2) == Fraction(-2)
    assert parse_rational("+3") == 3 and parse_rational("-1/2") == Fraction(-1, 2)
    with pytest.raises(ValueError):
        parse_rational(True)
    with pytest.raises(ValueError):
        parse_rational(1.5)
    for text in ("1.5", "1e3", "1_0", " 1", "1/", "/2", "1/-2"):
        with pytest.raises(SpecError):
            parse_rational(text)


def test_load_family(tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(SPEC))
    fam = load_family(str(path))
    w = fam.word("x y")
    assert [l.symbol for l in w] == ["x", "y"]
    d = fam.joint()
    assert d.phi(fam.word("x")) == Fraction(1, 2)
    assert fam.pures["b"].moment(fam.word("y y")) == Fraction(1) + Fraction(3, 2)
    assert d.phi(fam.word("x y")) == Fraction(1, 2)
    with pytest.raises(KeyError):
        fam.word("nope")


def test_load_family_validation():
    bad = {"pairs": [dict(SPEC["pairs"][0]), dict(SPEC["pairs"][0])]}
    with pytest.raises(ValueError):
        load_family(bad)
    both = {"pairs": [dict(SPEC["pairs"][1], moments={"y": 1})]}
    with pytest.raises(ValueError):
        load_family(both)
    neither = {"pairs": [{"id": "c", "left_generators": ["z"]}]}
    with pytest.raises(ValueError):
        load_family(neither)


def _paths(node, path=()):
    """Every position in a parsed JSON value, as a tuple of keys and indices."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, path + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_malformed_spec_raises_a_typed_error(data):
    """Any one position of a valid spec replaced or deleted: a Family or a typed error."""
    spec = json.loads(json.dumps(SPEC))
    path = data.draw(st.sampled_from(list(_paths(spec))))
    value = data.draw(JSON_VALUES)
    if not path:
        spec = value
    else:
        parent = functools.reduce(lambda node, key: node[key], path[:-1], spec)
        if data.draw(st.booleans()):
            parent[path[-1]] = value
        else:
            del parent[path[-1]]
    try:
        load_family(io.StringIO(json.dumps(spec)))
    except (BiFreeError, KeyError):
        pass


# SPEC with a theta layer on pair a: one table of each kind
LAYERED = {"pairs": [dict(SPEC["pairs"][0], theta_moments=dict(SPEC["pairs"][0]["moments"])),
                     SPEC["pairs"][1]]}
TABLES = {(pair["id"], name): pair[name] for pair in LAYERED["pairs"]
          for name in ("moments", "cumulants", "theta_moments") if name in pair}
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
# more digits than the least limit int() may be given: converted at load
LONG = st.integers(10**640, 10**700)

INVALID_LITERALS = (
    st.floats() | st.booleans() | st.none() | st.lists(st.integers(), max_size=2)
    | st.sampled_from(["1/0", "1/00", "1.5", " 1", "1_0", "\u0661", "-0/000"])
    | (st.sampled_from(["D", "-D", "D/3", "3/D", "0D/1"]).map(
        lambda form: form.replace("D", "7" * DIGIT_LIMIT + "7"))
       if DIGIT_LIMIT else st.nothing()))

VALID_LITERALS = st.integers(-10**30, 10**30) | st.builds(
    lambda sign, zeros, num, den: sign + "0" * zeros + str(num) + (
        "" if den is None else "/" + "0" * zeros + str(den)),
    st.sampled_from(["", "+", "-"]), st.integers(0, 3),
    st.integers(0, 10**30) | LONG, st.none() | st.integers(1, 10**30) | LONG)


@st.composite
def entries(draw):
    """(pair, table name, key text) of one entry of LAYERED; each table equally likely."""
    pair, name = draw(st.sampled_from(sorted(TABLES)))
    return pair, name, draw(st.sampled_from(sorted(TABLES[pair, name])))


def _with_entry(entry, literal):
    """LAYERED with the entry set to literal."""
    pair, name, text = entry
    spec = json.loads(json.dumps(LAYERED))
    next(p for p in spec["pairs"] if p["id"] == pair)[name][text] = literal
    return spec


@given(entries(), INVALID_LITERALS)
@settings(max_examples=100, deadline=None)
def test_invalid_literal_is_refused_at_load(entry, literal):
    """A bad value anywhere in a table fails the load itself, before any read."""
    with pytest.raises(SpecError):
        load_family(_with_entry(entry, literal))


@given(entries(), VALID_LITERALS)
@settings(max_examples=100, deadline=None)
def test_valid_literal_reads_back_exactly(entry, literal):
    """moment, cumulant and theta read a valid literal as parse_rational does."""
    fam = load_family(_with_entry(entry, literal))
    pair, name, text = entry
    read = {"moments": "moment", "cumulants": "cumulant", "theta_moments": "theta"}[name]
    value = getattr(fam.pures[pair], read)(fam.word(text))
    assert type(value) is Fraction and value == parse_rational(literal)


def test_load_family_perturbations():
    data = dict(SPEC)
    data["perturbations"] = {"x y": "1/5"}
    fam = load_family(data)
    assert fam.perturbations == {("x", "y"): Fraction(1, 5)}
    assert all(type(v) is Fraction for v in fam.perturbations.values())
    d = fam.joint()
    base = Fraction(1, 2)  # phi(x) * phi(y) with phi(y) = 1
    assert d.phi(fam.word("x y")) == base + Fraction(1, 5)


def test_theta_layer_via_spec():
    data = {"pairs": [dict(SPEC["pairs"][0],
                           theta_moments={"x": 0, "xr": 0, "x x": 1,
                                          "x xr": 0, "xr x": 0, "xr xr": 1,
                                          "x x x": 0, "x x xr": 0, "x xr x": 0,
                                          "x xr xr": 0, "xr x x": 0, "xr x xr": 0,
                                          "xr xr x": 0, "xr xr xr": 0})],
            "perturbations": {"x xr": "1/5"}}
    fam = load_family(data)
    d = fam.joint()
    assert evaluate_theta(d, ScalarWordSum.word(fam.word("x x"), 1)) == 1
    # a perturbed joint shifts phi and reads theta from its base
    base = BifreeProduct(fam.pures)
    assert isinstance(d, PerturbedJoint)
    assert d.phi(fam.word("x xr")) == base.phi(fam.word("x xr")) + Fraction(1, 5)
    for w in [(), *words_up_to(d.letters, 3)]:
        assert d.theta(w) == base.theta(w)


def test_theta_without_a_layer_is_a_mode_error():
    rng = random.Random(11)
    a = random_moment_pure("a", rng, max_degree=2, with_theta=True)
    b = random_moment_pure("b", rng, max_degree=2)
    table = random_table_joint(a.letters + b.letters, rng, max_len=2)
    with pytest.raises(ModeError, match="TableJoint has no theta layer"):
        table.theta(a.letters[:1])
    with pytest.raises(ModeError):
        evaluate_theta(table, ScalarWordSum.word((), 1))
    # a product refuses every word, even one of a pair with the layer, and ()
    product = BifreeProduct({"a": a, "b": b})
    perturbed = PerturbedJoint(product, {a.letters[:1]: 1})
    for d in (product, perturbed):
        for w in (a.letters[:1], a.letters, ()):
            with pytest.raises(ModeError, match="pair 'b' has no theta layer"):
                d.theta(w)
    with pytest.raises(ModeError, match="no pairs"):
        BifreeProduct({}).theta(())


def _theta_family():
    return random_family(random.Random(41), max_degree=5, with_theta=True)


# One product shared by every example, so its memo holds the words of earlier ones.
_SHARED = BifreeProduct(_theta_family())


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(_SHARED.letters), max_size=5).map(tuple),
       st.lists(SWAPS, min_size=1, max_size=3), st.randoms(use_true_random=False))
def test_product_memo_never_returns_a_stale_value(w, swap_lists, rnd):
    """phi and theta read the memo at the word as given before canonicalising
    it; every rearrangement of w by commutations reads w's value, on the shared
    product and on a fresh one, in any call order, and list words still work."""
    fresh = BifreeProduct(_theta_family())
    want = {"phi": fresh.phi(w), "theta": fresh.theta(w)}
    calls = [(method, v) for method in want for v in [w] + [apply_swaps(w, s) for s in swap_lists]]
    rnd.shuffle(calls)
    for d in (_SHARED, BifreeProduct(_theta_family())):
        for method, v in calls:
            assert getattr(d, method)(v) == want[method]
            assert getattr(d, method)(list(v)) == want[method]

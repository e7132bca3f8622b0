import io
import itertools
import json
import operator
import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bifree import (
    BiFreeError,
    BifreeProduct,
    DomainError,
    InsufficientDataError,
    Letter,
    ModeError,
    MomentTablePure,
    PerturbedJoint,
    PositionError,
    ScalarWordSum,
    SizeError,
    SpecError,
    TableJoint,
    UnknownPairError,
    bifree_product_moment,
    builtin_haar_pair,
    builtin_semicircular_pair,
    chi_interval,
    chi_precedes,
    evaluate,
    evaluate_theta,
    kappa,
    kappa_via_mobius,
    load_family,
    parse_rational,
    replacement_expand,
    subword,
    words_up_to,
)
from bifree import cumulants

from conftest import (
    SWAPS,
    apply_swaps,
    mutated_specs,
    random_family,
    random_moment_pure,
    random_table_joint,
)


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


@given(mutated_specs(SPEC))
@settings(max_examples=200, deadline=None)
def test_malformed_spec_raises_a_typed_error(spec):
    """Any one position of a valid spec replaced or deleted: a Family or a typed error."""
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


def test_reads_leave_the_loaded_tables_as_they_were():
    """moment, cumulant and theta convert the literals they read without
    storing the results: every .table and .theta_table keeps the values it
    was loaded with, and their types."""
    spec = json.loads(json.dumps(LAYERED))
    spec["pairs"][1]["theta_moments"] = {"y": "2/3", "y y": "-1/2"}
    fam = load_family(spec)

    def tables():
        return [[(key, type(v), v) for key, v in table.items()]
                for pure in fam.pures.values() for table in (pure.table, pure.theta_table)]

    loaded = tables()
    assert {str} < {kind for table in loaded for _, kind, _ in table}
    for pure in fam.pures.values():
        for w in words_up_to(pure.letters, 2):
            pure.moment(w), pure.cumulant(w), pure.theta(w)
    d = fam.joint()
    w = fam.word("x y xr y x")
    d.phi(w), d.theta(w)
    assert tables() == loaded


def _with_moments(table):
    """SPEC with pair a's moments table replaced by table."""
    spec = json.loads(json.dumps(SPEC))
    spec["pairs"][0]["moments"] = table
    return spec


BAD_VALUE = "rationals must be integers or 'p/q' strings, got "


@pytest.mark.parametrize("table, message", [
    # a newline joins the values that the load checks in one pass
    ({"x": 1, "x x": "1\n2", "xr": "2"}, BAD_VALUE + "'1\\n2'"),
    ({"x": 1, "xr": True}, BAD_VALUE + "True"),
    ({"x": "1.5", "x q": 1}, BAD_VALUE + "'1.5'"),
    ({"x q": 1, "x": "1.5"}, "pair 'a' moments key 'x q' is not a word over ['x', 'xr']"),
], ids=["newline-in-value", "true", "bad-value-first", "bad-key-first"])
def test_a_table_is_refused_at_its_first_bad_entry(table, message):
    """Every value and key of a table is checked at load, and the error names
    the first bad entry in the table's order."""
    with pytest.raises(SpecError) as info:
        load_family(_with_moments(table))
    assert str(info.value) == message


def test_a_table_of_ints_and_spaced_keys_loads_as_written():
    """Keys are split on whitespace, a later spelling of a key overrides an
    earlier one in its place, and ints and short literals are kept as written."""
    table = {"x": 3, " x \t xr ": "1/2", "x  x": 2, "x xr": -4, "xr": 0}
    assert list(load_family(_with_moments(table)).pures["a"].table.items()) == [
        (("x",), 3), (("x", "xr"), -4), (("x", "x"), 2), (("xr",), 0)]
    ints = {text: len(text) for text in SPEC["pairs"][0]["moments"]}
    loaded = load_family(_with_moments(ints)).pures["a"].table
    assert list(loaded.items()) == [(tuple(text.split()), v) for text, v in ints.items()]
    assert {type(v) for v in loaded.values()} == {int}


GOOD_KEYS = ["x", "xr", "x x", "x  x", " x\txr ", "xr x x"]
GOOD_LITERALS = st.integers(-3, 3) | st.sampled_from(["1/2", "-3", "+0/7", "007"])
BAD_LITERALS = st.sampled_from([1.5, True, None, "1.5", "1/0", "1\n2"])


def _literals(clean):
    return GOOD_LITERALS if clean else GOOD_LITERALS | BAD_LITERALS


@st.composite
def paired_tables(draw):
    """A one-pair spec whose moment or cumulant table has the key texts of
    its theta table in the same order, reordered, or drawn on their own; the
    theta table, if any, may spell one word twice ("x x" and "x  x").  Each
    table holds no bad key or value half the time, so that most loads get
    past the theta table."""
    def tables(clean):
        keys = st.sampled_from(GOOD_KEYS + ([] if clean else ["x q", ""]))
        return st.dictionaries(keys, _literals(clean), max_size=6)

    theta = draw(st.none() | st.booleans().flatmap(tables))
    how = draw(st.sampled_from(["same", "reordered", "own"]))
    if theta is None or how == "own":
        table = draw(st.booleans().flatmap(tables))
    else:
        texts = [*theta] if how == "same" else draw(st.permutations([*theta]))
        literals = _literals(draw(st.booleans()))
        table = {text: draw(literals) for text in texts}
    name = draw(st.sampled_from(["moments", "cumulants"]))
    pair = {"id": "a", "left_generators": ["x"], "right_generators": ["xr"], name: table}
    if theta is not None:
        pair["theta_moments"] = theta
    return {"pairs": [pair]}


def _tables_entry_by_entry(spec):
    """(table, theta table) of the spec's one pair, each entry checked on its
    own in the table's order, the theta table first."""
    pair = spec["pairs"][0]

    def table(name):
        out = {}
        for text, v in pair[name].items():
            key = tuple(text.split())
            if not key or not {"x", "xr"}.issuperset(key):
                raise SpecError(f"pair 'a' {name} key {text!r} is not a word over ['x', 'xr']")
            parse_rational(v)
            out[key] = v
        return out

    theta = table("theta_moments") if "theta_moments" in pair else None
    return table("moments" if "moments" in pair else "cumulants"), theta


def _pair_a(**tables):
    return {"pairs": [dict(id="a", left_generators=["x"], right_generators=["xr"], **tables)]}


@given(paired_tables())
@example(_pair_a(theta_moments={"x x": 1, "x  x": 2, "x": 3},
                 moments={"x x": 4, "x  x": 5, "x": 6}))
@example(_pair_a(theta_moments={"x": 1, "xr": 2}, cumulants={"xr": 3, "x": 4}))
@example(_pair_a(theta_moments={"x": 1, "xr": 2}, moments={"x": 3, "xr": "1.5"}))
@example(_pair_a(theta_moments={"x": "1", "xr": "2"}, moments={"x": "1/0", "xr": "2"}))
@settings(max_examples=300, deadline=None)
def test_a_table_beside_a_theta_table_loads_as_entry_by_entry(spec):
    """Whether or not a table reuses its theta table's words, the load gives
    the items, order and value types that checking each entry gives, or the
    same first error."""
    def items(table):
        return None if table is None else [(key, type(v), v) for key, v in table.items()]

    try:
        want = _tables_entry_by_entry(spec)
    except SpecError as exc:
        with pytest.raises(SpecError) as info:
            load_family(spec)
        assert str(info.value) == str(exc)
    else:
        pure = load_family(spec).pures["a"]
        assert [items(pure.table), items(pure.theta_table)] == [*map(items, want)]


def test_a_moment_table_listing_the_theta_words_shares_their_tuples():
    """deep_tables.json lists each pair's theta words in its moment table's
    order, so the load splits and checks those keys once, whether the values
    are strings and ints or ints alone.  Only the time of a load would show a
    second split, so this pins the sharing itself."""
    with open(os.path.join(os.path.dirname(__file__), "data", "deep_tables.json")) as fh:
        spec = json.load(fh)
    ints = json.loads(json.dumps(spec))
    for pair in ints["pairs"]:
        pair["moments"] = dict.fromkeys(pair["moments"], 1)
    for source in (spec, ints):
        for pure in load_family(source).pures.values():
            assert len(pure.table) == len(pure.theta_table) == 62
            assert all(map(operator.is_, pure.table, pure.theta_table))


def test_a_key_that_is_not_a_string_is_a_spec_error():
    """A dict source can hold keys that JSON cannot."""
    with pytest.raises(SpecError) as info:
        load_family(_with_moments({"x": 1, 5: 2}))
    assert str(info.value) == "pair 'a' moments key 5 is not a word over ['x', 'xr']"


EMPTY_WORD = "cumulants are defined for words of length >= 1"
NO_PAIR = "no pure distribution for pair 'zz'"


@pytest.mark.parametrize("call, error, base, message", [
    (lambda: chi_precedes("lr", 1, 3), PositionError, IndexError,
     "index out of range for chi of length 2"),
    (lambda: chi_interval("lr", 1, 3), PositionError, IndexError, "index 3 out of range"),
    (lambda: kappa(BifreeProduct(random_family(random.Random(1), max_degree=2)), ()),
     SizeError, ValueError, EMPTY_WORD),
    (lambda: kappa_via_mobius(BifreeProduct(random_family(random.Random(1), max_degree=2)), ()),
     SizeError, ValueError, EMPTY_WORD),
    (lambda: bifree_product_moment(random_family(random.Random(1), max_degree=2),
                                   (Letter("z", "zz", "l"), Letter("z", "zz", "l"))),
     UnknownPairError, KeyError, NO_PAIR),
    (lambda: random_moment_pure("a", random.Random(1), max_degree=2).cumulant(()),
     SizeError, ValueError, "cumulants need length >= 1"),
    (lambda: replacement_expand(random_family(random.Random(1), max_degree=2),
                                (Letter("z", "zz", "l"),), "b"),
     UnknownPairError, KeyError, NO_PAIR),
    (lambda: Letter("x", "a", "m"), DomainError, ValueError, "side must be 'l' or 'r', got 'm'"),
    (lambda: subword((Letter("x", "a", "l"),), {2}), PositionError, IndexError,
     "indices [2] out of range for word of length 1"),
], ids=["chi_precedes", "chi_interval", "subtraction", "kappa_via_mobius",
        "solve_projections", "pure-cumulant", "expand_tokens", "letter-side", "subword"])
def test_a_library_raise_is_typed_and_keeps_its_builtin_base(call, error, base, message):
    """Each is a BiFreeError, so the CLI's exit-2 catch takes it, and keeps the
    builtin class and message that callers caught before."""
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, BiFreeError) and isinstance(info.value, base)
    assert str(info.value) == message


def test_absent_entries_and_the_empty_word():
    """A moment table without a word of its degree, and a joint table without
    a word, raise naming the word; the empty word has moment 1 and no cumulant."""
    x, xr = Letter("x", "a", "l"), Letter("xr", "a", "r")
    pure = MomentTablePure("a", ("x",), ("xr",), 2, {("x",): 1, ("xr",): 0, ("x", "x"): 2})
    with pytest.raises(InsufficientDataError, match="word: x xr$"):
        pure.moment((x, xr))
    joint = TableJoint((x, xr), {(x,): 1})
    with pytest.raises(InsufficientDataError, match="word: xr$"):
        joint.phi((xr,))
    assert pure.moment(()) == 1 == joint.phi(())
    with pytest.raises(ValueError, match="length >= 1"):
        pure.cumulant(())


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
    """phi reads its memo at the word as given before canonicalising it, and
    theta computes at the canonical word; every rearrangement of w by
    commutations reads w's value, on the shared product and on a fresh one, in
    any call order, and list words still work."""
    fresh = BifreeProduct(_theta_family())
    want = {"phi": fresh.phi(w), "theta": fresh.theta(w)}
    calls = [(method, v) for method in want for v in [w] + [apply_swaps(w, s) for s in swap_lists]]
    rnd.shuffle(calls)
    for d in (_SHARED, BifreeProduct(_theta_family())):
        for method, v in calls:
            assert getattr(d, method)(v) == want[method]
            assert getattr(d, method)(list(v)) == want[method]


def test_phi_computes_each_commutation_class_once(monkeypatch):
    """phi's memo answers a repeated word, and a spelling that swaps two
    letters that commute (ar and bl), without a new product moment."""
    calls = []
    product_moment = cumulants.bifree_product_moment
    monkeypatch.setattr(cumulants, "bifree_product_moment",
                        lambda *args: calls.append(args) or product_moment(*args))
    d = BifreeProduct(random_family(random.Random(42), max_degree=5))
    (al, ar), (bl, br) = (d.pures[p].letters for p in "ab")
    value = d.phi((al, ar, bl, br, al))
    assert len(calls) == 1
    assert d.phi((al, ar, bl, br, al)) == value and len(calls) == 1
    assert d.phi((al, bl, ar, br, al)) == value and len(calls) == 1

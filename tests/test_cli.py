import contextlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bifree import (
    BiFreeError,
    BncPartition,
    DomainError,
    ReplacementContext,
    SetPartition,
    SpecError,
    UnknownSymbolError,
    enumerate_bnc,
    enumerate_set_partitions,
    eval_tensor,
    format_partition,
    is_bi_non_crossing,
    load_family,
    parse_partition,
    replacement_expand,
    taur,
    ubm_eval,
)
from bifree.cli import TRIALS_MAX, UBM_MAX_N, WORD_MAX_LEN, build_parser, main

from conftest import mutated_specs

DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TWO_PAIRS = os.path.join(DATA, "two_pairs.json")
PERTURBED = os.path.join(DATA, "perturbed.json")
SEC4 = os.path.join(DATA, "sec4.json")
CONDITIONAL = os.path.join(DATA, "conditional.json")
ONE_PAIR = os.path.join(DATA, "one_pair.json")
MULTI_GEN = os.path.join(DATA, "multi_gen.json")
DEEP_TABLES = os.path.join(DATA, "deep_tables.json")
GOLDEN = os.path.join(DATA, "cli_golden.jsonl")
GOLDEN_SPECS = ("conditional", "perturbed", "sec4", "two_pairs")
LONG_AL = " ".join(["al"] * 1200)

CHI8 = "rlllrrlr"
# Python 3.10.0-3.10.6 print integers of any length; elsewhere 0 lifts the limit.
NEEDS_DIGIT_LIMIT = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="the interpreter prints integers of any length")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bnc_enum(capsys):
    code, out, _ = run(capsys, "bnc", "enum", "--chi", "llll")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 14
    assert "1 2 3 4" in lines
    assert "1|2|3|4" in lines


def test_bnc_enum_prints_brute_force_bnc(capsys):
    # every chi up to length 5: the bi-non-crossing set partitions, in sorted
    # block order, one per line
    for n in range(1, 6):
        parts = enumerate_set_partitions(n)
        for chi in map("".join, itertools.product("lr", repeat=n)):
            blocks = sorted(p.blocks for p in parts if is_bi_non_crossing(p, chi))
            want = "".join("|".join(" ".join(map(str, b)) for b in bs) + "\n" for bs in blocks)
            assert run(capsys, "bnc", "enum", "--chi", chi) == (0, want, "")


def test_bnc_enum_prints_format_partition_over_enumerate_bnc(capsys):
    # sampled chis of 6 to 11 positions; from 10 positions on, the blocks
    # sort as integers, which is not the order of the printed text
    rng = random.Random(6)
    for n in range(6, 12):
        chi = "".join(rng.choice("lr") for _ in range(n))
        want = [format_partition(bp.partition) for bp in enumerate_bnc(chi)]
        code, out, err = run(capsys, "bnc", "enum", "--chi", chi)
        assert (code, out, err) == (0, "".join(line + "\n" for line in want), ""), chi
        as_text = [[block.split() for block in line.split("|")] for line in want]
        assert (as_text == sorted(as_text)) == (n < 10), chi


def test_bnc_check(capsys):
    code, out, _ = run(capsys, "bnc", "check", "--chi", CHI8,
                       "--pi", "1|2 5 7|3 4|6 8")
    assert code == 0
    assert out.strip() == "BNC: yes"
    code, out, _ = run(capsys, "bnc", "check", "--chi", "llll",
                       "--pi", "1 3|2 4")
    assert code == 0
    assert out.strip() == "BNC: no"


def test_bnc_intervals(capsys):
    code, out, _ = run(capsys, "bnc", "intervals", "--chi", "rlrrllllrr",
                       "--eps", "p0,p0,p0,p1,p0,p1,p1,p0,p0,p0")
    assert code == 0
    lines = set(out.strip().splitlines())
    assert lines == {"2 5", "6 7", "8 9 10", "4", "1 3"}


def test_bnc_blocks(capsys):
    code, out, _ = run(capsys, "bnc", "blocks", "--chi", CHI8,
                       "--pi", "1|2 5 7|3 4|6 8")
    assert code == 0
    assert out.strip().splitlines() == [
        "1: outer", "2 5 7: outer", "3 4: inner", "6 8: inner"]


def test_bnc_mobius(capsys):
    code, out, _ = run(capsys, "bnc", "mobius", "--chi", "llll",
                       "--lower", "1|2|3|4", "--upper", "1 2 3 4")
    assert code == 0
    assert out.strip() == "-5"
    # closed form: no enumeration of BNC(chi), so no cap at 12 positions
    for n, expected in ((8, "-429"), (13, "208012")):
        chi = ("rl" * n)[:n]
        code, out, _ = run(capsys, "bnc", "mobius", "--chi", chi,
                           "--lower", "|".join(str(i) for i in range(1, n + 1)),
                           "--upper", " ".join(str(i) for i in range(1, n + 1)))
        assert (code, out) == (0, expected + "\n")
    code, out, err = run(capsys, "bnc", "mobius", "--chi", "llll",
                         "--lower", "1 3|2 4", "--upper", "1 2 3 4")
    assert (code, out) == (2, "")
    assert "crossing" in err


def test_bnc_bad_chi_exits_2(capsys):
    """The empty chi too: not one empty line and exit 0."""
    for chi in ("lxq", ""):
        code, out, err = run(capsys, "bnc", "enum", "--chi", chi)
        assert (code, out) == (2, "")
        assert err.startswith("error: chi must be") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("bnc", "intervals", "--chi", "ll"),
    ("bnc", "check", "--chi", "ll"),
    ("bnc", "blocks", "--chi", "ll"),
    ("bnc", "mobius", "--chi", "ll"),
    ("bnc", "mobius", "--chi", "ll", "--lower", "1|2"),
    ("bnc", "mobius", "--chi", "ll", "--upper", "1 2"),
], ids=["intervals", "check", "blocks", "mobius", "mobius-lower-only", "mobius-upper-only"])
def test_bnc_without_its_argument_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"error: bnc {argv[1]} requires --" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, call", [
    (("bnc", "blocks", "--chi", "llll", "--pi", "1 3|2 4"),
     lambda: BncPartition.of(SetPartition.of(4, [(1, 3), (2, 4)]), "llll")),
    (("bnc", "check", "--chi", "ll", "--pi", "1|3"),
     lambda: SetPartition.of(2, [(1,), (3,)])),
    (("bnc", "check", "--chi", "ll", "--pi", "1||2"),
     lambda: parse_partition("1||2", 2)),
    (("bnc", "check", "--chi", "ll", "--pi", "1|a"),
     lambda: parse_partition("1|a", 2)),
], ids=["crossing", "not-a-partition", "empty-block", "non-integer-token"])
def test_bad_partition_is_a_domain_error(capsys, argv, call):
    with pytest.raises(DomainError) as info:
        call()
    assert run(capsys, *argv) == (2, "", f"error: {info.value}\n")


def test_moment_modes_agree(capsys):
    fam = load_family(SEC4)
    d = fam.joint()
    expected = str(d.phi(fam.word("w x y z")))
    code, out, _ = run(capsys, "moment", "--spec", SEC4, "--mode", "bifree",
                       "--word", "w x y z")
    assert code == 0 and out.strip() == expected == "1"
    code, out, _ = run(capsys, "moment", "--spec", SEC4, "--mode", "bifree",
                       "--word", "x y z w")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "moment", "--spec", SEC4, "--mode", "vaccine",
                       "--word", "w x y z", "--seed", "5")
    assert code == 0 and out.strip() == expected


def test_moment_inverts_degree_five_tables(capsys):
    """Five letters of each pair over moment and theta tables of degree 5, so
    each pure's subtraction runs past two letters; the centred reconstruction
    from pure data is a second route to the bi-free value."""
    word = "al bl ar br al bl ar br al bl"
    for mode, expected in (("bifree", "109/144"), ("conditional", "-2495/432")):
        assert run(capsys, "moment", "--spec", DEEP_TABLES, "--mode", mode,
                   "--word", word) == (0, expected + "\n", "")
    assert run(capsys, "moment", "--spec", DEEP_TABLES, "--mode", "vaccine", "--seed", "1",
               "--word", word) == (0, "109/144\n", "")


def test_moment_conditional(capsys):
    fam = load_family(CONDITIONAL)
    ta = fam.pures["a"].theta(fam.word("al"))
    tb = fam.pures["b"].theta(fam.word("bl"))
    code, out, _ = run(capsys, "moment", "--spec", CONDITIONAL,
                       "--mode", "conditional", "--word", "al bl")
    assert code == 0
    assert Fraction(out.strip()) == ta * tb


def test_moment_vaccine_requires_seed(capsys):
    code, _, _ = run(capsys, "moment", "--spec", SEC4, "--mode", "vaccine",
                     "--word", "w x y z")
    assert code == 2


def test_moment_unknown_symbol_exits_2(capsys):
    code, _, err = run(capsys, "moment", "--spec", SEC4, "--mode", "bifree",
                       "--word", "nope")
    assert code == 2
    assert "nope" in err


def test_moment_skips_entries_behind_a_zero_factor(capsys):
    # Every partition of "x y y y" holds the block {x}, whose cumulant (the
    # mean of x) is 0, so the missing degree-3 entry "y y y" is never needed.
    code, out, _ = run(capsys, "moment", "--spec", SEC4, "--word", "x y y y")
    assert (code, out) == (0, "0\n")
    # {x x}{y y y} has no zero block, so here the entry is needed.
    code, out, err = run(capsys, "moment", "--spec", SEC4, "--word", "x x y y y")
    assert code == 2 and out == ""
    assert "y y y" in err


def test_check_cumulants(capsys):
    code, out, _ = run(capsys, "check", "--spec", TWO_PAIRS,
                       "--method", "cumulants", "--max-len", "4")
    assert code == 0
    assert out.startswith("HOLDS checked=")
    code, out, _ = run(capsys, "check", "--spec", PERTURBED,
                       "--method", "cumulants", "--max-len", "4")
    assert code == 1
    assert out.startswith("COUNTEREXAMPLE word=")


def test_check_vaccine(capsys):
    code, out, _ = run(capsys, "check", "--spec", TWO_PAIRS,
                       "--method", "vaccine", "--max-len", "4",
                       "--trials", "20", "--seed", "7")
    assert code == 0
    assert out.startswith("HOLDS trials=")
    code, out, _ = run(capsys, "check", "--spec", PERTURBED,
                       "--method", "vaccine", "--max-len", "4",
                       "--trials", "100", "--seed", "7")
    assert code == 1
    assert out.startswith("COUNTEREXAMPLE word=")


def test_check_vaccine_requires_seed(capsys):
    code, _, _ = run(capsys, "check", "--spec", TWO_PAIRS,
                     "--method", "vaccine")
    assert code == 2


def test_check_taur(capsys):
    code, out, _ = run(capsys, "check", "--spec", TWO_PAIRS,
                       "--method", "taur", "--pair", "b", "--max-len", "3")
    assert code == 0
    code, out, _ = run(capsys, "check", "--spec", PERTURBED,
                       "--method", "taur", "--pair", "b", "--max-len", "3")
    assert code == 1


def test_check_liberation(capsys):
    code, out, _ = run(capsys, "check", "--spec", TWO_PAIRS,
                       "--method", "liberation", "--pair", "b",
                       "--max-len", "3")
    assert code == 0
    assert out.startswith("HOLDS checked=")
    code, out, _ = run(capsys, "check", "--spec", PERTURBED,
                       "--method", "liberation", "--pair", "b",
                       "--max-len", "2")
    assert code == 1
    assert out.startswith("COUNTEREXAMPLE word=al bl ")


def test_check_scans_every_generator(capsys):
    """The perturbed word uses am, the second left generator of pair a."""
    for method, line in [
            (("cumulants",), "COUNTEREXAMPLE word=am bl value=1\n"),
            (("taur", "--pair", "b"), "COUNTEREXAMPLE word=am bl value=-1\n"),
            (("liberation", "--pair", "b"), "COUNTEREXAMPLE word=am bl c0=0 c1=0\n")]:
        argv = ("check", "--spec", MULTI_GEN, "--method") + method + ("--max-len", "3")
        assert run(capsys, *argv)[:2] == (1, line)
        assert run(capsys, *argv, "--widen")[0] == 2


@pytest.mark.parametrize("argv", [
    ("moment", "--spec", TWO_PAIRS, "--mode", "conditional", "--word", "al bl"),
    ("check", "--spec", TWO_PAIRS, "--method", "cumulants", "--max-len", "-3"),
    ("check", "--spec", TWO_PAIRS, "--method", "cumulants", "--max-len", "0"),
    ("check", "--spec", TWO_PAIRS, "--method", "vaccine", "--max-len", "3",
     "--trials", "-5", "--seed", "1"),
    ("check", "--spec", TWO_PAIRS, "--method", "cumulants", "--max-len", "9"),
    ("check", "--spec", SEC4, "--method", "liberation", "--pair", "1",
     "--max-len", "9"),
    ("check", "--spec", TWO_PAIRS, "--method", "cumulants", "--max-len", "1"),
    ("check", "--spec", TWO_PAIRS, "--method", "liberation", "--pair", "b",
     "--max-len", "1"),
    ("check", "--spec", TWO_PAIRS, "--method", "vaccine", "--max-len", "1",
     "--seed", "1"),
    ("check", "--spec", ONE_PAIR, "--method", "cumulants", "--max-len", "4"),
    ("check", "--spec", ONE_PAIR, "--method", "liberation", "--pair", "a",
     "--max-len", "4"),
    ("check", "--spec", ONE_PAIR, "--method", "vaccine", "--max-len", "4",
     "--seed", "1"),
    ("check", "--spec", TWO_PAIRS, "--method", "taur", "--pair", "zzz",
     "--max-len", "3"),
    ("check", "--spec", TWO_PAIRS, "--method", "liberation", "--pair", "zzz",
     "--max-len", "3"),
    ("liberate", "--spec", TWO_PAIRS, "--word", "al", "--pair", "zzz"),
    ("taur", "--spec", TWO_PAIRS, "--word", "al", "--pair", "zzz"),
    ("ubm", "--n", "1", "--t", "nan"),
    ("ubm", "--n", "1", "--t", "inf"),
    pytest.param(("ubm", "--n", "1800"), marks=NEEDS_DIGIT_LIMIT),
    ("ubm", "--n", str(UBM_MAX_N + 1), "--t", "1"),
    ("ubm", "--n", "100000000"),
    # 1,200 letters, past WORD_MAX_LEN (they once ended in a RecursionError traceback)
    ("moment", "--spec", TWO_PAIRS, "--word", LONG_AL),
    ("moment", "--spec", SEC4, "--word", " ".join(["x"] * 1200)),
    ("moment", "--spec", TWO_PAIRS, "--mode", "vaccine", "--seed", "1", "--word", LONG_AL),
    ("moment", "--spec", CONDITIONAL, "--mode", "conditional", "--word", LONG_AL),
    ("liberate", "--spec", TWO_PAIRS, "--pair", "a", "--word", LONG_AL),
    # one letter of pair b keeps the tensor map short
    ("taur", "--spec", TWO_PAIRS, "--pair", "b", "--word", LONG_AL + " bl"),
], ids=["conditional-without-theta", "max-len-negative", "max-len-zero",
        "trials-negative", "cumulants-max-len-9", "liberation-max-len-9",
        "cumulants-max-len-1", "liberation-max-len-1", "vaccine-max-len-1",
        "cumulants-one-pair", "liberation-one-pair", "vaccine-one-pair",
        "taur-unknown-pair", "liberation-unknown-pair", "liberate-unknown-pair",
        "taur-command-unknown-pair", "ubm-t-nan", "ubm-t-inf", "ubm-past-digit-limit",
        "ubm-n-past-size-limit", "ubm-n-huge", "moment-long-word", "moment-sec4-long-word",
        "vaccine-long-word", "conditional-long-word", "liberate-long-word",
        "taur-long-word"])
def test_bad_input_is_a_typed_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("trials", [str(TRIALS_MAX + 1), "9" * 40])
def test_trials_past_the_cap_exit_2_before_any_work(capsys, trials):
    # the spec is not read: a path that names no file gives the same line
    for spec in (SEC4, os.path.join(DATA, "missing.json")):
        assert run(capsys, "check", "--spec", spec, "--method", "vaccine", "--max-len", "2",
                   "--trials", trials, "--seed", "2", "--pair", "0") == (
            2, "", f"error: check --trials must be at most {TRIALS_MAX}, got {trials}\n")


def test_word_of_the_size_limit_is_taken(capsys):
    # one letter of pair b keeps the tensor map short
    word = " ".join(["al"] * (WORD_MAX_LEN - 1) + ["bl"])
    code, out, _ = run(capsys, "taur", "--spec", TWO_PAIRS, "--pair", "b", "--word", word)
    assert code == 0 and out.endswith("bl] ⊗ [1]\n")
    assert run(capsys, "taur", "--spec", TWO_PAIRS, "--pair", "b", "--word", "al " + word) == (
        2, "", f"error: --word must have at most {WORD_MAX_LEN} letters, got {WORD_MAX_LEN + 1}\n")


@pytest.mark.parametrize("t", [(), ("--t", "1")])
def test_ubm_negative_n_is_a_domain_error(capsys, t):
    assert run(capsys, "ubm", "--n", "-1", *t) == (
        2, "", "error: n must be nonnegative, got -1\n")


def test_conditional_without_theta_names_the_pair(capsys):
    assert run(capsys, "moment", "--spec", TWO_PAIRS, "--mode", "conditional",
               "--word", "al bl") == (2, "", "error: pair 'a' has no theta layer\n")


def test_unknown_symbol_prints_its_message_unquoted(capsys):
    # a plain KeyError's str() would wrap the message in quotes
    assert run(capsys, "moment", "--spec", TWO_PAIRS, "--word", "al zz") == (
        2, "", "error: unknown symbol 'zz'\n")


def test_unknown_symbol_is_a_typed_key_error():
    with pytest.raises(UnknownSymbolError) as info:
        load_family(TWO_PAIRS).word("al zz")
    assert isinstance(info.value, KeyError) and isinstance(info.value, BiFreeError)
    assert str(info.value) == "unknown symbol 'zz'"


@NEEDS_DIGIT_LIMIT
def test_ubm_past_the_digit_limit_names_n_and_the_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, _, err = run(capsys, "ubm", "--n", "1800")
    assert code == 2
    assert "--n 1800" in err and f"more than {limit} digits" in err
    assert sys.get_int_max_str_digits() == limit
    code, out, _ = run(capsys, "ubm", "--n", "1800", "--t", "0.5")
    assert (code, out) == (0, f"{ubm_eval(1800, 0.5):.12g}\n")


def _malformed(edit):
    with open(TWO_PAIRS, encoding="utf-8") as fh:
        spec = json.load(fh)
    return edit(spec)


def _set_first_pair(key, value):
    def edit(spec):
        spec["pairs"][0][key] = value
        return spec
    return edit


def _add_first_pair_entry(key, value):
    def edit(spec):
        spec["pairs"][0]["cumulants"][key] = value
        return spec
    return edit


def _first_entry_as(literal):
    """An edit to the spec's text: its first cumulant written as raw JSON."""
    def edit(spec):
        table = spec["pairs"][0]["cumulants"]
        table[next(iter(table))] = "LITERAL"
        return json.dumps(spec).replace('"LITERAL"', literal)
    return edit


# one digit more than int() reads, where the interpreter limits it
LONG_DIGITS = "7" * (getattr(sys, "get_int_max_str_digits", lambda: 0)() + 1)


def _zero_denominator(spec):
    table = spec["pairs"][0]["cumulants"]
    table[next(iter(table))] = "1/0"
    return spec


@pytest.mark.parametrize("edit", [
    lambda spec: {"pairs": 5},
    lambda spec: [spec],
    _set_first_pair("id", ["a"]),
    _set_first_pair("max_degree", "2"),
    _set_first_pair("left_generators", "xy"),
    _set_first_pair("cumulants", ["al", 1]),
    _zero_denominator,
    lambda spec: dict(spec, perturbations=[]),
    _add_first_pair_entry("al zz", "5"),
    _add_first_pair_entry("bl", "7"),
    _add_first_pair_entry("", "1"),
    pytest.param(_first_entry_as(LONG_DIGITS), marks=NEEDS_DIGIT_LIMIT),
    pytest.param(_first_entry_as(f'"-{LONG_DIGITS}/3"'), marks=NEEDS_DIGIT_LIMIT),
    pytest.param(_first_entry_as(f'"3/{LONG_DIGITS}"'), marks=NEEDS_DIGIT_LIMIT),
    lambda spec: "[" * 100_000,
    # a valid copy of pair a under another id: each of its symbols is in two pairs
    lambda spec: dict(spec, pairs=spec["pairs"] + [dict(spec["pairs"][0], id="c")]),
], ids=["pairs-not-a-list", "top-level-list", "list-id", "string-max-degree",
        "string-generators", "list-table", "zero-denominator", "list-perturbations",
        "unknown-symbol-key", "other-pair-key", "empty-key", "int-past-digit-limit",
        "numerator-past-digit-limit", "denominator-past-digit-limit", "deeply-nested",
        "shared-symbol"])
def test_malformed_spec_is_a_typed_error(capsys, tmp_path, edit):
    """Refused at load, before any entry is read; the CLI exits 2 with an error line."""
    spec = _malformed(edit)
    path = tmp_path / "spec.json"
    path.write_text(spec if isinstance(spec, str) else json.dumps(spec), encoding="utf-8")
    with pytest.raises(SpecError):
        load_family(str(path))
    code, out, err = run(capsys, "moment", "--spec", str(path), "--word", "al")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


# Mutated values for the fuzz below: empty, negative, huge, non-ASCII, unknown.
HUGE = "9" * 40
MUTATIONS = ["", "-3", HUGE, "\u0663", "\u00e9", "zz"]
FUZZ_SPECS = [TWO_PAIRS, SEC4, CONDITIONAL, PERTURBED, ONE_PAIR, MULTI_GEN]


@st.composite
def _bad_spec_paths(draw, spec, workdir):
    """The spec with one position mutated, as a new file, or a path that names no spec."""
    if draw(st.booleans()):
        return draw(st.sampled_from(["", DATA, GOLDEN, os.path.join(DATA, "\u00e9.json")]))
    with open(spec, encoding="utf-8") as fh:
        mutated = draw(mutated_specs(json.load(fh)))
    path = os.path.join(workdir, "spec.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mutated, fh)
    return path


@st.composite
def _partitions(draw, n):
    """Any set partition of 1..n, crossing or not, as the CLI writes it."""
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return "|".join(" ".join(str(k + 1) for k in range(n) if labels[k] == b)
                    for b in sorted(set(labels)))


@st.composite
def _argvs(draw, workdir):
    """An argv from the subcommand grammar on a fixture spec.

    Each option holds a valid value, except that one option may hold a
    mutated value or be left out.  Valid values are kept small.
    """
    spec = draw(st.sampled_from(FUZZ_SPECS))
    fam = load_family(spec)
    symbols, pairs = sorted(fam.by_symbol), sorted(fam.pures)
    chi = draw(st.text("lr", min_size=1, max_size=6))
    bad = st.sampled_from(MUTATIONS)
    word = ("--word", st.lists(st.sampled_from(symbols), min_size=1, max_size=4).map(" ".join),
            st.lists(st.sampled_from(symbols + MUTATIONS), max_size=4).map(" ".join)
            | st.just(" ".join(symbols[:1] * (WORD_MAX_LEN + 1))))
    spec_path = ("--spec", st.just(spec), _bad_spec_paths(spec, workdir))
    pair = ("--pair", st.sampled_from(pairs), bad)
    seed = ("--seed", st.integers(-3, 3).map(str), bad)

    def choice(flag, *values):
        return flag, st.sampled_from(values), bad

    command = draw(st.sampled_from(["bnc", "moment", "check", "ubm", "taur", "liberate"]))
    options = {
        "bnc": [choice(None, "enum", "intervals", "check", "blocks", "mobius"),
                ("--chi", st.just(chi), bad | st.just("l" * 40)),
                ("--eps", st.lists(st.sampled_from("ab"), min_size=len(chi),
                                   max_size=len(chi)).map(",".join), bad),
                ("--pi", _partitions(len(chi)), bad), ("--lower", _partitions(len(chi)), bad),
                ("--upper", _partitions(len(chi)), bad)],
        "moment": [spec_path, choice("--mode", "bifree", "vaccine", "conditional"), word, seed],
        "check": [spec_path, choice("--method", "cumulants", "vaccine", "taur", "liberation"),
                  choice("--max-len", "2", "3"), seed, pair,
                  ("--trials", st.sampled_from(["1", "3"]), bad)],
        "ubm": [choice("--n", "1", "2", "5"),
                ("--t", st.sampled_from(["0", "0.5", "-1"]),
                 bad | st.sampled_from(["nan", "1e308"]))],
        "taur": [spec_path, word, pair],
        "liberate": [spec_path, word, pair],
    }[command]
    fault = draw(st.sampled_from([None, "mutated", "left out"]))
    at = draw(st.integers(0, len(options) - 1))
    argv = [command]
    for k, (flag, valid, mutation) in enumerate(options):
        if k == at and fault == "left out":
            continue
        value = draw(mutation if k == at and fault == "mutated" else valid)
        argv += ([] if flag is None else [flag]) + [value]
    return argv


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fuzzed_argv_keeps_the_exit_code_contract(tmp_path_factory, data):
    """Exit 0, 1 with a COUNTEREXAMPLE or MISMATCH line, or 2 with an error line;
    never a traceback."""
    argv = data.draw(_argvs(str(tmp_path_factory.mktemp("fuzz"))))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    if code == 1:
        assert {"check": "COUNTEREXAMPLE", "liberate": "MISMATCH"}.get(argv[0]) in out.split()
    elif code == 2:
        assert re.search(r"^(bifree[\w ]*: )?error: ", err, re.M), err
    else:
        assert code == 0


def test_check_byte_stable(capsys):
    args = ("check", "--spec", TWO_PAIRS, "--method", "vaccine",
            "--max-len", "3", "--trials", "10", "--seed", "42")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_ubm(capsys):
    code, out, _ = run(capsys, "ubm", "--n", "2")
    assert code == 0
    assert out.strip() == "(1 - t) * exp(-t)"
    code, out, _ = run(capsys, "ubm", "--n", "1", "--t", "0")
    assert code == 0
    assert out.strip() == "1"
    # float evaluation of these overflowed
    for n, t in (("3", "1e200"), ("600", "0.5")):
        code, out, _ = run(capsys, "ubm", "--n", n, "--t", t)
        assert code == 0
        assert abs(float(out)) <= 1


def test_taur_command(capsys):
    code, out, _ = run(capsys, "taur", "--spec", TWO_PAIRS,
                       "--word", "al bl", "--pair", "b")
    assert code == 0
    assert out.strip().splitlines() == [
        "+1 · [al] ⊗ [bl]",
        "-1 · [al bl] ⊗ [1]",
    ]


def test_liberate_command(capsys):
    code, out, _ = run(capsys, "liberate", "--spec", TWO_PAIRS,
                       "--word", "al bl", "--pair", "b")
    assert code == 0
    assert out.strip().endswith("MATCH")
    assert out.startswith("c0=")


def test_a_pair_named_sem_keeps_the_semicircular_pair_apart(capsys, tmp_path):
    """The replacement expansion adjoins its semicircular pair under an id that
    no pair of the family has, so renaming pair a to "sem" changes nothing."""
    with open(TWO_PAIRS, encoding="utf-8") as fh:
        spec = json.load(fh)
    spec["pairs"][0]["id"] = "sem"
    path = tmp_path / "sem.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    renamed, original = load_family(str(path)), load_family(TWO_PAIRS)
    assert ReplacementContext(renamed.pures).sem.pair == "sem_"
    d = renamed.joint()
    # each word has a block of three pair-a letters, which a cap meant for the
    # semicircular pair would drop
    for text in ("al al ar bl", "al ar bl al ar br al"):
        w = renamed.word(text)
        for iota, was in (("sem", "a"), ("b", "b")):
            got = replacement_expand(renamed.pures, w, iota)
            assert got == replacement_expand(original.pures, original.word(text), was)
            assert got == (d.phi(w), eval_tensor(d, taur(w, iota)))
            out = run(capsys, "liberate", "--spec", str(path), "--pair", iota, "--word", text)
            assert out[1].endswith(", MATCH\n")
            assert out == run(capsys, "liberate", "--spec", TWO_PAIRS, "--pair", was,
                              "--word", text)


@pytest.mark.parametrize("fault", [KeyError("boom"), ValueError("boom")])
def test_a_fault_of_the_program_exits_3(capsys, monkeypatch, fault):
    """An exception that is neither a BiFreeError nor an OSError is a fault of
    the program, not of its input: one `internal error:` line and exit 3."""
    def broken(source):
        raise fault
    monkeypatch.setattr("bifree.cli.load_family", broken)
    code, out, err = run(capsys, "moment", "--spec", TWO_PAIRS, "--word", "al")
    assert (code, out) == (3, "")
    assert err == f"internal error: {type(fault).__name__}: {fault}\n"


def test_each_call_reads_its_spec_afresh(capsys, tmp_path):
    """A second main call in the same process sees a value rewritten in the
    spec file after the first call: nothing of a load outlives its call."""
    with open(DEEP_TABLES, encoding="utf-8") as fh:
        spec = json.load(fh)
    path = tmp_path / "deep_tables.json"
    path.write_text(json.dumps(spec))
    argv = ("moment", "--spec", str(path), "--mode", "bifree", "--word", "al")
    assert run(capsys, *argv) == (0, "1\n", "")
    spec["pairs"][0]["moments"]["al"] = "5/7"
    path.write_text(json.dumps(spec))
    assert run(capsys, *argv) == (0, "5/7\n", "")


def test_missing_spec_exits_2(capsys):
    code, _, _ = run(capsys, "moment", "--spec", "/does/not/exist.json",
                     "--mode", "bifree", "--word", "al")
    assert code == 2


def golden_argvs(spec):
    """The CLI calls recorded for one fixture, without the --spec option.

    Every check method at --max-len 2..4 (taur and liberation for each pair),
    then moment in its three modes and taur and liberate for each pair, on
    every word of up to 2 letters.
    """
    fam = load_family(os.path.join(DATA, spec + ".json"))
    pairs = sorted(fam.pures)
    symbols = sorted(fam.by_symbol)
    argvs = []
    for n in ("2", "3", "4"):
        argvs.append(["check", "--method", "cumulants", "--max-len", n])
        argvs.append(["check", "--method", "vaccine", "--max-len", n,
                      "--trials", "20", "--seed", "3"])
        for p in pairs:
            argvs.append(["check", "--method", "taur", "--pair", p, "--max-len", n])
            argvs.append(["check", "--method", "liberation", "--pair", p, "--max-len", n])
    for n in (1, 2):
        for word in itertools.product(symbols, repeat=n):
            text = " ".join(word)
            argvs.append(["moment", "--mode", "bifree", "--word", text])
            argvs.append(["moment", "--mode", "vaccine", "--seed", "3", "--word", text])
            argvs.append(["moment", "--mode", "conditional", "--word", text])
            for p in pairs:
                argvs.append(["taur", "--pair", p, "--word", text])
                argvs.append(["liberate", "--pair", p, "--word", text])
    return argvs


def golden_call(spec, argv):
    return [argv[0], "--spec", os.path.join(DATA, spec + ".json")] + argv[1:]


def golden_records():
    with open(GOLDEN, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_cli_matches_golden(capsys):
    """Exit code and stdout of every golden call match tests/data/cli_golden.jsonl.

    Each line of that file is [spec, argv, exit code, stdout].  Re-record it
    with `PYTHONPATH=src python tests/test_cli.py` only when a change to the
    CLI output is intended.
    """
    records = golden_records()
    assert [r[:2] for r in records] == [
        [spec, argv] for spec in GOLDEN_SPECS for argv in golden_argvs(spec)]
    for spec, argv, code, out in records:
        assert run(capsys, *golden_call(spec, argv))[:2] == (code, out), argv


def test_reused_parser_keeps_no_state(capsys):
    """main() reuses one parser: no option may carry over from an earlier call."""
    assert build_parser() is build_parser()
    vaccine = ("moment", "--spec", SEC4, "--mode", "vaccine", "--word", "w x y z")
    assert run(capsys, *vaccine, "--seed", "1")[0] == 0
    assert run(capsys, *vaccine)[0] == 2
    taur = ("check", "--spec", TWO_PAIRS, "--method", "taur", "--max-len", "3")
    assert run(capsys, *taur, "--pair", "a")[0] == 0
    assert run(capsys, *taur)[0] == 2
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: bifree")
    spec, argv, code, out = next(r for r in golden_records() if r[1][0] == "moment")
    assert run(capsys, *golden_call(spec, argv))[:2] == (code, out)


def src_env():
    """The environment of a fresh process that imports bifree from src/."""
    return dict(os.environ, PYTHONIOENCODING="utf-8",
                PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def test_one_shot_process_matches_golden():
    """`python -m bifree.cli` in a fresh process, for the first golden call
    with each exit code."""
    env = src_env()
    firsts = {}
    for record in golden_records():
        firsts.setdefault(record[2], record)
    assert sorted(firsts) == [0, 1, 2]
    for spec, argv, code, out in firsts.values():
        proc = subprocess.run([sys.executable, "-m", "bifree.cli", *golden_call(spec, argv)],
                              env=env, capture_output=True, encoding="utf-8", check=False,
                              timeout=120)
        assert (proc.returncode, proc.stdout) == (code, out), argv


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """A one-shot run pays for every module `import bifree.cli` loads, and
    `dataclasses`, with the `inspect` it loads, was the largest cost of that."""
    script = ("import sys; before = set(sys.modules); import bifree.cli; "
              "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", script], env=src_env(), capture_output=True,
                          encoding="utf-8", check=True, timeout=120)
    added = set(proc.stdout.split())
    assert "bifree.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)


def _record_golden():
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        for spec in GOLDEN_SPECS:
            for argv in golden_argvs(spec):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main(golden_call(spec, argv))
                record = [spec, argv, code, out.getvalue()]
                fh.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    _record_golden()

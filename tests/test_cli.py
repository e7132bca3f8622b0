import os
from fractions import Fraction

import pytest

from bifree import load_family
from bifree.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
TWO_PAIRS = os.path.join(DATA, "two_pairs.json")
PERTURBED = os.path.join(DATA, "perturbed.json")
SEC4 = os.path.join(DATA, "sec4.json")
CONDITIONAL = os.path.join(DATA, "conditional.json")

CHI8 = "rlllrrlr"


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


def test_bnc_bad_chi_exits_2(capsys):
    code, _, _ = run(capsys, "bnc", "enum", "--chi", "lxq")
    assert code == 2


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


@pytest.mark.parametrize("argv", [
    ("moment", "--spec", TWO_PAIRS, "--mode", "conditional", "--word", "al bl"),
    ("check", "--spec", TWO_PAIRS, "--method", "cumulants", "--max-len", "-3"),
    ("check", "--spec", TWO_PAIRS, "--method", "cumulants", "--max-len", "0"),
    ("check", "--spec", TWO_PAIRS, "--method", "vaccine", "--max-len", "3",
     "--trials", "-5", "--seed", "1"),
    ("check", "--spec", TWO_PAIRS, "--method", "cumulants", "--max-len", "9"),
    ("check", "--spec", SEC4, "--method", "liberation", "--pair", "1",
     "--max-len", "9"),
], ids=["conditional-without-theta", "max-len-negative", "max-len-zero",
        "trials-negative", "cumulants-max-len-9", "liberation-max-len-9"])
def test_bad_input_is_a_typed_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


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


def test_missing_spec_exits_2(capsys):
    code, _, _ = run(capsys, "moment", "--spec", "/does/not/exist.json",
                     "--mode", "bifree", "--word", "al")
    assert code == 2

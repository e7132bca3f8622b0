"""Acceptance gate: worked-example reproduction plus dual-route property scans.

Every check is exact rational (zero tolerance); the only floats are the
exponential-polynomial evaluations, held to 1e-12 relative.
"""
import math
import os
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bifree import (
    BifreeProduct,
    Letter,
    MomentTablePure,
    PerturbedJoint,
    SetPartition,
    bifree_product_moment,
    builtin_semicircular_pair,
    centred_shifts,
    eval_tensor,
    evaluate_theta,
    is_bi_non_crossing,
    kappa,
    kappa_via_mobius,
    classify_blocks,
    cumulant_test,
    evaluate,
    liberation_test,
    load_family,
    maximal_mono_intervals,
    moments_from_cumulants,
    s_chi_permutation,
    shifted_product_expansion,
    subword,
    taur,
    taur_test,
    ubm_eval,
    ubm_moment,
    ubm_power_expansion,
    vaccine_reconstruct_moment,
    vaccine_test,
    ReplacementContext,
    replacement_expand,
)
from bifree.bnc import BncPartition
from bifree.words import chi_of, eps_of

from conftest import (
    rand_fraction,
    random_family,
    random_moment_pure,
    random_table_joint,
    words_up_to,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_criterion_1_eight_letter_example():
    chi = "rlllrrlr"
    eps = ("0", "0", "1", "0", "1", "1", "0", "0")
    assert s_chi_permutation(chi) == (2, 3, 4, 7, 8, 6, 5, 1)
    p = SetPartition(8, ((1,), (2, 5, 7), (3, 4), (6, 8)))
    assert is_bi_non_crossing(p, chi)
    assert (4, 7, 8) in maximal_mono_intervals(chi, eps)
    labels = classify_blocks(BncPartition.of(p, chi))
    assert labels == {(1,): "outer", (2, 5, 7): "outer",
                      (3, 4): "inner", (6, 8): "inner"}
    print("criterion 1: PASS (eight-letter example reproduced)")


def test_criterion_2_ten_letter_intervals():
    chi = "rlrrllllrr"
    eps = ("0", "0", "0", "1", "0", "1", "1", "0", "0", "0")
    got = set(maximal_mono_intervals(chi, eps))
    assert got == {(2, 5), (6, 7), (8, 9, 10), (4,), (1, 3)}
    print("criterion 2: PASS (five maximal intervals reproduced)")


def test_criterion_3_four_letter_product_moment():
    x = Letter("0l", "0", "l")
    w = Letter("0r", "0", "r")
    y = Letter("1l", "1", "l")
    z = Letter("1r", "1", "r")
    rng = random.Random(30)
    for _ in range(10):
        p0 = random_moment_pure("0", rng, max_degree=2)
        p1 = random_moment_pure("1", rng, max_degree=2)
        pures = {"0": p0, "1": p1}
        fx, fw = p0.moment((x,)), p0.moment((w,))
        fy, fz = p1.moment((y,)), p1.moment((z,))
        fxw = p0.moment((x, w))
        fwx = p0.moment((w, x))
        fyz = p1.moment((y, z))
        assert bifree_product_moment(pures, (x, y, z, w)) == \
            fxw * fy * fz + fx * fw * fyz - fx * fw * fy * fz
        assert bifree_product_moment(pures, (w, x, y, z)) == fwx * fyz
    sem = {"0": builtin_semicircular_pair("0", {"ll": 1, "lr": 1, "rr": 1}),
           "1": builtin_semicircular_pair("1", {"ll": 1, "lr": 1, "rr": 1})}
    sx, sw = sem["0"].letters
    sy, sz = sem["1"].letters
    assert bifree_product_moment(sem, (sx, sy, sz, sw)) == 0
    assert bifree_product_moment(sem, (sw, sx, sy, sz)) == 1
    print("criterion 3: PASS (four-letter product moment identities, 10 tables)")


def test_criterion_4_ten_letter_tensor_map():
    chi = "rlrrllllrr"
    eps = ("0", "0", "0", "1", "0", "1", "1", "0", "0", "0")
    w = tuple(Letter(f"z{i + 1}", eps[i], chi[i]) for i in range(10))
    z = {i + 1: w[i] for i in range(10)}

    def word(*ids):
        return tuple(z[i] for i in ids)

    expected = {
        (word(*range(1, 11)), ()): Fraction(-2),
        (word(1, 2, 3, 4, 5, 8, 9, 10), word(6, 7)): Fraction(1),
        (word(1, 2, 3, 4, 5), word(6, 7, 8, 9, 10)): Fraction(-1),
        (word(1, 2, 3, 5), word(4, 6, 7, 8, 9, 10)): Fraction(1),
        (word(1, 2, 3, 4, 5, 6, 7), word(8, 9, 10)): Fraction(1),
        (word(1, 2, 3, 5, 6, 7), word(4, 8, 9, 10)): Fraction(-1),
        (word(1, 2, 3, 5, 6, 7, 8, 9, 10), word(4,)): Fraction(1),
    }
    assert taur(w, "1").terms == expected
    print("criterion 4: PASS (ten-letter tensor map, signed terms exact)")


def test_criterion_5_moment_cumulant_roundtrip():
    letters = (Letter("al", "a", "l"), Letter("br", "b", "r"))
    rng = random.Random(50)
    for rep in range(10):
        d = random_table_joint(letters, rng, max_len=6)
        for w in words_up_to(letters, 6):
            k_rec = kappa(d, w)
            assert k_rec == kappa_via_mobius(d, w)
            assert moments_from_cumulants(lambda v: kappa(d, v), w) == d.phi(w)
    print("criterion 5: PASS (roundtrip + dual route, 10 tables, |w| <= 6)")


def test_criterion_6_three_way_equivalence():
    for seed in range(5):
        rng = random.Random(60 + seed)
        extra = ("a",) if seed >= 3 else ()
        pures = random_family(rng, max_degree=6, extra_left=extra)
        d = BifreeProduct(pures)
        assert cumulant_test(d, 5).holds
        verdict = vaccine_test(d, 5, 100, seed=600 + seed)
        assert verdict.holds and verdict.trials == 100 and verdict.skipped == 0
        for iota in ("a", "b"):
            assert taur_test(d, iota, 5).holds
    print("criterion 6: PASS (cumulants, centred trials, tensor map on 5 families)")


def test_criterion_7_detection_power():
    fam = load_family(os.path.join(DATA, "perturbed.json"))
    d = fam.joint()
    w = fam.word("al bl")
    assert kappa(d, w) != 0
    assert not vaccine_test(d, 4, 100, seed=7).holds
    assert eval_tensor(d, taur(w, "b")) != 0
    print("criterion 7: PASS (single +1 perturbation flagged three ways)")


# pair a has two left generators; the letters do not depend on the seed
MULTI_LETTERS = BifreeProduct(random_family(random.Random(0), max_degree=1,
                                            extra_left=("a",))).letters


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6),
       st.lists(st.sampled_from(MULTI_LETTERS), min_size=2, max_size=3).map(tuple)
       .filter(lambda w: len(set(eps_of(w))) > 1),
       st.fractions(-3, 3, max_denominator=4).filter(bool))
def test_perturbing_one_mixed_word_is_detected(seed, w0, delta):
    """Bi-freeness is an "if and only if": moving one mixed moment by delta
    shows up in the cumulant, in the centred product and in every scan."""
    d = PerturbedJoint(
        BifreeProduct(random_family(random.Random(seed), max_degree=4, extra_left=("a",))),
        {w0: delta})
    assert kappa(d, w0) == delta
    shifts = centred_shifts(d, w0, seed=seed)
    assert evaluate(d, shifted_product_expansion(w0, shifts)) == delta
    n = len(w0)
    verdicts = [cumulant_test(d, n)] + [
        test(d, iota, n) for test in (taur_test, liberation_test) for iota in ("a", "b")]
    for verdict in verdicts:
        assert not verdict.holds and len(verdict.word) <= n


def test_criterion_8_reconstruction_uniqueness():
    rng = random.Random(80)
    pures = random_family(rng, max_degree=6)
    d = BifreeProduct(pures)
    for seed in (0, 1, 2):
        cache = {}
        for w in words_up_to(d.letters, 6, mixed_only=True):
            assert vaccine_reconstruct_moment(pures, w, seed=seed, cache=cache) \
                == d.phi(w)
    print("criterion 8: PASS (reconstruction = product moment, 3 seeds, |w| <= 6)")


def test_criterion_9_conditional_factorization():
    rng = random.Random(90)
    pures = random_family(rng, max_degree=6, with_theta=True)
    d = BifreeProduct(pures)

    def theta_of_sum(pure, s):
        return sum((c * pure.theta(v) for v, c in s.items()), Fraction(0))

    for w in words_up_to(d.letters, 5, mixed_only=True):
        shifts = centred_shifts(pures, w)
        lhs = evaluate_theta(d, shifted_product_expansion(w, shifts))
        rhs = Fraction(1)
        for interval in maximal_mono_intervals(chi_of(w), eps_of(w)):
            sub = subword(w, interval)
            local = {k + 1: shifts[pos] for k, pos in enumerate(interval)
                     if pos in shifts}
            pure = pures[sub[0].pair]
            rhs *= theta_of_sum(pure, shifted_product_expansion(sub, local))
        assert lhs == rhs
    print("criterion 9: PASS (theta factors over centred intervals, |w| <= 5)")


def test_criterion_10_liberation_derivative():
    for seed in range(5):
        rng = random.Random(100 + seed)
        pures = random_family(rng, max_degree=5)
        ctx = ReplacementContext(pures)
        d = BifreeProduct(pures)
        for w in words_up_to(d.letters, 5, mixed_only=True):
            for iota in ("a", "b"):
                c0, c1 = replacement_expand(pures, w, iota, ctx)
                assert c0 == d.phi(w)
                assert c1 == eval_tensor(d, taur(w, iota))
    print("criterion 10: PASS (replacement expansion = tensor derivative, 5 families)")


def test_criterion_11_ubm_formulas():
    m1 = ubm_moment(1)
    assert m1.terms == {Fraction(-1, 2): (Fraction(1),)}
    assert m1.render() == "(1) * exp(-1/2*t)"
    for n in range(1, 9):
        assert ubm_eval(n, 0) == 1.0
        assert abs(ubm_eval(n, 50)) < 1e-9
    for n in range(1, 7):
        expected = (Fraction(1), Fraction(-n, 2) - math.comb(n, 2))
        assert ubm_moment(n).taylor1() == expected
        assert ubm_power_expansion(n) == expected
    t = 1.0
    val = ubm_eval(1, t)
    assert abs(val - math.exp(-0.5)) <= 1e-12 * abs(val)
    print("criterion 11: PASS (ubm closed form, evals, order-t coefficients)")


def test_criterion_12_right_unitary_conjugation():
    rng = random.Random(120)
    for s in (Fraction(0), Fraction(1, 2), Fraction(1)):
        a, b, c, c2 = (rand_fraction(rng) for _ in range(4))
        p0 = MomentTablePure("0", ("X",), ("Y",), 2, {
            ("X",): a, ("Y",): b, ("X", "Y"): c, ("Y", "X"): c2,
            ("X", "X"): rand_fraction(rng), ("Y", "Y"): rand_fraction(rng)})
        p1 = MomentTablePure("1", (), ("v", "v*"), 2, {
            ("v",): s, ("v*",): s, ("v", "v*"): 1, ("v*", "v"): 1,
            ("v", "v"): rand_fraction(rng), ("v*", "v*"): rand_fraction(rng)})
        X = p0.letters[0]
        Y = p0.letters[1]
        v, vs = p1.letters
        got = bifree_product_moment({"0": p0, "1": p1}, (X, v, Y, vs))
        assert got == c * s ** 2 + a * b * (1 - s ** 2)
    print("criterion 12: PASS (right unitary conjugation interpolation)")

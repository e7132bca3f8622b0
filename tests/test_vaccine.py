import os
import random
from fractions import Fraction

import pytest

from bifree import (
    BifreeProduct,
    DegenerateCentringError,
    DomainError,
    Letter,
    LinearSum,
    PerturbedJoint,
    centred_shifts,
    evaluate,
    load_family,
    maximal_mono_intervals,
    shifted_product_expansion,
    vaccine_reconstruct_moment,
    vaccine_test,
)
from bifree import vaccine as vaccine_module
from bifree.vaccine import VaccineVerdict, _centre_interval
from bifree.words import chi_of, eps_of, subword

from conftest import random_family, words_up_to


def pure_oracle(pures):
    def phi(word):
        if not word:
            return Fraction(1)
        return pures[word[0].pair].moment(word)
    return phi


def test_single_letter_interval_shift_is_mean():
    rng = random.Random(0)
    pures = random_family(rng, max_degree=2)
    g = pures["a"].letters[0]
    shifts = centred_shifts(pures, (g,), seed=1)
    assert shifts == {1: pures["a"].moment((g,))}


def test_two_letter_interval_solution():
    # with c_i fixed, c_j solves phi((z_i - c_i)(z_j - c_j)) = 0
    rng = random.Random(1)
    pures = random_family(rng, max_degree=3)
    a = pures["a"]
    g, h = a.letters[0], a.letters[1]
    shifts = centred_shifts(pures, (g, h), seed=2)
    value = (a.moment((g, h)) - shifts[2] * a.moment((g,))
             - shifts[1] * a.moment((h,)) + shifts[1] * shifts[2])
    assert value == 0


def test_ten_letter_worked_example_pattern():
    # lefts {2,5,6,7,8}, color 1 on {4,6,7}: five maximal intervals
    chi = "rlrrllllrr"
    eps = ("0", "0", "0", "1", "0", "1", "1", "0", "0", "0")
    rng = random.Random(2)
    pures = random_family(rng, pairs=("0", "1"), max_degree=4)
    w = []
    for i in range(10):
        pure = pures[eps[i]]
        side = chi[i]
        letter = next(l for l in pure.letters if l.side == side)
        w.append(letter)
    w = tuple(w)
    intervals = maximal_mono_intervals(chi, eps)
    assert set(intervals) == {(2, 5), (6, 7), (8, 9, 10), (4,), (1, 3)}
    shifts = centred_shifts(pures, w, seed=3)
    assert set(shifts) == set(range(1, 11))
    phi = pure_oracle(pures)
    for interval in intervals:
        sub = subword(w, interval)
        local = {k + 1: shifts[pos] for k, pos in enumerate(sorted(interval))}
        s = shifted_product_expansion(sub, local)
        total = sum(c * phi(word) for word, c in s.items())
        assert total == 0


def test_vaccine_holds_on_bifree_product():
    rng = random.Random(3)
    d = BifreeProduct(random_family(rng, max_degree=6))
    verdict = vaccine_test(d, max_len=4, trials=25, seed=11)
    assert verdict.holds
    assert verdict.trials + verdict.skipped == 25
    assert verdict.render() == f"HOLDS trials={verdict.trials} skipped={verdict.skipped}"


def test_vaccine_single_pair_vacuous(monkeypatch):
    # a search that completes no trial proves nothing: an error, not HOLDS
    rng = random.Random(4)
    d = BifreeProduct(random_family(rng, pairs=("a",), max_degree=4))
    with pytest.raises(DomainError):
        vaccine_test(d, max_len=4, trials=10, seed=1)
    two = BifreeProduct(random_family(rng, max_degree=4))
    with pytest.raises(DomainError):
        vaccine_test(two, max_len=1, trials=10, seed=1)

    def degenerate(*args, **kwargs):
        raise DegenerateCentringError("every pivot degenerate")

    monkeypatch.setattr(vaccine_module, "centred_shifts", degenerate)
    with pytest.raises(DomainError, match="10 skipped"):
        vaccine_test(two, max_len=4, trials=10, seed=1)


def test_vaccine_detects_perturbation():
    rng = random.Random(5)
    pures = random_family(rng, max_degree=6)
    base = BifreeProduct(pures)
    x = pures["a"].letters[0]
    y = pures["b"].letters[0]
    d = PerturbedJoint(base, {(x, y): Fraction(1)})
    verdict = vaccine_test(d, max_len=4, trials=100, seed=7)
    assert not verdict.holds
    assert verdict.value != 0
    text = verdict.render()
    assert text.startswith("COUNTEREXAMPLE word=")
    assert "shifts=" in text and "value=" in text


def test_counterexample_render_format():
    x = Letter("x", "a", "l")
    y = Letter("y", "b", "l")
    v = VaccineVerdict(holds=False, trials=3, skipped=1, word=(x, y),
                       shifts={1: Fraction(1, 2), 2: Fraction(-2)},
                       value=Fraction(5, 3))
    assert v.render() == "COUNTEREXAMPLE word=x y shifts=1/2,-2 value=5/3"
    held, other = VaccineVerdict(True), VaccineVerdict(True)
    assert held.render() == "HOLDS trials=0 skipped=0"
    assert held.shifts == {} and held.shifts is not other.shifts


def test_reconstruction_matches_product():
    rng = random.Random(6)
    pures = random_family(rng, max_degree=5)
    d = BifreeProduct(pures)
    cache = {}
    for w in words_up_to(d.letters, 4, mixed_only=True):
        assert vaccine_reconstruct_moment(pures, w, seed=1, cache=cache) == d.phi(w)


def rand_30_digit(rng):
    """A rational whose numerator and denominator are drawn with 30 digits."""
    return Fraction(rng.choice((-1, 1)) * rng.randrange(10 ** 29, 10 ** 30),
                    rng.randrange(10 ** 29, 10 ** 30))


def test_reconstruction_with_30_digit_rationals():
    # the integer kernel of the expansions carries numerators and common
    # denominators far past machine words
    rng = random.Random(12)
    pures = random_family(rng, max_degree=4, value=rand_30_digit)
    d = BifreeProduct(pures)
    for seed in (0, 1, 2):
        cache = {}
        for w in words_up_to(d.letters, 4, mixed_only=True):
            assert vaccine_reconstruct_moment(pures, w, seed=seed, cache=cache) == d.phi(w)


def test_reconstruction_seed_independent():
    rng = random.Random(7)
    pures = random_family(rng, max_degree=5)
    d = BifreeProduct(pures)
    w = (pures["a"].letters[0], pures["b"].letters[1],
         pures["a"].letters[1], pures["b"].letters[0])
    values = {vaccine_reconstruct_moment(pures, w, seed=s) for s in (1, 2, 3)}
    assert values == {d.phi(w)}


def test_single_pair_word_uses_pure_oracle():
    rng = random.Random(8)
    pures = random_family(rng, max_degree=3)
    w = pures["a"].letters[:1] * 3
    assert vaccine_reconstruct_moment(pures, w, seed=1) == pures["a"].moment(w)


def test_degenerate_centring_error():
    # a (non-unital) oracle that kills every expansion leaves no usable pivot
    def zero_oracle(word):
        return Fraction(0)

    x = Letter("x", "a", "l")
    y = Letter("y", "a", "l")
    with pytest.raises(DegenerateCentringError):
        _centre_interval(zero_oracle, (x, y), random.Random(0))


def test_vaccine_layer_builds_no_linear_sum(monkeypatch):
    """Centring, reconstruction and the property test evaluate the integer form
    of each centred product: with no LinearSum to build they return the values
    they returned when every expansion was one."""
    fam = load_family(os.path.join(os.path.dirname(__file__), "data", "two_pairs.json"))
    joint = fam.joint()
    x, y = fam.word("al bl")
    perturbed = PerturbedJoint(joint, {(x, y): Fraction(1)})
    w = fam.word("al br bl ar al")

    def refuse(self, terms=None):
        raise AssertionError("the vaccine layer built a LinearSum")

    monkeypatch.setattr(LinearSum, "__init__", refuse)
    assert centred_shifts(fam.pures, w, seed=1) == {
        1: Fraction(1, 2), 2: Fraction(2, 5), 3: Fraction(1), 4: Fraction(0), 5: Fraction(-5, 2)}
    assert vaccine_reconstruct_moment(fam.pures, w, seed=1) == Fraction(-19, 60)
    assert vaccine_test(joint, 4, 30, 3).render() == "HOLDS trials=30 skipped=0"
    assert vaccine_test(perturbed, 4, 30, 3).render() == (
        "COUNTEREXAMPLE word=al bl al ar shifts=1/2,1,-1/2,2/3 value=-1/3")

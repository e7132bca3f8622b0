"""Centring solvers, the vanishing-alternating-centred-interval property test,
and the constructive reconstruction of mixed moments from pure ones.

Centring is done with per-letter rational shifts: each maximal monochromatic
chi-interval's moment is multilinear in the shifts, so fixing all but one
pivot shift leaves a linear equation.  This keeps everything in exact
arithmetic; the reconstruction only needs some centring, not a specific one.
Each centred product is evaluated in its integer form, `words._evaluate_centred`,
which builds no Fraction per expansion term and no `LinearSum`.
"""
from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from .bnc import maximal_mono_intervals
from .errors import DegenerateCentringError, DomainError
from .words import _evaluate_centred, check_scan, chi_of, eps_of, word_text

_RESAMPLE_LIMIT = 16


def _oracle(pures):
    """Turn a pures mapping or a joint distribution into a moment oracle."""
    if hasattr(pures, "phi"):
        return pures.phi
    def pure_phi(word):
        if len(word) == 0:
            return Fraction(1)
        return pures[word[0].pair].moment(word)
    return pure_phi


def _rand_rational(rng) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.randint(1, 6))


def _centre_interval(oracle, sub, rng) -> list:
    """Shifts c_1..c_k (natural order) with oracle(prod (z_i - c_i)) == 0."""
    k = len(sub)
    for _ in range(_RESAMPLE_LIMIT):
        trial = [_rand_rational(rng) for _ in range(k)]
        for pivot in range(k - 1, -1, -1):
            others = [i for i in range(k) if i != pivot]
            shifts = {i + 1: trial[i] for i in others}
            # linear coefficient of -c_pivot: the product with that factor removed
            reduced = tuple(sub[i] for i in others)
            reduced_shifts = {j: trial[i] for j, i in enumerate(others, 1)}
            g = _evaluate_centred(reduced, reduced_shifts, oracle)
            if g == 0:
                continue
            f0 = _evaluate_centred(sub, shifts, oracle)
            out = list(trial)
            out[pivot] = f0 / g
            return out
    raise DegenerateCentringError(
        f"no pivot with nonzero coefficient for interval {word_text(sub)}")


def centred_shifts(pures, w, seed=0) -> dict:
    """Per-letter shifts making every maximal monochromatic chi-interval centred.

    pures is a mapping pair -> pure distribution, or a joint distribution.
    Returns a mapping 1-based position -> rational shift.
    """
    oracle = _oracle(pures)
    rng = random.Random(f"shift:{seed}:{word_text(w)}")
    intervals = maximal_mono_intervals(chi_of(w), eps_of(w))
    shifts = {}
    for interval in intervals:
        sub = tuple(w[i - 1] for i in interval)
        cs = _centre_interval(oracle, sub, rng)
        for pos, c in zip(interval, cs):
            shifts[pos] = c
    return shifts


class VaccineVerdict(namedtuple("VaccineVerdict", "holds trials skipped word shifts value")):
    __slots__ = ()

    def __new__(cls, holds, trials=0, skipped=0, word=(), shifts=None, value=Fraction(0)):
        return super().__new__(cls, holds, trials, skipped, word,
                               {} if shifts is None else shifts, value)

    def render(self) -> str:
        if self.holds:
            return f"HOLDS trials={self.trials} skipped={self.skipped}"
        shift_text = ",".join(
            str(self.shifts.get(i, Fraction(0))) for i in range(1, len(self.word) + 1))
        return (f"COUNTEREXAMPLE word={word_text(self.word)} "
                f"shifts={shift_text} value={self.value}")


def vaccine_test(d, max_len, trials, seed) -> VaccineVerdict:
    """Randomized search for a centred word with nonzero moment.

    Samples words with non-constant pair-coloring over the declared
    generators, centres every maximal monochromatic chi-interval, and
    evaluates the shifted product.  Degenerate centrings are skipped and
    counted; a search in which no trial completes raises DomainError.
    max_len is refused as in every exhaustive scan (`words.check_scan`).
    """
    letters = sorted(d.letters, key=lambda l: l.symbol)
    check_scan(letters, max_len)
    skipped = 0
    done = 0
    for trial in range(trials):
        rng = random.Random(f"vaccine:{seed}:{trial}")
        n = rng.randint(2, max_len)
        word = ()
        while len(set(eps_of(word))) < 2:  # redraw until mixed
            word = tuple(rng.choice(letters) for _ in range(n))
        try:
            shifts = centred_shifts(d, word, seed=f"{seed}:{trial}")
        except DegenerateCentringError:
            skipped += 1
            continue
        value = _evaluate_centred(word, shifts, d.phi)
        done += 1
        if value != 0:
            return VaccineVerdict(holds=False, trials=done, skipped=skipped,
                                  word=word, shifts=shifts, value=value)
    if done == 0:
        raise DomainError(f"vacuous scan: no centred trial completed ({skipped} skipped)")
    return VaccineVerdict(holds=True, trials=done, skipped=skipped)


def vaccine_reconstruct_moment(pures, w, seed=0, cache=None) -> Fraction:
    """Mixed moment from pure data alone, via the centring recursion.

    Expand 0 = phi(prod (z_i - c_i)) and solve for the full word, reducing
    every shorter mixed word the same way; single-pair words read the pure
    oracle directly.  The result is independent of the seed.
    """
    if cache is None:
        cache = {}
    oracle = _oracle(pures)

    def rec(word):
        if len(word) == 0:
            return Fraction(1)
        if (value := cache.get(word)) is not None:  # only mixed words are cached
            return value
        if len(set(eps_of(word))) <= 1:
            return oracle(word)
        shifts = centred_shifts(pures, word, seed=f"{seed}:{word_text(word)}")
        # the full word's coefficient in the expansion is 1
        value = -_evaluate_centred(
            word, shifts, lambda sub: rec(sub) if len(sub) < len(word) else 0)
        cache[word] = value
        return value

    return rec(w)

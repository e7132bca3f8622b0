"""The benchmark's three workloads: seeded inputs, the ops, and their checks.

Each workload draws every input from its seed without importing `bifree`.
`setup(bf)` then builds the program's objects from those inputs with a
freshly imported `bifree` (so it is timed as set-up), and `ops` lists the
calls into the program.  `check(k, outputs)` compares the output of op k
with the independent reference in `reference.py` or with a property the
paper's theorems imply, and returns an error message, or None when correct.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import re
from fractions import Fraction

import reference as ref


def _rational(rng) -> Fraction:
    """A small nonzero rational, so no block product is cut short by a zero."""
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def _table(rng, symbols, degree) -> dict:
    return {w: _rational(rng) for n in range(1, degree + 1)
            for w in itertools.product(symbols, repeat=n)}


def _pair_data(rng, pair, left, right, degree, theta) -> dict:
    symbols = tuple(left) + tuple(right)
    return {"id": pair, "left": tuple(left), "right": tuple(right), "degree": degree,
            "moments": _table(rng, symbols, degree),
            "theta": _table(rng, symbols, degree) if theta else None}


def _reference_family(pairs, perturbations=None) -> ref.Family:
    pures = {}
    for p in pairs:
        sides = {s: "l" for s in p["left"]}
        sides.update({s: "r" for s in p["right"]})
        if "cumulants" in p:
            pures[p["id"]] = ref.Pure(sides, cumulants=p["cumulants"])
        else:
            pures[p["id"]] = ref.Pure(sides, moments=p["moments"], theta=p["theta"])
    return ref.Family(pures, perturbations)


def _build_pures(bf, pairs) -> dict:
    return {p["id"]: bf.MomentTablePure(p["id"], p["left"], p["right"], p["degree"],
                                        p["moments"], theta_table=p["theta"])
            for p in pairs}


def _letters(pures) -> dict:
    return {letter.symbol: letter for pure in pures.values() for letter in pure.letters}


def _mismatch(got, want):
    return None if got == want else f"got {got}, want {want}"


def _fixed_pattern(key, profile) -> list:
    """A colour sequence with profile[c] letters of colour c, the same for every seed."""
    pattern = [c for c, k in enumerate(profile) for _ in range(k)]
    random.Random(key).shuffle(pattern)
    return pattern


def _word_on_pattern(rng, pattern, labels) -> tuple:
    """A word whose letters, read in chi-order, carry the pattern's colours.

    The lattice work of a moment is set by this sequence: the eps-monochromatic
    bi-non-crossing partitions are the non-crossing partitions of it.  The seed
    picks the sides; colour c is pair labels[c], and a symbol is pair + side.
    """
    chi = "".join(rng.choice("lr") for _ in pattern)
    word = [None] * len(chi)
    for pos, colour in zip(ref.chi_order(chi), pattern):
        word[pos - 1] = labels[colour] + chi[pos - 1]
    return tuple(word)


class LongMoments:
    """`BifreeProduct.phi` and `.theta` on long mixed words of seeded families.

    So that every seed asks for the same lattice work, each word's colour
    sequence in chi-order is fixed, for each profile of letters per pair; the
    seed picks the table values, the sides of the letters and which pair
    takes which colour.  Families with 2 and 3 pairs give different colour
    patterns.
    """

    PROFILES = {
        2: [(4, 4), (5, 3), (5, 4), (6, 3), (5, 5)],
        3: [(3, 3, 2), (3, 3, 3), (4, 3, 2), (4, 3, 3), (4, 4, 2), (4, 4, 3), (4, 4, 4),
            (5, 4, 2)],
    }
    WORDS_PER_PROFILE = 4

    def __init__(self, seed, workdir):
        rng = random.Random(f"long-moments:{seed}")
        self.families = []
        for npairs, profiles in self.PROFILES.items():
            ids = "abc"[:npairs]
            degree = max(max(p) for p in profiles)
            pairs = [_pair_data(rng, i, (i + "l",), (i + "r",), degree, theta=True)
                     for i in ids]
            words = []
            for profile in profiles:
                for j in range(self.WORDS_PER_PROFILE):
                    pattern = _fixed_pattern(f"long-moments:{profile}:{j}", profile)
                    words.append(_word_on_pattern(rng, pattern, rng.sample(ids, len(ids))))
            self.families.append((pairs, words))
        self.ops = []
        self.expected = []          # (family index, word, reference method) per op
        words = [(f, w) for f, (_, ws) in enumerate(self.families) for w in ws]
        for i, (f, w) in enumerate(words):
            for method in ("phi", "theta"):
                self.ops.append((f"{method}[{' '.join(w)}]", self._op(i, method)))
                self.expected.append((f, w, method))
        self._refs = None

    @staticmethod
    def _op(i, method):
        def run(state):
            d, word = state[i]
            return getattr(d, method)(word)
        return run

    def setup(self, bf):
        """A product of fresh pure objects per word, as one CLI call would build.

        No word finds pure cumulants that an earlier word left in a memo, so an
        op's cost does not hang on which words the seed put before it.
        """
        state = []
        for pairs, words in self.families:
            for w in words:
                pures = _build_pures(bf, pairs)
                letters = _letters(pures)
                state.append((bf.BifreeProduct(pures), tuple(letters[s] for s in w)))
        return state

    def check(self, k, outputs):
        if self._refs is None:
            self._refs = [_reference_family(pairs) for pairs, _ in self.families]
        f, w, method = self.expected[k]
        return _mismatch(outputs[k], getattr(self._refs[f], method)(w))


class Reconstruct:
    """`vaccine_reconstruct_moment` on every mixed word up to length 6, two seeds.

    Pair a has a left and a right generator, pair b a left one, so the
    alphabet has three faces.  Each seed shares one cache across its scan, as
    a scan over words would.
    """

    MAX_LEN = 6

    def __init__(self, seed, workdir):
        rng = random.Random(f"reconstruct:{seed}")
        self.pairs = [_pair_data(rng, "a", ("al",), ("ar",), self.MAX_LEN, theta=False),
                      _pair_data(rng, "b", ("bl",), (), self.MAX_LEN, theta=False)]
        self.seeds = (2 * seed, 2 * seed + 1)
        alphabet = ("al", "ar", "bl")
        self.words = [w for n in range(2, self.MAX_LEN + 1)
                      for w in itertools.product(alphabet, repeat=n)
                      if len({s[0] for s in w}) > 1]
        self.ops = [(f"reconstruct[{s}:{' '.join(w)}]", self._op(i, w))
                    for i, s in enumerate(self.seeds) for w in self.words]
        self._ref = None

    def _op(self, i, word):
        seed = self.seeds[i]

        def run(state):
            reconstruct, pures, letters, caches = state
            return reconstruct(pures, tuple(letters[s] for s in word),
                               seed=seed, cache=caches[i])
        return run

    def setup(self, bf):
        pures = _build_pures(bf, self.pairs)
        return bf.vaccine_reconstruct_moment, pures, _letters(pures), ({}, {})

    def check(self, k, outputs):
        """Equal to the product moment, and the same under the other seed."""
        if self._ref is None:
            self._ref = _reference_family(self.pairs)
        n = len(self.words)
        got, other = outputs[k], outputs[(k + n) % (2 * n)]
        err = _mismatch(got, self._ref.phi(self.words[k % n]))
        if err is None and got != other:
            err = f"seed-dependent: {got} != {other}"
        return err


# ---------------------------------------------------------------- cli-scans

def _spec_json(pairs, perturbations=None) -> dict:
    out = []
    for p in pairs:
        entry = {"id": p["id"], "left_generators": list(p["left"]),
                 "right_generators": list(p["right"])}
        if "cumulants" in p:
            entry["cumulants"] = {" ".join(w): str(v) for w, v in p["cumulants"].items()}
        else:
            entry["max_degree"] = p["degree"]
            entry["moments"] = {" ".join(w): str(v) for w, v in p["moments"].items()}
            if p["theta"] is not None:
                entry["theta_moments"] = {" ".join(w): str(v) for w, v in p["theta"].items()}
        out.append(entry)
    spec = {"pairs": out}
    if perturbations:
        spec["perturbations"] = {" ".join(w): str(v) for w, v in perturbations.items()}
    return spec


def _cumulant_pair(rng, pair, left, right, degree) -> dict:
    """A cumulant table with half of the entries up to `degree` set.

    Which entries are set is the same for every seed; the seed picks values.
    """
    symbols = tuple(left) + tuple(right)
    words = [w for n in range(1, degree + 1) for w in itertools.product(symbols, repeat=n)]
    chosen = random.Random(f"cumulants:{pair}").sample(words, len(words) // 2)
    table = {w: _rational(rng) for w in words if w in chosen}
    return {"id": pair, "left": tuple(left), "right": tuple(right), "cumulants": table}


def _scan_count(faces_per_pair, max_len, mixed_only) -> int:
    """Words up to max_len over one letter per face; mixed_only drops single-pair words."""
    total = sum(faces_per_pair)
    count = sum(total ** n for n in range(1, max_len + 1))
    if mixed_only:
        count -= sum(f ** n for f in faces_per_pair for n in range(1, max_len + 1))
    return count


class CliScans:
    """In-process `bifree.cli.main(argv)` calls on spec files written from the seed.

    `check` scans at short lengths, `moment` in its three modes, `bnc enum`
    and `liberate`.  The perturbed spec shifts one length-2 word whose two
    letters sit on the same side, so no other word shares its key and the
    scan must stop exactly there.
    """

    MOMENT_WORDS = 16
    # The randomised commands sample words with their own --seed; it is fixed
    # so that every workload seed asks them for the same amount of work.
    VACCINE_SEED = 7
    SPEC_DEGREE = 5

    def __init__(self, seed, workdir):
        rng = random.Random(f"cli-scans:{seed}")
        os.makedirs(workdir, exist_ok=True)
        d = self.SPEC_DEGREE
        self.tables = [_pair_data(rng, "a", ("al",), ("ar",), d, theta=True),
                       _pair_data(rng, "b", ("bl",), ("br",), d, theta=True)]
        self.cumulant_pairs = [_cumulant_pair(rng, "a", ("al",), ("ar",), 3),
                               _cumulant_pair(rng, "b", ("bl",), ("br",), 3)]
        side = rng.choice("lr")
        first, second = rng.sample("ab", 2)
        self.perturbed_word = (first + side, second + side)
        self.delta = _rational(rng)
        self.specs = {}
        for name, pairs, pert in (
                ("tables", self.tables, None),
                ("cumulants", self.cumulant_pairs, None),
                ("perturbed", self.cumulant_pairs, {self.perturbed_word: self.delta})):
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_spec_json(pairs, pert), fh)
            self.specs[name] = (path, _reference_family(pairs, pert))

        moment_words = []
        for j in range(self.MOMENT_WORDS):
            n = 3 + j % 3
            profile = ((n + 1) // 2, n // 2)
            pattern = _fixed_pattern(f"cli-scans:{j}", profile)
            labels = rng.sample("ab", 2)
            moment_words.append((_word_on_pattern(rng, pattern, labels), labels[0]))
        chis = ["".join(rng.choice("lr") for _ in range(n)) for n in (5, 6, 7, 8)]

        # (argv, expectation); an expectation is a function of (code, stdout)
        cases = []
        tables, _ = self.specs["tables"]
        cases += [
            (["check", "--spec", tables, "--method", "cumulants", "--max-len", "4"],
             self._holds(_scan_count((2, 2), 4, True))),
            (["check", "--spec", self.specs["cumulants"][0], "--method", "cumulants",
              "--max-len", "4"], self._holds(_scan_count((2, 2), 4, True))),
            (["check", "--spec", self.specs["perturbed"][0], "--method", "cumulants",
              "--max-len", "3"], self._counterexample),
            (["check", "--spec", tables, "--method", "taur", "--pair", "a", "--max-len", "4"],
             self._holds(_scan_count((2, 2), 4, False))),
            (["check", "--spec", tables, "--method", "taur", "--pair", "b", "--max-len", "3"],
             self._holds(_scan_count((2, 2), 3, False))),
            (["check", "--spec", tables, "--method", "liberation", "--pair", "a",
              "--max-len", "3"], self._holds(_scan_count((2, 2), 3, True))),
            (["check", "--spec", tables, "--method", "vaccine", "--max-len", "4",
              "--trials", "20", "--seed", str(self.VACCINE_SEED)], self._vaccine_holds(20)),
        ]
        for w, iota in moment_words:
            text = " ".join(w)
            swapped = self._swap_commuting(w)
            cases += [
                (["moment", "--spec", tables, "--mode", "bifree", "--word", text],
                 self._value("tables", "phi", w)),
                (["moment", "--spec", tables, "--mode", "bifree", "--word", " ".join(swapped)],
                 self._value("tables", "phi", w)),
                (["moment", "--spec", tables, "--mode", "conditional", "--word", text],
                 self._value("tables", "theta", w)),
                (["moment", "--spec", tables, "--mode", "vaccine", "--word", text,
                  "--seed", str(self.VACCINE_SEED)], self._value("tables", "phi", w)),
                (["moment", "--spec", self.specs["cumulants"][0], "--mode", "bifree",
                  "--word", text], self._value("cumulants", "phi", w)),
                (["liberate", "--spec", tables, "--word", text, "--pair", iota],
                 self._liberate(w, iota)),
            ]
        pw = self.perturbed_word
        cases.append((["moment", "--spec", self.specs["perturbed"][0], "--mode", "bifree",
                       "--word", " ".join(pw)], self._value("perturbed", "phi", pw)))
        for chi in chis:
            cases.append((["bnc", "enum", "--chi", chi], self._bnc_enum(chi)))
        self.cases = cases
        self.ops = [(" ".join(a for a in argv if not a.endswith(".json")), self._op(argv))
                    for argv, _ in cases]

    @staticmethod
    def _op(argv):
        def run(main):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(list(argv))
            return code, buf.getvalue()
        return run

    def setup(self, bf):
        return bf.cli.main

    def check(self, k, outputs):
        return self.cases[k][1](*outputs[k])

    # expectations -----------------------------------------------------------
    def _swap_commuting(self, w):
        """w with its first adjacent commuting pair swapped (w itself if none)."""
        family = self.specs["tables"][1]
        for i in range(len(w) - 1):
            if family.commute(w[i], w[i + 1]):
                return w[:i] + (w[i + 1], w[i]) + w[i + 2:]
        return w

    @staticmethod
    def _holds(count):
        def expect(code, out):
            want = f"HOLDS checked={count}"
            return None if (code, out) == (0, want + "\n") else f"exit {code}: {out!r}, want {want!r}"
        return expect

    @staticmethod
    def _vaccine_holds(trials):
        def expect(code, out):
            m = re.fullmatch(r"HOLDS trials=(\d+) skipped=(\d+)\n", out)
            if code != 0 or not m or int(m[1]) + int(m[2]) != trials:
                return f"exit {code}: {out!r}, want HOLDS with trials+skipped={trials}"
            return None
        return expect

    def _counterexample(self, code, out):
        want = f"COUNTEREXAMPLE word={' '.join(self.perturbed_word)} value={self.delta}\n"
        return None if (code, out) == (1, want) else f"exit {code}: {out!r}, want {want!r}"

    def _value(self, spec, method, word):
        def expect(code, out):
            want = getattr(self.specs[spec][1], method)(word)
            if code != 0:
                return f"exit {code}: {out!r}"
            return _mismatch(Fraction(out.strip()), want)
        return expect

    def _liberate(self, word, iota):
        def expect(code, out):
            family = self.specs["tables"][1]
            m = re.fullmatch(r"c0=(\S+), c1=(\S+), taur=(\S+), MATCH\n", out)
            if code != 0 or not m:
                return f"exit {code}: {out!r}"
            c0, c1, tv = (Fraction(x) for x in m.groups())
            want = family.tensor_value(word, iota)
            if c0 != family.phi(word) or c1 != want or tv != want:
                return f"{out!r}: want c0={family.phi(word)}, c1=taur={want}"
            return None
        return expect

    @staticmethod
    def _bnc_enum(chi):
        def expect(code, out):
            lines = out.splitlines()
            n = len(chi)
            if code != 0 or len(lines) != ref.catalan(n) or len(set(lines)) != len(lines):
                return f"exit {code}: {len(lines)} lines, want {ref.catalan(n)} distinct"
            for line in lines:
                blocks = [tuple(int(x) for x in b.split()) for b in line.split("|")]
                if sorted(x for b in blocks for x in b) != list(range(1, n + 1)):
                    return f"not a partition of 1..{n}: {line}"
                if not ref.is_bi_non_crossing(blocks, chi):
                    return f"crossing for chi={chi}: {line}"
            return None
        return expect


WORKLOADS = {"long-moments": LongMoments, "reconstruct": Reconstruct, "cli-scans": CliScans}

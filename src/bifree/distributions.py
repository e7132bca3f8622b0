"""Pure (single-pair) and joint moment oracles, and built-in distributions.

All arithmetic is exact rational.  Moment-backed tables are hard-erroring:
a missing entry raises InsufficientDataError rather than reading as zero,
because implicit zeros would silently corrupt cumulant inversion.
"""
from __future__ import annotations

from fractions import Fraction

from . import cumulants
from .errors import DomainError, InsufficientDataError, ModeError, SizeError
from .words import Letter, ScalarWordSum, canonical_word, word_text


def _read(table, key):
    """table[key] as a Fraction; the table keeps the value as it was built.

    A value may be any exact number that Fraction() takes, such as a checked
    spec literal (an int or a "p/q" string).
    """
    v = table[key]
    return v if type(v) is Fraction else Fraction(v)


class PureDistribution:
    """Moment/cumulant oracle for words within a single pair of faces."""

    def __init__(self, pair, left_symbols=(), right_symbols=(), max_degree=None,
                 theta_table=None):
        self.pair = pair
        self.left_symbols = tuple(left_symbols)
        self.right_symbols = tuple(right_symbols)
        self.max_degree = max_degree
        self.theta_table = dict(theta_table) if theta_table is not None else None
        self.letters = tuple(
            [Letter(s, pair, "l") for s in self.left_symbols]
            + [Letter(s, pair, "r") for s in self.right_symbols])
        self._moment_memo = {}
        self._cumulant_memo = {}
        self._ckappa_memo = {}

    def _check_degree(self, w):
        if self.max_degree is not None and len(w) > self.max_degree:
            raise InsufficientDataError(word_text(w))

    def _lookup(self, table, w):
        """The entry of a symbol-keyed table for w; a missing one is an error."""
        self._check_degree(w)
        key = tuple(letter.symbol for letter in w)
        if key in table:
            return _read(table, key)
        raise InsufficientDataError(word_text(w))

    # subclasses provide one of _raw_moment / _raw_cumulant
    def moment(self, w) -> Fraction:
        if len(w) == 0:
            return Fraction(1)
        if (v := self._moment_memo.get(w)) is None:
            v = self._moment_memo[w] = self._raw_moment(w)
        return v

    def cumulant(self, w) -> Fraction:
        if len(w) == 0:
            raise SizeError("cumulants need length >= 1")
        if (v := self._cumulant_memo.get(w)) is None:
            v = self._cumulant_memo[w] = self._raw_cumulant(w)
        return v

    def _raw_moment(self, w):
        return cumulants.moments_from_cumulants(self.cumulant, w)

    def _raw_cumulant(self, w):
        return cumulants.kappa_from_phi(self.moment, w, self._cumulant_memo)

    def theta(self, w) -> Fraction:
        if self.theta_table is None:
            raise ModeError(f"pair {self.pair!r} has no theta layer")
        if len(w) == 0:
            return Fraction(1)
        return self._lookup(self.theta_table, w)

    def conditional_cumulant(self, w) -> Fraction:
        if (v := self._ckappa_memo.get(w)) is None:
            v = cumulants.conditional_kappa_from(self.theta, self.cumulant, w, self._ckappa_memo)
        return v


class MomentTablePure(PureDistribution):
    """Pure distribution backed by a complete moment table up to max_degree."""

    def __init__(self, pair, left_symbols, right_symbols, max_degree, moments,
                 theta_table=None):
        super().__init__(pair, left_symbols, right_symbols, max_degree, theta_table)
        self.table = dict(moments)

    def _raw_moment(self, w):
        return self._lookup(self.table, w)


class CumulantTablePure(PureDistribution):
    """Pure distribution backed by a cumulant table; unspecified cumulants are 0."""

    def __init__(self, pair, left_symbols, right_symbols, max_degree, cumulants_table,
                 theta_table=None):
        super().__init__(pair, left_symbols, right_symbols, max_degree, theta_table)
        self.table = dict(cumulants_table)

    def _raw_cumulant(self, w):
        key = tuple(letter.symbol for letter in w)
        return _read(self.table, key) if key in self.table else Fraction(0)


class CallablePure(PureDistribution):
    """Pure distribution whose moments come from a function of the symbol tuple."""

    def __init__(self, pair, left_symbols, right_symbols, moment_fn, max_degree=None,
                 theta_table=None):
        super().__init__(pair, left_symbols, right_symbols, max_degree, theta_table)
        self.moment_fn = moment_fn

    def _raw_moment(self, w):
        self._check_degree(w)
        return Fraction(self.moment_fn(tuple(letter.symbol for letter in w)))


def builtin_semicircular_pair(pair, cov) -> PureDistribution:
    """A semicircular pair: a cumulant table with second-order cumulants per `cov`.

    `cov` maps the unordered side pattern "ll" / "lr" / "rr" to a rational;
    a pattern it leaves out is 0, and both mixed orders read "lr".
    """
    cov = {k: Fraction(v) for k, v in cov.items()}
    if not set(cov) <= {"ll", "lr", "rr"}:
        raise DomainError(f"semicircular cov keys are 'll', 'lr' and 'rr', got {sorted(cov)}")
    sl, sr = f"s_{pair}_l", f"s_{pair}_r"
    sides = {(sl, sl): "ll", (sl, sr): "lr", (sr, sl): "lr", (sr, sr): "rr"}
    table = {key: cov[k] for key, k in sides.items() if k in cov}
    return CumulantTablePure(pair, (sl,), (sr,), None, table)


def builtin_haar_pair(pair) -> PureDistribution:
    """A Haar *-pair (u_l, u_l*, u_r, u_r*): phi = 1 iff net left power = net right power.

    Within the pair all four symbols commute and the starred symbols invert
    the unstarred ones, so every word reduces to u_l^j u_r^k.
    """
    ul, uls, ur, urs = f"ul_{pair}", f"ul*_{pair}", f"ur_{pair}", f"ur*_{pair}"
    powers = {ul: (1, 0), uls: (-1, 0), ur: (0, 1), urs: (0, -1)}

    def moment_fn(syms):
        j = sum(powers[s][0] for s in syms)
        k = sum(powers[s][1] for s in syms)
        return 1 if j == k else 0

    return CallablePure(pair, left_symbols=(ul, uls), right_symbols=(ur, urs),
                        moment_fn=moment_fn)


class JointDistribution:
    """Base joint moment oracle: subclasses provide phi, and theta where a
    theta layer exists.

    It owns the memos of `cumulants.kappa` and `cumulants.conditional_kappa`.
    """

    def __init__(self):
        self.letters = ()
        self.pures = {}
        self._kappa_memo = {}
        self._ckappa_memo = {}

    def phi(self, w) -> Fraction:
        raise NotImplementedError

    def theta(self, w) -> Fraction:
        raise ModeError(f"{type(self).__name__} has no theta layer")

    @property
    def pairs(self):
        return tuple(sorted({letter.pair for letter in self.letters}))


class BifreeProduct(JointDistribution):
    """Joint distribution of bi-freely independent pairs given by pure oracles."""

    def __init__(self, pures):
        super().__init__()
        self.pures = dict(pures)
        self.letters = tuple(l for p in self.pures.values() for l in p.letters)
        self._phi_memo = {}

    def phi(self, w) -> Fraction:
        """The memo is read at w first, and at w's canonical word on a miss."""
        if (v := self._phi_memo.get(w := tuple(w))) is None:
            key = canonical_word(w)
            if (v := self._phi_memo.get(key)) is None:
                v = self._phi_memo[key] = cumulants.bifree_product_moment(self.pures, key)
            self._phi_memo[w] = v
        return v

    def theta(self, w) -> Fraction:
        """The theta-moment of w, computed at its canonical word on every call;
        every pair must have a theta layer, and a product of no pairs has none."""
        if not self.pures:
            raise ModeError("a product of no pairs has no theta layer")
        for pure in self.pures.values():
            pure.theta(())  # ModeError naming the pair if it has no theta layer
        return cumulants.conditional_product_theta(self.pures, canonical_word(tuple(w)))


class TableJoint(JointDistribution):
    """Joint distribution read off an explicit table keyed by canonical words."""

    def __init__(self, letters, table):
        super().__init__()
        self.letters = tuple(letters)
        self.table = {canonical_word(k): Fraction(v) for k, v in table.items()}

    def phi(self, w) -> Fraction:
        if len(w) == 0:
            return Fraction(1)
        key = canonical_word(w)
        try:
            return self.table[key]
        except KeyError:
            raise InsufficientDataError(word_text(w)) from None


class PerturbedJoint(JointDistribution):
    """A base joint distribution with finitely many moments shifted."""

    def __init__(self, base: JointDistribution, deltas):
        super().__init__()
        self.base = base
        self.deltas = {canonical_word(k): Fraction(v) for k, v in deltas.items()}
        self.letters = base.letters
        self.pures = base.pures

    def phi(self, w) -> Fraction:
        return self.base.phi(w) + self.deltas.get(canonical_word(w), Fraction(0))

    def theta(self, w) -> Fraction:
        return self.base.theta(w)


def evaluate(d, s: ScalarWordSum) -> Fraction:
    """Linear extension of the moment oracle to word sums."""
    return s.evaluate(d.phi)


def evaluate_theta(d, s: ScalarWordSum) -> Fraction:
    """Linear extension of the theta layer to word sums."""
    return s.evaluate(d.theta)

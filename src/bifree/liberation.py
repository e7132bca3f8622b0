"""The liberation tensor calculus.

Contains the four-term interval map on words (and its free one-sided
analogue), formal exponential-polynomial moments of a free unitary Brownian
motion, and the order-t replacement expansion that conjugates one pair's
letters by same-side unitaries and expands to first order in t.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .bnc import _nc_fold, s_chi_permutation
from .distributions import BifreeProduct, builtin_semicircular_pair
from .errors import DomainError, InsufficientDataError, ModeError, UnknownPairError
from .words import Letter, ScanVerdict, TensorSum, chi_of, eps_of, scan, subword


def taur(w, iota) -> TensorSum:
    """Four-term signed interval sum over chi-ordered pairs of iota-letters.

    For each pair i chi-before-or-equal j of iota-colored positions, the
    closed / half-open / open chi-intervals contribute +, -, -, + copies of
    (complement subword) tensor (interval subword).  Each interval is a slice
    order[lo:hi] of the chi-order, and the four terms are summed in closed
    form.  With r(k) = 1 when the letter of chi-rank k has pair iota and
    r(-1) = r(n) = 0, a nonempty slice has coefficient
    (r(lo) - r(lo-1)) * (r(hi-1) - r(hi)), and w tensor () has minus the
    number of maximal iota runs of the chi-order.  So only the run
    boundaries contribute: one run gives two terms.
    """
    out = TensorSum()
    order = s_chi_permutation(chi_of(w)) if w else ()
    r = [0, *(w[i - 1].pair == iota for i in order), 0]
    # r[k + 1] is r(k); a run boundary k has sign r(k) - r(k-1): +1 at the run's first
    # rank, -1 just past its last
    bounds = [(k, r[k + 1] - r[k]) for k in range(len(order) + 1) if r[k + 1] != r[k]]
    out.add((tuple(w), ()), -(len(bounds) // 2))
    for (lo, s), (hi, t) in combinations(bounds, 2):
        out.add((subword(w, order[:lo] + order[hi:]), subword(w, order[lo:hi])), -s * t)
    return out


def eval_tensor(d, t: TensorSum) -> Fraction:
    """(phi tensor phi) applied to a tensor sum."""
    return t.evaluate(lambda key: d.phi(key[0]) * d.phi(key[1]))


def _require_pair(d, iota):
    if iota not in d.pairs:
        raise DomainError(f"pair {iota!r} is not a pair of the distribution")


def taur_test(d, iota, max_len) -> ScanVerdict:
    """Scan every word up to max_len for a nonzero value of the tensor map.

    With more than two pairs in scope the verdict is reported as uncertified.
    An iota that names no pair of d raises DomainError.
    """
    _require_pair(d, iota)
    def failure(w):
        value = eval_tensor(d, taur(w, iota))
        return {"value": value} if value else None
    return scan(d.letters, max_len, failure, mixed_only=False,
                certified=len(d.pairs) <= 2)


def free_delta(w, iota) -> TensorSum:
    """One-sided prefix-split analogue for all-left words.

    For each iota-colored position i: -(strict prefix) tensor (rest) plus
    (prefix through i) tensor (rest).  Right-sided letters are out of domain.
    """
    if any(letter.side != "l" for letter in w):
        raise DomainError("prefix splits are defined for all-left words only")
    out = TensorSum()
    n = len(w)
    for i in range(1, n + 1):
        if w[i - 1].pair != iota:
            continue
        out.add((w[:i - 1], w[i - 1:]), -1)
        out.add((w[:i], w[i:]), 1)
    return out


def _poly_text(coeffs) -> str:
    bits = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            power = "t" if k == 1 else f"t^{k}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not bits:
            bits.append(body if c > 0 else f"-{body}")
        else:
            bits.append(("+ " if c > 0 else "- ") + body)
    return " ".join(bits) if bits else "0"


def _rate_text(rate: Fraction) -> str:
    if rate == 1:
        return "t"
    if rate == -1:
        return "-t"
    return f"{rate}*t"


def _log_ratio(num: int, den: int) -> float:
    """log(num / den) for positive integers of any size, to within a few ulps."""
    e = num.bit_length() - den.bit_length()
    return math.log((num << max(-e, 0)) / (den << max(e, 0))) + e * math.log(2)


class ExpPoly:
    """A finite sum of p(t) * exp(rate*t) with rational polynomials and rates."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # rate -> tuple of coefficients (index = power of t)
        self.terms = {}
        for rate, coeffs in (terms or {}).items():
            self.add_term(rate, coeffs)

    def add_term(self, rate, coeffs):
        rate = Fraction(rate)
        merged = list(self.terms.get(rate, ()))
        merged += [Fraction(0)] * (len(coeffs) - len(merged))
        for k, c in enumerate(coeffs):
            merged[k] += Fraction(c)
        while merged and merged[-1] == 0:
            merged.pop()
        if merged:
            self.terms[rate] = tuple(merged)
        else:
            self.terms.pop(rate, None)
        return self

    def eval(self, t: float) -> float:
        """The value at t: each polynomial exactly at t (a float is a binary
        rational), then exp(rate*t) once, in the log domain, so as not to overflow."""
        a, b = Fraction(t).as_integer_ratio()
        total = 0.0
        for rate, coeffs in self.terms.items():
            # p(a/b) = num / (lcm * b^deg), by Horner's rule over the integers.
            lcm = math.lcm(*(c.denominator for c in coeffs))
            num, scale = 0, 1
            for c in reversed(coeffs):
                num, scale = num * a + c.numerator * (lcm // c.denominator) * scale, scale * b
            if num:
                value = math.exp(_log_ratio(abs(num), lcm * scale // b) + float(rate) * t)
                total += value if num > 0 else -value
        return total

    def taylor1(self):
        """Exact constant and linear Taylor coefficients at t = 0."""
        a0 = Fraction(0)
        a1 = Fraction(0)
        for rate, coeffs in self.terms.items():
            p0 = coeffs[0] if coeffs else Fraction(0)
            p1 = coeffs[1] if len(coeffs) > 1 else Fraction(0)
            a0 += p0
            a1 += p1 + p0 * rate
        return a0, a1

    def render(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for rate in sorted(self.terms, reverse=True):
            poly = f"({_poly_text(self.terms[rate])})"
            if rate == 0:
                bits.append(poly)
            else:
                bits.append(f"{poly} * exp({_rate_text(rate)})")
        return " + ".join(bits)

    def __eq__(self, other):
        return isinstance(other, ExpPoly) and self.terms == other.terms

    def __repr__(self):
        return f"ExpPoly({self.render()})"


def ubm_moment(n: int) -> ExpPoly:
    """phi(U(t)^n) as an exact exponential polynomial.

    sum_{k=0}^{n-1} (-1)^k t^k/k! n^{k-1} C(n, k+1) exp(-nt/2); n = 0 gives
    the constant 1.  The coefficients follow from c_0 = 1 by the ratio
    c_k / c_{k-1} = -n (n - k) / (k (k + 1)).
    """
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if n == 0:
        return ExpPoly({Fraction(0): (Fraction(1),)})
    coeffs = [Fraction(1)]
    for k in range(1, n):
        coeffs.append(coeffs[-1] * Fraction(-n * (n - k), k * (k + 1)))
    return ExpPoly({Fraction(-n, 2): tuple(coeffs)})


def ubm_eval(n: int, t: float) -> float:
    if not (math.isfinite(t) and t >= 0):
        raise DomainError(f"t must be finite and nonnegative, got {t}")
    return ubm_moment(n).eval(t)


def _fresh_pair_id(pures):
    pid = "sem"
    while pid in pures:
        pid += "_"
    return pid


class ReplacementContext:
    """The pure family with an all-ones semicircular pair adjoined bi-freely.

    It holds no product oracle: each expansion is one fold over the pures'
    cumulants, so scans over many words share memos through the pures.
    """

    def __init__(self, pures):
        self.pures = dict(pures)
        self.sem = builtin_semicircular_pair(
            _fresh_pair_id(pures), {"ll": 1, "lr": 1, "rr": 1})
        self.s_letter = {letter.side: letter for letter in self.sem.letters}


# cumulants._EXACT truncated at order t: (num0, num1, den, flag) sums the partitions
# with no semicircular pair block (num0/den) and with one (num1/den); two are dropped.
_ORDER_T = ((1, 0, 1, True),
            lambda a, b: (a[0] * b[0], a[0] * b[1] + a[1] * b[0], a[2] * b[2],
                          b[3] if a[3] is True else a[3]),
            lambda a, b: (a[0] * b[2] + b[0] * a[2], a[1] * b[2] + b[1] * a[2], a[2] * b[2],
                          b[3] if a[3] is True else a[3]),
            lambda a: (a[0] // (g := math.gcd(*a[:3])), a[1] // g, a[2] // g, a[3]))


def _expand_tokens(ctx: ReplacementContext, tokens):
    """First-order expansion of a product of letters and unitary factors.

    A token is a Letter or a unitary factor (side, psi) with psi = +-1, which
    stands for (1 - t/2) + i*psi*sqrt(t)*S_side with the context's all-ones
    semicircular pair; odd powers of sqrt(t) vanish by the sign-flip
    symmetry, so only single -t/2 picks and paired S picks reach order t.
    The i*i = -1 of a paired pick folds into the coefficient.

    Both orders are one partition sum over the extended product, with each
    unitary factor as its S letter: a singleton S block weighs 1 (the factor
    keeps its constant), an S pair block psi_p*psi_q*kappa(S_p S_q) (a pick),
    and no longer S block is formed.  No pick is read off as a product of moments.
    """
    word = [t if isinstance(t, Letter) else ctx.s_letter[t[0]] for t in tokens]
    psi = [0 if isinstance(t, Letter) else t[1] for t in tokens]
    if missing := [t.pair for t in tokens if isinstance(t, Letter) and t.pair not in ctx.pures]:
        raise UnknownPairError(f"no pure distribution for pair {missing[0]!r}")

    def leaf(ps, outer):
        sub = tuple([word[p] for p in ps])
        if not psi[ps[0]]:
            try:
                v = ctx.pures[sub[0].pair].cumulant(sub)
            except InsufficientDataError as err:
                return 0, 0, 1, err
            return (v.numerator, 0, v.denominator, True) if v else None
        if len(ps) == 1:
            return _ORDER_T[0]
        v = psi[ps[0]] * psi[ps[1]] * ctx.sem.cumulant(sub)
        return (0, v.numerator, v.denominator, True) if v else None

    num0, num1, den, flag = _nc_fold(chi_of(word), eps_of(word), leaf, _ORDER_T,
                                     caps={ctx.sem.pair: 2}) or (0, 0, 1, True)
    if flag is not True:
        # a pick's missing block lies in c0's partition with the pick split into two
        # singletons, so c0 is missing an entry too: name the one its own sum meets first
        BifreeProduct(ctx.pures).phi([t for t in tokens if isinstance(t, Letter)])
        raise flag
    c0 = Fraction(num0, den)
    return c0, Fraction(psi.count(0) - len(tokens), 2) * c0 - Fraction(num1, den)


def replacement_expand(pures, w, iota, ctx=None):
    """Order-t expansion of the word with each iota-letter unitarily conjugated.

    Every iota-colored letter x becomes U_side x U_side^*; the unitaries are
    rewritten by the first-order replacement and the product expanded.  U_l
    and U_r^* carry psi = +1, U_l^* and U_r psi = -1.
    Returns the exact (constant, linear) coefficients in t.
    """
    if ctx is None:
        ctx = ReplacementContext(pures)
    tokens = []
    for letter in w:
        if letter.pair == iota:
            psi = 1 if letter.side == "l" else -1
            tokens += [(letter.side, psi), letter, (letter.side, -psi)]
        else:
            tokens.append(letter)
    return _expand_tokens(ctx, tokens)


def ubm_power_expansion(m: int):
    """Replacement expansion of a bare same-side unitary power U^m (no letters)."""
    return _expand_tokens(ReplacementContext({}), [("l", 1)] * m)


def liberation_test(d, iota, max_len) -> ScanVerdict:
    """Scan every mixed word up to max_len for a failure of the derivative formula.

    The order-t replacement expansion over the pures of d is compared with d
    itself, perturbations included: c0 with phi, c1 with the tensor map.  A d
    that is not built on pure distributions raises ModeError.
    """
    _require_pair(d, iota)
    if not d.pures:
        raise ModeError("liberation_test needs a joint built on pure distributions")
    ctx = ReplacementContext(d.pures)
    def failure(w):
        c0, c1 = replacement_expand(ctx.pures, w, iota, ctx)
        if c0 != d.phi(w) or c1 != eval_tensor(d, taur(w, iota)):
            return {"c0": c0, "c1": c1}
        return None
    return scan(d.letters, max_len, failure)

"""Exact rational arithmetic and terminating (q-)hypergeometric sums.

Every quantity in this module is exact: `fractions.Fraction` values and
Python integers; there is no floating point anywhere. All functions are pure,
so concurrent use needs no locking.

A terminating generalized hypergeometric sum with leading numerator
parameter -n is

    sum_{k=0}^{n}  (a_1)_k ... (a_r)_k / (k! (b_1)_k ... (b_s)_k) * z^k

with the rising factorial (b)_k = b (b+1) ... (b+k-1), and its basic analogue
replaces each (a)_k by (a; q)_k = (1-a)(1-qa)...(1-q^{k-1}a) and k! by
(q; q)_k.

The sums and the Gaussian binomial never build an intermediate Fraction.
Each parameter is split once into an integer numerator and denominator, the
ratio of consecutive terms becomes one integer pair p_k / q_k, and the series
is accumulated in nested form, 1 + r_1 (1 + r_2 (1 + ... r_n)), as one
integer numerator and denominator; the single reduction is the Fraction
returned at the end.

The integer cores are public: term_steps, parameter_factors and
ratio_scales build the term ratios from parameters given as integer pairs;
scan_poles is the pole rule (a zero term denominator is an error naming its
term) and live_terms the term rule (the sum stops at the first vanished
term); nested_sum sums the ratios it is given; and q_binomial_pair is the
Gaussian binomial before its reduction. The kernels here and
families.poly_block share them, so both follow one pole and one term rule.
poly_block splits its tables once per level: each distinct parameter's
factors once, poles scanned once per row, and each entry summed only up to
its first vanished term, at most min(n, k).

Unreduced carries the same idea into closed-form expressions: an exact
rational held as one integer pair that + - * / combine without any gcd. The
coefficient closures of families.contiguity and coproduct.algebraic_form fold
their parameters, powers of q (q_powers) and shared factors as Unreduced
values and reduce each coefficient once, into one Fraction; the
algebraic-form check compares the closed forms before that reduction.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cache
from typing import Callable, Sequence

Scalar = Fraction

__all__ = [
    "Scalar",
    "InvalidParameterError",
    "SingularParameterError",
    "as_scalar",
    "parse_scalar",
    "format_scalar",
    "pochhammer",
    "q_pochhammer",
    "binomial",
    "q_binomial",
    "q_binomial_pair",
    "term_steps",
    "parameter_factors",
    "ratio_scales",
    "scan_poles",
    "live_terms",
    "nested_sum",
    "Unreduced",
    "q_powers",
    "hyper_terminating",
    "q_hyper_terminating",
]


class InvalidParameterError(ValueError):
    """Raised when parameters violate a validity requirement."""


class SingularParameterError(ValueError):
    """Raised when a term denominator vanishes inside a terminating sum."""

    def __init__(self, message: str, term: int | None = None):
        super().__init__(message)
        self.term = term


_SCALAR_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def as_scalar(value) -> Scalar:
    """Coerce an int, Fraction or 'a/b' string to a Scalar."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise InvalidParameterError(f"cannot interpret {value!r} as an exact rational")


def parse_scalar(text: str) -> Scalar:
    """Parse 'num/den' or an integer literal; no decimals, no floats."""
    text = text.strip()
    if not _SCALAR_RE.match(text):
        raise InvalidParameterError(f"not an exact rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InvalidParameterError(f"zero denominator in {text!r}") from None


def format_scalar(x: Scalar) -> str:
    """Render as 'num/den', omitting '/den' when the denominator is 1.

    Round-trips bit-exactly through parse_scalar. A Fraction is printed as
    it is, without a copy.
    """
    return str(x if type(x) is Fraction else Fraction(x))


def pochhammer(b: Scalar, k: int) -> Scalar:
    """Rising factorial (b)_k = b(b+1)...(b+k-1); (b)_0 = 1."""
    if k < 0:
        raise ValueError("pochhammer needs k >= 0")
    out = Fraction(1)
    for i in range(k):
        out *= b + i
    return out


def q_pochhammer(b: Scalar, q: Scalar, k: int) -> Scalar:
    """(b; q)_k = (1-b)(1-qb)...(1-q^{k-1}b); (b; q)_0 = 1."""
    if k < 0:
        raise ValueError("q_pochhammer needs k >= 0")
    out = Fraction(1)
    qpow = Fraction(1)
    for _ in range(k):
        out *= 1 - qpow * b
        qpow *= q
    return out


def binomial(N: int, n: int) -> Scalar:
    """Binomial coefficient as a Scalar; 0 outside 0 <= n <= N."""
    if N < 0:
        raise ValueError("binomial needs N >= 0")
    if n < 0 or n > N:
        return Fraction(0)
    return Fraction(math.comb(N, n))


def q_binomial(N: int, n: int, q: Scalar) -> Scalar:
    """Gaussian binomial (q;q)_N / ((q;q)_n (q;q)_{N-n}); 0 outside range."""
    if N < 0:
        raise ValueError("q_binomial needs N >= 0")
    return Fraction(*q_binomial_pair(N, n, q))


def q_binomial_pair(N: int, n: int, q: Scalar) -> tuple[int, int]:
    """The Gaussian binomial as an unreduced integer pair (top, bottom);
    (0, 1) outside 0 <= n <= N.

    With q = u/v, 1 - q^i = (v^i - u^i) / v^i, and the powers of v cancel to
    v^{-n(N-n)}. The integer factors v^i - u^i for i up to the larger of n
    and N-n cancel against (q;q)_N, so only they are checked for zero; the
    ones above it form the numerator and those up to the smaller one the
    denominator.
    """
    if q == 0 or q == 1:
        raise InvalidParameterError("q_binomial undefined at q in {0, 1}")
    if n < 0 or n > N:
        return 0, 1
    u, v = q.numerator, q.denominator
    low, high = sorted((n, N - n))
    top = bottom = 1
    u_i = v_i = 1
    for i in range(1, N + 1):
        u_i *= u
        v_i *= v
        factor = v_i - u_i
        if i > high:
            top *= factor
        elif factor == 0:
            raise SingularParameterError(f"(q;q) factor vanishes for q={q}")
        elif i <= low:
            bottom *= factor
    return top, bottom * v ** (n * (N - n))


# ---------------------------------------------------------------------------
# terminating series over integers: the kernels below and families.poly_block
# build their term ratios from the same integer cores and follow the same rules
# ---------------------------------------------------------------------------

def term_steps(n: int, q: Scalar | None = None) -> list[tuple[int, int]]:
    """The steps (s, t) of the first n term ratios of a series: ratio i owes
    a parameter a = an/ad the integer factor s an + t ad over ad, since
    a + i = (an + i ad) / ad and, with q = u/v, 1 - q^i a = (v^i ad - u^i an)
    / (v^i ad). So the steps are (1, i) classically and (-u^i, v^i) for q."""
    if q is None:
        return [(1, i) for i in range(n)]
    u, v = q.numerator, q.denominator
    return [(-u ** i, v ** i) for i in range(n)]


def parameter_factors(params: Sequence[tuple[int, int]],
                      steps: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """(f, d): the share of the parameters a = an/ad, each an integer pair
    with ad != 0, in the term ratios of the given term_steps: f[i] is
    prod(s_i an + t_i ad) and d is prod(ad). So prod(a + i) = f[i] / d and
    prod(1 - q^i a) = f[i] / (d v^{i m}) for m parameters."""
    f, d = [1] * len(steps), 1
    for an, ad in params:
        f = [x * (s * an + t * ad) for x, (s, t) in zip(f, steps)]
        d *= ad
    return f, d


def ratio_scales(den: Sequence[tuple[int, int]], z: tuple[int, int],
                 steps: Sequence[tuple[int, int]], r: int,
                 q: Scalar | None = None) -> tuple[list[int], list[int]]:
    """(tops, bottoms): what the term ratios of the given term_steps, of a
    series with r numerator parameters, owe to everything but those
    parameters; den and z are integer pairs.

    Term i+1 over term i is z prod(a + i) / prod(b + i), or z prod(1 - q^i a)
    / prod(1 - q^i b), with the implicit j! = (1)_j or (q; q)_j among the b.
    Given the numerators' (f, d) from parameter_factors, that ratio is
    f[i] tops[i] / (d bottoms[i]): tops[i] = zn prod(bd) v^{max(i e, 0)} and
    bottoms[i] = zd v^{max(-i e, 0)} prod(bn + i bd), or prod(v^i bd - u^i bn),
    where e is the number of b, implicit one included, less r.
    """
    f, d = parameter_factors([*den, (1, 1) if q is None else q.as_integer_ratio()], steps)
    top, bottom = z[0] * d, z[1]
    if q is None:
        return [top] * len(f), [bottom * x for x in f]
    e, v = len(den) + 1 - r, q.denominator
    return ([top * v ** max(i * e, 0) for i in range(len(f))],
            [bottom * v ** max(-i * e, 0) * x for i, x in enumerate(f)])


def scan_poles(bottoms: Sequence[int]) -> None:
    """The pole rule: a zero bottoms[j-1] is a pole at term j, raised as a
    SingularParameterError naming the first, even where a top before it has
    vanished and the terms from there on are zero."""
    if 0 in bottoms:
        j = bottoms.index(0) + 1
        raise SingularParameterError(
            f"denominator parameter hits a pole at term k={j}", term=j)


def live_terms(tops: Sequence[int]) -> int:
    """The term rule: the number of term ratios before the first zero top.
    The terms after a vanished top are zero and stay out of the sum; a
    product of factor lists vanishes first where its first factor does."""
    return tops.index(0) if 0 in tops else len(tops)


def nested_sum(f: Sequence[int], g: Sequence[int], d: int,
               bottoms: Sequence[int], m: int) -> tuple[int, int]:
    """1 + r_1 (1 + r_2 (1 + ... (1 + r_m))) for the term ratios r_j =
    f[j-1] g[j-1] / (d bottoms[j-1]), as an unreduced integer pair.

    No zero is tested here: the caller has applied the pole rule
    (scan_poles) to every bottom of the series and taken m from the term
    rule (live_terms), so the m ratios summed are finite and nonzero.
    """
    top = bottom = 1
    for i in range(m - 1, -1, -1):
        b = d * bottoms[i] * bottom
        top, bottom = b + f[i] * g[i] * top, b
    return top, bottom


class Unreduced:
    """An exact rational as an unreduced integer pair top / bottom.

    + - * / combine it with ints, Fractions and other Unreduced values, each
    read through as_integer_ratio(), into a new pair, with integer products
    only; reduce() is the one Fraction of the
    pair. A zero divisor leaves a zero bottom, which every later operation
    keeps (a quotient by a value with a zero bottom gets one too), so reduce()
    raises ZeroDivisionError exactly when the same chain of Fraction
    operations would have raised it. Values are never changed in place.
    """

    __slots__ = ("top", "bottom")

    def __init__(self, top: int, bottom: int = 1):
        self.top = top
        self.bottom = bottom

    @classmethod
    def of(cls, x) -> "Unreduced":
        """An int, a Fraction or an Unreduced value as an Unreduced."""
        return cls(*x.as_integer_ratio())

    def __add__(self, other) -> "Unreduced":
        n, d = other.as_integer_ratio()
        if d == self.bottom:
            return Unreduced(self.top + n, d)
        return Unreduced(self.top * d + n * self.bottom, self.bottom * d)

    __radd__ = __add__

    def __sub__(self, other) -> "Unreduced":
        n, d = other.as_integer_ratio()
        if d == self.bottom:
            return Unreduced(self.top - n, d)
        return Unreduced(self.top * d - n * self.bottom, self.bottom * d)

    def __rsub__(self, other) -> "Unreduced":
        n, d = other.as_integer_ratio()
        if d == self.bottom:
            return Unreduced(n - self.top, d)
        return Unreduced(n * self.bottom - self.top * d, self.bottom * d)

    def __mul__(self, other) -> "Unreduced":
        n, d = other.as_integer_ratio()
        return Unreduced(self.top * n, self.bottom * d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Unreduced":
        n, d = other.as_integer_ratio()
        return Unreduced(self.top * d, self.bottom * n if d else 0)

    def __rtruediv__(self, other) -> "Unreduced":
        n, d = other.as_integer_ratio()
        return Unreduced(n * self.bottom, d * self.top if self.bottom else 0)

    def as_integer_ratio(self) -> tuple[int, int]:
        """(top, bottom) as held, unreduced: ints and Fractions have the
        same method, so one call reads any exact value as an integer pair."""
        return self.top, self.bottom

    def reduce(self) -> Fraction:
        """The value as one Fraction; ZeroDivisionError on a zero bottom."""
        return Fraction(self.top, self.bottom)


def q_powers(q: Scalar) -> Callable[[int], Unreduced]:
    """e -> q^e, for every integer e, as an Unreduced pair of powers of the
    numerator and denominator of q (nonzero); memoized for as long as the
    returned function lives."""
    u, v = q.numerator, q.denominator
    return cache(lambda e: Unreduced(u ** e, v ** e) if e >= 0 else
                 Unreduced(v ** -e, u ** -e))


def _sum(num: Sequence[Scalar], den: Sequence[Scalar], z: Scalar, n: int,
            q: Scalar | None) -> Scalar:
    steps = term_steps(n, q)
    f, d = parameter_factors([x.as_integer_ratio() for x in num], steps)
    tops, bottoms = ratio_scales([x.as_integer_ratio() for x in den], z.as_integer_ratio(),
                                 steps, len(num), q)
    scan_poles(bottoms)
    return Fraction(*nested_sum(f, tops, d, bottoms, min(live_terms(f), live_terms(tops))))


def hyper_terminating(num: Sequence[Scalar], den: Sequence[Scalar],
                      z: Scalar, n: int) -> Scalar:
    """Terminating hypergeometric sum; num[0] must equal -n.

    Term j is term j-1 times prod(a + j-1) z / (j prod(b + j-1)). With
    a = an/ad and b = bn/bd that ratio is the integer pair
    prod(an + (j-1) ad) zn prod(bd) / (j prod(bn + (j-1) bd) zd prod(ad)),
    and the terms are summed over integers with a single reduction at the
    end. A vanishing term denominator is an error naming the offending
    index, never a 0/0 limit.
    """
    if n < 0:
        raise ValueError("termination order n must be >= 0")
    if not num or num[0] != Fraction(-n):
        raise ValueError("first numerator parameter must be -n")
    return _sum(num, den, z, n, None)


def q_hyper_terminating(num: Sequence[Scalar], den: Sequence[Scalar],
                        q: Scalar, z: Scalar, n: int) -> Scalar:
    """Terminating basic hypergeometric sum; num[0] must equal q^{-n}.

    The implicit (q; q)_k joins the denominator, as usual. With q = u/v,
    a factor 1 - q^{j-1} a of term j is (v^{j-1} ad - u^{j-1} an) /
    (v^{j-1} ad), and (1 - q^j) = (v^j - u^j) / v^j; the powers of v left
    over in the ratio come to v^{(j-1)(1+s-r)+1} for r numerator and s
    denominator parameters.
    """
    if n < 0:
        raise ValueError("termination order n must be >= 0")
    if q == 0:
        raise InvalidParameterError("q must be nonzero")
    u, v = q.numerator, q.denominator
    if not num or num[0].numerator * u ** n != num[0].denominator * v ** n:
        raise ValueError("first numerator parameter must be q^{-n}")
    return _sum(num, den, z, n, q)

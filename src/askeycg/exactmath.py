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
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

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

    Round-trips bit-exactly through parse_scalar.
    """
    return str(Fraction(x))


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
    """Gaussian binomial (q;q)_N / ((q;q)_n (q;q)_{N-n}); 0 outside range.

    With q = u/v, 1 - q^i = (v^i - u^i) / v^i, and the powers of v cancel to
    v^{-n(N-n)}. The integer factors v^i - u^i for i up to the larger of n
    and N-n cancel against (q;q)_N, so only they are checked for zero; the
    ones above it form the numerator and those up to the smaller one the
    denominator.
    """
    if N < 0:
        raise ValueError("q_binomial needs N >= 0")
    if q == 0 or q == 1:
        raise InvalidParameterError("q_binomial undefined at q in {0, 1}")
    if n < 0 or n > N:
        return Fraction(0)
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
    return Fraction(top, bottom * v ** (n * (N - n)))


def _split(params: Sequence[Scalar]) -> list[tuple[int, int]]:
    return [(x.numerator, x.denominator) for x in params]


def _fixed_ratio(nums: list[tuple[int, int]], dens: list[tuple[int, int]],
                 z: Scalar) -> tuple[int, int]:
    """z prod(bd) / prod(ad): the factor that every term ratio shares."""
    return (z.numerator * math.prod(bd for _, bd in dens),
            z.denominator * math.prod(ad for _, ad in nums))


def _terminating_sum(ratios: Iterable[tuple[int, int]]) -> Scalar:
    """1 + r_1 (1 + r_2 (1 + ... (1 + r_n))) for the term ratios r_j = p_j / q_j,
    given as integer pairs in term order, reduced once at the end.

    A zero q_j is a pole at term j, reported even past a vanished p_j; the
    terms after a vanished p_j are zero and stay out of the sum.
    """
    kept = []
    for j, (p, q) in enumerate(ratios, 1):
        if q == 0:
            raise SingularParameterError(
                f"denominator parameter hits a pole at term k={j}", term=j)
        if p and len(kept) == j - 1:
            kept.append((p, q))
    top = bottom = 1
    for p, q in reversed(kept):
        top, bottom = q * bottom + p * top, q * bottom
    return Fraction(top, bottom)


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
    nums, dens = _split(num), _split(den)
    fixed_p, fixed_q = _fixed_ratio(nums, dens, z)

    def ratios():
        for i in range(n):  # term j = i + 1
            p_j, q_j = fixed_p, fixed_q * (i + 1)
            for an, ad in nums:
                p_j *= an + i * ad
            for bn, bd in dens:
                q_j *= bn + i * bd
            yield p_j, q_j

    return _terminating_sum(ratios())


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
    nums, dens = _split(num), _split(den)
    fixed_p, fixed_q = _fixed_ratio(nums, dens, z)
    step = 1 + len(dens) - len(nums)

    def ratios():
        u_i = v_i = 1  # u^{j-1}, v^{j-1} for term j = i + 1
        for i in range(n):
            e = i * step + 1
            p_j = fixed_p * v ** max(e, 0)
            q_j = fixed_q * v ** max(-e, 0) * (v_i * v - u_i * u)
            for an, ad in nums:
                p_j *= v_i * ad - u_i * an
            for bn, bd in dens:
                q_j *= v_i * bd - u_i * bn
            yield p_j, q_j
            u_i *= u
            v_i *= v

    return _terminating_sum(ratios())

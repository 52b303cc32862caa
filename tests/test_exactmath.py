from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from askeycg.exactmath import (InvalidParameterError, SingularParameterError, binomial,
                               format_scalar, hyper_terminating, parse_scalar, pochhammer,
                               power_pairs, q_binomial, q_hyper_terminating, q_pochhammer)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
small_q = st.fractions(min_value=F(1, 9), max_value=F(9, 10), max_denominator=10)
# either sign, |q| on both sides of 1; 0 and 1 are invalid and -1 is a root
# of unity, where (q; q)_k vanishes
any_q = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(
    lambda q: q not in (0, 1, -1))
params = st.lists(rationals, min_size=0, max_size=3)


# -- independent reference implementations (kept deliberately naive) --------

def ref_poch(b, k):
    out = F(1)
    for i in range(k):
        out = out * (b + i)
    return out


def ref_hyper(num, den, z, n):
    """Term-by-term from scratch, summed in reverse order. A vanishing term
    denominator raises ZeroDivisionError carrying the term index."""
    terms = []
    for j in range(n + 1):
        t = F(1)
        for a in num:
            t *= ref_poch(a, j)
        d = F(1)
        for i in range(1, j + 1):
            d *= i
        for b in den:
            d *= ref_poch(b, j)
        if d == 0:
            raise ZeroDivisionError(j)
        terms.append(t * z ** j / d)
    return sum(reversed(terms), F(0))


def ref_qp(b, q, k):
    out = F(1)
    for i in range(k):
        out *= 1 - q ** i * b
    return out


def ref_q_hyper(num, den, q, z, n):
    terms = []
    for j in range(n + 1):
        t = F(1)
        for a in num:
            t *= ref_qp(a, q, j)
        d = ref_qp(q, q, j)
        for b in den:
            d *= ref_qp(b, q, j)
        if d == 0:
            raise ZeroDivisionError(j)
        terms.append(t * z ** j / d)
    return sum(reversed(terms), F(0))


# -- pochhammer --------------------------------------------------------------

def test_pochhammer_examples():
    assert pochhammer(F(2), 3) == 24
    assert pochhammer(F(-1), 3) == 0
    assert pochhammer(F(1, 2), 2) == F(3, 4)
    assert pochhammer(F(7, 3), 0) == 1


@given(b=rationals, k=st.integers(min_value=0, max_value=20))
def test_pochhammer_recurrence(b, k):
    assert pochhammer(b, k + 1) == pochhammer(b, k) * (b + k)


def test_q_pochhammer_examples():
    assert q_pochhammer(F(1), F(1, 2), 2) == 0
    assert q_pochhammer(F(2), F(1, 2), 2) == 0
    assert q_pochhammer(F(1, 3), F(1, 2), 2) == F(5, 9)


@given(b=rationals, q=rationals, k=st.integers(min_value=0, max_value=15))
def test_q_pochhammer_recurrence(b, q, k):
    assert q_pochhammer(b, q, k + 1) == q_pochhammer(b, q, k) * (1 - q ** k * b)


# -- binomials ---------------------------------------------------------------

def test_binomial_examples():
    assert binomial(4, 2) == 6
    assert binomial(3, -1) == 0
    assert binomial(3, 5) == 0


@given(N=st.integers(min_value=1, max_value=25), n=st.integers(min_value=-2, max_value=27))
def test_pascal(N, n):
    assert binomial(N, n) == binomial(N - 1, n - 1) + binomial(N - 1, n)


def test_q_binomial_example():
    assert q_binomial(2, 1, F(1, 2)) == F(3, 2)
    assert q_binomial(3, -1, F(1, 2)) == 0


@given(N=st.integers(min_value=1, max_value=10),
       n=st.integers(min_value=0, max_value=10), q=small_q)
def test_q_pascal(N, n, q):
    assert q_binomial(N, n, q) == (q_binomial(N - 1, n - 1, q)
                                   + q ** n * q_binomial(N - 1, n, q))


@given(N=st.integers(min_value=0, max_value=12),
       n=st.integers(min_value=-1, max_value=13), q=any_q)
def test_q_binomial_matches_q_factorial_quotient(N, n, q):
    expected = (ref_qp(q, q, N) / (ref_qp(q, q, n) * ref_qp(q, q, N - n))
                if 0 <= n <= N else 0)
    assert q_binomial(N, n, q) == expected


def test_q_binomial_at_minus_one():
    # 1 - q^2 = 0: a vanishing factor below is an error, one above only a zero
    with pytest.raises(SingularParameterError):
        q_binomial(3, 1, F(-1))
    assert q_binomial(2, 1, F(-1)) == 0
    assert q_binomial(1, 0, F(-1)) == 1


def test_q_binomial_rejects_degenerate_q():
    with pytest.raises(InvalidParameterError):
        q_binomial(2, 1, F(1))
    with pytest.raises(InvalidParameterError):
        q_binomial(2, 1, F(0))


# -- terminating hypergeometric sums ----------------------------------------

def test_hyper_order_zero_is_one():
    assert hyper_terminating([F(0), F(5), F(-3)], [F(7, 2)], F(4), 0) == 1


def test_hyper_two_term_example():
    # 3F2(-1, -1, lam1+lam2; lam1, -1; 1) = -lam2/lam1 at lam1=2, lam2=3
    num, den = [F(-1), F(-1), F(5)], [F(2), F(-1)]
    assert ref_hyper(num, den, F(1), 1) == F(-3, 2)
    assert hyper_terminating(num, den, F(1), 1) == F(-3, 2)


def test_hyper_krawtchouk_value():
    # 2F1(-1, -1; -1; 1/p) at p = 1/3
    num, den = [F(-1), F(-1)], [F(-1)]
    assert ref_hyper(num, den, F(3), 1) == -2
    assert hyper_terminating(num, den, F(3), 1) == -2


@given(n=st.integers(min_value=0, max_value=10), z=rationals)
def test_hyper_binomial_theorem(n, z):
    # 1F0(-n;; z) = (1 - z)^n
    assert hyper_terminating([F(-n)], [], z, n) == (1 - z) ** n


def assert_matches_reference(kernel, reference, *args):
    """Same value as the reference, or a pole at the same term."""
    try:
        expected = reference(*args)
    except ZeroDivisionError as pole:
        with pytest.raises(SingularParameterError) as exc:
            kernel(*args)
        assert exc.value.term == pole.args[0]
    else:
        assert kernel(*args) == expected


@given(n=st.integers(min_value=0, max_value=8), extra=params, den=params,
       z=rationals)
def test_hyper_matches_reversed_reference(n, extra, den, z):
    assert_matches_reference(hyper_terminating, ref_hyper,
                             [F(-n)] + extra, den, z, n)


def test_hyper_requires_leading_minus_n():
    with pytest.raises(ValueError):
        hyper_terminating([F(-2)], [], F(1), 3)


def test_hyper_singular_term_names_index():
    # (-1) in the denominator dies at term k = 2, and the numerator does not
    # save it: 0/0 is an error, not a limit
    with pytest.raises(SingularParameterError) as exc:
        hyper_terminating([F(-2), F(-2)], [F(-1)], F(1), 2)
    assert exc.value.term == 2


def test_hyper_pole_scan_outlives_vanished_numerator():
    # the numerator dies at term 2 (factor -1 + 1), the denominator (-2) only
    # at term 3: the pole is still found, and at its own index
    with pytest.raises(SingularParameterError) as exc:
        hyper_terminating([F(-3), F(-1)], [F(-2)], F(1), 3)
    assert exc.value.term == 3


@pytest.mark.parametrize("num, den, q, n, term", [
    # 1 - q^{j-1} b with b = q^-1 vanishes at j = 2
    ([F(8)], [F(2)], F(1, 2), 3, 2),
    # b = q^-2 vanishes at j = 3, after the numerator factor 1 - a, a = 1,
    # already killed term 1
    ([F(8), F(1)], [F(5), F(4)], F(1, 2), 3, 3),
    # the implicit (q; q)_j factor: 1 - q^2 = 0 at q = -1
    ([F(1)], [], F(-1), 2, 2),
    # ... and 1 - q = 0 at q = 1
    ([F(1)], [], F(1), 1, 1),
])
def test_q_hyper_singular_term_names_index(num, den, q, n, term):
    with pytest.raises(SingularParameterError) as exc:
        q_hyper_terminating(num, den, q, F(7), n)
    assert exc.value.term == term
    assert str(exc.value) == f"denominator parameter hits a pole at term k={term}"


def test_q_hyper_order_zero_and_unit_parameter():
    q = F(1, 2)
    assert q_hyper_terminating([F(1)], [F(3)], q, F(2), 0) == 1
    # a numerator parameter equal to 1 truncates the series at k = 0
    assert q_hyper_terminating([q ** -3, F(1)], [F(1, 5)], q, F(7), 3) == 1


def test_q_hyper_two_term_example():
    # 3phi2(q^-1, a*b*q, q^-1; a*q, q^-1; q; q) at q=1/2, a=b=3
    q, a = F(1, 2), F(3)
    num, den = [q ** -1, a * a * q, q ** -1], [a * q, q ** -1]
    assert ref_q_hyper(num, den, q, q, 1) == -6
    assert q_hyper_terminating(num, den, q, q, 1) == -6


@given(n=st.integers(min_value=0, max_value=6), extra=params, den=params,
       q=any_q, z=rationals)
def test_q_hyper_matches_reversed_reference(n, extra, den, q, z):
    assert_matches_reference(q_hyper_terminating, ref_q_hyper,
                             [q ** -n] + extra, den, q, z, n)


def test_q_hyper_requires_leading_q_minus_n():
    with pytest.raises(ValueError):
        q_hyper_terminating([F(2)], [], F(1, 2), F(1), 2)


# -- serialization -----------------------------------------------------------

@given(x=st.fractions(max_denominator=10 ** 9))
def test_scalar_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


def test_format_omits_unit_denominator():
    # a Fraction is printed as it is, an int through its Fraction
    for x, text in [(F(5), "5"), (F(3, 2), "3/2"), (F(-7, 3), "-7/3"), (F(8, 4), "2"),
                    (5, "5"), (-3, "-3")]:
        assert format_scalar(x) == text
        assert parse_scalar(text) == x


@pytest.mark.parametrize("bad", ["1.5", "x", "1/0", "2/-3", "", "1e3"])
def test_parse_rejects_non_rationals(bad):
    with pytest.raises(InvalidParameterError):
        parse_scalar(bad)


# -- powers as integer pairs ------------------------------------------------------

@given(any_q)
def test_power_pairs_match_fraction_powers(q):
    qp = power_pairs(q)
    for e in range(-6, 7):
        assert F(*qp(e)) == q ** e

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from askeycg.report import CheckResult, first_mismatch

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
scales = st.integers(min_value=-6, max_value=6).filter(bool)


@st.composite
def side(draw, value):
    """value as an int (when whole), a Fraction or a (top, bottom) pair, the
    last scaled by a common factor of either sign."""
    c = draw(scales)
    top, bottom = value.numerator * c, value.denominator * c
    forms = [value, (top, bottom)]
    if value.denominator == 1:
        forms.append(int(value))
    return draw(st.sampled_from(forms))


@st.composite
def triples(draw):
    """Sides whose values agree about half the time, in mixed forms."""
    out = []
    for i in range(draw(st.integers(min_value=0, max_value=6))):
        lhs = draw(rationals)
        rhs = lhs if draw(st.booleans()) else draw(rationals)
        out.append(({"i": i}, draw(side(lhs)), draw(side(rhs))))
    return out


def as_fraction(x):
    if isinstance(x, tuple):
        return F(*x)
    return F(x)


def reference(name, checked_range, sides):
    """The comparison of two reduced Fractions per point."""
    for where, lhs, rhs in sides:
        lhs, rhs = as_fraction(lhs), as_fraction(rhs)
        if lhs != rhs:
            return CheckResult.fail(name, checked_range, where, lhs, rhs)
    return CheckResult.ok(name, checked_range)


@given(triples())
def test_pair_comparison_matches_the_fraction_reference(sides):
    assert first_mismatch("c", "r", sides) == reference("c", "r", sides)


def test_witness_sides_print_reduced():
    got = first_mismatch("c", "r", [({"i": 0}, (-2, -4), (-2, 6))])
    assert (got.witness.lhs, got.witness.rhs) == ("1/2", "-1/3")
    got = first_mismatch("c", "r", [({"i": 0}, (2, 4), (-1, -2)), ({"i": 1}, (6, -3), 1)])
    assert got.witness.where == {"i": 1}
    assert (got.witness.lhs, got.witness.rhs) == ("-2", "1")


@pytest.mark.parametrize("zero", [(1, 0), (0, 0), (3, 0)])
def test_zero_bottom_raises_and_never_passes(zero):
    for sides in ([({}, zero, zero)], [({}, zero, F(1))], [({}, 0, zero)],
                  [({}, 1, 1), ({}, F(2), zero)]):
        with pytest.raises(ZeroDivisionError):
            first_mismatch("c", "r", sides)


def test_zero_bottom_message_is_the_fractions():
    with pytest.raises(ZeroDivisionError, match=r"^Fraction\(5, 0\)$"):
        first_mismatch("c", "r", [({}, 1, (5, 0))])
    with pytest.raises(ZeroDivisionError, match=r"^Fraction\(-2, 0\)$"):
        first_mismatch("c", "r", [({}, (-2, 0), (5, 0))])


def test_nothing_after_the_first_mismatch_is_evaluated():
    def sides():
        yield {"i": 0}, (1, 2), F(1, 3)
        raise AssertionError("evaluated past the witness")

    assert first_mismatch("c", "r", sides()).witness.where == {"i": 0}

"""Exact prime-power values: arithmetic, ordering, rendering."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from widthcalc.params import ParameterError
from widthcalc.values import INF, PowerProduct, decimal_str, inv_exponent, is_inf

PP = PowerProduct

positive = st.fractions(min_value=F(1, 24), max_value=F(60), max_denominator=24)


def test_rational_round_trip():
    v = PP.from_fraction(F(6, 35))
    assert v.is_rational and v.as_fraction() == F(6, 35)
    assert str(v) == "6/35"


def test_powers_collapse_to_rationals_when_exponents_clear():
    assert PP.from_pow(16, F(-1, 2)) == PP.from_fraction(F(1, 4))
    assert PP.from_pow(8, F(1, 3)) == PP.from_fraction(F(2))
    assert PP.from_pow(12, F(1, 2)) == PP.from_fraction(2) * PP.from_pow(3, F(1, 2))


def test_zero_element_behaviour():
    z = PP.zero()
    assert z.is_zero and z.as_fraction() == 0
    assert z * PP.from_fraction(F(7)) == z
    assert z < PP.from_fraction(F(1, 1000))
    with pytest.raises(ParameterError):
        PP.from_fraction(F(1)) / z


def test_exact_ordering_of_close_irrationals():
    root2 = PP.from_pow(2, F(1, 2))
    cbrt3 = PP.from_pow(3, F(1, 3))
    assert root2 < cbrt3
    assert not cbrt3 < root2
    assert root2 != cbrt3


@given(positive, positive)
def test_ordering_matches_fractions(a, b):
    assert (PP.from_fraction(a) < PP.from_fraction(b)) == (a < b)
    assert (PP.from_fraction(a) == PP.from_fraction(b)) == (a == b)


@given(positive, positive)
def test_multiplication_and_division_are_exact(a, b):
    pa, pb = PP.from_fraction(a), PP.from_fraction(b)
    assert (pa * pb).as_fraction() == a * b
    assert (pa / pb).as_fraction() == a / b


@given(positive, st.fractions(min_value=F(-3), max_value=F(3), max_denominator=6))
def test_power_law_exponent_addition(base, e):
    v = PP.from_fraction(base)
    assert (v**e) * (v ** (1 - e)) == v


def test_decimal_renders_twelve_significant_digits():
    assert PP.from_fraction(F(1, 2)).decimal(12) == "0.500000000000"
    assert decimal_str(F(1, 3)) == "0.333333333333"
    assert decimal_str(F(-5, 4)) == "-1.25000000000"


def test_inf_sentinel_inverts_to_zero():
    assert is_inf(INF)
    assert inv_exponent(INF) == 0
    assert inv_exponent(F(4)) == F(1, 4)

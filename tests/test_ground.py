from fractions import Fraction

import pytest

from sumprodlab import ground
from sumprodlab.errors import MixedKinds, NotInvertible, ZeroDenominator
from sumprodlab.ground import ModP


def test_parse_rational_reduces():
    assert ground.parse_element("6/4", "rational") == Fraction(3, 2)
    assert ground.parse_element(" -6/4 ", "rational") == Fraction(-3, 2)
    assert ground.parse_element("1.5", "rational") == Fraction(3, 2)
    assert ground.parse_element("0/5", "rational") == 0


def test_parse_rational_rejects_zero_denominator():
    with pytest.raises(ZeroDenominator):
        ground.parse_element("1/0", "rational")


def test_modp_arithmetic_small_table():
    a, b = ModP(3, 7), ModP(5, 7)
    assert (a + b).value == 1
    assert (a - b).value == 5
    assert (a * b).value == 1
    assert (a / b).value == (3 * pow(5, -1, 7)) % 7
    assert (-a).value == 4
    assert (a**3).value == 27 % 7
    assert (a + 11).value == (3 + 11) % 7


def test_modp_mixed_moduli_rejected():
    with pytest.raises(MixedKinds):
        ModP(1, 7) + ModP(1, 11)


def test_modp_division_by_zero():
    with pytest.raises(NotInvertible):
        ModP(3, 7) / ModP(0, 7)
    with pytest.raises(NotInvertible):
        ground.mod_inverse(ModP(0, 7))


def test_mod_inverse_matches_pow():
    for p in (5, 7, 13):
        for x in range(1, p):
            inv = ground.mod_inverse(ModP(x, p))
            assert (x * inv.value) % p == 1
            assert inv.value == pow(x, -1, p)


def test_mod_pow_negative_exponent():
    x = ModP(3, 13)
    assert ground.mod_pow(x, -1).value == pow(3, -1, 13)
    assert ground.mod_pow(x, 0).value == 1


def test_parse_format_round_trip_rational():
    for text in ("3", "-4", "7/3", "-9/2"):
        x = ground.parse_element(text, "rational")
        assert ground.parse_element(str(x), "rational") == x


def test_parse_format_round_trip_modp():
    x = ground.parse_element("5", "modp", p=11)
    assert isinstance(x, ModP) and x.value == 5 and x.p == 11
    assert ground.parse_element(str(x), "modp", p=11) == x
    with pytest.raises(MixedKinds):
        ground.parse_element("5 mod 7", "modp", p=11)

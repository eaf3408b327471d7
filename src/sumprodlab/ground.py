"""Exact arithmetic substrate: arbitrary-precision rationals and prime-field residues.

Rationals are stdlib ``fractions.Fraction`` (always stored reduced, positive
denominator, 0 == Fraction(0, 1)); ``normalize`` only adds the explicit
zero-denominator error.  Residues are a small frozen dataclass so set elements
stay hashable and cheap.  Everything downstream counts with these two types,
so all counting results are exact integers by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import MixedKinds, NotInvertible, ZeroDenominator

Rational = Fraction


def normalize(num: int, den: int = 1) -> Fraction:
    """Reduced rational num/den with positive denominator."""
    if den == 0:
        raise ZeroDenominator(f"{num}/0 is not a rational number")
    return Fraction(num, den)


@dataclass(frozen=True, slots=True, order=True)
class ModP:
    """Residue modulo a prime p.  Arithmetic never leaves the field."""

    value: int
    p: int

    def __post_init__(self) -> None:
        if self.p < 2:
            raise MixedKinds(f"modulus {self.p} is not a valid prime modulus")
        if not 0 <= self.value < self.p:
            object.__setattr__(self, "value", self.value % self.p)

    def _other(self, other: "ModP | int") -> int:
        if isinstance(other, ModP):
            if other.p != self.p:
                raise MixedKinds(f"cannot mix residues mod {self.p} and mod {other.p}")
            return other.value
        if isinstance(other, int):
            return other % self.p
        raise MixedKinds(f"cannot mix ModP with {type(other).__name__}")

    def __add__(self, other: "ModP | int") -> "ModP":
        return ModP((self.value + self._other(other)) % self.p, self.p)

    def __sub__(self, other: "ModP | int") -> "ModP":
        return ModP((self.value - self._other(other)) % self.p, self.p)

    def __mul__(self, other: "ModP | int") -> "ModP":
        return ModP((self.value * self._other(other)) % self.p, self.p)

    def __truediv__(self, other: "ModP | int") -> "ModP":
        b = self._other(other)
        if b == 0:
            raise NotInvertible(f"0 mod {self.p} has no inverse")
        return ModP((self.value * pow(b, -1, self.p)) % self.p, self.p)

    def __neg__(self) -> "ModP":
        return ModP((-self.value) % self.p, self.p)

    def __pow__(self, exponent: int) -> "ModP":
        return mod_pow(self, exponent)

    def __str__(self) -> str:
        return f"{self.value} mod {self.p}"


GroundElement = Union[Fraction, ModP]


def mod_inverse(x: ModP) -> ModP:
    """Multiplicative inverse in F_p."""
    if x.value == 0:
        raise NotInvertible(f"0 mod {x.p} has no inverse")
    return ModP(pow(x.value, -1, x.p), x.p)


def mod_pow(base: ModP, exponent: int) -> ModP:
    """base**exponent in F_p; negative exponents invert first."""
    if exponent < 0:
        return ModP(pow(mod_inverse(base).value, -exponent, base.p), base.p)
    return ModP(pow(base.value, exponent, base.p), base.p)


def is_zero(x: GroundElement) -> bool:
    if isinstance(x, ModP):
        return x.value == 0
    return x == 0


def format_element(x: GroundElement) -> str:
    """Text form: 'num/den' (or bare 'num') for rationals, 'v mod p' for residues."""
    return str(x)


def parse_element(text: str, kind: str, p: int | None = None) -> GroundElement:
    """Parse one element in the text form written by format_element."""
    text = text.strip()
    if kind == "modp":
        if p is None:
            raise MixedKinds("mod-p element requires a modulus")
        if "mod" in text:
            value_part, mod_part = text.split("mod")
            declared = int(mod_part.strip())
            if declared != p:
                raise MixedKinds(f"element declares mod {declared}, file declares mod {p}")
            return ModP(int(value_part.strip()) % p, p)
        return ModP(int(text) % p, p)
    if kind == "rational":
        if "/" in text:
            num, den = text.split("/")
            return normalize(int(num.strip()), int(den.strip()))
        return Fraction(int(text))
    raise MixedKinds(f"unknown element kind {kind!r}")

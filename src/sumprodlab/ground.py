"""Element types for input and output: rationals and prime-field residues.

Rationals are stdlib ``fractions.Fraction`` (always stored reduced, positive
denominator, 0 == Fraction(0, 1)); ``parse_element`` adds the explicit
zero-denominator error.  Residues are a small frozen dataclass with field
arithmetic.  A set stores neither type: GSet keeps integers on one scale, and
its elements are parsed from and decoded to these types only where input is
read and output is written, so every count is an integer count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import MixedKinds, NotInvertible, ZeroDenominator

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


def parse_element(text: str, kind: str, p: int | None = None) -> GroundElement:
    """Parse one element in its text form, str(x): 'num/den' (or bare 'num')
    for rationals, 'v mod p' (or bare 'v') for residues."""
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
        try:
            return Fraction(text)  # 3, -7/2 or a decimal such as 1.5
        except ZeroDivisionError:
            raise ZeroDenominator(f"{text} is not a rational number") from None
    raise MixedKinds(f"unknown element kind {kind!r}")

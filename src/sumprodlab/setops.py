"""Finite ground sets and exact pairwise set arithmetic.

A GSet stores one representation of a set of one kind (rationals, or
residues mod one modulus): its integer view, sorted distinct ints and a
scale, with every element equal to int / scale.  Residues have scale 1; a
rational set has the lcm of its reduced denominators, so equal sets compare
and hash equal whatever built them.  Scaling by a nonzero constant keeps
every additive and multiplicative coincidence, so every kernel counts on
these ints.  Fraction and ModP objects are built only where input is parsed
(GSet.from_elements, read_gset) and where output is printed (GSet.elements,
decoded on first read and kept).  Input sets exclude 0; derived sets
(differences, supports, popular levels) may hold it.

One pair kernel computes a op b on the ints for every op and kind: residues
mod m with m * m < 2^63 on int64 arrays, at most max(_BLOCK, m) pairs at a
time (residue_counts), rationals and larger moduli by an O(|A||B|) Python loop
(_pair_keys).  Either way keys are listed as they first occur, a outer and
b inner.  A CountTable keeps the integer keys and their scale; its decode and
combined_set turn keys into a GSet.  Tests pin every op to Fraction/ModP.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import floordiv
from pathlib import Path
from typing import Iterable, TYPE_CHECKING

import numpy as np

from .errors import BadSpec, IndexOutOfRange, MixedKinds, NotPrime, ZeroDenominator
from .ground import ModP, parse_element

if TYPE_CHECKING:  # pragma: no cover - annotation only, avoids an import cycle
    from .subgroups import SubgroupCtx

RATIONAL = "rational"
MODP = "modp"

_OPS = ("+", "-", "*", "/")

_BLOCK = 1 << 16  # pairs or lookups per block of the int64 kernels, so memory stays flat


@dataclass(frozen=True)
class GSet:
    """Immutable finite set of one kind, stored as its integer view.

    ints are sorted and distinct; every element is int / scale, mod p when p
    is set (then scale is 1).  The scale is brought to canonical form on
    construction: dividing by gcd(scale, *ints) leaves the lcm of the reduced
    denominators.
    """

    ints: tuple
    scale: int = 1
    p: int | None = None

    def __post_init__(self) -> None:
        if self.scale != 1:
            g = math.gcd(self.scale, *self.ints)
            if g != 1:
                object.__setattr__(self, "ints", tuple(v // g for v in self.ints))
                object.__setattr__(self, "scale", self.scale // g)

    @classmethod
    def from_elements(
        cls,
        items: Iterable,
        *,
        allow_zero: bool = False,
        kind: str | None = None,
        p: int | None = None,
    ) -> "GSet":
        """Parse elements into a GSet: check one kind and the no-zero rule,
        drop duplicates, and keep the integer view.

        Plain ints are read as rationals, or as residues when a modulus p is
        supplied; a ModP must then carry that same modulus.  allow_zero is for
        derived sets only; input sets keep the 0-excluded convention.
        """
        residues: set[int] = set()
        fracs: set[Fraction] = set()
        seen_p = p
        for x in items:
            if isinstance(x, ModP):
                if seen_p is not None and x.p != seen_p:
                    raise MixedKinds(f"residues mod {seen_p} and mod {x.p} in one set")
                seen_p = x.p
                residues.add(x.value)
            elif p is not None:
                residues.add(int(x) % p)
            elif isinstance(x, (int, Fraction)):
                fracs.add(Fraction(x))
            else:
                raise MixedKinds(f"unsupported element type {type(x).__name__}")
        if residues and fracs:
            raise MixedKinds("rational and mod-p elements in one set")
        seen_kind = MODP if residues or p is not None else RATIONAL if fracs else kind
        if seen_kind is None:
            raise BadSpec("empty set needs an explicit kind")
        if kind is not None and kind != seen_kind:
            raise MixedKinds(f"declared kind {kind!r} but elements are {seen_kind!r}")
        if seen_kind == MODP:
            if seen_p is None:
                raise BadSpec("a mod-p set needs a modulus")
            ints, scale = residues, 1
        else:
            scale = math.lcm(*(x.denominator for x in fracs))
            ints = {x.numerator * (scale // x.denominator) for x in fracs}
        if not allow_zero and 0 in ints:
            raise BadSpec("0 is excluded from input sets")
        return cls(tuple(sorted(ints)), scale, seen_p)

    @property
    def kind(self) -> str:
        return RATIONAL if self.p is None else MODP

    @cached_property
    def elements(self) -> tuple:
        """The elements as Fraction or ModP objects, for printing and for
        the element-arithmetic oracles; decoded on first read and kept."""
        if self.p is not None:
            return tuple(ModP(v, self.p) for v in self.ints)
        return tuple(Fraction(v, self.scale) for v in self.ints)

    @property
    def size(self) -> int:
        return len(self.ints)

    def values(self) -> tuple:
        """Raw values: ints (residues) for mod-p sets, Fractions for rational."""
        return self.ints if self.p is not None else self.elements

    def int_view(self) -> tuple[tuple[int, ...], int]:
        """(ints, scale) with every element equal to int / scale."""
        return self.ints, self.scale

    def label(self) -> str:
        if self.kind == MODP:
            return f"modp(p={self.p},n={self.size})"
        return f"rational(n={self.size})"


def gset_rational(values: Iterable, *, allow_zero: bool = False) -> GSet:
    return GSet.from_elements((Fraction(v) for v in values), allow_zero=allow_zero, kind=RATIONAL)


def gset_modp(values: Iterable[int], p: int, *, allow_zero: bool = False) -> GSet:
    return GSet.from_elements(values, allow_zero=allow_zero, p=p)


@dataclass
class CountTable:
    """Multiplicity table r_{A op B}: key -> number of ordered pairs.

    Keys live on the integer view: a residue mod p, k for the value k / scale,
    or a reduced (numerator, denominator) pair when scale is None.
    """

    entries: dict
    total: int
    p: int | None = None
    scale: int | None = 1  # keys times scale are integers; None for rational quotients

    def __post_init__(self) -> None:
        s = sum(self.entries.values())
        if s != self.total:
            raise BadSpec(f"count table sums to {s}, expected {self.total}")

    def support_size(self) -> int:
        return len(self.entries)

    def max_count(self) -> int:
        return max(self.entries.values()) if self.entries else 0

    def decode(self, keys) -> GSet:
        """The set that the given keys (a set or dict of them) stand for."""
        return _keyed_set(keys, self.scale, self.p)

    def support_set(self) -> GSet:
        return self.decode(self.entries)


def _keyed_set(keys, scale: int | None, p: int | None) -> GSet:
    """The GSet of pair-kernel keys built at ``scale``; reduced (numerator,
    denominator) keys (scale None) are brought to the lcm of their denominators."""
    if scale is None:
        keys = list(keys)
        scale = math.lcm(*(den for _, den in keys))
        keys = [num * (scale // den) for num, den in keys]
    return GSet(tuple(sorted(keys)), scale, p)


def _pair_keys(A: GSet, B: GSet, op: str, into) -> int | None:
    """Feed the key of a op b, for every ordered pair in (a, b) order, into
    ``into`` (a Counter or a set); return the scale of those keys.

    The keys are computed on the integer views, brought to one scale s: sums
    and differences are keyed at scale s and products at s^2, a rational
    quotient by its reduced (numerator, denominator) pair (scale None), and
    a residue past the int64 tier mod p.  Callers run residue_counts first.
    """
    (av, sa), (bv, sb) = A.int_view(), B.int_view()
    p = A.p
    s = math.lcm(sa, sb)
    av = [a * (s // sa) for a in av]
    bv = [b * (s // sb) for b in bv]
    # a - b = a + (-b), and mod p a / b = a * b^-1.  The rows are list
    # comprehensions, which run faster here than chains of map calls.
    if op == "-":
        bv = [-b for b in bv]
    elif op == "/" and p is not None:
        bv = [pow(b, -1, p) for b in bv]
    additive = op in "+-"
    if op == "/" and p is None:
        signs = [1 if b > 0 else -1 for b in bv]
        mags = list(map(abs, bv))

        def row(a):
            nums = [a * sign for sign in signs]
            g = list(map(math.gcd, nums, mags))
            return zip(map(floordiv, nums, g), map(floordiv, mags, g))

        scale = None
    else:
        def row(a):
            return [a + b for b in bv] if additive else [a * b for b in bv]

        scale = s if additive else s * s
    for a in av:
        into.update(row(a) if p is None else [k % p for k in row(a)])
    return scale


def residue_counts(A: GSet, B: GSet, op: str) -> tuple[np.ndarray, np.ndarray] | None:
    """(keys, counts) of r_{A op B} mod m as int64 arrays, keys in first-occurrence
    order; None for rationals and m * m >= 2^63 (see _pair_keys).  One np.unique
    when |A||B| < m, else a bincount per block of at most max(_BLOCK, m) pairs into
    one length-m count, with each key's first pair index kept to order the keys."""
    if op not in _OPS:
        raise BadSpec(f"op must be one of {_OPS}, got {op!r}")
    if A.p != B.p:
        raise MixedKinds(f"cannot combine {A.kind} (p={A.p}) with {B.kind} (p={B.p})")
    if op == "/" and 0 in B.ints:
        raise ZeroDenominator("division by a set containing 0")
    m = A.p
    if m is None or m * m >= 1 << 63:
        return None
    a, b = np.array(A.ints, dtype=np.int64), np.array(B.ints, dtype=np.int64)
    if op in "-/":  # a - b = a + (-b) and a / b = a * b^-1
        b = -b if op == "-" else np.array([pow(v, -1, m) for v in B.ints], dtype=np.int64)

    def block(rows):  # a op b for a in rows, row-major
        keys = (rows[:, None] + b if op in "+-" else rows[:, None] * b).ravel()
        return np.remainder(keys, m, out=keys)

    if a.size * b.size < m:
        keys, first, counts = np.unique(block(a), return_index=True, return_counts=True)
        order = np.argsort(first)
        return keys[order], counts[order]
    counts, first = np.zeros(m, dtype=np.int64), np.full(m, a.size * b.size)
    step = max(1, max(_BLOCK, m) // b.size)  # each block's O(m) bincount then costs O(1) a pair
    for lo in range(0, a.size, step):
        keys = block(a[lo:lo + step])
        new = np.flatnonzero(counts[keys] == 0)  # keys no earlier block met
        np.minimum.at(first, keys[new], new + lo * b.size)
        counts += np.bincount(keys, minlength=m)
    keys = np.flatnonzero(counts)
    keys = keys[np.argsort(first[keys])]
    return keys, counts[keys]


def difference_lookup(items, p: int | None) -> dict:
    """The dict (from a mapping or (key, value) pairs) to look a - b up in, for
    a, b on one integer view: mod p each residue key also appears minus p,
    since a - b then lies in (-p, p) and needs no reduction."""
    out = dict(items)
    if p is not None:
        out.update([(k - p, v) for k, v in out.items()])
    return out


def int_counts(A: GSet, B: GSet, op: str) -> tuple[dict, int | None]:
    """r_{A op B} on the integer scale: (dict of key counts, their scale), keys
    in first-occurrence order; residues mod m with m * m < 2^63 on int64 blocks
    of at most max(_BLOCK, m) pairs, rationals and larger moduli on the Python loop."""
    residues = residue_counts(A, B, op)
    if residues is not None:
        residues = [v.tolist() for v in residues]  # frees the arrays before the dict grows
        return dict(zip(*residues)), 1
    counts: Counter = Counter()
    return counts, _pair_keys(A, B, op, counts)


def combine(A: GSet, B: GSet, op: str) -> CountTable:
    """Full multiplicity table of {a op b : a in A, b in B}, ordered pairs.

    Keyed on the integer view (see CountTable); total is always |A||B|, and
    support_set() is the set A op B.  Division requires 0 not in B.
    """
    counts, scale = int_counts(A, B, op)
    return CountTable(counts, A.size * B.size, A.p, scale)


def support_size(A: GSet, B: GSet, op: str) -> int:
    """|A op B| without keeping the multiplicity table."""
    return combined_set(A, B, op).size


def combined_set(A: GSet, B: GSet, op: str) -> GSet:
    """The set A op B itself (support of the combine table)."""
    residues = residue_counts(A, B, op)
    if residues is not None:
        return GSet(tuple(np.sort(residues[0]).tolist()), 1, A.p)
    keys: set = set()
    return _keyed_set(keys, _pair_keys(A, B, op, keys), A.p)


def invariant_union(ctx: "SubgroupCtx", coset_indices: Iterable[int]) -> GSet:
    """Union of the cosets g^j * Gamma for the given j; Gamma-invariant by design."""
    indices = list(coset_indices)
    for j in indices:
        if not 0 <= j < ctx.cosets:
            raise IndexOutOfRange(f"coset index {j} outside 0..{ctx.cosets - 1}")
    p = ctx.p
    values: set[int] = set()
    for j in sorted(set(indices)):
        shift = pow(ctx.g, j, p)
        values.update((shift * x) % p for x in ctx.gamma)
    return GSet(tuple(sorted(values)), 1, p)


def write_gset(A: GSet, path: str | Path) -> None:
    """Write a set file: a kind header, then one element per line."""
    header = "kind: rational" if A.p is None else f"kind: modp p={A.p}"
    Path(path).write_text("\n".join([header, *map(str, A.values())]) + "\n")


def read_gset(path: str | Path) -> GSet:
    """Read a set file written by write_gset.  '#' starts a comment.

    A malformed header or element raises BadSpec, and a modulus that is not
    prime raises NotPrime.  Rational elements take any form Fraction reads:
    3, -7/2, 1.5.
    """
    lines = [s for s in (line.split("#", 1)[0].strip()
                         for line in Path(path).read_text().splitlines()) if s]
    if not lines:
        raise BadSpec(f"{path}: empty set file")
    header = lines[0]
    if not header.startswith("kind:"):
        raise BadSpec(f"{path}: first line must declare 'kind: rational' or 'kind: modp p=<prime>'")
    decl = header[len("kind:"):].strip()
    p = None
    if decl.startswith(MODP):
        from .subgroups import is_prime  # subgroups imports this module

        part = decl[len(MODP):].strip()
        if not part.startswith("p=") or not part[2:].strip().isdigit():
            raise BadSpec(f"{path}: modp header must carry p=<prime>")
        p = int(part[2:])
        if not is_prime(p):
            raise NotPrime(f"{path}: modulus {p} is not prime")
    elif decl != RATIONAL:
        raise BadSpec(f"{path}: unknown kind {decl!r}")
    kind = RATIONAL if p is None else MODP
    try:
        elems = [parse_element(s, kind, p) for s in lines[1:]]
    except (ValueError, MixedKinds, ZeroDenominator) as exc:
        raise BadSpec(f"{path}: bad element: {exc}") from exc
    return GSet.from_elements(elems, kind=kind, p=p)

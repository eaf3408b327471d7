"""Finite ground sets and exact pairwise set arithmetic.

A GSet is a sorted, duplicate-free tuple of ground elements of one kind
(all rationals, or all residues mod one prime).  Input sets exclude 0; sets
derived from differences (supports, popular-difference sets) may contain 0
and are built with allow_zero=True.  All combine/count operations are plain
O(|A||B|) pairwise enumeration -- exactness over speed, no FFT.

Counting works on one integer view of each set, (ints, scale) with every
element equal to int / scale: residues with scale 1 mod p, and for a rational
set the lcm of its denominators.  One pair kernel computes a op b on those
ints for every op and kind.  A CountTable keeps the kernel's integer keys and
the scale they were built with; only CountTable.decode and combined_set turn
keys back into Fraction or ModP elements.  The test suite compares every op
against a Fraction/ModP brute-force route.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter, floordiv
from pathlib import Path
from typing import Iterable, TYPE_CHECKING

from .errors import (
    BadSpec,
    IndexOutOfRange,
    MixedKinds,
    ZeroDenominator,
)
from .ground import GroundElement, ModP, format_element, is_zero, parse_element

if TYPE_CHECKING:  # pragma: no cover - annotation only, avoids an import cycle
    from .subgroups import SubgroupCtx

RATIONAL = "rational"
MODP = "modp"

_OPS = ("+", "-", "*", "/")


@dataclass(frozen=True)
class GSet:
    """Immutable finite set of ground elements of a single kind."""

    elements: tuple
    kind: str
    p: int | None = None

    @classmethod
    def from_elements(
        cls,
        items: Iterable,
        *,
        allow_zero: bool = False,
        kind: str | None = None,
        p: int | None = None,
    ) -> "GSet":
        """Build a GSet: dedupe, sort, validate homogeneity and the no-zero rule.

        Plain ints are coerced to Fraction (rational kind) or ModP when a
        modulus is supplied.  allow_zero is for derived sets only; input sets
        keep the 0-excluded convention.
        """
        raw = list(items)
        if p is not None:
            kind = MODP
            raw = [x if isinstance(x, ModP) else ModP(int(x) % p, p) for x in raw]
        coerced = []
        seen_kind = None
        seen_p = None
        for x in raw:
            if isinstance(x, ModP):
                k = MODP
                if seen_p is not None and x.p != seen_p:
                    raise MixedKinds(f"residues mod {seen_p} and mod {x.p} in one set")
                seen_p = x.p
            elif isinstance(x, (int, Fraction)):
                k = RATIONAL
                x = Fraction(x)
            else:
                raise MixedKinds(f"unsupported element type {type(x).__name__}")
            if seen_kind is not None and k != seen_kind:
                raise MixedKinds("rational and mod-p elements in one set")
            seen_kind = k
            coerced.append(x)
        if seen_kind is None:
            if kind is None:
                raise BadSpec("empty set needs an explicit kind")
            seen_kind = kind
            seen_p = p
        if kind is not None and kind != seen_kind:
            raise MixedKinds(f"declared kind {kind!r} but elements are {seen_kind!r}")
        # one modulus per set, so residue order is the ModP order, without
        # a dataclass __lt__ call per comparison
        dedup = sorted(set(coerced), key=attrgetter("value") if seen_kind == MODP else None)
        if not allow_zero and any(map(is_zero, dedup)):
            raise BadSpec("0 is excluded from input sets")
        return cls(tuple(dedup), seen_kind, seen_p)

    @property
    def size(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self.member_set()

    def member_set(self) -> frozenset:
        cached = self.__dict__.get("_members")
        if cached is None:
            cached = frozenset(self.elements)
            self.__dict__["_members"] = cached
        return cached

    def values(self) -> tuple:
        """Raw values: ints (residues) for mod-p sets, Fractions for rational."""
        return self.int_view()[0] if self.kind == MODP else self.elements

    def int_view(self) -> tuple[tuple[int, ...], int]:
        """(ints, scale) with every element equal to int / scale.

        A mod-p set gives its residues and scale 1; a rational set scales by
        the lcm of its denominators.  Scaling by a nonzero constant keeps
        every additive coincidence, so counting kernels work on these ints.
        """
        cached = self.__dict__.get("_ints")
        if cached is None:
            if self.kind == MODP:
                cached = tuple(x.value for x in self.elements), 1
            else:
                scale = math.lcm(*(x.denominator for x in self.elements))
                cached = tuple(x.numerator * (scale // x.denominator) for x in self.elements), scale
            self.__dict__["_ints"] = cached
        return cached

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
    kind: str = RATIONAL
    p: int | None = None
    scale: int | None = 1  # keys times scale are integers; None for rational quotients
    _decoded: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        s = sum(self.entries.values())
        if s != self.total:
            raise BadSpec(f"count table sums to {s}, expected {self.total}")

    def support_size(self) -> int:
        return len(self.entries)

    def max_count(self) -> int:
        return max(self.entries.values()) if self.entries else 0

    def decode(self, keys) -> GSet:
        """The elements that the given keys (a set or dict of them) stand for.
        Each key of the table is decoded once, on the first call."""
        if self._decoded is None:
            # integer keys sort like their elements; (num, den) pairs do not
            order = sorted(self.entries, key=None if self.scale is not None else lambda k: Fraction(*k))
            self._decoded = order, tuple(map(_element(self.p, self.scale), order))
        return GSet(tuple(x for k, x in zip(*self._decoded) if k in keys), self.kind, self.p)

    def support_set(self) -> GSet:
        return self.decode(self.entries)


def _element(p: int | None, scale: int | None):
    """Decoder from a key to its element: k mod p, k / scale, or, for
    scale None, a reduced (numerator, denominator) pair."""
    if p is not None:
        return lambda k: ModP(k, p)
    if scale is None:
        return lambda k: Fraction(*k)
    return Fraction if scale == 1 else lambda k: Fraction(k, scale)


def _pair_keys(A: GSet, B: GSet, op: str, into) -> int | None:
    """Feed the key of a op b, for every ordered pair in (a, b) order, into
    ``into`` (a Counter or a set); return the scale of those keys.

    The keys are computed on the integer views, brought to one scale s when
    A and B are rational.  Mod p they are residues (scale 1); over the
    rationals sums and differences are keyed at scale s and products at s^2,
    while a quotient is keyed by its reduced (numerator, denominator) pair,
    which has no common scale (None).
    """
    if op not in _OPS:
        raise BadSpec(f"op must be one of {_OPS}, got {op!r}")
    if A.kind != B.kind or A.p != B.p:
        raise MixedKinds(f"cannot combine {A.kind} (p={A.p}) with {B.kind} (p={B.p})")
    if op == "/" and any(map(is_zero, B.elements)):
        raise ZeroDenominator("division by a set containing 0")
    (av, sa), (bv, sb) = A.int_view(), B.int_view()
    p = A.p
    if p is None:
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
    if p is not None:
        def row(a):
            return [(a + b) % p for b in bv] if additive else [a * b % p for b in bv]

        scale = 1
    elif op == "/":
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
        into.update(row(a))
    return scale


def difference_lookup(items, p: int | None) -> dict:
    """The dict (from a mapping or (key, value) pairs) to look a - b up in, for
    a, b on one integer view: mod p each residue key also appears minus p,
    since a - b then lies in (-p, p) and needs no reduction."""
    out = dict(items)
    if p is not None:
        out.update([(k - p, v) for k, v in out.items()])
    return out


def int_counts(A: GSet, B: GSet, op: str) -> tuple[Counter, int | None]:
    """r_{A op B} on the integer scale: (Counter of keys, their scale)."""
    counts: Counter = Counter()
    return counts, _pair_keys(A, B, op, counts)


def combine(A: GSet, B: GSet, op: str) -> CountTable:
    """Full multiplicity table of {a op b : a in A, b in B}, ordered pairs.

    Keyed on the integer view (see CountTable); total is always |A||B|, and
    support_set() is the set A op B.  Division requires 0 not in B.
    """
    counts, scale = int_counts(A, B, op)
    return CountTable(counts, A.size * B.size, A.kind, A.p, scale)


def support_size(A: GSet, B: GSet, op: str) -> int:
    """|A op B| without keeping the multiplicity table."""
    keys: set = set()
    _pair_keys(A, B, op, keys)
    return len(keys)


def combined_set(A: GSet, B: GSet, op: str, *, allow_zero: bool = True) -> GSet:
    """The set A op B itself (support of the combine table)."""
    keys: set = set()
    element = _element(A.p, _pair_keys(A, B, op, keys))
    return GSet.from_elements(map(element, keys), allow_zero=allow_zero, kind=A.kind, p=A.p)


def iterated_sum_counts(A: GSet, k: int) -> CountTable:
    """Multiplicity table of the k-fold sumset kA, ordered k-tuples, on the integer view."""
    if k < 1:
        raise BadSpec(f"k must be >= 1, got {k}")
    vals, scale = A.int_view()
    p = A.p
    cur = dict.fromkeys(vals, 1)
    for _ in range(k - 1):
        nxt: dict = {}
        for s, c in cur.items():
            for v in vals:
                key = s + v if p is None else (s + v) % p
                nxt[key] = nxt.get(key, 0) + c
        cur = nxt
    return CountTable(cur, A.size**k, A.kind, p, scale)


def translate_intersect(A: GSet, d: GroundElement) -> GSet:
    """A intersect (A + d); its size equals r_{A-A}(d)."""
    if isinstance(d, ModP) != (A.kind == MODP) or getattr(d, "p", A.p) != A.p:
        raise MixedKinds("translation by an element of a different kind")
    members = A.member_set()
    return GSet(tuple(x for x in A.elements if x - d in members), A.kind, A.p)


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
    return GSet.from_elements(values, p=p)


def write_gset(A: GSet, path: str | Path) -> None:
    """Write a set file: a kind header, then one element per line."""
    lines = []
    if A.kind == MODP:
        lines.append(f"kind: modp p={A.p}")
        lines.extend(str(x.value) for x in A.elements)
    else:
        lines.append("kind: rational")
        lines.extend(format_element(x) for x in A.elements)
    Path(path).write_text("\n".join(lines) + "\n")


def read_gset(path: str | Path) -> GSet:
    """Read a set file written by write_gset.  '#' starts a comment."""
    raw = Path(path).read_text().splitlines()
    lines = []
    for line in raw:
        line = line.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise BadSpec(f"{path}: empty set file")
    header = lines[0]
    if not header.startswith("kind:"):
        raise BadSpec(f"{path}: first line must declare 'kind: rational' or 'kind: modp p=<prime>'")
    decl = header[len("kind:"):].strip()
    if decl == RATIONAL:
        elems = [parse_element(s, RATIONAL) for s in lines[1:]]
        return GSet.from_elements(elems, kind=RATIONAL)
    if decl.startswith(MODP):
        part = decl[len(MODP):].strip()
        if not part.startswith("p="):
            raise BadSpec(f"{path}: modp header must carry p=<prime>")
        p = int(part[2:])
        elems = [parse_element(s, MODP, p) for s in lines[1:]]
        return GSet.from_elements(elems, p=p)
    raise BadSpec(f"{path}: unknown kind {decl!r}")

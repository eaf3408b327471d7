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

One pair kernel, combine, computes a op b on the ints for every op and kind:
on int64 arrays in blocks (int64_counts) for residues mod m with m * m < 2^63
and for rational sums, differences and products whose keys fit, and by an
O(|A||B|) Python loop (_pair_keys) for rational quotients, larger keys and
moduli.  Either way a CountTable holds the result as two arrays sorted by key,
keys and counts, with the keys' scale: every reader is a numpy reduction, mask
or searchsorted over them, and decode turns a slice of the keys into a GSet
without sorting.  support_size and combined_set read |A op B| and A op B off
combine's table.  Tests pin every op to Fraction/ModP.  Every value derived
from one set lives in one dict on it, store(A), until release(A); keep is
the only code that writes it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from operator import floordiv
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import BadSpec, MixedKinds, NotPrime, ZeroDenominator
from .ground import ModP, parse_element

RATIONAL = "rational"
MODP = "modp"

_OPS = ("+", "-", "*", "/")

_BLOCK = 1 << 16  # pairs or lookups per block of the int64 kernels, so memory stays flat


def _dense_residues(p: int | None, lookups: int) -> bool:
    """Whether a length-p table by residue pays for this many lookups mod p."""
    return p is not None and p <= max(_BLOCK, lookups)


def _inverses(ints, p: int) -> np.ndarray:
    """b^-1 mod p for each b; int64 while products of residues fit, else Python ints."""
    return np.array([pow(b, -1, p) for b in ints], dtype=np.int64 if p * p < 1 << 63 else object)


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


def store(A: GSet) -> dict:
    """The values derived from A, kept on A and filled only by keep: the results
    of the kept functions (pair tables, shift rows, dyadic level, a subgroup's
    character sums) and SetStats' memo.  run_suite releases an input's store
    once its checks are done; outside run_suite the store lives as long as A."""
    return A.__dict__.setdefault("_store", {})


def release(A: GSet) -> None:
    A.__dict__.pop("_store", None)


def keep(A: GSet, key, build):
    """store(A)[key], from build() on the first call; the store's one writer."""
    values = store(A)
    if key not in values:
        values[key] = build()
    return values[key]


def kept(fn):
    """fn(A, *args), built on the first call and kept in store(A) under (fn.__name__, *args)."""
    @wraps(fn)
    def keeper(A: GSet, *args):
        return keep(A, (fn.__name__, *args), lambda: fn(A, *args))
    return keeper


def gset_rational(values: Iterable, *, allow_zero: bool = False) -> GSet:
    return GSet.from_elements((Fraction(v) for v in values), allow_zero=allow_zero, kind=RATIONAL)


def gset_modp(values: Iterable[int], p: int, *, allow_zero: bool = False) -> GSet:
    return GSet.from_elements(values, allow_zero=allow_zero, p=p)


@dataclass(eq=False)
class CountTable:
    """Multiplicity table r_{A op B}: every key with the number of ordered pairs
    giving it, as two arrays sorted by key.

    Keys live on the integer view: a residue mod p, k for the value k / scale,
    or a reduced (numerator, denominator) pair when scale is None.  keys is
    int64 while every key fits and an object array past that (of Python ints,
    or of the pairs); counts is int64.
    """

    keys: np.ndarray
    counts: np.ndarray
    total: int
    p: int | None = None
    scale: int | None = 1  # keys times scale are integers; None for rational quotients

    def __post_init__(self) -> None:
        s = int(self.counts.sum())
        if s != self.total:
            raise BadSpec(f"count table sums to {s}, expected {self.total}")

    @cached_property
    def profile(self) -> tuple[list, list]:
        """(the distinct counts ascending, how many keys have each), from one
        bincount, as no count exceeds min(|A|, |B|)."""
        keys_with = np.bincount(self.counts)
        return np.flatnonzero(keys_with).tolist(), keys_with[keys_with > 0].tolist()

    def moment(self, k: int) -> int:
        """The sum over keys of count^k, exact."""
        return sum(m * v**k for v, m in zip(*self.profile))

    def support_size(self) -> int:
        return self.keys.size

    def max_count(self) -> int:
        return self.profile[0][-1] if self.keys.size else 0

    def index(self, keys: np.ndarray) -> np.ndarray:
        """Each given key's position in self.keys, -1 where it is absent."""
        at, found = _find(self.keys, keys)
        return np.where(found, at, -1)

    def decode(self, keys: np.ndarray) -> GSet:
        """The set the given keys stand for; a mask of self.keys needs no sort."""
        if self.scale is None:  # reduced (num, den) pairs, brought to the lcm of the dens
            pairs = keys.tolist()
            scale = math.lcm(*(den for _, den in pairs))
            return GSet(tuple(sorted(num * (scale // den) for num, den in pairs)), scale, self.p)
        return GSet(tuple(keys.tolist()), self.scale, self.p)

    def support_set(self) -> GSet:
        return self.decode(self.keys)


def _find(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position in the sorted, nonempty keys, whether it is there) of each value."""
    at = np.minimum(np.searchsorted(keys, values), keys.size - 1)
    return at, keys[at] == values


def _int_array(values: list) -> np.ndarray:
    """Python ints as int64 while they all fit, else as an object array."""
    fits = not values or -1 << 63 < min(values) and max(values) < 1 << 63
    return np.array(values, dtype=np.int64 if fits else object)


def _difference_matrix(A: GSet) -> np.ndarray:
    """D[i, j] = a_i - a_j on A's integer view (mod p): the keys of r_{A-A} in
    the pair kernel's row-major order, int64 while they fit, else Python ints.
    Differences are shift-invariant, so a rational set is moved to start at 0."""
    ints, p = A.ints, A.p
    if p is None and ints:
        ints = [v - ints[0] for v in ints]
    col = np.array(ints, dtype=np.int64 if (p or max(ints, default=0)) < 1 << 63 else object)
    diffs = col[:, None] - col
    return diffs if p is None else diffs % p


def _pair_keys(A: GSet, B: GSet, op: str, into: Counter) -> int | None:
    """Count the key of a op b, for every ordered pair in (a, b) order, into
    the Counter ``into``; return the scale of those keys.

    The keys are computed on the integer views, brought to one scale s: sums
    and differences are keyed at scale s and products at s^2, a rational
    quotient by its reduced (numerator, denominator) pair (scale None), and
    a residue past the int64 tier mod p.  Callers run int64_counts first.
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


def int64_counts(A: GSet, B: GSet, op: str) -> tuple[np.ndarray, np.ndarray, int] | None:
    """(keys, counts, scale) of r_{A op B} as int64 arrays sorted by key: residues
    mod m with m * m < 2^63, and rational sums, differences and products while
    every key fits in int64; None for the rest (see _pair_keys).

    Mod m, once |A||B| >= m, each block of max(_BLOCK, m) pairs adds one bincount
    into a length-m count.  Otherwise each block of max(_BLOCK, |keys so far|)
    pairs is counted by np.unique and merged into the running table by
    searchsorted, so memory follows the table, not |A||B|."""
    if op not in _OPS:
        raise BadSpec(f"op must be one of {_OPS}, got {op!r}")
    if A.p != B.p:
        raise MixedKinds(f"cannot combine {A.kind} (p={A.p}) with {B.kind} (p={B.p})")
    if op == "/" and 0 in B.ints:
        raise ZeroDenominator("division by a set containing 0")
    m, additive = A.p, op in "+-"
    if m is None:  # on a common scale s; sums and differences keyed at s, products at s^2
        if op == "/" or not (A.ints and B.ints):
            return None
        s = math.lcm(A.scale, B.scale)
        av, bv = [v * (s // A.scale) for v in A.ints], [v * (s // B.scale) for v in B.ints]
        top_a, top_b = max(-av[0], av[-1]), max(-bv[0], bv[-1])
        if (top_a + top_b if additive else top_a * top_b) >= 1 << 63:
            return None
        scale = s if additive else s * s
    elif m * m >= 1 << 63:
        return None
    else:  # a / b = a * b^-1
        av, bv, scale = A.ints, _inverses(B.ints, m) if op == "/" else B.ints, 1
    a, b = np.array(av, dtype=np.int64), np.array(bv, dtype=np.int64)
    if op == "-":  # a - b = a + (-b)
        b = -b
    dense = m is not None and a.size * b.size >= m
    keys, counts = np.zeros(0, dtype=np.int64), np.zeros(m if dense else 0, dtype=np.int64)
    lo = 0
    while lo < a.size:
        rows = a[lo:lo + max(1, max(_BLOCK, m if dense else keys.size) // b.size), None]
        lo += rows.size
        k = (rows + b if additive else rows * b).ravel()
        if m is not None:
            np.remainder(k, m, out=k)
        if dense:
            counts += np.bincount(k, minlength=m)
            continue
        k, c = np.unique(k, return_counts=True)
        if keys.size:  # merge into the running table
            at = np.searchsorted(keys, k)
            old = at < keys.size
            old[old] = keys[at[old]] == k[old]
            counts[at[old]] += c[old]
            k, c = np.insert(keys, at[~old], k[~old]), np.insert(counts, at[~old], c[~old])
        keys, counts = k, c
    if dense:
        keys = np.flatnonzero(counts)
        return keys, counts[keys], scale
    return keys, counts, scale


def combine(A: GSet, B: GSet, op: str) -> CountTable:
    """Full multiplicity table of {a op b : a in A, b in B}, ordered pairs.

    Keyed on the integer view (see CountTable): from int64_counts where it
    applies, else from the Python loop.  total is always |A||B|, and
    support_set() is the set A op B.  Division requires 0 not in B.
    """
    total = A.size * B.size
    fast = int64_counts(A, B, op)
    if fast is not None:
        return CountTable(*fast[:2], total, A.p, fast[2])
    found: Counter = Counter()
    scale = _pair_keys(A, B, op, found)
    keys = sorted(found)
    counts = np.fromiter(map(found.__getitem__, keys), np.int64, len(keys))
    keys = _int_array(keys) if scale is not None else np.fromiter(keys, object, len(keys))
    return CountTable(keys, counts, total, A.p, scale)


def support_size(A: GSet, B: GSet, op: str) -> int:
    """|A op B|, read off combine's table."""
    return combine(A, B, op).support_size()


def combined_set(A: GSet, B: GSet, op: str) -> GSet:
    """The set A op B itself, the support of combine's table."""
    return combine(A, B, op).support_set()


def write_gset(A: GSet, path: str | Path) -> None:
    """Write a set file: a kind header, then one element per line."""
    header = "kind: rational" if A.p is None else f"kind: modp p={A.p}"
    Path(path).write_text("\n".join([header, *map(str, A.values())]) + "\n")


def read_gset(path: str | Path) -> GSet:
    """Read a set file written by write_gset.  '#' starts a comment.

    A malformed header or element, or no element at all, raises BadSpec, and
    a modulus that is not prime raises NotPrime.  Rational elements take any
    form Fraction reads: 3, -7/2, 1.5.
    """
    lines = [s for s in (line.split("#", 1)[0].strip()
                         for line in Path(path).read_text().splitlines()) if s]
    if len(lines) < 2:
        raise BadSpec(f"{path}: a set file needs a kind header and at least one element")
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

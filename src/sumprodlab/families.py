"""Deterministic test-set families and the small spec-string DSL.

Specs look like ``geo(q=2,n=16)``, ``ap(n=32)``, ``rand(n=20,seed=7,max=10^6)``,
``subgroup(p=1009,t=28)`` and ``union(geo(q=2,n=8),ap(n=8,start=100))``.
Numbers may be integers, ratios like ``3/2``, or powers like ``10^6``.

Randomness is a fixed 64-bit linear congruential generator (the Knuth MMIX
constants), rejection-sampled into the requested range and re-drawn on
duplicates, so ``rand(...)`` is reproducible across platforms and Python
versions.  No stdlib ``random`` is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadSpec
from .setops import GSet, gset_rational

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class Lcg:
    """64-bit LCG: state = (state * 6364136223846793005 + 1442695040888963407) mod 2^64."""

    def __init__(self, seed: int):
        self.state = seed & _LCG_MASK

    def next_u64(self) -> int:
        self.state = (self.state * _LCG_MULT + _LCG_INC) & _LCG_MASK
        return self.state

    def block(self, k: int) -> np.ndarray:
        """The next k states as a uint64 array, as k next_u64 calls give them."""
        out = np.empty(k + 1, dtype=np.uint64)
        out[0], mult, inc, m = self.state, _LCG_MULT, _LCG_INC, 1
        while m <= k:  # jump ahead: the m-step map x -> mult * x + inc takes out[:m] to the next m
            step = min(m, k + 1 - m)
            out[m:m + step] = out[:step] * np.uint64(mult) + np.uint64(inc)
            mult, inc, m = mult * mult & _LCG_MASK, inc * (mult + 1) & _LCG_MASK, m + step
        self.state = int(out[-1])
        return out[1:]

    def next_range(self, lo: int, hi: int) -> int:
        """Uniform draw from [lo, hi] by rejection (no modulo bias)."""
        span = hi - lo + 1
        if span <= 0:
            raise BadSpec(f"empty range [{lo}, {hi}]")
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            x = self.next_u64()
            if x < limit:
                return lo + (x % span)


@dataclass(frozen=True)
class FamilySpec:
    """Parsed family description; label() reproduces a canonical spec string."""

    kind: str  # geometric | arithmetic | random | subgroup | union
    params: tuple = ()  # sorted (name, value) pairs
    parts: tuple = ()  # for unions: member FamilySpecs

    def get(self, name, default=None):
        return dict(self.params).get(name, default)

    def label(self) -> str:
        if self.kind == "union":
            return "union(" + ",".join(part.label() for part in self.parts) + ")"
        short = {"geometric": "geo", "arithmetic": "ap", "random": "rand", "subgroup": "subgroup"}
        inner = ",".join(f"{k}={_fmt_value(v)}" for k, v in self.params)
        return f"{short[self.kind]}({inner})"


def _fmt_value(v) -> str:
    if isinstance(v, Fraction) and v.denominator != 1:
        return f"{v.numerator}/{v.denominator}"
    return str(int(v)) if isinstance(v, Fraction) else str(v)


def _parse_value(text: str):
    text = text.strip()
    try:
        if "^" in text:
            base, exp = text.split("^")
            value = Fraction(int(base)) ** int(exp)  # exact for a negative exponent too
            return int(value) if value.denominator == 1 else value
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return int(text)
    except (ValueError, ZeroDivisionError):
        raise BadSpec(f"cannot read {text!r} as an integer, a/b or a^b") from None


def _split_top_level(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return [s for s in (s.strip() for s in parts) if s]


_KIND_NAMES = {"geo": "geometric", "ap": "arithmetic", "rand": "random", "subgroup": "subgroup"}


def parse_family(text: str) -> FamilySpec:
    """Parse a family spec string; raises BadSpec on anything malformed."""
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise BadSpec(f"malformed family spec {text!r}")
    name, _, rest = text.partition("(")
    body = rest[:-1]
    name = name.strip()
    if name == "union":
        parts = tuple(parse_family(s) for s in _split_top_level(body))
        if len(parts) < 2:
            raise BadSpec("union needs at least two member families")
        kinds = {generate_kind(p) for p in parts}
        if len(kinds) != 1:
            raise BadSpec("union members must share one element kind")
        return FamilySpec("union", (), parts)
    if name not in _KIND_NAMES:
        raise BadSpec(f"unknown family {name!r}")
    params = {}
    for item in _split_top_level(body):
        if "=" not in item:
            raise BadSpec(f"expected name=value, got {item!r}")
        key, _, val = item.partition("=")
        if key.strip() in params:
            raise BadSpec(f"parameter {key.strip()!r} given twice in {text!r}")
        params[key.strip()] = _parse_value(val)
    return _make_spec(_KIND_NAMES[name], params)


def _make_spec(kind: str, params: dict) -> FamilySpec:
    defaults = {
        "geometric": {"q": Fraction(2), "n": None, "start": Fraction(1)},
        "arithmetic": {"n": None, "start": 1, "step": 1},
        "random": {"n": None, "seed": 1, "max": 10**6, "min": 1},
        "subgroup": {"p": None, "t": None},
    }[kind]
    unknown = set(params) - set(defaults)
    if unknown:
        raise BadSpec(f"unknown parameter(s) {sorted(unknown)} for {kind}")
    merged = {**defaults, **params}
    for key, val in merged.items():
        if val is None:
            raise BadSpec(f"{kind} family requires {key}=")
    if kind == "geometric":
        q = Fraction(merged["q"])
        if q in (0, 1, -1):
            raise BadSpec("geometric ratio q must differ from 0 and +-1")
        if merged["start"] == 0:
            raise BadSpec("geometric start must be nonzero")
        merged["q"] = q
        merged["start"] = Fraction(merged["start"])
    if kind == "arithmetic" and merged["step"] == 0:
        raise BadSpec("arithmetic step must be nonzero")
    for key in ("n", "seed", "max", "min", "p", "t"):
        if key in merged and Fraction(merged[key]).denominator != 1:
            raise BadSpec(f"{kind} parameter {key}={_fmt_value(merged[key])} is not an integer")
    if "n" in merged and int(merged["n"]) < 1:
        raise BadSpec("family size n must be >= 1")
    order = {"geometric": ("q", "n", "start"), "arithmetic": ("n", "start", "step"),
             "random": ("n", "seed", "max", "min"), "subgroup": ("p", "t")}[kind]
    items = tuple((k, merged[k]) for k in order)
    return FamilySpec(kind, items)


def generate_kind(spec: FamilySpec) -> str:
    if spec.kind == "union":
        return generate_kind(spec.parts[0])
    return "modp" if spec.kind == "subgroup" else "rational"


def generate(spec: FamilySpec) -> GSet:
    """Materialize the family as a GSet (always 0-free, deduplicated)."""
    if spec.kind == "union":
        merged: list = []
        for part in spec.parts:
            merged.extend(generate(part).elements)
        return GSet.from_elements(merged)
    if spec.kind == "geometric":
        q, n, start = spec.get("q"), int(spec.get("n")), spec.get("start")
        A = gset_rational(start * q**i for i in range(n))
        if A.size != n:
            raise BadSpec("geometric family produced duplicate elements")
        return A
    if spec.kind == "arithmetic":
        n, start, step = int(spec.get("n")), spec.get("start"), spec.get("step")
        vals = [start + i * step for i in range(n)]
        if any(v == 0 for v in vals):
            raise BadSpec("arithmetic family hits 0; shift start or step")
        return gset_rational(vals)
    if spec.kind == "random":
        n = int(spec.get("n"))
        lo, hi = int(spec.get("min")), int(spec.get("max"))
        if lo < 1:
            raise BadSpec("random families draw positive integers (min >= 1)")
        if hi - lo + 1 < n:
            raise BadSpec(f"range [{lo},{hi}] cannot hold {n} distinct values")
        rng = Lcg(int(spec.get("seed")))
        drawn: dict[int, None] = {}  # duplicates are re-drawn
        while len(drawn) < n:
            drawn[rng.next_range(lo, hi)] = None
        return gset_rational(drawn)
    if spec.kind == "subgroup":
        from .subgroups import subgroup_context

        ctx = subgroup_context(int(spec.get("p")), int(spec.get("t")))
        return ctx.gamma_set()
    raise BadSpec(f"unknown family kind {spec.kind!r}")


def generate_from_string(text: str) -> GSet:
    return generate(parse_family(text))

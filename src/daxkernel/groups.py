"""Finitely generated groups with a decidable normal form.

Supported classes: trivial, free, free abelian, finite cyclic, and finite
direct products of these.  Arbitrary finitely presented groups are rejected
(their word problem is undecidable in general); every group needed by the
embedding-space computations falls into the supported classes.

Words are stored in a canonical normal form, so equality of group elements
is equality of ``Word`` values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

from .errors import (
    GroupParseError,
    SpecMismatchError,
    UnknownGeneratorError,
    UnsupportedClassError,
    WindowOverflowError,
)

FREE = "free"
FREE_ABELIAN = "free_abelian"
FINITE_CYCLIC = "finite_cyclic"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Factor:
    """One direct factor: a free, free-abelian or finite-cyclic group."""

    kind: str
    gens: tuple[str, ...]
    order: int = 0  # modulus for finite_cyclic, 0 otherwise

    def __post_init__(self):
        if self.kind not in (FREE, FREE_ABELIAN, FINITE_CYCLIC):
            raise UnsupportedClassError(f"unknown factor kind {self.kind!r}")
        if not self.gens:
            raise UnsupportedClassError("factor must have at least one generator")
        if self.kind == FINITE_CYCLIC:
            if len(self.gens) != 1:
                raise UnsupportedClassError("finite cyclic factor has one generator")
            if self.order < 1:
                raise UnsupportedClassError("finite cyclic order must be >= 1")

    @property
    def abelian(self) -> bool:
        return self.kind in (FREE_ABELIAN, FINITE_CYCLIC)


@dataclass(frozen=True)
class GroupSpec:
    """A direct product of supported factors; no factors means the trivial group."""

    factors: tuple[Factor, ...]
    # name -> (factor index, position within factor, global index)
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        index: dict[str, tuple[int, int, int]] = {}
        g = 0
        for fi, fac in enumerate(self.factors):
            for pi, name in enumerate(fac.gens):
                if name in index:
                    raise UnsupportedClassError(f"duplicate generator name {name!r}")
                index[name] = (fi, pi, g)
                g += 1
        object.__setattr__(self, "_index", index)

    @property
    def generators(self) -> tuple[str, ...]:
        return tuple(n for fac in self.factors for n in fac.gens)

    @property
    def is_trivial(self) -> bool:
        return all(f.kind == FINITE_CYCLIC and f.order == 1 for f in self.factors)

    def factor_of(self, name: str) -> tuple[int, Factor]:
        try:
            fi, _, _ = self._index[name]
        except KeyError:
            raise UnknownGeneratorError(f"unknown generator {name!r}") from None
        return fi, self.factors[fi]

    def gen_index(self, name: str) -> int:
        try:
            return self._index[name][2]
        except KeyError:
            raise UnknownGeneratorError(f"unknown generator {name!r}") from None

    def commute(self, a: str, b: str) -> bool:
        """Whether generators a and b commute as a consequence of the spec."""
        fa, fac_a = self.factor_of(a)
        fb, _ = self.factor_of(b)
        return fa != fb or fac_a.abelian or a == b

    def identity(self) -> "Word":
        return Word(self, ())

    def word(self, letters: Iterable[tuple[str, int]]) -> "Word":
        return normalize(letters, self)

    def __hash__(self):
        return hash(self.factors)

    def __eq__(self, other):
        return isinstance(other, GroupSpec) and self.factors == other.factors

    def __str__(self):
        return render_group_spec(self)


@dataclass(frozen=True)
class Word:
    """A group element in canonical normal form.

    Letters are (generator, exponent) pairs: freely reduced syllables for free
    factors, one sorted letter per generator for abelian factors (exponents in
    ``[1, m)`` for finite cyclic order m), with factor blocks concatenated in
    declaration order.
    """

    spec: GroupSpec
    letters: tuple[tuple[str, int], ...]

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self):
        return render_word(self)

    def __mul__(self, other: "Word") -> "Word":
        return mul(self, other)


def _canon_exponent(e: int, fac: Factor) -> int:
    if fac.kind == FINITE_CYCLIC:
        return e % fac.order
    return e


def _signed_exponent(e: int, fac: Factor) -> int:
    """Shortest signed representative of a canonical exponent."""
    if fac.kind == FINITE_CYCLIC and e > fac.order - e:
        return e - fac.order
    return e


def normalize(letters: Iterable[tuple[str, int]], spec: GroupSpec) -> Word:
    """Canonical form of a raw letter sequence.

    Two raw sequences representing the same group element yield equal Words.
    """
    per_factor: list[list[tuple[str, int]]] = [[] for _ in spec.factors]
    for name, exp in letters:
        fi, _ = spec.factor_of(name)
        if exp != 0:
            per_factor[fi].append((name, exp))

    out: list[tuple[str, int]] = []
    for fi, fac in enumerate(spec.factors):
        chunk = per_factor[fi]
        if fac.abelian:
            totals = {g: 0 for g in fac.gens}
            for name, exp in chunk:
                totals[name] += exp
            for name in fac.gens:
                e = _canon_exponent(totals[name], fac)
                if e:
                    out.append((name, e))
        else:
            stack: list[list] = []
            for name, exp in chunk:
                if stack and stack[-1][0] == name:
                    stack[-1][1] += exp
                    if stack[-1][1] == 0:
                        stack.pop()
                else:
                    stack.append([name, exp])
            out.extend((n, e) for n, e in stack)
    return Word(spec, tuple(out))


def mul(g: Word, h: Word) -> Word:
    if g.spec != h.spec:
        raise SpecMismatchError("cannot multiply words over different group specs")
    return normalize(g.letters + h.letters, g.spec)


def inv(g: Word) -> Word:
    return normalize(tuple((n, -e) for n, e in reversed(g.letters)), g.spec)


def conjugate(g: Word, x: Word) -> Word:
    """g x g^-1."""
    return mul(mul(g, x), inv(g))


def word_length(w: Word) -> int:
    """Length in the word metric of the declared generating set."""
    total = 0
    for name, exp in w.letters:
        _, fac = w.spec.factor_of(name)
        total += abs(_signed_exponent(exp, fac))
    return total


def word_key(w: Word):
    """Deterministic total order: graded by word length, then lexicographic."""
    letters = []
    for name, exp in w.letters:
        _, fac = w.spec.factor_of(name)
        se = _signed_exponent(exp, fac)
        letters.append((w.spec.gen_index(name), abs(se), 0 if se > 0 else 1))
    return (word_length(w), tuple(letters))


def ball(spec: GroupSpec, radius: int, limit: int = 200_000) -> list[Word]:
    """All elements of word length <= radius, identity first, in word_key order.

    Breadth-first over generator steps; deterministic.  ``limit`` guards
    against exponentially large balls in free groups: a larger ball raises
    ``WindowOverflowError``.
    """
    if radius < 0:
        return []
    steps: list[Word] = []
    for name in spec.generators:
        steps.append(spec.word([(name, 1)]))
        steps.append(spec.word([(name, -1)]))
    seen = {spec.identity()}
    frontier = [spec.identity()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for s in steps:
                v = mul(w, s)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
                    if len(seen) > limit:
                        raise WindowOverflowError(
                            f"ball of radius {radius} exceeds {limit} elements;"
                            " use a smaller window"
                        )
        frontier = nxt
    return sorted(seen, key=word_key)


def powers(g: Word, n: int) -> Word:
    """g^n by repeated squaring (exponents may be large)."""
    if n == 0:
        return g.spec.identity()
    base = g if n > 0 else inv(g)
    n = abs(n)
    acc = g.spec.identity()
    while n:
        if n & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        n >>= 1
    return acc


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------

def parse_group_spec(text: str) -> GroupSpec:
    """Parse ``Z<t>``, ``F<x,y>``, ``Z/3<u>``, ``1`` and x-products thereof."""
    if "|" in text or "=" in text:
        raise UnsupportedClassError(
            "presentations with relators describe an undecidable class;"
            " supported classes: 1, Z<...>, F<...>, Z/m<g> and their products"
        )
    pos = 0
    n = len(text)

    def skip_ws(p):
        while p < n and text[p].isspace():
            p += 1
        return p

    def fail(msg, p):
        raise GroupParseError(msg, text, p)

    def parse_names(p):
        names = []
        while True:
            p = skip_ws(p)
            m = _NAME_RE.match(text, p)
            if not m:
                fail("expected generator name", p)
            names.append(m.group(0))
            p = skip_ws(m.end())
            if p < n and text[p] == ",":
                p += 1
                continue
            return names, p

    def parse_factor(p):
        p = skip_ws(p)
        if p >= n:
            fail("expected a factor", p)
        if text[p] == "1":
            return None, p + 1
        if text.startswith("Z/", p):
            p += 2
            m = re.match(r"\d+", text[p:])
            if not m:
                fail("expected cyclic order after Z/", p)
            order = int(m.group(0))
            if order < 1:
                fail("cyclic order must be >= 1", p)
            p += m.end()
            p = skip_ws(p)
            if p >= n or text[p] != "<":
                fail("expected '<'", p)
            names, p = parse_names(p + 1)
            if len(names) != 1:
                fail("finite cyclic factor takes a single generator", p)
            p = skip_ws(p)
            if p >= n or text[p] != ">":
                fail("expected '>'", p)
            if order == 1:
                return None, p + 1  # Z/1 is trivial
            return Factor(FINITE_CYCLIC, tuple(names), order), p + 1
        if text[p] in "ZF":
            kind = FREE_ABELIAN if text[p] == "Z" else FREE
            p = skip_ws(p + 1)
            if p >= n or text[p] != "<":
                fail("expected '<'", p)
            names, p = parse_names(p + 1)
            p = skip_ws(p)
            if p >= n or text[p] != ">":
                fail("expected '>'", p)
            return Factor(kind, tuple(names)), p + 1
        fail("expected one of '1', 'Z', 'F', 'Z/'", p)

    factors = []
    while True:
        fac, pos = parse_factor(pos)
        if fac is not None:
            factors.append(fac)
        pos = skip_ws(pos)
        if pos < n and text[pos] == "x":
            pos += 1
            continue
        break
    pos = skip_ws(pos)
    if pos != n:
        raise GroupParseError("unexpected trailing input", text, pos)
    return GroupSpec(tuple(factors))


def render_group_spec(spec: GroupSpec) -> str:
    if not spec.factors:
        return "1"
    parts = []
    for fac in spec.factors:
        names = ",".join(fac.gens)
        if fac.kind == FREE:
            parts.append(f"F<{names}>")
        elif fac.kind == FREE_ABELIAN:
            parts.append(f"Z<{names}>")
        else:
            parts.append(f"Z/{fac.order}<{names}>")
    return " x ".join(parts)


def parse_word(text: str, spec: GroupSpec) -> Word:
    """Parse a word literal: ``t^2*s^-1`` style, ``1`` for the identity."""
    s = text.strip()
    if s == "1":
        return spec.identity()
    if not s:
        raise GroupParseError("empty word literal", text, 0)
    letters = []
    pos = 0
    for part in s.split("*"):
        chunk = part.strip()
        m = _NAME_RE.match(chunk)
        if not m:
            raise GroupParseError("expected generator name", text, pos)
        name = m.group(0)
        rest = chunk[m.end():].strip()
        exp = 1
        if rest:
            if not rest.startswith("^"):
                raise GroupParseError("expected '^' or '*'", text, pos + m.end())
            try:
                exp = int(rest[1:])
            except ValueError:
                raise GroupParseError("bad exponent", text, pos + m.end()) from None
        spec.factor_of(name)  # raises UnknownGeneratorError
        letters.append((name, exp))
        pos += len(part) + 1
    return normalize(letters, spec)


def render_word(w: Word) -> str:
    if w.is_identity:
        return "1"
    parts = []
    for name, exp in w.letters:
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts)

"""Exact arithmetic in the integral group ring Z[G].

Elements are finite integer combinations of normalized Words; coefficients
are arbitrary-precision.  Reduced elements (no term at the identity, i.e.
elements of Z[G \\ 1]) are ordinary RingElems whose identity coefficient is
zero; ``bar_reduce`` enforces the reduction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import GroupParseError, SpecMismatchError
from .groups import GroupSpec, Word, inv, mul, parse_word, render_word, word_key


@dataclass(frozen=True)
class RingElem:
    """An element of Z[G]: terms sorted by word order, no zero coefficients."""

    spec: GroupSpec
    terms: tuple[tuple[Word, int], ...]

    def items(self) -> tuple[tuple[Word, int], ...]:
        return self.terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, w: Word) -> int:
        for word, c in self.terms:
            if word == w:
                return c
        return 0

    def support(self) -> tuple[Word, ...]:
        return tuple(w for w, _ in self.terms)

    def __str__(self):
        return render_ring(self)

    def __add__(self, other):
        return gr_add(self, other)

    def __sub__(self, other):
        return gr_add(self, gr_neg(other))

    def __neg__(self):
        return gr_neg(self)

    def __mul__(self, other):
        return gr_mul(self, other)


def _term_key(term: tuple[Word, int]):
    return word_key(term[0])


def from_terms(spec: GroupSpec, terms: Mapping[Word, int] | Iterable[tuple[Word, int]]) -> RingElem:
    # a dict is the common argument: test it before the slower Mapping check
    if isinstance(terms, dict) or isinstance(terms, Mapping):
        acc = terms
    else:
        acc = {}
        for w, c in terms:
            acc[w] = acc.get(w, 0) + c
    for w in acc:
        if w.spec is not spec and w.spec != spec:
            raise SpecMismatchError("term word over a different group spec")
    cleaned = tuple(sorted([(w, c) for w, c in acc.items() if c != 0], key=_term_key))
    return RingElem(spec, cleaned)


def from_letters(spec: GroupSpec, terms: Mapping[tuple, int]) -> RingElem:
    """``from_terms`` of a term dict keyed by normal form letter tuples, as
    relation assembly builds them."""
    return from_terms(spec, {Word(spec, w): c for w, c in terms.items()})


def zero(spec: GroupSpec) -> RingElem:
    return RingElem(spec, ())


def one(spec: GroupSpec) -> RingElem:
    return RingElem(spec, ((spec.identity(), 1),))


def monomial(w: Word, coeff: int = 1) -> RingElem:
    return from_terms(w.spec, [(w, coeff)])


def gr_add(r: RingElem, s: RingElem) -> RingElem:
    if r.spec != s.spec:
        raise SpecMismatchError("cannot add over different group specs")
    acc = dict(r.terms)
    for w, c in s.terms:
        acc[w] = acc.get(w, 0) + c
    return from_terms(r.spec, acc)


def gr_neg(r: RingElem) -> RingElem:
    return RingElem(r.spec, tuple((w, -c) for w, c in r.terms))


def gr_scale(n: int, r: RingElem) -> RingElem:
    if n == 0:
        return zero(r.spec)
    return RingElem(r.spec, tuple((w, n * c) for w, c in r.terms))


def gr_mul(r: RingElem, s: RingElem) -> RingElem:
    """Convolution product: bilinear extension of group multiplication."""
    if r.spec != s.spec:
        raise SpecMismatchError("cannot multiply over different group specs")
    acc: dict[Word, int] = {}
    for w1, c1 in r.terms:
        for w2, c2 in s.terms:
            w = mul(w1, w2)
            acc[w] = acc.get(w, 0) + c1 * c2
    return from_terms(r.spec, acc)


def left_mul(g: Word, r: RingElem) -> RingElem:
    return from_terms(r.spec, [(mul(g, w), c) for w, c in r.terms])


def right_mul(r: RingElem, g: Word) -> RingElem:
    return from_terms(r.spec, [(mul(w, g), c) for w, c in r.terms])


def gr_involute(r: RingElem) -> RingElem:
    """The bar involution: sum of c*g maps to sum of c*g^-1."""
    return from_terms(r.spec, [(inv(w), c) for w, c in r.terms])


def gr_conj(g: Word, r: RingElem) -> RingElem:
    """Termwise conjugation g * r * g^-1."""
    gi = inv(g)
    return from_terms(r.spec, [(mul(mul(g, w), gi), c) for w, c in r.terms])


def gr_bar_reduce(r: RingElem) -> RingElem:
    """Drop the coefficient at the identity; the result lies in Z[G \\ 1]."""
    return RingElem(r.spec, tuple((w, c) for w, c in r.terms if not w.is_identity))


def is_reduced(r: RingElem) -> bool:
    return all(not w.is_identity for w, _ in r.terms)


# ---------------------------------------------------------------------------
# text form: "2*t^-1 - t^3 + 1"
# ---------------------------------------------------------------------------

_INT_RE = re.compile(r"[+-]?\d+$")


def render_ring(r: RingElem) -> str:
    return render_terms([(render_word(w), c) for w, c in r.terms])


def render_terms(terms: Iterable[tuple[str, int]]) -> str:
    """The text of a sum from its (word text, nonzero coefficient) terms,
    in the order given; the identity, whose text is ``1``, shows as its
    coefficient alone, and no terms as ``0``.  ``render_ring`` and the
    ``target`` report, which renders from window positions and letters,
    both call this."""
    parts = []
    for text, c in terms:
        mag = abs(c)
        body = text if mag == 1 else str(mag) if text == "1" else f"{mag}*{text}"
        if parts:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return " ".join(parts) or "0"


def _split_ring_terms(text: str):
    """Split an additive expression at +/- signs not belonging to an exponent."""
    terms: list[tuple[int, str]] = []
    sign = 1
    cur: list[str] = []
    prev = ""  # last non-space character seen
    for ch in text:
        if ch in "+-" and prev != "^":
            body = "".join(cur).strip()
            if body:
                terms.append((sign, body))
                cur = []
                sign = 1 if ch == "+" else -1
            else:
                sign *= 1 if ch == "+" else -1
            prev = ""
            continue
        cur.append(ch)
        if not ch.isspace():
            prev = ch
    body = "".join(cur).strip()
    if body:
        terms.append((sign, body))
    elif terms or sign != 1:
        # trailing sign with no term
        raise ValueError("dangling sign")
    return terms


def parse_ring(text: str, spec: GroupSpec) -> RingElem:
    """Parse ``2*t^-1 - t^3 + 1`` style literals; ``0`` is the zero element."""
    s = text.strip()
    if s == "0":
        return zero(spec)
    if not s:
        raise GroupParseError("empty ring literal", text, 0)
    acc: dict[Word, int] = {}
    try:
        split = _split_ring_terms(s)
    except ValueError:
        raise GroupParseError("dangling sign in ring literal", text, len(s)) from None
    if not split:
        raise GroupParseError("empty ring literal", text, 0)
    for sign, term in split:
        coeff = sign
        body = term
        m = re.match(r"(\d+)\s*(\*\s*)?", term)
        if m and (m.group(2) or m.end() == len(term)):
            coeff = sign * int(m.group(1))
            body = term[m.end():].strip()
        if body == "" or body == "1":
            w = spec.identity()
        else:
            w = parse_word(body, spec)
        acc[w] = acc.get(w, 0) + coeff
    return from_terms(spec, acc)

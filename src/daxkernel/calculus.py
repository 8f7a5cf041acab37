"""Core dax formulas: basepoint rebasing, translation, and image enumeration.

All outputs live in the reduced ring (no identity term).  Intermediate
pairing values stay unreduced because the derivation rules are exact only
before reduction.  Each formula adds its terms into one dictionary and
reduces once, at the end: reduction is linear, and the only maps applied to
an already reduced value (conjugation, inversion) never send a non-identity
word to the identity, so this equals reducing every piece separately.

The formulas behind relation assembly each have one private body that
works on normal form letter tuples (``groups.mul_letters``,
``groups.inv_letters``) and returns that reduced dictionary, letters ->
coefficient (zero coefficients included), building no ``Word``.  The
bodies of the two translate formulas sum their other terms into the twist
T_a(g) = -lambda(g a, g) + lambda(g, g a) that both contain: relation
assembly carries it along the ball (``pairing.twists_on_ball``), and the
public functions build it from lambda(a, g) with the same helper,
``pairing.add_twist``.  The public ``dax_u_general``, ``dax_u_embedded``,
``dax_boundary_sphere`` and ``dax_translate`` call those bodies and sort
the dictionary into a ``RingElem`` at the end; relation assembly reads it
itself and classifies each term by its generator index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import ModeError, SpecMismatchError
from .groups import Word, inv, inv_letters, mul_letters
from . import ring as R
from .ring import RingElem
from .pairing import (
    PairingTable,
    SphereClass,
    add_twist,
    flip_sign,
    lambda_word,
    rebase_table,
)

ARCS = "arcs"
CIRCLES = "circles"


@dataclass(frozen=True)
class DaxContext:
    """A pairing table together with the scene mode and circle class.

    The constants that the formula bodies read for every translate are
    computed once, at construction: the letters ``s_inv`` of the inverse
    of the circle class and the sign ``flip`` = (-1)^(d-1) of
    ``lambda_flip``.
    """

    table: PairingTable
    s_class: Word
    mode: str
    s_inv: tuple = field(init=False, repr=False, compare=False)
    flip: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in (ARCS, CIRCLES):
            raise ModeError(f"unknown mode {self.mode!r}")
        if self.s_class.spec != self.table.spec:
            raise SpecMismatchError("circle class over a different spec")
        if self.mode == ARCS and not self.s_class.is_identity:
            raise ModeError("arcs mode carries no circle class")
        object.__setattr__(self, "s_inv", inv(self.s_class).letters)
        object.__setattr__(self, "flip", flip_sign(self.table.dimension))

    @property
    def d(self) -> int:
        return self.table.dimension

    @property
    def spec(self):
        return self.table.spec


def arcs_context(table: PairingTable) -> DaxContext:
    return DaxContext(table, table.spec.identity(), ARCS)


def circles_context(table: PairingTable, s_class: Word) -> DaxContext:
    return DaxContext(table, s_class, CIRCLES)


def rebase_context(ctx: DaxContext, g: Word) -> DaxContext:
    """Context for the basepoint arc moved to g*u."""
    return DaxContext(rebase_table(ctx.table, g), ctx.s_class, ctx.mode)


def dax_rebase(a: SphereClass, ctx: DaxContext) -> RingElem:
    """Dax value over the scene's arc:  base value + red(lambda(a, u))."""
    return R.gr_add(a.base_dax, R.gr_bar_reduce(a.lambda_u))


def _add(acc: dict[tuple, int], terms, scale: int = 1) -> None:
    """acc += scale * (sum of c*w over the (w, c) terms)."""
    for w, c in terms:
        acc[w] = acc.get(w, 0) + scale * c


def _reduced(acc: dict[tuple, int]) -> dict[tuple, int]:
    """red(sum of acc), still a term dict: the identity term dropped."""
    acc.pop((), None)
    return acc


def _conj(spec, g: tuple, terms, gi: tuple):
    """The terms g w g^-1 of the (Word, coefficient) terms, as letters;
    gi holds the letters of g^-1."""
    return ((mul_letters(spec, mul_letters(spec, g, w.letters), gi), c)
            for w, c in terms)


def _twist(g: Word, a: SphereClass, ctx: DaxContext,
           lam: Iterable[tuple[Word, int]] | None = None) -> dict[tuple, int]:
    """The twist T_a(g) = -lambda(g a, g) + lambda(g, g a) as a fresh
    letter-keyed term dict, from the terms ``lam`` of lambda(a, g), derived
    when not given."""
    if g.spec != ctx.spec:
        raise SpecMismatchError("translate over a different spec")
    if lam is None:
        lam = lambda_word(ctx.table, a, g).terms
    return add_twist(ctx.spec, {}, g.letters, [(w.letters, c) for w, c in lam],
                     ctx.flip)


def dax_translate(g: Word, a: SphereClass, ctx: DaxContext) -> RingElem:
    """Base dax of the translated class g*a:

        dax(g a) = g dax(a) g^-1 - red(lambda(g a, g)) + red(lambda(g, g a))
    """
    acc = _twist(g, a, ctx)
    gi = inv_letters(ctx.spec, g.letters)
    _add(acc, _conj(ctx.spec, g.letters, a.base_dax.terms, gi))
    return R.from_letters(ctx.spec, _reduced(acc))


def dax_u_general(g: Word, a: SphereClass, ctx: DaxContext,
                  lam: Iterable[tuple[Word, int]] | None = None) -> RingElem:
    """Dax value over the arc for a translated class, valid for any class:

        dax_u(g a) = g dax_u(a) g^-1 + red(lambda(g a, u))
                     - red(lambda(g a, g u)) + red(lambda(g, g a))

    ``lam``, when given, holds the (word, coefficient) terms of lambda(a, g).
    """
    twist = _twist(g, a, ctx, lam)
    return R.from_letters(ctx.spec, _dax_u_general(g.letters, a, ctx, twist))


def _dax_u_general(g: tuple, a, ctx, twist: dict[tuple, int]) -> dict[tuple, int]:
    """``dax_u_general`` of the translate with letters g as a reduced
    letter-keyed term dict, summed into the twist T_a(g)."""
    spec = ctx.spec
    acc = twist
    gi = inv_letters(spec, g)
    # lambda(g a, u), and g lambda(a, u) g^-1
    lam_u = [(mul_letters(spec, g, w.letters), c) for w, c in a.lambda_u.terms]
    lam_u_gi = [(mul_letters(spec, w, gi), c) for w, c in lam_u]
    # g dax_u(a) g^-1, where dax_u(a) = base dax + red(lambda(a, u)) as in dax_rebase
    _add(acc, _conj(spec, g, a.base_dax.terms, gi))
    _add(acc, lam_u_gi)
    _add(acc, lam_u)
    # lambda(g a, g u) = lambda(g a, g) + lambda(g a, u) g^-1, whose first
    # part is in the twist; lam_u_gi enters twice with opposite signs, and
    # both stay so that this formula remains independent of dax_u_embedded,
    # which cross-checks it
    _add(acc, lam_u_gi, -1)
    return _reduced(acc)


def dax_u_embedded(g: Word, a: SphereClass, ctx: DaxContext,
                   lam: Iterable[tuple[Word, int]] | None = None) -> RingElem:
    """Shortcut for classes with an embedded representative:

        dax_u(g a) = red(lambda(g a, u)) - red(lambda(g a, g)) + red(lambda(g, g a))

    Used as an independent cross-check of ``dax_u_general``.  ``lam``, when
    given, holds the (word, coefficient) terms of lambda(a, g).
    """
    if not a.embedded:
        raise ModeError(f"class {a.name!r} has no embedded representative")
    twist = _twist(g, a, ctx, lam)
    return R.from_letters(ctx.spec, _dax_u_embedded(g.letters, a, ctx, twist))


def _dax_u_embedded(g: tuple, a, ctx, twist: dict[tuple, int]) -> dict[tuple, int]:
    """``dax_u_embedded`` of the translate with letters g as a reduced
    letter-keyed term dict, summed into the twist T_a(g); the class must be
    embedded."""
    spec = ctx.spec
    _add(twist, ((mul_letters(spec, g, w.letters), c) for w, c in a.lambda_u.terms))
    return _reduced(twist)


def dax_boundary_sphere(g: Word, ctx: DaxContext) -> RingElem:
    """Dax value of the translated boundary sphere of the removed ball:

        dax_u(g Phi) = red( (-1)^(d-1) g^-1  -  g s^-1 )

    Closed form; no table lookup.  Circles mode only.
    """
    if g.spec != ctx.spec:
        raise SpecMismatchError("translate over a different spec")
    return R.from_letters(ctx.spec, _dax_boundary_sphere(g.letters, ctx))


def _dax_boundary_sphere(g: tuple, ctx) -> dict[tuple, int]:
    """``dax_boundary_sphere`` of the translate with letters g as a reduced
    letter-keyed term dict."""
    if ctx.mode != CIRCLES:
        raise ModeError("the boundary sphere exists only in circles mode")
    spec = ctx.spec
    acc = {inv_letters(spec, g): ctx.flip}
    _add(acc, [(mul_letters(spec, g, ctx.s_inv), -1)])
    return _reduced(acc)


def dax_image(ctx: DaxContext, enumeration) -> list[RingElem]:
    """Dax values of all translated generators over the enumeration window.

    Zero values are dropped and duplicates removed; the order is the
    deterministic enumeration order (classes first, then boundary spheres
    in circles mode).
    """
    out: list[RingElem] = []
    seen = set()

    def push(val: RingElem):
        if val.is_zero:
            return
        if val not in seen:
            seen.add(val)
            out.append(val)

    for g in enumeration:
        for a in ctx.table.classes:
            push(dax_u_general(g, a, ctx))
    if ctx.mode == CIRCLES:
        for g in enumeration:
            push(dax_boundary_sphere(g, ctx))
    return out

"""Core dax formulas: basepoint rebasing, translation, and image enumeration.

All outputs live in the reduced ring (no identity term).  Intermediate
pairing values stay unreduced because the derivation rules are exact only
before reduction.  Each formula adds its terms into one dictionary and
reduces once, at the end: reduction is linear, and the only maps applied to
an already reduced value (conjugation, inversion) never send a non-identity
word to the identity, so this equals reducing every piece separately.

The formulas behind relation assembly each have one private body that
works on normal form letter tuples, through the spec's product and inverse
kernels (``GroupSpec._mul``, ``GroupSpec._inv``) passed in with the
class's letter terms, and returns that reduced dictionary, letters ->
coefficient (zero coefficients included), building no ``Word``: ``_dax_u``
for a translated class, whichever of ``dax_u_general`` and
``dax_u_embedded`` names it, and ``_dax_boundary_sphere``.  The translate
formulas sum their other terms into the twist
T_a(g) = -lambda(g a, g) + lambda(g, g a) that they contain: relation
assembly writes it in closed form for a class with principal rows
(``pairing.add_principal_twist``) and carries it along the ball for the
others (``pairing.twists_on_ball``).  The public functions build it with
the walk's helper, ``pairing.add_twist``, from the letter-keyed terms of
lambda(a, g) that ``pairing.lambda_terms`` derives with the walk's Fox
step, for every class, so they are the reference for the closed form;
neither builds a ``Word`` series.
The public functions sort the dictionary into a ``RingElem`` at the end;
relation assembly reads it itself and classifies each term by its
generator index.
"""

from __future__ import annotations

from .errors import ModeError, SpecMismatchError
from .groups import Word, inv
from . import ring as R
from .record import Frozen, set_field
from .ring import RingElem
from .pairing import (
    PairingTable,
    SphereClass,
    add_twist,
    flip_sign,
    lambda_terms,
    rebase_table,
)

ARCS = "arcs"
CIRCLES = "circles"


class DaxContext(Frozen):
    """A pairing table together with the scene mode and circle class.

    The constants that the formula bodies read for every translate are
    computed once, at construction: the letters ``s_inv`` of the inverse
    of the circle class and the sign ``flip`` = (-1)^(d-1) of
    ``lambda_flip``.
    """

    _fields = ("table", "s_class", "mode")

    def __init__(self, table: PairingTable, s_class: Word, mode: str):
        if mode not in (ARCS, CIRCLES):
            raise ModeError(f"unknown mode {mode!r}")
        if s_class.spec != table.spec:
            raise SpecMismatchError("circle class over a different spec")
        if mode == ARCS and not s_class.is_identity:
            raise ModeError("arcs mode carries no circle class")
        set_field(self, "table", table)
        set_field(self, "s_class", s_class)
        set_field(self, "mode", mode)
        set_field(self, "s_inv", inv(s_class).letters)
        set_field(self, "flip", flip_sign(table.dimension))

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


def _reduced(acc: dict[tuple, int]) -> dict[tuple, int]:
    """red(sum of acc), still a term dict: the identity term dropped."""
    acc.pop((), None)
    return acc


def _add_conj(mul, inv, acc: dict[tuple, int], g: tuple, terms) -> None:
    """acc += g r g^-1 for the element r with (letters, coefficient)
    ``terms``, summed into acc in place by the spec's kernels."""
    gi = inv(g)
    get = acc.get
    for w, c in terms:
        v = mul(mul(g, w), gi)
        acc[v] = get(v, 0) + c


def _twist(g: Word, a: SphereClass, ctx: DaxContext) -> dict[tuple, int]:
    """The twist T_a(g) = -lambda(g a, g) + lambda(g, g a) as a fresh
    letter-keyed term dict."""
    if g.spec != ctx.spec:
        raise SpecMismatchError("translate over a different spec")
    spec = ctx.spec
    return add_twist(spec._mul, spec._inv, {}, g.letters,
                     lambda_terms(spec, a, g.letters).items(), ctx.flip)


def dax_translate(g: Word, a: SphereClass, ctx: DaxContext) -> RingElem:
    """Base dax of the translated class g*a:

        dax(g a) = g dax(a) g^-1 - red(lambda(g a, g)) + red(lambda(g, g a))
    """
    acc = _twist(g, a, ctx)
    spec = ctx.spec
    _add_conj(spec._mul, spec._inv, acc, g.letters, R.letter_terms(a.base_dax))
    return R.from_letters(spec, _reduced(acc))


def dax_u_general(g: Word, a: SphereClass, ctx: DaxContext) -> RingElem:
    """Dax value over the arc for a translated class, valid for any class:

        dax_u(g a) = g dax_u(a) g^-1 + red(lambda(g a, u))
                     - red(lambda(g a, g u)) + red(lambda(g, g a))
    """
    return R.from_letters(ctx.spec, _dax_u_of(g, a, ctx))


def dax_u_embedded(g: Word, a: SphereClass, ctx: DaxContext) -> RingElem:
    """Shortcut for classes with an embedded representative:

        dax_u(g a) = red(lambda(g a, u)) - red(lambda(g a, g)) + red(lambda(g, g a))

    It is ``dax_u_general`` where dax(a) = 0, and runs the same body; a
    class without an embedded representative raises ``ModeError``.
    """
    if not a.embedded:
        raise ModeError(f"class {a.name!r} has no embedded representative")
    return R.from_letters(ctx.spec, _dax_u_of(g, a, ctx))


def _dax_u_of(g: Word, a: SphereClass, ctx: DaxContext) -> dict[tuple, int]:
    """``_dax_u`` of the translate g*a, its arguments read off the Words."""
    twist = _twist(g, a, ctx)
    spec = ctx.spec
    return _dax_u(spec._mul, spec._inv, g.letters, R.letter_terms(a.base_dax),
                  R.letter_terms(a.lambda_u), twist)


def _dax_u(mul, inv, g: tuple, base, lam_u, twist: dict[tuple, int]) -> dict[tuple, int]:
    """dax_u of the translate with letters g of a class a as a reduced
    letter-keyed term dict, summed into the twist T_a(g).  ``base`` and
    ``lam_u`` are the (letters, coefficient) terms of dax(a) and
    lambda(a, u), and ``mul`` and ``inv`` the spec's kernels
    (``GroupSpec._mul``, ``GroupSpec._inv``): relation assembly reads the
    terms and kernels once per build, not once per translate.

    With dax_u(a) = dax(a) + red(lambda(a, u)) as in ``dax_rebase``,
    lambda(g a, u) = g lambda(a, u) and lambda(g a, g u) = lambda(g a, g)
    + lambda(g a, u) g^-1, the formula of ``dax_u_general`` is

        dax_u(g a) = T_a(g) + g dax(a) g^-1 + g lambda(a, u)

    Both parts are added into the twist's dict in place, term by term: the
    conjugation by ``_add_conj``, skipped when dax(a) has no terms, as for
    an embedded class, and g lambda(a, u) by one product per term.
    """
    if base:
        _add_conj(mul, inv, twist, g, base)
    get = twist.get
    for w, c in lam_u:
        v = mul(g, w)
        twist[v] = get(v, 0) + c
    return _reduced(twist)


def dax_boundary_sphere(g: Word, ctx: DaxContext) -> RingElem:
    """Dax value of the translated boundary sphere of the removed ball:

        dax_u(g Phi) = red( (-1)^(d-1) g^-1  -  g s^-1 )

    Closed form; no table lookup.  Circles mode only.
    """
    if ctx.mode != CIRCLES:
        raise ModeError("the boundary sphere exists only in circles mode")
    if g.spec != ctx.spec:
        raise SpecMismatchError("translate over a different spec")
    spec = ctx.spec
    return R.from_letters(spec, _reduced_sum(_dax_boundary_sphere(
        spec._mul, spec._inv, g.letters, ctx.s_inv, ctx.flip)))


def _dax_boundary_sphere(mul, inv, g: tuple, s_inv: tuple, flip: int) -> tuple:
    """The two terms of ``dax_boundary_sphere`` of the translate with
    letters g, before they are summed and reduced: the letters of g^-1,
    its coefficient ``flip``, the letters of g s^-1 and its coefficient -1.
    The context gives the constants ``s_inv`` and ``flip`` (``DaxContext``)
    and the spec its kernels ``mul`` and ``inv``; the caller checks the
    mode once, not per translate.

    The two terms are distinct and neither is the identity unless g = 1,
    g = s or g^2 = s.  Relation assembly places any other translate's two
    terms in the window as they are; ``_reduced_sum`` gives the value of
    every translate."""
    return inv(g), flip, mul(g, s_inv), -1


def _reduced_sum(terms: tuple) -> dict[tuple, int]:
    """red(c v + e w) as a letter-keyed term dict, for the two terms
    ``terms`` = (v, c, w, e)."""
    v, c, w, e = terms
    acc = {v: c}
    acc[w] = acc.get(w, 0) + e
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

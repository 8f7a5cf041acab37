"""The equivariant intersection pairing, stored on generators and extended.

A sphere class ``a`` carries three kinds of stored data: its base dax value
(zero when the class has an embedded representative), its pairing against
the basepoint arc, and its pairing against each group generator.  Every
other evaluation is derived from the structural rules

    lambda(a, 1)      = 0
    lambda(a, g*k)    = lambda(a, g) + lambda(a, k) * bar(g)
    lambda(a, g^-1)   = -lambda(a, g) * g
    lambda(g1*a1 + g2*a2, k) = g1*lambda(a1, k) + g2*lambda(a2, k)
    lambda(k, a)      = (-1)^(d-1) * bar(lambda(a, k))

The derivation rule makes lambda(a, -) a crossed homomorphism, so stored
rows must vanish on the group's defining relators (commutators of commuting
generators, and g^m for finite cyclic generators).  That consistency is
checked when a table is built; geometric pairings always satisfy it.

``lambda_word`` derives lambda(a, k) for one word, letter by letter.
Relation assembly needs, for every translate g of a ball, the twist
T_a(g) = -lambda(g a, g) + lambda(g, g a) that both dax formulas contain
(``add_twist``).  ``twists_on_ball`` walks the ball once and derives each
element's twist from its parent's: across a central generator step it adds
the twist of the step's own value, and across any other step it derives
lambda(a, g) from the parent's value first (a Fox derivative, R. H. Fox,
Ann. of Math. 57, 1953).  Both give the same element, because lambda is
well defined on the group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PairingDataError, SpecMismatchError
from .groups import GroupSpec, Word, inv, inv_letters, mul, mul_letters
from . import ring as R
from .ring import RingElem


@dataclass(frozen=True)
class SphereClass:
    """A generator of the sphere-class module, with its stored pairing rows."""

    name: str
    embedded: bool
    base_dax: RingElem
    lambda_u: RingElem
    lambda_gen: tuple[tuple[str, RingElem], ...]

    def lambda_of(self, gen: str) -> RingElem:
        for name, row in self.lambda_gen:
            if name == gen:
                return row
        raise PairingDataError(f"class {self.name!r} has no pairing row for generator {gen!r}")


def sphere_class(spec: GroupSpec, name: str, embedded: bool, base_dax: RingElem,
                 lambda_u: RingElem, lambda_gen: dict[str, RingElem]) -> SphereClass:
    """Build a SphereClass with rows in generator declaration order.

    Missing rows default to zero.
    """
    rows = tuple((g, lambda_gen.get(g, R.zero(spec))) for g in spec.generators)
    return SphereClass(name, embedded, base_dax, lambda_u, rows)


@dataclass(frozen=True)
class PairingTable:
    """Pairing data of all sphere-class generators for one scene.

    ``u_class`` records the group image of the basepoint arc; the stored
    ``lambda_u`` rows are the authoritative pairing values (the arc class
    need not come from the group at all).
    """

    spec: GroupSpec
    dimension: int
    classes: tuple[SphereClass, ...]
    u_class: Word

    def __post_init__(self):
        if self.dimension < 3:
            raise PairingDataError("ambient dimension must be >= 3")
        if self.u_class.spec != self.spec:
            raise SpecMismatchError("basepoint arc word over a different spec")
        seen = set()
        for a in self.classes:
            if a.name in seen:
                raise PairingDataError(f"duplicate sphere class name {a.name!r}")
            seen.add(a.name)
            for elem in (a.base_dax, a.lambda_u, *(row for _, row in a.lambda_gen)):
                if elem.spec != self.spec:
                    raise SpecMismatchError(
                        f"class {a.name!r} carries data over a different spec")
            if tuple(g for g, _ in a.lambda_gen) != self.spec.generators:
                raise PairingDataError(
                    f"class {a.name!r} rows do not cover the generators in order")
            if not R.is_reduced(a.base_dax):
                raise PairingDataError(
                    f"class {a.name!r}: base dax value must have no identity term")
            if a.embedded and not a.base_dax.is_zero:
                raise PairingDataError(
                    f"class {a.name!r} is embedded, so its base dax value must vanish")
            _check_row_consistency(self.spec, a)

    def by_name(self, name: str) -> SphereClass:
        for a in self.classes:
            if a.name == name:
                return a
        raise PairingDataError(f"no sphere class named {name!r}")


def _relators(spec: GroupSpec) -> list[tuple[str, list[tuple[str, int]]]]:
    rels = []
    gens = spec.generators
    for i, g in enumerate(gens):
        for h in gens[i + 1:]:
            if spec.commute(g, h):
                rels.append((f"[{g},{h}]", [(g, 1), (h, 1), (g, -1), (h, -1)]))
    for fac in spec.factors:
        if fac.order:
            g = fac.gens[0]
            rels.append((f"{g}^{fac.order}", [(g, fac.order)]))
    return rels


def _check_row_consistency(spec: GroupSpec, a: SphereClass):
    for label, letters in _relators(spec):
        val = lambda_letters(spec, a, letters)
        if not val.is_zero:
            raise PairingDataError(
                f"class {a.name!r}: pairing rows violate the derivation rule on"
                f" relator {label} (value {val})")


def _lambda_letter(spec: GroupSpec, a: SphereClass, gen: str, exp: int) -> RingElem:
    """lambda(a, gen^exp) from the stored row via the derivation rule."""
    row = a.lambda_of(gen)
    if exp == 0 or row.is_zero:
        return R.zero(spec)
    g = spec.word([(gen, 1)])
    gbar = inv(g)
    if exp > 0:
        # lambda(a, g^n) = lambda(a, g) * (1 + gbar + ... + gbar^(n-1))
        acc = {}
        w = spec.identity()
        for _ in range(exp):
            acc[w] = acc.get(w, 0) + 1
            w = mul(w, gbar)
        return R.gr_mul(row, R.from_terms(spec, acc))
    pos = _lambda_letter(spec, a, gen, -exp)
    power = spec.word([(gen, -exp)])
    return R.gr_neg(R.right_mul(pos, power))


def lambda_letters(spec: GroupSpec, a: SphereClass, letters) -> RingElem:
    """Derivation-rule evaluation on a raw letter sequence (need not be reduced)."""
    # lambda(a, l1 l2 ... ln) = sum_i lambda(a, li) * bar(l1 ... l(i-1))
    acc: dict = {}
    prefix = spec.identity()
    for gen, exp in letters:
        piece = _lambda_letter(spec, a, gen, exp)
        if not piece.is_zero:
            prefix_bar = inv(prefix)
            for w, c in piece.terms:
                v = mul(w, prefix_bar)
                acc[v] = acc.get(v, 0) + c
        prefix = mul(prefix, spec.word([(gen, exp)]))
    return R.from_terms(spec, acc)


def lambda_word(table: PairingTable, a: SphereClass, k: Word) -> RingElem:
    """lambda(a, k) for a group element k, derived from the stored rows."""
    if k.spec != table.spec:
        raise SpecMismatchError("word over a different spec")
    return lambda_letters(table.spec, a, k.letters)


def add_twist(spec: GroupSpec, acc: dict[tuple, int], g: tuple, lam,
              eps: int) -> dict[tuple, int]:
    """acc += -g*lam + eps * bar(g*lam) for the (letters, coefficient) terms
    ``lam``, with eps = (-1)^(d-1); returns acc.  Group elements are normal
    form letter tuples over ``spec``: g, the keys of acc and those of lam.

    With lam = lambda(a, g) the sum is the twist

        T_a(g) = -lambda(g a, g) + lambda(g, g a)

    that both dax formulas of a translate contain: lambda(g a, g) is
    g * lambda(a, g), and exchanging the slots gives eps * bar of it.  The
    twist is linear in lam, so the terms of a sum may be added in parts.  A
    coefficient that reaches zero is removed, so a dict carried from parent
    to child stays the size of its value.
    """
    for w, c in lam:
        v = mul_letters(spec, g, w)
        e = acc.get(v, 0) - c
        if e:
            acc[v] = e
        else:
            acc.pop(v, None)
        v = inv_letters(spec, v)
        e = acc.get(v, 0) + eps * c
        if e:
            acc[v] = e
        else:
            acc.pop(v, None)
    return acc


def twists_on_ball(table: PairingTable, elements):
    """Yield (g, twists) for every g of ``elements``, where ``twists`` holds
    the twist T_a(g) of ``add_twist`` for each class a of the table, in
    order, as a term dict keyed by normal form letter tuples, without zero
    coefficients (the identity term ``()`` may occur).  The dicts are the
    caller's to change: the walk keeps its own copy of what later elements
    read.  The walk builds no ``Word`` per element: it multiplies and
    inverts letters (``mul_letters``, ``inv_letters``).

    ``elements`` is a ball listed by word length, as ``groups.ball`` returns
    it.  Each non-identity g is p*s, where s = x^(+-1) steps along the last
    letter's generator, signed like its shortest exponent, so p is one
    shorter and already done.  The parent p is read off g's letters, not
    multiplied out: its last letter is g's stepped one toward zero (modulo
    the order in a finite cyclic factor), and dropped when that reaches
    zero.  Then

    - when s is central (a generator of a free-abelian or finite-cyclic
      factor), s*p = p*s and lambda(a, s*p) = lambda(a, s) + lambda(a, p) s^-1
      give g lambda(a, g) = g lambda(a, s) + p lambda(a, p), so
      T_a(g) = T_a(p) + twist(g, lambda(a, s)): O(|lambda(a, s)|) products;
    - otherwise lambda(a, g) = lambda(a, p) + lambda(a, s) p^-1 (a Fox
      derivative, R. H. Fox, Ann. of Math. 57, 1953), and T_a(g) is built
      from it: O(|lambda(a, g)|) products.

    An element is a parent only of steps in its last letter's factor or a
    later one, so it keeps its lambda values only when such a factor is free
    and its twists only when such a factor is abelian.  Over an abelian
    group no lambda value is derived at all.
    """
    spec, classes = table.spec, table.classes
    index, central = spec._index, spec._central
    eps = flip_sign(table.dimension)
    factors = spec.factors
    keep_lam = [any(not f.abelian for f in factors[fi:]) for fi in range(len(factors))]
    keep_tw = [any(f.abelian for f in factors[fi:]) for fi in range(len(factors))]
    steps: dict[tuple[str, int], list] = {}  # lambda(a, s) terms of each class
    # letters -> [its lambda values, its twists, its inverse once it is a
    # parent]; values that no child reads are None
    done: dict[tuple, list] = {}
    for g in elements:
        letters = g.letters
        if not letters:
            empty = [{} for _ in classes]
            done[letters] = [empty, empty, letters]
            yield g, [{} for _ in classes]
            continue
        name, exp = letters[-1]
        fi, _, order = index[name]
        sign = -1 if exp < 0 or (order and exp > order - exp) else 1
        lam_s = steps.get((name, sign))
        if lam_s is None:
            lam_s = steps[name, sign] = [
                [(w.letters, c) for w, c in _lambda_letter(spec, a, name, sign).terms]
                for a in classes]
        exp -= sign
        if order:
            exp %= order
        p = letters[:-1] + ((name, exp),) if exp else letters[:-1]
        parent = done[p]
        lams = None
        if name in central:
            twists = [add_twist(spec, dict(t), letters, ls, eps)
                      for t, ls in zip(parent[1], lam_s)]
            if keep_lam[fi]:
                lams = [_fox_step(spec, p, parent, lp, ls)
                        for lp, ls in zip(parent[0], lam_s)]
        else:
            lams = [_fox_step(spec, p, parent, lp, ls) for lp, ls in zip(parent[0], lam_s)]
            twists = [add_twist(spec, {}, letters, lam.items(), eps) for lam in lams]
        done[letters] = [lams, [dict(t) for t in twists] if keep_tw[fi] else None, None]
        yield g, twists


def _fox_step(spec: GroupSpec, p: tuple, parent: list, lam_p: dict[tuple, int],
              lam_s) -> dict[tuple, int]:
    """lambda(a, p*s) = lambda(a, p) + lambda(a, s) p^-1 as a letter-keyed
    term dict without zeros, from the letters p of the parent, its ``done``
    entry, its value and the terms of lambda(a, s)."""
    val = dict(lam_p)
    if lam_s:
        p_inv = parent[2]
        if p_inv is None:
            p_inv = parent[2] = inv_letters(spec, p)
        for w, c in lam_s:
            v = mul_letters(spec, w, p_inv)
            c += val.get(v, 0)
            if c:
                val[v] = c
            else:
                del val[v]
    return val


def lambda_arc(table: PairingTable, a: SphereClass, g: Word, use_u: bool) -> RingElem:
    """lambda(a, g*k) where k is the basepoint arc if use_u, else the trivial arc."""
    val = lambda_word(table, a, g)
    if use_u and not a.lambda_u.is_zero:
        val = R.gr_add(val, R.right_mul(a.lambda_u, inv(g)))
    return val


def lambda_linear(table: PairingTable, coeffs, k: Word, use_u: bool) -> RingElem:
    """lambda(sum g_i a_i, k*arc): group-ring linearity in the first slot."""
    acc = R.zero(table.spec)
    for g, a in coeffs:
        acc = R.gr_add(acc, R.left_mul(g, lambda_arc(table, a, k, use_u)))
    return acc


def flip_sign(d: int) -> int:
    """The sign (-1)^(d-1) that exchanging the two slots of lambda picks up."""
    if d < 3:
        raise PairingDataError("ambient dimension must be >= 3")
    return 1 if (d - 1) % 2 == 0 else -1


def lambda_flip(v: RingElem, d: int) -> RingElem:
    """lambda with the slots exchanged: (-1)^(d-1) * bar(value)."""
    return R.gr_scale(flip_sign(d), R.gr_involute(v))


def lambdabar_conj_shift(table: PairingTable, a: SphereClass, g: Word,
                         k_is_u: bool) -> RingElem:
    """Reduced pairing of the translated class against the translated arc.

    Evaluates  red(lambda(g a, g))  +  g * red(lambda(a, k)) * g^-1,
    which equals the direct reduction of lambda(g a, g*k).
    """
    first = R.gr_bar_reduce(R.left_mul(g, lambda_word(table, a, g)))
    second = a.lambda_u if k_is_u else R.zero(table.spec)
    return R.gr_add(first, R.gr_conj(g, R.gr_bar_reduce(second)))


def rebase_table(table: PairingTable, g: Word) -> PairingTable:
    """The table for the basepoint arc moved to g*u.

    Only the arc rows change: lambda(a, g*u) = lambda(a, g) + lambda(a, u)*bar(g).
    """
    new_classes = []
    for a in table.classes:
        new_u = lambda_arc(table, a, g, use_u=True)
        new_classes.append(SphereClass(a.name, a.embedded, a.base_dax, new_u, a.lambda_gen))
    return PairingTable(table.spec, table.dimension, tuple(new_classes),
                        mul(g, table.u_class))

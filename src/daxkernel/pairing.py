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
checked when a table is built, on g^m by coset sums rather than m Fox
steps (``_unbalanced_coset``); geometric pairings always satisfy it.

One step derives every value: with s = x^(+-1) a generator or its
inverse, lambda(a, x) is the stored row, lambda(a, x^-1) = -row * x
(``_unit_step``), and the derivation rule gives

    lambda(a, p*s) = lambda(a, p) + lambda(a, s) * p^-1

(a Fox derivative, R. H. Fox, Ann. of Math. 57, 1953), which ``_fox_step``
adds into a term dict keyed by normal form letter tuples.  ``lambda_terms``
folds it over the unit letters of one letter sequence; ``lambda_word`` and
``lambda_letters`` sort that dict into a ``RingElem``.  Relation assembly
needs, for every translate g of a ball, the twist
T_a(g) = -lambda(g a, g) + lambda(g, g a) that both dax formulas contain
(``add_twist``).

Most classes need no derivation for it.  A class is principal when some r
gives every stored row as lambda(a, x) = r - r x^-1; then lambda(a, g) =
r - r g^-1 for every g, and ``add_principal_twist`` writes T_a(g) down in
closed form.  ``PairingTable.principal_parts`` finds r once per table
(``_principal_part``): from the row of one generator of infinite order by
sums along its cosets, then checked against every row exactly.
``twists_on_ball`` walks the ball once for the other classes and derives
each element's twist from its parent's: across a central generator step it
adds the twist of the step's own value, and across any other step it takes
one Fox step from the parent's value first.  Both give the same element,
because lambda is well defined on the group.
"""

from __future__ import annotations

import functools

from .errors import PairingDataError, SpecMismatchError
from .groups import (FREE, GroupSpec, Word, _around, inv, mul, render_letters,
                     shortest_exponent)
from . import ring as R
from .record import Frozen, set_field
from .ring import RingElem


class SphereClass(Frozen):
    """A generator of the sphere-class module, with its stored pairing rows."""

    _fields = ("name", "embedded", "base_dax", "lambda_u", "lambda_gen")

    def __init__(self, name: str, embedded: bool, base_dax: RingElem, lambda_u: RingElem,
                 lambda_gen: tuple[tuple[str, RingElem], ...]):
        set_field(self, "name", name)
        set_field(self, "embedded", embedded)
        set_field(self, "base_dax", base_dax)
        set_field(self, "lambda_u", lambda_u)
        set_field(self, "lambda_gen", lambda_gen)

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


class PairingTable(Frozen):
    """Pairing data of all sphere-class generators for one scene.

    ``u_class`` records the group image of the basepoint arc; the stored
    ``lambda_u`` rows are the authoritative pairing values (the arc class
    need not come from the group at all).
    """

    _fields = ("spec", "dimension", "classes", "u_class")

    def __init__(self, spec: GroupSpec, dimension: int, classes: tuple[SphereClass, ...],
                 u_class: Word):
        set_field(self, "spec", spec)
        set_field(self, "dimension", dimension)
        set_field(self, "classes", classes)
        set_field(self, "u_class", u_class)
        if dimension < 3:
            raise PairingDataError("ambient dimension must be >= 3")
        if u_class.spec != spec:
            raise SpecMismatchError("basepoint arc word over a different spec")
        seen = set()
        for a in classes:
            if a.name in seen:
                raise PairingDataError(f"duplicate sphere class name {a.name!r}")
            seen.add(a.name)
            for elem in (a.base_dax, a.lambda_u, *(row for _, row in a.lambda_gen)):
                if elem.spec != spec:
                    raise SpecMismatchError(
                        f"class {a.name!r} carries data over a different spec")
            if tuple(g for g, _ in a.lambda_gen) != spec.generators:
                raise PairingDataError(
                    f"class {a.name!r} rows do not cover the generators in order")
            if not R.is_reduced(a.base_dax):
                raise PairingDataError(
                    f"class {a.name!r}: base dax value must have no identity term")
            if a.embedded and not a.base_dax.is_zero:
                raise PairingDataError(
                    f"class {a.name!r} is embedded, so its base dax value must vanish")
            _check_row_consistency(spec, a)

    @functools.cached_property
    def principal_parts(self) -> tuple[RingElem | None, ...]:
        """For each class, in order, the r of ``_principal_part``, or None
        when its rows are not principal; found on first read, and outside
        equality, hashing and ``repr``."""
        return tuple(_principal_part(self.spec, a) for a in self.classes)


def _commutators(spec: GroupSpec) -> list[tuple[str, list[tuple[str, int]]]]:
    gens = spec.generators
    return [(f"[{g},{h}]", [(g, 1), (h, 1), (g, -1), (h, -1)])
            for i, g in enumerate(gens) for h in gens[i + 1:] if spec.commute(g, h)]


def _unbalanced_coset(row: RingElem, gen: str):
    """(coset, sum) for the first coset of <gen> on which the coefficients
    of ``row`` do not sum to zero, in the order of the row's terms, or None
    when they sum to zero on each.  A coset is named by the letters of its
    element without a ``gen`` letter.

    ``gen`` generates a finite cyclic factor of order m, so it is central
    and lambda(a, gen^m) = row * (1 + gen^-1 + ... + gen^-(m-1)): each
    element of a coset gets the sum of the row's coefficients on it.  The
    relator therefore holds exactly when every such sum is zero, which this
    checks in O(|row|) rather than m Fox steps.
    """
    sums: dict[tuple, int] = {}
    for w, c in row.terms:
        coset = tuple([letter for letter in w.letters if letter[0] != gen])
        sums[coset] = sums.get(coset, 0) + c
    return next(((coset, total) for coset, total in sums.items() if total), None)


def _check_row_consistency(spec: GroupSpec, a: SphereClass):
    for label, letters in _commutators(spec):
        val = lambda_terms(spec, a, letters)
        if val:
            raise PairingDataError(
                f"class {a.name!r}: pairing rows violate the derivation rule on"
                f" relator {label} (value {R.from_letters(spec, val)})")
    for fac in spec.factors:
        g = fac.gens[0]
        if fac.order and (bad := _unbalanced_coset(a.lambda_of(g), g)):
            coset, total = bad
            coset = f"{render_letters(coset)}*<{g}>" if coset else f"<{g}>"
            raise PairingDataError(
                f"class {a.name!r}: pairing rows violate the derivation rule on"
                f" relator {g}^{fac.order} (the row of {g} sums to {total} on the"
                f" coset {coset})")


def _coset_split(index: dict, fi: int, free: bool, x: str, w: tuple) -> tuple[tuple, int]:
    """(h, k) with w = h x^k, for the letters w of a normal form and the
    generator x of infinite order of the factor ``fi``, free or not: k is
    the exponent of the last letter of w's block in that factor when the
    factor is free, of x's letter in it otherwise, and 0 when that letter
    is not an x; h is w without that letter.  Each coset h<x> has one h."""
    i, j = _around(w, index, fi)
    if free:
        t = j - 1 if j > i and w[j - 1][0] == x else None
    else:
        t = next((t for t in range(i, j) if w[t][0] == x), None)
    return (w, 0) if t is None else (w[:t] + w[t + 1:], w[t][1])


def _principal_part(spec: GroupSpec, a: SphereClass) -> RingElem | None:
    """The r with lambda(a, x) = r - r x^-1 for every generator x, when the
    class's stored rows have that form, else None.  Rows that all vanish
    give r = 0.

    r comes from the row of the first generator x of infinite order.  Write
    each of its terms as h x^k (``_coset_split``); on a coset h<x> the
    row's coefficients are rho_k = r_k - r_(k+1), and r has finite support,
    so r_k = -(rho_j summed over j < k): r is 0 at and below the row's
    least k on the coset and takes the partial sums between its terms.  A
    coset whose coefficients do not sum to zero has no such r.  The r found
    is the only one, since r (1 - x^-1) = 0 forces r = 0 when x has
    infinite order, and it is checked against every row exactly.  A group
    whose generators all have finite order, and an r of more terms than
    the rows together hold (a row x^N - 1 would give N of them), give None:
    those classes keep the Fox walk.
    """
    rows = [(g, R.letter_terms(row)) for g, row in a.lambda_gen]
    if not any(terms for _, terms in rows):
        return R.zero(spec)
    index, mul, inv = spec._index, spec._mul, spec._inv
    x = next((g for g in spec.generators if not index[g][2]), None)
    if x is None:
        return None
    fi = index[x][0]
    free = spec.factors[fi].kind == FREE
    cosets: dict[tuple, list[tuple[int, int]]] = {}
    for w, c in a.lambda_of(x).terms:
        h, k = _coset_split(index, fi, free, x, w.letters)
        cosets.setdefault(h, []).append((k, c))
    budget = sum(len(terms) for _, terms in rows)
    r: dict[tuple, int] = {}
    for h, column in cosets.items():
        column.sort()
        total = 0
        for (k, c), (nxt, _) in zip(column, column[1:]):
            total += c
            if total:
                budget -= nxt - k
                if budget < 0:
                    return None
                for j in range(k + 1, nxt + 1):
                    r[mul(h, ((x, j),)) if j else h] = -total
        if total + column[-1][1]:
            return None
    for g, terms in rows:
        g_inv = inv(spec.word([(g, 1)]).letters)
        want: dict[tuple, int] = {}
        for w, c in r.items():
            want[w] = want.get(w, 0) + c
            v = mul(w, g_inv)
            want[v] = want.get(v, 0) - c
        if {w: c for w, c in want.items() if c} != dict(terms):
            return None
    return R.from_letters(spec, r)


def _unit_step(spec: GroupSpec, a: SphereClass, gen: str, sign: int):
    """The letters of s = x^sign for the generator x named ``gen``, and the
    (letters, coefficient) terms of lambda(a, s): the row lambda(a, x) for
    sign 1, and lambda(a, x^-1) = -row * x for sign -1."""
    row = a.lambda_of(gen)
    x = spec.word([(gen, 1)]).letters
    if sign > 0:
        return x, R.letter_terms(row)
    mul = spec._mul
    return spec._inv(x), [(mul(w.letters, x), -c) for w, c in row.terms]


def _fox_step(mul, val: dict[tuple, int], lam_s, p_inv: tuple) -> dict[tuple, int]:
    """val += lambda(a, s) p^-1 in place, for the terms ``lam_s`` of
    lambda(a, s) and the letters ``p_inv`` of p^-1; with val = lambda(a, p)
    it becomes lambda(a, p*s).  ``mul`` is the spec's product kernel.  A
    coefficient that reaches zero is removed.  Returns val."""
    for w, c in lam_s:
        v = mul(w, p_inv)
        c += val.get(v, 0)
        if c:
            val[v] = c
        else:
            del val[v]
    return val


def lambda_terms(spec: GroupSpec, a: SphereClass, letters) -> dict[tuple, int]:
    """lambda(a, k) for a raw letter sequence k (need not be reduced) as a
    term dict keyed by normal form letter tuples, without zeros: one Fox
    step per unit letter x^(+-1) of each (generator, exponent) pair."""
    mul, inv = spec._mul, spec._inv
    val: dict[tuple, int] = {}
    p_inv = ()
    for gen, exp in letters:
        s, lam_s = _unit_step(spec, a, gen, 1 if exp > 0 else -1)
        s_inv = inv(s)
        for _ in range(abs(exp)):
            _fox_step(mul, val, lam_s, p_inv)
            p_inv = mul(s_inv, p_inv)
    return val


def lambda_letters(spec: GroupSpec, a: SphereClass, letters) -> RingElem:
    """Derivation-rule evaluation on a raw letter sequence (need not be reduced)."""
    return R.from_letters(spec, lambda_terms(spec, a, letters))


def lambda_word(table: PairingTable, a: SphereClass, k: Word) -> RingElem:
    """lambda(a, k) for a group element k, derived from the stored rows."""
    if k.spec != table.spec:
        raise SpecMismatchError("word over a different spec")
    return R.from_letters(table.spec, lambda_terms(table.spec, a, k.letters))


def add_twist(mul, inv, acc: dict[tuple, int], g: tuple, lam,
              eps: int) -> dict[tuple, int]:
    """acc += -g*lam + eps * bar(g*lam) for the (letters, coefficient) terms
    ``lam``, with eps = (-1)^(d-1); returns acc.  Group elements are normal
    form letter tuples: g, the keys of acc and those of lam, multiplied and
    inverted by the spec's kernels ``mul`` and ``inv`` (``GroupSpec._mul``,
    ``GroupSpec._inv``).

    With lam = lambda(a, g) the sum is the twist

        T_a(g) = -lambda(g a, g) + lambda(g, g a)

    that both dax formulas of a translate contain: lambda(g a, g) is
    g * lambda(a, g), and exchanging the slots gives eps * bar of it.  The
    twist is linear in lam, so the terms of a sum may be added in parts.  A
    coefficient that reaches zero is removed, so a dict carried from parent
    to child stays the size of its value.
    """
    for w, c in lam:
        v = mul(g, w)
        e = acc.get(v, 0) - c
        if e:
            acc[v] = e
        else:
            acc.pop(v, None)
        v = inv(v)
        e = acc.get(v, 0) + eps * c
        if e:
            acc[v] = e
        else:
            acc.pop(v, None)
    return acc


def add_principal_twist(mul, inv, acc: dict[tuple, int], g: tuple, g_inv: tuple, r,
                        eps: int) -> dict[tuple, int]:
    """acc += T_a(g) for a class whose rows are principal, lambda(a, x) =
    r - r x^-1 (``PairingTable.principal_parts``), from the (letters,
    coefficient) terms ``r`` of r, the letters g and g_inv of the translate
    and its inverse, and eps = (-1)^(d-1); returns acc.  Coefficients that
    reach zero stay in acc.  ``mul`` and ``inv`` are the spec's kernels.

    Then lambda(a, g) = r - r g^-1, and the twist of ``add_twist`` is

        T_a(g) = -g r + g r g^-1 + eps (bar(r) g^-1 - g bar(r) g^-1)

    with no Fox step: bar(r) g^-1 and g bar(r) g^-1 are, term by term, the
    inverses of g w and g w g^-1 for each term w of r, so a term costs two
    products and two inverses.
    """
    get = acc.get
    for w, c in r:
        v = mul(g, w)
        u = mul(v, g_inv)
        acc[v] = get(v, 0) - c
        acc[u] = get(u, 0) + c
        v, u, c = inv(v), inv(u), eps * c
        acc[v] = get(v, 0) + c
        acc[u] = get(u, 0) - c
    return acc


def twists_on_ball(table: PairingTable, elements, classes):
    """Yield (g, twists) for every g of ``elements``, normal form letter
    tuples, where ``twists`` holds the twist T_a(g) of ``add_twist`` for
    each of the table's classes a in ``classes``, in order, as a term dict
    keyed by letter tuples, without zero coefficients (the identity term
    ``()`` may occur).
    The dicts are the caller's to change: the walk keeps its own copy of
    what later elements read.  The walk builds no ``Word``: it takes
    letters and multiplies and inverts them by the spec's kernels
    ``GroupSpec._mul`` and ``GroupSpec._inv``, read once per walk, so no
    product dispatches on the spec's factors unless the spec needs it.

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
    group no lambda value is derived at all.  Relation assembly walks only
    the classes that are not principal; ``add_principal_twist`` gives the
    others.
    """
    spec = table.spec
    index, central = spec._index, spec._central
    mul, inv = spec._mul, spec._inv
    eps = flip_sign(table.dimension)
    factors = spec.factors
    keep_lam = [any(not f.abelian for f in factors[fi:]) for fi in range(len(factors))]
    keep_tw = [any(f.abelian for f in factors[fi:]) for fi in range(len(factors))]
    steps: dict[tuple[str, int], list] = {}  # lambda(a, s) terms of each class
    # letters -> [its lambda values, its twists, its inverse once it is a
    # parent]; values that no child reads are None
    done: dict[tuple, list] = {}
    for letters in elements:
        if not letters:
            empty = [{} for _ in classes]
            done[letters] = [empty, empty, letters]
            yield letters, [{} for _ in classes]
            continue
        name, exp = letters[-1]
        fi, _, order = index[name]
        sign = -1 if shortest_exponent(exp, order) < 0 else 1
        lam_s = steps.get((name, sign))
        if lam_s is None:
            lam_s = steps[name, sign] = [_unit_step(spec, a, name, sign)[1] for a in classes]
        exp -= sign
        if order:
            exp %= order
        p = letters[:-1] + ((name, exp),) if exp else letters[:-1]
        parent = done[p]
        lams = None
        if name not in central or keep_lam[fi]:
            if parent[2] is None and any(lam_s):
                parent[2] = inv(p)
            lams = [_fox_step(mul, dict(lp), ls, parent[2])
                    for lp, ls in zip(parent[0], lam_s)]
        if name in central:
            twists = [add_twist(mul, inv, dict(t), letters, ls, eps)
                      for t, ls in zip(parent[1], lam_s)]
        else:
            twists = [add_twist(mul, inv, {}, letters, lam.items(), eps) for lam in lams]
        done[letters] = [lams, [dict(t) for t in twists] if keep_tw[fi] else None, None]
        yield letters, twists


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

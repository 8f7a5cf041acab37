"""Shared test helpers: group corpus and consistent random pairing data."""

import heapq
import random
from typing import NamedTuple

import pytest

from daxkernel.groups import GroupSpec, inv, mul, normalize, parse_group_spec, render_word
from daxkernel import ring as R
from daxkernel.pairing import PairingTable, SphereClass, _lambda_letter, sphere_class
from daxkernel.calculus import arcs_context, circles_context, dax_translate
from daxkernel.traces import HomotopyTrace

GROUP_TEXTS = [
    "1",
    "Z<t>",
    "Z<a,b>",
    "F<x,y>",
    "F<x,y,z>",
    "Z/3<u>",
    "Z/5<u>",
    "Z<t> x Z/2<u>",
    "F<x,y> x Z<t>",
]


@pytest.fixture(scope="session")
def specs():
    return [parse_group_spec(t) for t in GROUP_TEXTS]


def rng_for(name: str) -> random.Random:
    return random.Random(f"dax-kernel::{name}")


def random_word(rng, spec, max_syllables=3, max_exp=2):
    gens = spec.generators
    if not gens:
        return spec.identity()
    letters = []
    for _ in range(rng.randint(0, max_syllables)):
        e = rng.randint(1, max_exp) * rng.choice((1, -1))
        letters.append((rng.choice(gens), e))
    return normalize(letters, spec)


def random_ring(rng, spec, max_terms=3, max_coeff=3):
    acc = {}
    for _ in range(rng.randint(0, max_terms)):
        w = random_word(rng, spec)
        acc[w] = acc.get(w, 0) + rng.randint(-max_coeff, max_coeff)
    return R.from_terms(spec, acc)


def principal_rows(spec, r):
    """Rows lambda(a, g) = r*(1 - g^-1): consistent for every supported group."""
    rows = {}
    for g in spec.generators:
        gbar = R.monomial(inv(spec.word([(g, 1)])))
        rows[g] = R.gr_mul(r, R.gr_add(R.one(spec), R.gr_neg(gbar)))
    return rows


def is_pure_free(spec: GroupSpec) -> bool:
    return len(spec.factors) == 1 and spec.factors[0].kind == "free"


def random_class(rng, spec, name="a", embedded=None) -> SphereClass:
    """A sphere class whose rows satisfy the derivation-rule constraints."""
    if embedded is None:
        embedded = rng.random() < 0.5
    if is_pure_free(spec) and rng.random() < 0.5:
        rows = {g: random_ring(rng, spec) for g in spec.generators}
    else:
        rows = principal_rows(spec, random_ring(rng, spec))
    lambda_u = random_ring(rng, spec)
    base = R.zero(spec) if embedded else R.gr_bar_reduce(random_ring(rng, spec))
    return sphere_class(spec, name, embedded, base, lambda_u, rows)


def phi_class(spec, s_word, name="phi") -> SphereClass:
    """Boundary sphere of a removed ball: rows 1 - g^-1, arc row 1 - s^-1."""
    rows = {}
    for g in spec.generators:
        rows[g] = R.gr_add(R.one(spec),
                           R.monomial(inv(spec.word([(g, 1)])), -1))
    lam_u = R.gr_add(R.one(spec), R.monomial(inv(s_word), -1))
    return sphere_class(spec, name, True, R.zero(spec), lam_u, rows)


def table_for(spec, classes, d=5, u=None) -> PairingTable:
    return PairingTable(spec, d, tuple(classes),
                        spec.identity() if u is None else u)


def random_arcs_context(rng, spec, d=None, n_classes=None):
    d = d if d is not None else rng.choice((3, 4, 5, 6))
    n = n_classes if n_classes is not None else rng.randint(0, 2)
    classes = [random_class(rng, spec, name=f"a{i}") for i in range(n)]
    return arcs_context(table_for(spec, classes, d=d))


def random_circles_context(rng, spec, d=None):
    d = d if d is not None else rng.choice((3, 4, 5, 6))
    s = random_word(rng, spec)
    classes = [phi_class(spec, s)]
    if rng.random() < 0.5:
        classes.append(random_class(rng, spec, name="b"))
    return circles_context(table_for(spec, classes, d=d), s)


# -- the breadth-first ball: the reference for groups.ball ----------------------------

def reference_ball(spec, radius, limit=200_000):
    """``groups.ball`` as it was before balls were built by extension:
    breadth-first over generator steps with ``mul``, raising once more than
    ``limit`` elements are seen, then sorted by ``word_key``."""
    from daxkernel.errors import BallOverflowError
    from daxkernel.groups import mul, word_key

    if radius < 0:
        return []
    steps = []
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
                        raise BallOverflowError(
                            f"ball of radius {radius} exceeds {limit} elements;"
                            " use a smaller window"
                        )
        frontier = nxt
    return sorted(seen, key=word_key)


# -- the unit-pivot elimination: the reference for rank and torsion --------------------

class Elimination(NamedTuple):
    rank: int
    torsion: list[int]            # invariant factors > 1
    prefix_torsion: list[list[int]]


def _substitute(v, pivots, at):
    """Substitute the unit pivots out of the sparse column ``v``, in place.
    ``pivots`` lists (row, column) pairs in elimination order and ``at`` maps
    a pivot row to its index there; a pivot column has no entries in the
    rows of earlier pivots, so each pivot comes off a heap at most once."""
    heap = [at[i] for i in v if i in at]
    heapq.heapify(heap)
    while heap:
        pos, vec = pivots[heapq.heappop(heap)]
        q = v.get(pos, 0) // vec[pos]
        if not q:
            continue
        for i, c in vec.items():
            new = v.get(i, 0) - q * c
            if not new:
                del v[i]
                continue
            if i not in v and i in at:
                heapq.heappush(heap, at[i])
            v[i] = new
    return v


def _residual_smith(cols, done, eliminated_cols):
    """The Smith form of the columns among the first ``done`` that are left
    after the unit pivots, as a dense block (None when there are none)."""
    from daxkernel.snf import smith_normal_form

    residual_cols = [j for j in range(done) if j not in eliminated_cols and cols[j]]
    residual_rows = sorted({i for j in residual_cols for i in cols[j]})
    if not residual_cols:
        return None
    return smith_normal_form([[cols[j].get(i, 0) for j in residual_cols]
                              for i in residual_rows])


def _torsion(res):
    return [d for d in res.diagonal if d > 1] if res is not None else []


def reference_elimination(cols, n, prefixes=()):
    """Rank, torsion and prefix torsion of the n-row matrix with these sparse
    columns, by the unit-pivot elimination that earlier versions used: unit
    entries are eliminated by substitution, column by column, and the
    columns left over go through a dense Smith form.  The columns enter one
    prefix at a time, each with the pivots found so far substituted out."""
    cols = [{i: c for i, c in col.items() if c} for col in cols]
    row_occ, pivot_at, eliminated_cols, pivots = {}, {}, set(), []
    prefix_torsion, done = [], 0
    for batch, stop in enumerate((*prefixes, len(cols))):
        unit_queue = []
        for j in range(done, stop):
            col = _substitute(cols[j], pivots, pivot_at)
            for i in col:
                row_occ.setdefault(i, set()).add(j)
            if any(abs(v) == 1 for v in col.values()):
                unit_queue.append(j)
        done = stop
        while unit_queue:
            j = unit_queue.pop()
            if j in eliminated_cols:
                continue
            col = cols[j]
            pivot_row = next((i for i in sorted(col)
                              if i not in pivot_at and abs(col[i]) == 1), None)
            if pivot_row is None:
                continue
            piv = col[pivot_row]
            pivot_at[pivot_row] = len(pivots)
            eliminated_cols.add(j)
            pivots.append((pivot_row, col))
            # clear the pivot row from every other column: col_k -= q * col_j
            for k in list(row_occ.get(pivot_row, ())):
                if k == j or k in eliminated_cols:
                    continue
                other = cols[k]
                q = other[pivot_row] * piv  # piv in {1,-1}: q = other/piv
                changed = False
                for i, v in col.items():
                    if i == pivot_row:
                        continue
                    new = other.get(i, 0) - q * v
                    if new:
                        other[i] = new
                        row_occ.setdefault(i, set()).add(k)
                    else:
                        other.pop(i, None)
                        row_occ.get(i, set()).discard(k)
                    changed = True
                del other[pivot_row]
                row_occ[pivot_row].discard(k)
                if changed and any(abs(v) == 1 for i, v in other.items()
                                   if i not in pivot_at):
                    unit_queue.append(k)
        if batch < len(prefixes):
            prefix_torsion.append(_torsion(_residual_smith(cols, done, eliminated_cols)))
    res = _residual_smith(cols, len(cols), eliminated_cols)
    return Elimination(len(pivots) + (res.rank if res is not None else 0),
                       _torsion(res), prefix_torsion)


def reference_structure(rs):
    """quotient_structure from three separate eliminations: the
    window, and its restrictions to the windows W-1 and W-2."""
    from daxkernel.quotient import AbelianStructure, restrict_relationset

    def eliminate(sub):
        index = {w: i for i, w in enumerate(sub.generators)}
        cols = [{index[w]: c for w, c in rel.items()} for rel in sub.relations]
        return reference_elimination(cols, len(sub.generators))

    whole = eliminate(rs)
    prev = eliminate(restrict_relationset(rs, rs.window - 1)).torsion
    stable = whole.torsion == prev
    if rs.window >= 2 and stable:
        stable = prev == eliminate(restrict_relationset(rs, rs.window - 2)).torsion
    return AbelianStructure(len(rs.generators) - whole.rank, tuple(whole.torsion),
                            rs.window, stable)


# -- sparse vectors and the dense Hermite reference ------------------------------------

def sparse(row):
    """A dense integer row as a dict from column to nonzero entry."""
    return {j: c for j, c in enumerate(row) if c}


def dense(vec, m):
    """A sparse vector (dict from column to entry) as a dense row of length m."""
    row = [0] * m
    for j, c in vec.items():
        row[j] = c
    return row


def dense_hermite_row_basis(rows: list[list[int]]) -> list[list[int]]:
    """Canonical basis of the integer row span (row-style Hermite form).

    Pivots positive, in strictly increasing column order; entries above a
    pivot reduced into [0, pivot).  Two matrices have equal row spans iff
    their bases are equal.
    """
    from daxkernel.snf import xgcd

    if not rows:
        return []
    m = len(rows[0])
    pivot_row: dict[int, list[int]] = {}
    for r in rows:
        v = list(r)
        for j in range(m):
            if not v[j]:
                continue
            if j not in pivot_row:
                if v[j] < 0:
                    v = [-x for x in v]
                pivot_row[j] = v
                break
            p = pivot_row[j]
            if v[j] % p[j] == 0:
                q = v[j] // p[j]
                v = [a - q * b for a, b in zip(v, p)]
            else:
                g, x, y = xgcd(p[j], v[j])
                combo = [x * a + y * b for a, b in zip(p, v)]
                qp, qv = p[j] // g, v[j] // g
                new_v = [qp * b - qv * a for a, b in zip(p, v)]
                pivot_row[j] = combo
                v = new_v
        # fully reduced vectors vanish
    basis = [pivot_row[j] for j in sorted(pivot_row)]
    # normalize entries above each pivot; increasing pivot order so that the
    # columns a reduction disturbs are themselves normalized later
    for idx in range(1, len(basis)):
        row = basis[idx]
        j = next(k for k, x in enumerate(row) if x)
        for above in range(idx):
            q = basis[above][j] // row[j]
            if q:
                basis[above] = [a - q * b for a, b in zip(basis[above], row)]
    return basis


def dense_reduce_mod_rows(vec: list[int], basis: list[list[int]]) -> list[int]:
    """Canonical coset representative of vec modulo the span of the basis."""
    v = list(vec)
    for row in basis:
        j = next(k for k, x in enumerate(row) if x)
        q = v[j] // row[j]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return v


def dense_coords(rows, vec):
    """(free, torsion) coordinates of a dense vector modulo the span of the
    dense rows, from the dense Hermite basis: the residue of the vector is
    zero at the unit pivots; its entries at the columns outside the pivots
    and the non-unit rows are free coordinates, and the left transform of
    the Smith form of the non-unit rows (as columns) maps its entries at the
    columns those rows touch to the rest."""
    from daxkernel.snf import smith_normal_form

    basis = dense_hermite_row_basis(rows)
    v = dense_reduce_mod_rows(vec, basis)
    pivots = {next(j for j, x in enumerate(row) if x): row for row in basis}
    block = [row for j, row in pivots.items() if row[j] != 1]
    touched = [j for j in range(len(vec)) if any(row[j] for row in block)]
    free = [v[j] for j in range(len(vec)) if j not in pivots and j not in touched]
    tors = []
    if block:
        res = smith_normal_form([[row[j] for row in block] for j in touched],
                                want_left=True)
        for i, left in enumerate(res.left):
            d = res.diagonal[i] if i < len(res.diagonal) else 0
            if d == 1:
                continue
            y = sum(a * v[j] for a, j in zip(left, touched))
            if d == 0:
                free.append(y)
            else:
                tors.append(y % d)
    return tuple(free), tuple(tors)


def dense_orbit(value, rs, centralizer, whisker):
    """(representative, complete, size) of the centralizer orbit of value,
    searched over dense residue vectors of the dense Hermite basis; the
    representative is the least state by its nonzero (index, coefficient)
    pairs."""
    from collections import deque

    from daxkernel.quotient import column

    index = {w: i for i, w in enumerate(rs.generators)}
    n = len(rs.generators)
    basis = dense_hermite_row_basis([dense(column(index, r), n) for r in rs.relations])

    def state(elem):
        return tuple(dense_reduce_mod_rows(dense(column(index, elem), n), basis))

    def elem(vec):
        return R.from_terms(rs.spec, [(w, c) for w, c in zip(rs.generators, vec) if c])

    moves, seen_moves = [], set()
    for b in centralizer:
        w_b = R.gr_bar_reduce(whisker.get(b, R.zero(rs.spec)))
        bi = inv(b)
        w_bi = whisker.get(bi)
        w_bi = (R.gr_neg(R.gr_conj(bi, w_b)) if w_bi is None
                else R.gr_bar_reduce(w_bi))
        for move in ((b, w_b), (bi, w_bi)):
            if move[0] not in seen_moves:
                seen_moves.add(move[0])
                moves.append(move)

    start = state(value)
    visited, queue, complete = {start}, deque([start]), True
    while queue:
        if len(visited) > 4096:
            complete = False
            break
        r = elem(queue.popleft())
        for b, w_b in moves:
            moved = R.gr_add(R.gr_conj(b, r), w_b)
            if any(w not in index for w in moved.support()):
                complete = False
                continue
            key = state(moved)
            if key not in visited:
                visited.add(key)
                queue.append(key)
    rep = min(visited, key=lambda vec: tuple((i, c) for i, c in enumerate(vec) if c))
    return elem(rep), complete, len(visited)


# -- helpers that only the tests call ------------------------------------------------

def concat_traces(t1, t2):
    """The trace of t1 followed by t2."""
    return HomotopyTrace(t1.events + t2.events)


def translated_class(ctx, h, a):
    """The class h*a as a derived SphereClass with shifted rows.

    base dax via the translation formula; pairing rows pick up a left factor.
    """
    rows = tuple((gen, R.left_mul(h, row)) for gen, row in a.lambda_gen)
    name = a.name if h.is_identity else f"({render_word(h)})*{a.name}"
    return SphereClass(
        name=name,
        embedded=a.embedded and h.is_identity,
        base_dax=dax_translate(h, a, ctx),
        lambda_u=R.left_mul(h, a.lambda_u),
        lambda_gen=rows,
    )


def lambda_on_ball(table, a, elements):
    """lambda(a, g) as a term dict without zeros, for every g of ``elements``:
    the walk that relation assembly made before it carried twists, kept as
    its reference.

    ``elements`` is a ball listed by word length, as ``groups.ball`` returns
    it.  Each non-identity g is p*s, where s = x^(+-1) steps along the last
    letter's generator, signed like its shortest exponent, so p is one
    shorter and already done:  lambda(a, g) = lambda(a, p) + lambda(a, s) p^-1.
    The parent p is read off g's letters: its last letter is g's stepped one
    toward zero (modulo the order in a finite cyclic factor), and dropped
    when that reaches zero.
    """
    spec = table.spec
    index = spec._index
    steps = {}
    values = {}
    # letters -> [the element, its value, its inverse once it is a parent]
    done = {}
    for g in elements:
        letters = g.letters
        if not letters:
            values[g] = {}
            done[letters] = [g, {}, g]
            continue
        name, exp = letters[-1]
        order = index[name][2]
        sign = -1 if exp < 0 or (order and exp > order - exp) else 1
        lam_s = steps.get((name, sign))
        if lam_s is None:
            lam_s = steps[name, sign] = _lambda_letter(spec, a, name, sign).terms
        exp -= sign
        if order:
            exp %= order
        parent = done[letters[:-1] + ((name, exp),) if exp else letters[:-1]]
        val = dict(parent[1])
        if lam_s:
            p_inv = parent[2]
            if p_inv is None:
                p_inv = parent[2] = inv(parent[0])
            for w, c in lam_s:
                v = mul(w, p_inv)
                c += val.get(v, 0)
                if c:
                    val[v] = c
                else:
                    del val[v]
        values[g] = val
        done[letters] = [g, val, None]
    return values


# -- relation assembly: the reference that classifies RingElems ------------------------

def reference_assemble(ctx, window, circles, whisker, embedded):
    """``quotient._assemble`` as it was before values were classified by
    generator index: every value is a ``RingElem`` sorted by ``word_key``,
    kept when its support lies in the window and not seen before as a
    ``RingElem``, dropped otherwise (a base relation raises instead)."""
    from daxkernel import quotient as Q
    from daxkernel.calculus import dax_boundary_sphere, dax_u_embedded, dax_u_general
    from daxkernel.errors import SceneError, WindowOverflowError
    from daxkernel.groups import word_key

    if window < 1:
        raise SceneError("window must be >= 1")
    spec = ctx.spec
    gens = Q.window_generators(spec, window)
    gens_set = set(gens)
    enum = (spec.identity(),) + gens
    kept, prov, dropped, seen = [], [], [], set()

    def classify(val, provenance, from_identity):
        if val.is_zero:
            return
        if all(w in gens_set for w in val.support()):
            if val not in seen:
                seen.add(val)
                kept.append(val)
                prov.append(provenance)
            return
        if from_identity:
            raise WindowOverflowError(
                f"base relation {val} exceeds the generator window; increase the"
                " window", str(val))
        dropped.append((provenance, {w.letters: c for w, c in val.terms}))

    classes = ctx.table.classes
    lam = [lambda_on_ball(ctx.table, a, enum) for a in classes]
    dax = dax_u_embedded if embedded else dax_u_general
    class_prov = Q.PROV_SPHERE_3MFD if embedded else Q.PROV_DAX_IMAGE
    for g in enum:
        for a, lam_a in zip(classes, lam):
            classify(dax(g, a, ctx, lam_a[g].items()), class_prov, g.is_identity)
    if circles:
        for g in enum:
            classify(dax_boundary_sphere(g, ctx), Q.PROV_BOUNDARY, g.is_identity)
        for val in whisker.values():
            if val.spec != spec:
                raise SceneError("whisker value over a different group spec")
        whisker = {b: R.gr_bar_reduce(v) for b, v in whisker.items()}
        Q._validate_whisker_keys(ctx, whisker)
        if whisker:
            index = {w.letters: i for i, w in enumerate(gens)}
            Q._validate_whisker_action(
                ctx, whisker, index,
                [tuple((index[w.letters], c) for w, c in r.terms) for r in kept])
        for b in sorted(whisker, key=word_key):
            classify(whisker[b], Q.PROV_WHISKER, True)
    return Q.RelationSet(spec, window, gens, tuple(kept), tuple(prov), tuple(dropped))


def reference_dropped(rs):
    """``RelationSet.dropped`` by its earlier body: each dropped term dict
    turned into Words and sorted into a ``RingElem`` by ``ring.from_letters``."""
    return tuple((p, R.from_letters(rs.spec, terms)) for p, terms in rs.dropped_terms)


def assert_report_matches_reference(report, rs):
    """The generators, relations and dropped values of a ``target`` report
    are ``str`` of the Words and RingElems of ``rs``, its dropped values
    built by ``reference_dropped``."""
    assert report["generators"] == [str(g) for g in rs.generators]
    assert report["relations"] == [{"value": str(rel), "provenance": p}
                                   for rel, p in zip(rs.relations, rs.provenance)]
    assert report["dropped_relations"] == [{"provenance": p, "value": str(val)}
                                           for p, val in reference_dropped(rs)]


def assembled(build):
    """(generators, relations, provenance, dropped) of the relation set that
    ``build()`` returns, or the type and text of the error it raises.  Every
    relation's terms must be in strictly increasing ``word_key`` order."""
    from daxkernel.errors import DaxKernelError
    from daxkernel.groups import word_key

    try:
        rs = build()
    except DaxKernelError as exc:
        return type(exc), str(exc)
    if isinstance(rs, tuple):  # build_rel_3mfd and cli.build_relations
        rs = rs[0]
    for rel in rs.relations:
        keys = [word_key(w) for w, _ in rel.terms]
        assert all(a < b for a, b in zip(keys, keys[1:])), str(rel)
    assert rs.dropped == reference_dropped(rs)
    return rs.generators, rs.relations, rs.provenance, rs.dropped


def assert_assembly_matches_reference(build):
    """``build()`` gives the same relations (terms and order), provenance,
    dropped values and overflow error through ``quotient._assemble`` as
    through ``reference_assemble``; returns what it gives."""
    from daxkernel import quotient as Q

    got = assembled(build)
    saved = Q._assemble
    Q._assemble = reference_assemble
    try:
        want = assembled(build)
    finally:
        Q._assemble = saved
    assert got == want
    return got


def random_whisker(rng, ctx):
    """One or two whisker entries keyed in the centralizer of the circle
    class: powers of it, mostly with the zero value that the action law asks
    for, and random words that commute with it, with values on the ball of
    radius 2.  Some tables break the action law or leave the window."""
    from daxkernel.groups import ball, mul

    s, spec = ctx.s_class, ctx.spec
    short = ball(spec, 2)[1:]
    whisker = {}
    for _ in range(rng.randint(1, 2)):
        power = rng.random() < 0.4
        b = rng.choice((s, inv(s), mul(s, s))) if power else random_word(rng, spec, max_exp=1)
        if b.is_identity or mul(mul(s, b), inv(s)) != b:
            continue
        terms = [] if power and rng.random() < 0.9 or not short else [
            (rng.choice(short), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(1, 2))]
        whisker[b] = R.from_terms(spec, terms)
    return whisker

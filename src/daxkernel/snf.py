"""Exact integer matrix normal forms.

Smith normal form over arbitrary-precision integers with a deterministic
minimal-pivot strategy (keeps coefficient growth down), optional unimodular
transforms, a sparse elimination, a Hermite-style canonical basis of a row
span, and an integer linear solver with infeasibility certificates.  Sparse
vectors are dicts from index to nonzero entry; one routine reduces them by a
list of pivots, for the elimination and the Hermite basis alike.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass, field


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b == g == gcd(a, b), g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


@dataclass
class SmithResult:
    diagonal: list[int]   # d_1 | d_2 | ... then zeros; length min(n, m)
    rank: int
    left: list[list[int]] | None    # U with U*A*V = D (n x n)
    right: list[list[int]] | None   # V (m x m)


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(rows: list[list[int]], want_left: bool = False,
                      want_right: bool = False) -> SmithResult:
    """Diagonalize an integer matrix by unimodular row/column operations."""
    M = [list(r) for r in rows]
    n = len(M)
    m = len(M[0]) if n else 0
    U = _identity(n) if want_left else None
    V = _identity(m) if want_right else None

    def row_sub(i, k, q):  # row_i -= q * row_k
        Mi, Mk = M[i], M[k]
        for j in range(m):
            Mi[j] -= q * Mk[j]
        if U is not None:
            Ui, Uk = U[i], U[k]
            for j in range(n):
                Ui[j] -= q * Uk[j]

    def col_sub(j, k, q):  # col_j -= q * col_k
        for i in range(n):
            M[i][j] -= q * M[i][k]
        if V is not None:
            for i in range(m):
                V[i][j] -= q * V[i][k]

    def row_swap(i, k):
        M[i], M[k] = M[k], M[i]
        if U is not None:
            U[i], U[k] = U[k], U[i]

    def col_swap(j, k):
        for i in range(n):
            M[i][j], M[i][k] = M[i][k], M[i][j]
        if V is not None:
            for i in range(m):
                V[i][j], V[i][k] = V[i][k], V[i][j]

    def row_negate(i):
        M[i] = [-x for x in M[i]]
        if U is not None:
            U[i] = [-x for x in U[i]]

    def min_pivot(t):
        best = None
        for i in range(t, n):
            Mi = M[i]
            for j in range(t, m):
                v = Mi[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
                    if best[0] == 1:
                        return best
        return best

    t = 0
    while t < min(n, m):
        best = min_pivot(t)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if M[t][t] < 0:
            row_negate(t)

        while True:
            # clear column t
            dirty = False
            for i in range(n):
                if i != t and M[i][t]:
                    q = M[i][t] // M[t][t]
                    row_sub(i, t, q)
                    if M[i][t]:
                        row_swap(t, i)  # strictly smaller remainder becomes pivot
                        if M[t][t] < 0:
                            row_negate(t)
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(m):
                if j != t and M[t][j]:
                    q = M[t][j] // M[t][t]
                    col_sub(j, t, q)
                    if M[t][j]:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            # divisibility of the remaining block by the pivot
            piv = M[t][t]
            offender = None
            for i in range(t + 1, n):
                Mi = M[i]
                for j in range(t + 1, m):
                    if Mi[j] % piv:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(t, offender, -1)  # fold the offending row in and repeat
        t += 1

    k = min(n, m)
    diag = [M[i][i] for i in range(k)]
    rank = sum(1 for d in diag if d)
    for i in range(rank - 1):
        assert diag[i + 1] % diag[i] == 0
    return SmithResult(diag, rank, U, V)


@dataclass
class SparseElimination:
    """Record of one sparse elimination of an n-row matrix.

    Read as a change of basis of Z^n modulo the column span: each unit pivot
    substitutes its row away, then the surviving rows split into free rows
    that no remaining column touches and a residual block with its own Smith
    form.
    """

    rank: int
    torsion: list[int]            # invariant factors > 1
    # (pivot row, frozen column) in elimination order; the column's entry in
    # its pivot row is 1 or -1, and it has no entries in earlier pivot rows
    pivots: list[tuple[int, dict[int, int]]]
    pivot_at: dict[int, int]      # pivot row -> its index in pivots
    free_rows: list[int]          # uneliminated rows outside the residual block
    residual_rows: list[int]
    residual_diagonal: list[int]  # Smith diagonal of the residual block
    residual_left: list[list[int]]  # its left transform U (U*B*V = D)
    # invariant factors > 1 of each requested column prefix, in request order
    prefix_torsion: list[list[int]] = field(default_factory=list)


def _reduce(v: dict[int, int], pivots, at: dict[int, int]) -> dict[int, int]:
    """Reduce the sparse vector ``v`` in place by the pivots, in pivot order.

    ``pivots`` lists (position, vector) pairs and ``at`` maps each pivot
    position to its index in that list.  Pivot k subtracts q * vector with
    q = v[position] // vector[position]: a unit pivot clears the entry, a
    larger one leaves it in [0, pivot).  No pivot's vector has entries at the
    positions of earlier pivots, so the pivots to apply come off a heap of
    pivot indices, each at most once.  Vectors hold no zero entries.
    """
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


def _residual_smith(cols, done: int, eliminated_cols, want_left: bool):
    """Residual columns and rows among the first ``done`` columns, and the
    Smith form of that block (None when it is empty)."""
    residual_cols = [j for j in range(done)
                     if j not in eliminated_cols and cols[j]]
    residual_rows = sorted({i for j in residual_cols for i in cols[j]})
    if not residual_cols:
        return residual_rows, None
    index = {i: k for k, i in enumerate(residual_rows)}
    dense = [[0] * len(residual_cols) for _ in residual_rows]
    for c, j in enumerate(residual_cols):
        for i, v in cols[j].items():
            dense[index[i]][c] = v
    return residual_rows, smith_normal_form(dense, want_left=want_left)


def _torsion(res: SmithResult | None) -> list[int]:
    return [d for d in res.diagonal if d > 1] if res is not None else []


def sparse_rank_and_torsion(cols: list[dict[int, int]], n: int,
                            prefixes: Sequence[int] = ()) -> SparseElimination:
    """Sparse elimination of the n-row matrix with the given sparse columns.

    Unit entries are eliminated by substitution first (unimodular, no
    coefficient growth, invariant factor 1 each); the usually tiny residual
    block goes through ``smith_normal_form`` with its left transform.  Exact,
    and fast on the two-term unit-coefficient matrices produced by folding
    relations.  The record gives the rank, the invariant factors > 1 and
    enough of the transform to map vectors to quotient coordinates.

    ``prefixes`` lists non-decreasing column counts, none above len(cols).
    The columns then enter one prefix at a time: each new column has the
    pivots found so far substituted out before the unit loop resumes, so the
    state after a prefix is an elimination of exactly its columns, and a
    Smith form of its residual block gives that prefix's invariant factors
    (``prefix_torsion``).  Without prefixes all columns enter at once.
    """
    cols = [dict(c) for c in cols]
    row_occ: dict[int, set[int]] = {}
    pivot_at: dict[int, int] = {}  # pivot row -> its index in pivots
    eliminated_cols: set[int] = set()
    pivots: list[tuple[int, dict[int, int]]] = []
    prefix_torsion: list[list[int] | None] = []
    done = 0

    for batch, stop in enumerate((*prefixes, len(cols))):
        unit_queue = []
        for j in range(done, stop):
            col = cols[j]
            if pivots:
                _reduce(col, pivots, pivot_at)
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
            pivot_row = None
            for i in sorted(col):
                if i not in pivot_at and abs(col[i]) == 1:
                    pivot_row = i
                    break
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
                        occ = row_occ.get(i)
                        if occ:
                            occ.discard(k)
                    changed = True
                del other[pivot_row]
                row_occ[pivot_row].discard(k)
                if changed and any(abs(v) == 1 for i, v in other.items()
                                   if i not in pivot_at):
                    unit_queue.append(k)

        if batch < len(prefixes):
            # a prefix of all the columns takes the record's own torsion below
            prefix_torsion.append(
                _torsion(_residual_smith(cols, done, eliminated_cols, False)[1])
                if done < len(cols) else None)

    # columns left over never touch a pivot row: each pivot cleared its row
    # from every column not yet eliminated, and each later column had the
    # pivots substituted out on entry
    residual_rows, res = _residual_smith(cols, len(cols), eliminated_cols, True)
    in_block = set(residual_rows)
    free_rows = [i for i in range(n) if i not in pivot_at and i not in in_block]
    rank, torsion, diagonal, left = len(pivots), _torsion(res), [], []
    if res is not None:
        rank += res.rank
        diagonal, left = res.diagonal, res.left
    prefix_torsion = [torsion if t is None else t for t in prefix_torsion]
    return SparseElimination(rank, torsion, pivots, pivot_at, free_rows,
                             residual_rows, diagonal, left, prefix_torsion)


# ---------------------------------------------------------------------------
# row-span canonical form and residues
# ---------------------------------------------------------------------------

def _combine(x: int, a: dict[int, int], y: int, b: dict[int, int]) -> dict[int, int]:
    """x*a + y*b for sparse vectors, without zero entries."""
    out = {i: x * c for i, c in a.items()}
    for i, c in b.items():
        out[i] = out.get(i, 0) + y * c
    return {i: c for i, c in out.items() if c}


def hermite_row_basis(rows: list[dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """Canonical basis of the integer row span (row-style Hermite form).

    Rows are sparse: dicts from column to entry.  The basis lists (pivot
    column, row) pairs in strictly increasing pivot order; pivots are
    positive and the entries above a pivot are reduced into [0, pivot).  Two
    matrices have equal row spans iff their bases are equal.
    """
    pivot_row: dict[int, dict[int, int]] = {}
    for r in rows:
        v = {j: c for j, c in r.items() if c}
        while v:
            j = min(v)
            p = pivot_row.get(j)
            if p is None:
                pivot_row[j] = v if v[j] > 0 else {i: -c for i, c in v.items()}
                break
            if v[j] % p[j] == 0:
                v = _combine(1, v, -(v[j] // p[j]), p)
            else:
                g, x, y = xgcd(p[j], v[j])
                pivot_row[j], v = (_combine(x, p, y, v),
                                   _combine(p[j] // g, v, -(v[j] // g), p))
        # fully reduced vectors vanish
    basis = sorted(pivot_row.items())
    at = pivot_index(basis)
    # entries above each pivot: every row is reduced by the rows below it,
    # in increasing pivot order, leaving its own pivot aside
    for j, row in basis:
        lead = row.pop(j)
        _reduce(row, basis, at)
        row[j] = lead
    return basis


def pivot_index(basis: list[tuple[int, dict[int, int]]]) -> dict[int, int]:
    """Pivot column -> position in a ``hermite_row_basis``; build it once
    per basis and pass it to every ``reduce_mod_rows`` call."""
    return {j: k for k, (j, _) in enumerate(basis)}


def reduce_mod_rows(vec: dict[int, int], basis: list[tuple[int, dict[int, int]]],
                    at: dict[int, int]) -> dict[int, int]:
    """Canonical coset representative of the sparse vector ``vec`` modulo
    the span of a ``hermite_row_basis``, whose ``pivot_index`` is ``at``;
    zero entries are dropped."""
    return _reduce({i: c for i, c in vec.items() if c}, basis, at)


# ---------------------------------------------------------------------------
# integer linear solve with certificates
# ---------------------------------------------------------------------------

@dataclass
class SolveFailure:
    """Certificate that M x = b has no integer solution.

    ``combination`` is an integer row vector y.  If ``modulus`` is None then
    y*M = 0 while y*b != 0; otherwise y*M == 0 (mod modulus) entrywise while
    y*b != 0 (mod modulus).
    """

    combination: list[int]
    modulus: int | None
    mismatch: int


def solve_integer(M: list[list[int]], b: list[int]):
    """Solve M x = b over the integers.

    Returns (x, None) on success, (None, SolveFailure) otherwise.
    """
    n = len(M)
    m = len(M[0]) if n else 0
    if n == 0:
        return [0] * m, None
    res = smith_normal_form(M, want_left=True, want_right=True)
    ub = [sum(res.left[i][k] * b[k] for k in range(n)) for i in range(n)]
    z = [0] * m
    for i in range(n):
        d = res.diagonal[i] if i < len(res.diagonal) else 0
        if d:
            if ub[i] % d:
                return None, SolveFailure(list(res.left[i]), d, ub[i] % d)
            if i < m:
                z[i] = ub[i] // d
        elif ub[i]:
            return None, SolveFailure(list(res.left[i]), None, ub[i])
    x = [sum(res.right[i][k] * z[k] for k in range(m)) for i in range(m)]
    return x, None

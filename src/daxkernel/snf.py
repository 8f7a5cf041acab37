"""Exact integer matrix normal forms.

Smith normal form over arbitrary-precision integers with a deterministic
minimal-pivot strategy (keeps coefficient growth down), optional unimodular
transforms, a Hermite-style canonical basis of a row span, and an integer
linear solver with infeasibility certificates.
"""

from __future__ import annotations

from dataclasses import dataclass


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


def invariant_factors(rows: list[list[int]]) -> list[int]:
    """Nontrivial invariant factors (entries > 1) of the matrix."""
    res = smith_normal_form(rows)
    return [d for d in res.diagonal if d > 1]


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
    # (pivot row, sign, frozen column) in elimination order; a pivot column
    # has no entries in earlier pivot rows
    pivots: list[tuple[int, int, dict[int, int]]]
    free_rows: list[int]          # uneliminated rows outside the residual block
    residual_rows: list[int]
    residual_diagonal: list[int]  # Smith diagonal of the residual block
    residual_left: list[list[int]]  # its left transform U (U*B*V = D)


def sparse_rank_and_torsion(cols: list[dict[int, int]], n: int) -> SparseElimination:
    """Sparse elimination of the n-row matrix with the given sparse columns.

    Unit entries are eliminated by substitution first (unimodular, no
    coefficient growth, invariant factor 1 each); the usually tiny residual
    block goes through the dense Smith form with its left transform.  Exact,
    and fast on the two-term unit-coefficient matrices produced by folding
    relations.  The record gives the rank, the invariant factors > 1 and
    enough of the transform to map vectors to quotient coordinates.
    """
    cols = [dict(c) for c in cols]
    row_occ: dict[int, set[int]] = {}
    for j, col in enumerate(cols):
        for i in col:
            row_occ.setdefault(i, set()).add(j)

    unit_queue = [j for j, col in enumerate(cols)
                  if any(abs(v) == 1 for v in col.values())]
    eliminated_rows: set[int] = set()
    eliminated_cols: set[int] = set()
    pivots: list[tuple[int, int, dict[int, int]]] = []

    while unit_queue:
        j = unit_queue.pop()
        if j in eliminated_cols:
            continue
        col = cols[j]
        pivot_row = None
        for i in sorted(col):
            if i not in eliminated_rows and abs(col[i]) == 1:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        piv = col[pivot_row]
        eliminated_rows.add(pivot_row)
        eliminated_cols.add(j)
        pivots.append((pivot_row, piv, col))
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
                               if i not in eliminated_rows):
                unit_queue.append(k)

    # columns left over never touch a pivot row: each pivot cleared its row
    # from every column not yet eliminated
    residual_cols = [j for j in range(len(cols))
                     if j not in eliminated_cols and cols[j]]
    residual_rows = sorted({i for j in residual_cols for i in cols[j]})
    in_block = set(residual_rows)
    free_rows = [i for i in range(n)
                 if i not in eliminated_rows and i not in in_block]
    rank, torsion, diagonal, left = len(pivots), [], [], []
    if residual_cols:
        index = {i: k for k, i in enumerate(residual_rows)}
        dense = [[0] * len(residual_cols) for _ in residual_rows]
        for c, j in enumerate(residual_cols):
            for i, v in cols[j].items():
                dense[index[i]][c] = v
        res = smith_normal_form(dense, want_left=True)
        rank += res.rank
        torsion = [d for d in res.diagonal if d > 1]
        diagonal, left = res.diagonal, res.left
    return SparseElimination(rank, torsion, pivots, free_rows, residual_rows,
                             diagonal, left)


# ---------------------------------------------------------------------------
# row-span canonical form and residues
# ---------------------------------------------------------------------------

def hermite_row_basis(rows: list[list[int]]) -> list[list[int]]:
    """Canonical basis of the integer row span (row-style Hermite form).

    Pivots positive, in strictly increasing column order; entries above a
    pivot reduced into [0, pivot).  Two matrices have equal row spans iff
    their bases are equal.
    """
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


def reduce_mod_rows(vec: list[int], basis: list[list[int]]) -> list[int]:
    """Canonical coset representative of vec modulo the span of the basis."""
    v = list(vec)
    for row in basis:
        j = next(k for k, x in enumerate(row) if x)
        q = v[j] // row[j]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return v


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

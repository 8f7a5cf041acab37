"""Exact integer matrix normal forms.

The Hermite basis of a sparse lattice with the structure of its quotient,
Smith normal form over arbitrary-precision integers with its unimodular
transforms, and an integer linear solver with infeasibility certificates.
Sparse vectors are dicts from index to nonzero entry.  An echelon basis is
a dict from pivot position to row; one routine reduces a vector by it, to
insert the vector into the basis, to reduce the entries above the pivots
and to give canonical residues.  One gcd step (``_insert``) serves the
Hermite basis, the residual block and the solver.
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
    left: list[dict[int, int]]   # the rows of U, with U*A*V = D (U is n x n)
    right: list[dict[int, int]]  # the columns of V (V is m x m)


@dataclass
class SparseElimination:
    """The Hermite basis of a lattice of Z^n and the structure of its quotient.

    Read as a change of basis of Z^n modulo the lattice: the canonical
    residue of a vector is zero at the unit pivots, and its other entries
    split into free rows and the rows of a residual block.  The block's
    columns are the non-unit basis rows, its rows the positions they touch,
    and it has its own Smith form.
    """

    rank: int
    torsion: list[int]            # invariant factors > 1
    basis: dict[int, dict[int, int]]  # the Hermite basis, as hermite_row_basis
    free_rows: list[int]          # rows outside the pivots and the residual block
    residual_rows: list[int]
    # Smith diagonal of the residual block, with a 0 for each row past it
    residual_diagonal: list[int]
    # the rows of its left transform U (U*B*V = D), keyed by window position
    residual_left: list[dict[int, int]]
    # invariant factors > 1 of each requested column prefix, in request order
    prefix_torsion: list[list[int]] = field(default_factory=list)


def _reduce(v: dict[int, int], rows: dict[int, dict[int, int]]) -> dict[int, int]:
    """Reduce the sparse vector ``v`` in place by an echelon basis.

    ``rows`` maps each pivot position to its row, whose entries lie at that
    position and after it.  The row at position p subtracts q * row with
    q = v[p] // row[p]: a unit pivot clears the entry, a larger one leaves it
    in [0, row[p]).  A row adds entries only after its pivot, so the
    positions come off a heap in increasing order, each settled for good.
    Vectors hold no zero entries.
    """
    heap = [i for i in v if i in rows]
    heapq.heapify(heap)
    while heap:
        pos = heapq.heappop(heap)
        row = rows[pos]
        q = v.get(pos, 0) // row[pos]
        if not q:
            continue
        for i, c in row.items():
            new = v.get(i, 0) - q * c
            if not new:
                del v[i]
                continue
            if i not in v and i in rows:
                heapq.heappush(heap, i)
            v[i] = new
    return v


def _combine(x: int, a: dict[int, int], y: int, b: dict[int, int]) -> dict[int, int]:
    """x*a + y*b for sparse vectors, without zero entries."""
    out = {i: x * c for i, c in a.items()}
    for i, c in b.items():
        out[i] = out.get(i, 0) + y * c
    return {i: c for i, c in out.items() if c}


def _insert(rows: dict[int, dict[int, int]], v: dict[int, int]) -> None:
    """Add the sparse vector ``v`` to the lattice of the echelon basis
    ``rows``, in place; ``v`` is consumed.  The pivot of a row is its
    smallest position, and it is positive."""
    while _reduce(v, rows):
        j = min(v)
        row = rows.get(j)
        if row is None:
            rows[j] = v if v[j] > 0 else {i: -c for i, c in v.items()}
            return
        # v[j] is in (0, row[j]) now: the gcd becomes the pivot, and the
        # combination with no entry at j goes round again
        g, x, y = xgcd(row[j], v[j])
        rows[j], v = (_combine(x, row, y, v),
                      _combine(row[j] // g, v, -(v[j] // g), row))


def _hermite(rows: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """The echelon basis ``rows`` with the entries above each pivot reduced
    into [0, pivot), in increasing pivot order: the Hermite basis of its
    lattice.  Each row is reduced by the rows after it, its own pivot left
    aside."""
    basis = dict(sorted(rows.items()))
    for j, row in basis.items():
        lead = row.pop(j)
        _reduce(row, basis)
        row[j] = lead
    return basis


def _echelon(vectors: list[dict[int, int]]) -> list[dict[int, int]]:
    """An echelon basis of the lattice of the sparse vectors (consumed), in
    increasing pivot order."""
    rows: dict[int, dict[int, int]] = {}
    for v in vectors:
        _insert(rows, v)
    return [rows[j] for j in sorted(rows)]


def _transpose(src: list[dict[int, int]], size: int,
               dst: list[dict[int, int]], dst_size: int) -> list[dict[int, int]]:
    """The vectors ``dst`` with their entries below ``dst_size`` replaced by
    the transpose of the entries of ``src`` below ``size``."""
    out = [{i: c for i, c in v.items() if i >= dst_size} for v in dst]
    for i, v in enumerate(src):
        for j, c in v.items():
            if j < size:
                out[j][i] = c
    return out


def smith_normal_form(rows: list[list[int]]) -> SmithResult:
    """Diagonalize an integer matrix by unimodular row/column operations,
    with both transforms.

    Row and column echelon steps (``_echelon``) alternate until every row
    keeps one entry.  A row of the n x m matrix is a sparse vector with its
    entries at 0..m-1 and its row of U from m on; a column has its entries
    at 0..n-1 and its column of V from n on.  Each round makes the leading
    entry the gcd of its column, then of its row, so it cannot grow: it
    falls to a proper divisor, or its row and column stay clear and the
    next entry goes the same way.  Then each diagonal entry a and each later
    entry b that it does not divide become gcd(a, b) and lcm(a, b) by one
    2 x 2 step on their rows of U and columns of V, so d_1 | d_2 | ...  At
    the end each row's entry is permuted onto the diagonal.  The transforms
    are returned as those sparse vectors: U's rows with their keys shifted
    down by m, and V's columns with theirs shifted down by n.
    """
    n = len(rows)
    m = len(rows[0]) if n else 0
    R = _echelon([{**{j: c for j, c in enumerate(row) if c}, m + i: 1}
                  for i, row in enumerate(rows)])
    C = [{n + j: 1} for j in range(m)]
    while True:
        entries = [[(j, c) for j, c in row.items() if j < m] for row in R]
        if all(len(e) <= 1 for e in entries):
            break
        C = _echelon(_transpose(R, m, C, n))
        R = _echelon(_transpose(C, n, R, m))

    on_diagonal = [e[0][0] for e in entries if e]
    diag = [e[0][1] for e in entries if e]
    for k, a_col in enumerate(on_diagonal):
        for l in range(k + 1, len(diag)):
            a, b = diag[k], diag[l]
            if b % a:
                # [x y; -b/g a/g] diag(a, b) [1 -y*b/g; 1 x*a/g] = diag(g, a*b/g)
                g, x, y = xgcd(a, b)
                b_col = on_diagonal[l]
                R[k], R[l] = _combine(x, R[k], y, R[l]), _combine(-b // g, R[k], a // g, R[l])
                C[a_col], C[b_col] = (_combine(1, C[a_col], 1, C[b_col]),
                                      _combine(-y * b // g, C[a_col], x * a // g, C[b_col]))
                diag[k], diag[l] = g, a * b // g

    rest = sorted(set(range(m)).difference(on_diagonal))
    left = [{i - m: c for i, c in row.items() if i >= m} for row in R]
    right = [{i - n: c for i, c in C[j].items() if i >= n} for j in on_diagonal + rest]
    return SmithResult(diag + [0] * (min(n, m) - len(diag)), len(diag), left, right)


def _residual_smith(rows: dict[int, dict[int, int]]):
    """The rows of the residual block of an echelon basis, and the Smith
    form of that block (None when it is empty).

    The unit rows are unitriangular on their pivots, so the Smith form of
    the basis is 1s beside that of its non-unit rows reduced by the unit
    rows.  Those reduced rows, in the basis order, are the columns of the
    block, over the positions they touch.
    """
    units = {j: row for j, row in rows.items() if row[j] == 1}
    block = [_reduce(dict(row), units) for j, row in rows.items() if row[j] != 1]
    residual_rows = sorted({i for vec in block for i in vec})
    if not block:
        return residual_rows, None
    index = {i: k for k, i in enumerate(residual_rows)}
    dense = [[0] * len(block) for _ in residual_rows]
    for c, vec in enumerate(block):
        for i, v in vec.items():
            dense[index[i]][c] = v
    return residual_rows, smith_normal_form(dense)


def _torsion(res: SmithResult | None) -> list[int]:
    return [d for d in res.diagonal if d > 1] if res is not None else []


def sparse_rank_and_torsion(cols: list[dict[int, int]], n: int,
                            prefixes: Sequence[int] = ()) -> SparseElimination:
    """The Hermite basis of the span of the sparse columns, and the structure
    of Z^n modulo it.

    Each column is reduced by the echelon rows found so far and inserted
    (``_insert``); at the end the entries above the pivots are reduced,
    which gives the canonical Hermite basis.  Its non-unit rows are the
    residual block: their Smith form, with its left transform, gives the
    invariant factors > 1 and maps a canonical residue to quotient
    coordinates.  The rank is the number of basis rows.  Exact, and fast on
    the two-term unit-coefficient matrices produced by folding relations.

    ``prefixes`` lists non-decreasing column counts, none above len(cols).
    The echelon rows after a prefix span exactly its columns, so the Smith
    form of their residual block gives that prefix's invariant factors
    (``prefix_torsion``).
    """
    rows: dict[int, dict[int, int]] = {}
    prefix_torsion: list[list[int] | None] = []
    done = 0
    for batch, stop in enumerate((*prefixes, len(cols))):
        for col in cols[done:stop]:
            _insert(rows, {i: c for i, c in col.items() if c})
        done = stop
        if batch < len(prefixes):
            # a prefix of all the columns takes the record's own torsion below
            prefix_torsion.append(_torsion(_residual_smith(rows)[1])
                                  if done < len(cols) else None)

    basis = _hermite(rows)
    residual_rows, res = _residual_smith(basis)
    in_block = set(residual_rows)
    free_rows = [i for i in range(n) if i not in basis and i not in in_block]
    torsion, diagonal, left = _torsion(res), [], []
    if res is not None:
        diagonal = res.diagonal + [0] * (len(residual_rows) - len(res.diagonal))
        left = [{residual_rows[k]: c for k, c in row.items()} for row in res.left]
    prefix_torsion = [torsion if t is None else t for t in prefix_torsion]
    return SparseElimination(len(basis), torsion, basis, free_rows,
                             residual_rows, diagonal, left, prefix_torsion)


# ---------------------------------------------------------------------------
# row-span canonical form and residues
# ---------------------------------------------------------------------------

def hermite_row_basis(rows: list[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Canonical basis of the integer row span (row-style Hermite form).

    Rows are sparse: dicts from column to entry.  The basis maps each pivot
    column to its row, in strictly increasing pivot order; pivots are
    positive and the entries above a pivot are reduced into [0, pivot).  Two
    matrices have equal row spans iff their bases are equal.
    """
    basis: dict[int, dict[int, int]] = {}
    for r in rows:
        _insert(basis, {j: c for j, c in r.items() if c})
    return _hermite(basis)


def reduce_mod_rows(vec: dict[int, int], basis: dict[int, dict[int, int]]) -> dict[int, int]:
    """Canonical coset representative of the sparse vector ``vec`` modulo
    the span of a ``hermite_row_basis``; zero entries are dropped."""
    return _reduce({i: c for i, c in vec.items() if c}, basis)


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


def solve_integer(M: list[list[int]], bs: list[list[int]]):
    """Solve M x = b over the integers for each right-hand side b of bs, on
    one Smith form of M.

    Returns (xs, failure): xs holds the solutions of the right-hand sides
    before the first that has none, and failure is that one's SolveFailure,
    or None when every right-hand side is solved.
    """
    n = len(M)
    m = len(M[0]) if n else 0
    res = smith_normal_form(M)
    xs = []
    for b in bs:
        x = [0] * m
        for i, row in enumerate(res.left):
            ub = sum(c * b[k] for k, c in row.items())
            d = res.diagonal[i] if i < len(res.diagonal) else 0
            if (ub % d if d else ub) != 0:
                return xs, SolveFailure([row.get(k, 0) for k in range(n)], d or None)
            if ub:
                # z_i = ub / d, and x = V z adds z_i times V's column i
                for j, c in res.right[i].items():
                    x[j] += c * (ub // d)
        xs.append(x)
    return xs, None

import itertools
import math
import random

import pytest

from daxkernel.snf import (
    hermite_row_basis,
    invariant_factors,
    reduce_mod_rows,
    smith_normal_form,
    solve_integer,
    xgcd,
)


def rng_for(name):
    return random.Random(f"snf::{name}")


def random_matrix(rng, n, m, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def determinant(M):
    n = len(M)
    if n == 0:
        return 1
    from fractions import Fraction
    A = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        for r in range(c + 1, n):
            f = A[r][c] / A[c][c]
            A[r] = [a - f * b for a, b in zip(A[r], A[c])]
    assert det.denominator == 1
    return int(det)


def minors_gcd(M, k):
    """gcd of all k x k minors; the classical determinantal-divisor oracle."""
    n, m = len(M), len(M[0])
    g = 0
    for rows in itertools.combinations(range(n), k):
        for cols in itertools.combinations(range(m), k):
            sub = [[M[i][j] for j in cols] for i in rows]
            g = math.gcd(g, determinant(sub))
    return g


def oracle_invariant_factors(M):
    n, m = len(M), len(M[0])
    out = []
    prev = 1
    for k in range(1, min(n, m) + 1):
        dk = minors_gcd(M, k)
        if dk == 0:
            break
        out.append(dk // prev)
        prev = dk
    return out


# -- xgcd -----------------------------------------------------------------------

def test_xgcd_basic():
    for a, b in ((12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (-3, -9)):
        g, x, y = xgcd(a, b)
        assert g == math.gcd(a, b)
        assert x * a + y * b == g


# -- smith normal form -------------------------------------------------------------

def test_known_diagonal():
    res = smith_normal_form([[2, 4], [6, 8]])
    assert res.diagonal == [2, 4]


def test_single_row():
    res = smith_normal_form([[4, 6, 10]])
    assert res.diagonal == [2]


def test_zero_matrix():
    res = smith_normal_form([[0, 0], [0, 0]])
    assert res.diagonal == [0, 0]
    assert res.rank == 0


def test_matches_determinantal_divisors():
    rng = rng_for("divisors")
    for _ in range(200):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        M = random_matrix(rng, n, m)
        res = smith_normal_form(M)
        nonzero = [d for d in res.diagonal if d]
        assert oracle_invariant_factors(M) == nonzero
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0


def test_transforms_diagonalize():
    rng = rng_for("transforms")
    for _ in range(100):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        M = random_matrix(rng, n, m)
        res = smith_normal_form(M, want_left=True, want_right=True)
        assert abs(determinant(res.left)) == 1
        assert abs(determinant(res.right)) == 1
        D = mat_mul(mat_mul(res.left, M), res.right)
        for i in range(n):
            for j in range(m):
                expected = res.diagonal[i] if i == j and i < len(res.diagonal) else 0
                assert D[i][j] == expected


def test_matches_sympy_on_medium_matrices():
    sympy = pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    rng = rng_for("sympy")
    for _ in range(25):
        n, m = rng.randint(2, 8), rng.randint(2, 8)
        M = random_matrix(rng, n, m, -20, 20)
        mine = [d for d in smith_normal_form(M).diagonal if d]
        s = sympy_snf(Matrix(M), domain=ZZ)
        theirs = sorted(abs(s[i, i]) for i in range(min(s.shape)) if s[i, i])
        assert sorted(mine) == theirs


def test_invariant_factors_filters_units():
    assert invariant_factors([[1, 0], [0, 6]]) == [6]
    assert invariant_factors([[1, 0], [0, 1]]) == []


# -- hermite row basis ----------------------------------------------------------------

def test_hermite_canonical_under_row_operations():
    rng = rng_for("hnf")
    for _ in range(120):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        M = random_matrix(rng, n, m, -6, 6)
        base = hermite_row_basis(M)
        # shuffle rows, negate some, add random multiples: same span
        M2 = [row[:] for row in M]
        rng.shuffle(M2)
        if len(M2) > 1:
            i, j = rng.sample(range(len(M2)), 2)
            q = rng.randint(-3, 3)
            M2[i] = [a + q * b for a, b in zip(M2[i], M2[j])]
        k = rng.randrange(len(M2))
        M2[k] = [-a for a in M2[k]]
        assert hermite_row_basis(M2) == base
        assert hermite_row_basis(base if base else []) == base


def test_hermite_pivots_normalized():
    rng = rng_for("hnf-norm")
    for _ in range(80):
        M = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -9, 9)
        basis = hermite_row_basis(M)
        pivots = []
        for row in basis:
            j = next(k for k, x in enumerate(row) if x)
            assert row[j] > 0
            pivots.append(j)
        assert pivots == sorted(pivots)
        for upper in range(len(basis)):
            for lower in range(upper + 1, len(basis)):
                j = next(k for k, x in enumerate(basis[lower]) if x)
                assert 0 <= basis[upper][j] < basis[lower][j]


def test_reduce_mod_rows_is_coset_invariant():
    rng = rng_for("residue")
    for _ in range(120):
        n, m = rng.randint(1, 4), rng.randint(2, 5)
        M = random_matrix(rng, n, m, -5, 5)
        basis = hermite_row_basis(M)
        v = [rng.randint(-10, 10) for _ in range(m)]
        shifted = v[:]
        for row in M:
            q = rng.randint(-3, 3)
            shifted = [a + q * b for a, b in zip(shifted, row)]
        assert reduce_mod_rows(v, basis) == reduce_mod_rows(shifted, basis)
        # membership: reducing a span element gives zero
        combo = [0] * m
        for row in M:
            q = rng.randint(-3, 3)
            combo = [a + q * b for a, b in zip(combo, row)]
        assert reduce_mod_rows(combo, basis) == [0] * m


# -- integer solve ---------------------------------------------------------------------

def test_solve_recovers_solutions():
    rng = rng_for("solve-ok")
    for _ in range(120):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        M = random_matrix(rng, n, m, -6, 6)
        x0 = [rng.randint(-4, 4) for _ in range(m)]
        b = [sum(M[i][j] * x0[j] for j in range(m)) for i in range(n)]
        x, failure = solve_integer(M, b)
        assert failure is None
        assert [sum(M[i][j] * x[j] for j in range(m)) for i in range(n)] == b


def test_solve_failure_certificates():
    rng = rng_for("solve-fail")
    found_plain = found_mod = 0
    for _ in range(400):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        M = random_matrix(rng, n, m, -4, 4)
        b = [rng.randint(-9, 9) for _ in range(n)]
        x, failure = solve_integer(M, b)
        if failure is None:
            assert [sum(M[i][j] * x[j] for j in range(m)) for i in range(n)] == b
            continue
        y = failure.combination
        yM = [sum(y[i] * M[i][j] for i in range(n)) for j in range(m)]
        yb = sum(y[i] * b[i] for i in range(n))
        if failure.modulus is None:
            found_plain += 1
            assert yM == [0] * m
            assert yb != 0
        else:
            found_mod += 1
            assert all(v % failure.modulus == 0 for v in yM)
            assert yb % failure.modulus != 0
    assert found_plain > 0 and found_mod > 0


# -- sparse structure path --------------------------------------------------------------

def test_sparse_rank_and_torsion_matches_dense():
    from daxkernel.snf import sparse_rank_and_torsion
    rng = rng_for("sparse")
    for _ in range(250):
        n, m = rng.randint(1, 7), rng.randint(0, 7)
        dense = random_matrix(rng, n, m, -6, 6)
        cols = [{i: dense[i][j] for i in range(n) if dense[i][j]}
                for j in range(m)]
        elim = sparse_rank_and_torsion(cols, n)
        res = smith_normal_form(dense) if m else None
        expected_rank = res.rank if res else 0
        expected_torsion = [d for d in res.diagonal if d > 1] if res else []
        assert elim.rank == expected_rank
        assert elim.torsion == expected_torsion


def test_sparse_path_fast_on_fold_matrices():
    # inverse-pair folding on a large window: unit two-term columns only
    import time
    from daxkernel.snf import sparse_rank_and_torsion
    n = 4000
    cols = [{2 * i: 1, 2 * i + 1: -1} for i in range(n // 2)]
    start = time.perf_counter()
    elim = sparse_rank_and_torsion(cols, n)
    assert elim.rank == n // 2 and elim.torsion == []
    assert time.perf_counter() - start < 2.0

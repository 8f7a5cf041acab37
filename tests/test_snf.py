import itertools
import math
import random

import pytest

from daxkernel.snf import (
    hermite_row_basis,
    reduce_mod_rows,
    smith_normal_form,
    solve_integer,
    xgcd,
)

from conftest import dense, sparse


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


def assert_smith_form(M, res):
    """U*M*V = D exactly, |det U| = |det V| = 1, and the diagonal is
    d_1 | d_2 | ... > 0 and then zeros."""
    n, m = len(M), len(M[0])
    assert abs(determinant(res.left)) == 1
    assert abs(determinant(res.right)) == 1
    D = mat_mul(mat_mul(res.left, M), res.right)
    assert D == [[res.diagonal[i] if i == j else 0 for j in range(m)] for i in range(n)]
    nonzero = res.diagonal[:res.rank]
    assert all(d > 0 for d in nonzero) and not any(res.diagonal[res.rank:])
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


def test_transforms_diagonalize():
    rng = rng_for("transforms")
    for _ in range(100):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        M = random_matrix(rng, n, m)
        assert_smith_form(M, smith_normal_form(M))


def oracle_matrices(rng):
    """Square and rectangular matrices up to 8 x 12 and 12 x 8, some with
    zero rows and columns, some rank-deficient, entries up to 10^6."""
    for _ in range(25):
        yield random_matrix(rng, rng.randint(2, 8), rng.randint(2, 8), -20, 20)
    for n, m in ((8, 12), (12, 8), (1, 12), (12, 1), (5, 12), (12, 5)):
        yield random_matrix(rng, n, m, -20, 20)
    for _ in range(6):
        n, m = rng.randint(2, 12), rng.randint(2, 12)
        M = random_matrix(rng, n, m, -9, 9)
        for i in rng.sample(range(n), rng.randint(1, n - 1)):
            M[i] = [0] * m
        for j in rng.sample(range(m), rng.randint(1, m - 1)):
            for row in M:
                row[j] = 0
        yield M
    for n, m, k in ((8, 12, 3), (12, 8, 5), (6, 6, 1), (7, 9, 6)):
        yield mat_mul(random_matrix(rng, n, k, -5, 5), random_matrix(rng, k, m, -5, 5))
    for n, m in ((6, 6), (8, 12), (12, 8), (3, 10)):
        yield random_matrix(rng, n, m, -10**6, 10**6)
    # a big common factor, and an all-zero matrix
    yield [[10**6 * x for x in row] for row in random_matrix(rng, 5, 7, -3, 3)]
    yield [[0] * 4 for _ in range(3)]


def test_matches_sympy_on_medium_matrices():
    sympy = pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    for M in oracle_matrices(rng_for("sympy")):
        res = smith_normal_form(M)
        assert_smith_form(M, res)
        s = sympy_snf(Matrix(M), domain=ZZ)
        theirs = sorted(abs(s[i, i]) for i in range(min(s.shape)) if s[i, i])
        assert sorted(res.diagonal[:res.rank]) == theirs


def test_transforms_stay_small():
    # an elimination by pivots of least size alone grows the transform
    # entries of this matrix to 121,069 bits; the echelon steps keep 31
    M = [[(7 * i * i + 11 * j ** 3 + 3 * i * j + 5) % 1009 - 504 for j in range(8)]
         for i in range(8)]
    res = smith_normal_form(M)
    assert_smith_form(M, res)
    assert max(abs(x).bit_length() for row in res.left + res.right for x in row) <= 64


def test_divisibility_chain_needs_no_more_echelon_rounds(monkeypatch):
    # the shape of a product_DkY residual block over F<x,y> at W = 6: 2s and
    # 3s on the diagonal and one row of -2s and 2s under it.  Mending the
    # chain one adjacent pair per pair of echelon rounds took 313 rounds here
    from daxkernel import snf
    d = [2, 3, 3, 2, 2, 3] * 4 + [2, 2]
    M = [[c if i == j else 0 for j in range(len(d))] for i, c in enumerate(d)]
    M.append([-2 if c == 2 else 2 for c in d])
    rounds = []
    echelon = snf._echelon
    monkeypatch.setattr(snf, "_echelon", lambda vs: rounds.append(1) or echelon(vs))
    res = smith_normal_form(M)
    assert_smith_form(M, res)
    assert res.diagonal == [1] * 12 + [2] * 3 + [6] * 11
    assert len(rounds) <= 3


def test_invariant_factors_filters_units():
    # invariant factors are the diagonal entries > 1
    assert [d for d in smith_normal_form([[1, 0], [0, 6]]).diagonal if d > 1] == [6]
    assert [d for d in smith_normal_form([[1, 0], [0, 1]]).diagonal if d > 1] == []


# -- hermite row basis ----------------------------------------------------------------

def hnf(M, m):
    """hermite_row_basis of dense rows with m columns, as dense rows."""
    return [dense(row, m) for row in hermite_row_basis([sparse(r) for r in M]).values()]


def residue(v, M, m):
    """reduce_mod_rows of a dense vector by the basis of M, as a dense row."""
    return dense(reduce_mod_rows(sparse(v), hermite_row_basis([sparse(r) for r in M])), m)


def test_hermite_canonical_under_row_operations():
    rng = rng_for("hnf")
    for _ in range(120):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        M = random_matrix(rng, n, m, -6, 6)
        base = hnf(M, m)
        # shuffle rows, negate some, add random multiples: same span
        M2 = [row[:] for row in M]
        rng.shuffle(M2)
        if len(M2) > 1:
            i, j = rng.sample(range(len(M2)), 2)
            q = rng.randint(-3, 3)
            M2[i] = [a + q * b for a, b in zip(M2[i], M2[j])]
        k = rng.randrange(len(M2))
        M2[k] = [-a for a in M2[k]]
        assert hnf(M2, m) == base
        assert hnf(base if base else [], m) == base


def test_hermite_pivots_normalized():
    rng = rng_for("hnf-norm")
    for _ in range(80):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        M = random_matrix(rng, n, m, -9, 9)
        basis = hnf(M, m)
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
        v = [rng.randint(-10, 10) for _ in range(m)]
        shifted = v[:]
        for row in M:
            q = rng.randint(-3, 3)
            shifted = [a + q * b for a, b in zip(shifted, row)]
        assert residue(v, M, m) == residue(shifted, M, m)
        # membership: reducing a span element gives zero
        combo = [0] * m
        for row in M:
            q = rng.randint(-3, 3)
            combo = [a + q * b for a, b in zip(combo, row)]
        assert residue(combo, M, m) == [0] * m


# -- integer solve ---------------------------------------------------------------------

def mat_vec(M, x):
    return [sum(a * b for a, b in zip(row, x)) for row in M]


def test_solve_recovers_solutions():
    rng = rng_for("solve-ok")
    for _ in range(120):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        M = random_matrix(rng, n, m, -6, 6)
        bs = [mat_vec(M, [rng.randint(-4, 4) for _ in range(m)])
              for _ in range(rng.randint(0, 3))]
        xs, failure = solve_integer(M, bs)
        assert failure is None
        assert [mat_vec(M, x) for x in xs] == bs


def test_solve_failure_certificates():
    """A random right-hand side between solvable ones: the solutions of
    those before it come back, with a certificate when it has none."""
    rng = rng_for("solve-fail")
    found_plain = found_mod = 0
    for _ in range(400):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        M = random_matrix(rng, n, m, -4, 4)
        bs = [mat_vec(M, [rng.randint(-4, 4) for _ in range(m)]) for _ in range(4)]
        b = [rng.randint(-9, 9) for _ in range(n)]
        bs.insert(2, b)
        xs, failure = solve_integer(M, bs)
        if failure is None:
            assert [mat_vec(M, x) for x in xs] == bs
            continue
        assert [mat_vec(M, x) for x in xs] == bs[:2]
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

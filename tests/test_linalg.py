import random
from fractions import Fraction as F

import pytest

from askeycg.linalg import RatMat, integer_vector, nullspace, rank, rank_mod


def ref_rank(m: RatMat) -> int:
    """Plain Fraction Gaussian elimination, as an independent oracle."""
    rows = [list(r) for r in m.a]
    rnk = 0
    for c in range(m.cols):
        piv = next((i for i in range(rnk, m.rows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rnk], rows[piv] = rows[piv], rows[rnk]
        for i in range(rnk + 1, m.rows):
            f = rows[i][c] / rows[rnk][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rnk])]
        rnk += 1
    return rnk


def identity(n: int) -> RatMat:
    return RatMat.build(n, n, lambda i, j: F(i == j))


def apply(m: RatMat, v) -> list:
    return [sum((x * y for x, y in zip(row, v)), F(0)) for row in m.a]


def to_lists(m: RatMat) -> list[list]:
    return [list(row) for row in m.a]


def matmul(a: RatMat, b: RatMat) -> RatMat:
    return RatMat.build(a.rows, b.cols, lambda i, j: sum(
        (a.a[i][k] * b.a[k][j] for k in range(a.cols)), F(0)))


def inverse(m: RatMat) -> RatMat:
    """Inverse of a square nonsingular matrix by Gauss-Jordan elimination: the
    reference the basis-change test in test_cgverify.py recouples with."""
    if m.rows != m.cols:
        raise ValueError("inverse needs a square matrix")
    n = m.rows
    left = [list(row) for row in m.a]
    right = [[F(i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        pr = next((i for i in range(c, n) if left[i][c] != 0), None)
        if pr is None:
            raise ValueError("matrix is singular")
        left[c], left[pr] = left[pr], left[c]
        right[c], right[pr] = right[pr], right[c]
        piv = left[c][c]
        left[c] = [x / piv for x in left[c]]
        right[c] = [x / piv for x in right[c]]
        for i in range(n):
            if i == c or left[i][c] == 0:
                continue
            f = left[i][c]
            left[i] = [x - f * y for x, y in zip(left[i], left[c])]
            right[i] = [x - f * y for x, y in zip(right[i], right[c])]
    return RatMat.from_rows(right)


def test_matmul_identity():
    m = RatMat.from_rows([[F(1), F(2)], [F(3), F(4)]])
    assert m @ identity(2) == m
    assert identity(2) @ m == m


def test_empty_shapes_compose_to_zero():
    a = RatMat.build(2, 0, lambda i, j: F(0))
    b = RatMat(0, 3, ())
    assert (a @ b) == RatMat.build(2, 3, lambda i, j: F(0))


def test_nullspace_known():
    m = RatMat.from_rows([[F(1), F(1), F(0)], [F(0), F(0), F(1)]])
    basis = nullspace(m)
    assert basis == [(F(1), F(-1), F(0))] or basis == [(F(-1), F(1), F(0))]


def test_nullspace_of_empty_matrix_is_everything():
    basis = nullspace(RatMat(0, 3, ()))
    assert len(basis) == 3


@pytest.mark.parametrize("seed", range(8))
def test_nullspace_random(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    m = RatMat.build(rows, cols,
                     lambda i, j: F(rng.randint(-4, 4), rng.randint(1, 4)))
    basis = nullspace(m)
    assert len(basis) == cols - ref_rank(m)
    assert rank(m) == ref_rank(m)
    for v in basis:
        assert all(x == 0 for x in apply(m, v))


def ref_nullspace(m: RatMat) -> list[tuple]:
    """Kernel basis by plain Fraction Gauss-Jordan elimination: one vector per
    free column, 1 at that column, 0 at the other free columns."""
    rows = [list(r) for r in m.a]
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        piv = next((i for i in range(r, m.rows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(m.cols) if c not in pivots):
        v = [F(0)] * m.cols
        v[free] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][free]
        basis.append(tuple(v))
    return basis


def random_matrix(rng) -> RatMat:
    """A random rational matrix, made rank-deficient or given a zero row or a
    zero column in some draws."""
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    a = [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(cols)]
         for _ in range(rows)]
    shape = rng.choice(("full", "deficient", "zero-row", "zero-col"))
    if shape == "deficient" and rows > 1:
        # the last row becomes a combination of the others
        coef = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rows - 1)]
        a[-1] = [sum((c * a[i][j] for i, c in enumerate(coef)), F(0)) for j in range(cols)]
    elif shape == "zero-row":
        a[rng.randrange(rows)] = [F(0)] * cols
    elif shape == "zero-col":
        j = rng.randrange(cols)
        for row in a:
            row[j] = F(0)
    return RatMat.from_rows(a)


@pytest.mark.parametrize("seed", range(4))
def test_nullspace_equals_gauss_jordan_reference(seed):
    rng = random.Random(f"nullspace:{seed}")
    for _ in range(50):
        m = random_matrix(rng)
        assert nullspace(m) == ref_nullspace(m), to_lists(m)


def test_nullspace_of_zero_matrix_is_unit_vectors():
    m = RatMat.build(2, 3, lambda i, j: F(0))
    assert nullspace(m) == [tuple(F(i == j) for j in range(3)) for i in range(3)]


@pytest.mark.parametrize("seed", range(5))
def test_inverse_random(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(1, 5)
    while True:
        m = RatMat.build(n, n, lambda i, j: F(rng.randint(-5, 5), rng.randint(1, 3)))
        if ref_rank(m) == n:
            break
    assert matmul(m, inverse(m)) == identity(n)
    assert matmul(inverse(m), m) == identity(n)


def test_inverse_rejects_singular():
    m = RatMat.from_rows([[F(1), F(2)], [F(2), F(4)]])
    with pytest.raises(ValueError):
        inverse(m)


def test_integer_vector_shares_the_least_common_denominator():
    assert integer_vector([F(1, 2), F(-2, 3), F(0), F(5)]) == ([3, -4, 0, 30], 6)
    assert integer_vector([]) == ([], 1)


@pytest.mark.parametrize("seed", range(2))
def test_rank_mod_large_prime_equals_rank(seed):
    rng = random.Random(f"rank_mod:{seed}")
    for _ in range(50):
        m = random_matrix(rng)
        ints = [integer_vector(row)[0] for row in m.a]
        assert rank_mod(ints, (1 << 61) - 1) == ref_rank(m), to_lists(m)


def test_rank_mod_small_prime_can_fall_below_rank():
    rows = [[1, 2], [3, 4]]  # determinant -2
    assert rank_mod(rows, 2) == 1 < rank_mod(rows, 3) == 2
    assert rank_mod([], 5) == 0 and rank_mod([[0, 0]], 5) == 0

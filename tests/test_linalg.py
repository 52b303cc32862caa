import random
from fractions import Fraction as F

import pytest

from askeycg.linalg import RatMat, inverse, nullspace, rank


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


@pytest.mark.parametrize("seed", range(5))
def test_inverse_random(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(1, 5)
    while True:
        m = RatMat.build(n, n, lambda i, j: F(rng.randint(-5, 5), rng.randint(1, 3)))
        if ref_rank(m) == n:
            break
    assert m @ inverse(m) == identity(n)
    assert inverse(m) @ m == identity(n)


def test_inverse_rejects_singular():
    m = RatMat.from_rows([[F(1), F(2)], [F(2), F(4)]])
    with pytest.raises(ValueError):
        inverse(m)

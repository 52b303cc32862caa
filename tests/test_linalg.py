import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from askeycg.linalg import (RatMat, column_mismatches, integer_bands, integer_column,
                            nullspace, rank)


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


def test_integer_column_shares_the_least_common_denominator():
    assert integer_column([F(1, 2), F(-2, 3), F(0), F(5)]) == ((3, -4, 0, 30), 6)
    assert integer_column([]) == ((), 1)


@st.composite
def exact_values(draw):
    """(xs, values): a list of exact rationals, each an int, a Fraction or a
    (top, bottom) pair scaled by a factor of either sign, and the same list
    as Fractions."""
    values = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                           max_size=5))
    xs = []
    for v in values:
        m = draw(st.integers(-4, 4).filter(bool))
        n, d = v.numerator * m, v.denominator * m
        xs.append(draw(st.sampled_from([v, (n, d)]
                                       + ([v.numerator] if v.denominator == 1 else []))))
    return xs, values


@settings(max_examples=200, deadline=None)
@given(exact_values())
def test_integer_column_is_the_canonical_column(case):
    xs, values = case
    a, c = integer_column(xs)
    assert c > 0 and math.gcd(c, *a) == 1
    assert [F(x, c) for x in a] == values
    assert integer_column(values) == (a, c)  # equal vectors, equal columns


# -- the column kernel against a dense Fraction reference --------------------

SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def band_identities(draw):
    """(N, block, rows, here, targets): a sparse block with 0-3 entries in
    each row -1..N+1 over the columns 0..N of level N, the integer columns
    of that level, and per column a target x / xd times (b, e), the target
    column 0..N+2 entries long; some targets are the exact image, some have
    x = 0."""
    N = draw(st.integers(0, 3))
    rows = list(range(-1, N + 2))
    block = {}
    for i in rows:
        for j in draw(st.lists(st.integers(0, N), max_size=3, unique=True)):
            block[i, j] = draw(SMALL)
    here = [integer_column(draw(st.lists(SMALL, min_size=N + 1, max_size=N + 1)))
            for _ in range(N + 1)]
    targets = []
    for a, c in here:
        size = draw(st.integers(0, N + 2))
        if draw(st.booleans()):  # the image itself, maybe with one entry shifted
            values = [sum((v * F(a[j], c) for (i, j), v in block.items() if i == n), F(0))
                      for n in range(size)]
            if values and draw(st.booleans()):
                values[draw(st.integers(0, size - 1))] += 1
        else:
            values = draw(st.lists(SMALL, min_size=size, max_size=size))
        b, e = integer_column(values)
        x = draw(st.sampled_from([F(0), F(1), draw(SMALL)]))
        targets.append((x.numerator, x.denominator, (b, e)))
    return N, block, rows, here, targets


@settings(max_examples=100, deadline=None)
@given(band_identities())
def test_column_kernel_matches_a_dense_fraction_reference(case):
    N, block, rows, here, targets = case
    bands = integer_bands(block, rows)
    assert list(bands) == rows
    for i, (band, d) in bands.items():
        entries = {j: v for (r, j), v in block.items() if r == i}
        assert d == math.lcm(*(v.denominator for v in entries.values()))
        assert {j: F(t, d) for j, t in band} == entries
    want = []
    for n in rows:
        for k, ((a, c), (x, xd, (b, e))) in enumerate(zip(here, targets)):
            image = sum((block.get((n, j), 0) * F(a[j], c) for j in range(N + 1)), F(0))
            target = F(x, xd) * (F(b[n], e) if 0 <= n < len(b) else 0)
            if image != target:
                want.append(({"N": N, "n": n, "k": k}, image, target))
    got = [(where, F(*image), F(*target))
           for where, image, target in column_mismatches(N, bands, here, targets)]
    assert got == want


def looped_mismatches(N, bands, here, targets):
    """column_mismatches with every band image formed by the general loop,
    the reference for its two-entry path."""
    for n, (band, d) in bands.items():
        for k, ((a, c), (x, xd, (b, e))) in enumerate(zip(here, targets)):
            image = 0
            for j, t in band:
                image += t * a[j]
            want = b[n] if 0 <= n < len(b) and x else 0
            if image * xd * e != want * x * c * d:
                yield {"N": N, "n": n, "k": k}, (image, d * c), (x * want, xd * e)


@settings(max_examples=100, deadline=None)
@given(band_identities())
def test_two_entry_bands_give_the_points_and_pairs_of_the_general_loop(case):
    N, block, rows, here, targets = case
    bands = integer_bands(block, rows)
    assert (list(column_mismatches(N, bands, here, targets))
            == list(looped_mismatches(N, bands, here, targets)))


def test_two_entry_band_names_the_failing_point_of_the_general_loop():
    # rows of 0, 1, 2 and 3 entries over level 2; column 1's target is off
    # by one at row 2, a two-entry row, so exactly that point fails
    block = {(1, 0): F(1, 2), (2, 0): F(2, 3), (2, 2): F(-1, 5),
             (3, 0): F(1), (3, 1): F(3, 4), (3, 2): F(-2)}
    bands = integer_bands(block, range(4))
    assert [len(band) for band, _ in bands.values()] == [0, 1, 2, 3]
    here = [integer_column([F(1), F(k, 3), F(-k)]) for k in range(3)]
    images = [[sum((block.get((n, j), 0) * F(a[j], c) for j in range(3)), F(0))
               for n in range(4)] for a, c in here]
    images[1][2] += 1
    targets = [(1, 1, integer_column(image)) for image in images]
    got = list(column_mismatches(2, bands, here, targets))
    assert got == list(looped_mismatches(2, bands, here, targets))
    assert [where for where, _, _ in got] == [{"N": 2, "n": 2, "k": 1}]
    _, image, target = got[0]
    assert F(*target) - F(*image) == 1

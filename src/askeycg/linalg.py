"""Dense exact rational matrices (row-major tuples of Fractions: the reduced
view of a CG block, and the tests' dense operators); integer_column, the one
place in the package that clears rationals to integers, which makes the
canonical column every CG block stores (and the band rows and the weight
vector); and the column kernel: integer_bands splits a sparse block of exact
rationals into integer rows (a run splits each Delta level once, and
multiplies those bands into T_N's rows), and column_mismatches decides every
CG column identity, a band image of a column against a scalar times a target
column, over integers, forming a two-entry row's image without a loop.
Graded operators keep sparse blocks.

nullspace and rank are plain Gauss-Jordan elimination over Fractions. No
runtime path calls them: the weights are certified from T_N without a
solve, so they serve only as the tests' reference weight solve, and the
benchmark traces them by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping, Sequence

__all__ = ["RatMat", "nullspace", "rank", "integer_column", "integer_bands",
           "column_mismatches"]


@dataclass(frozen=True)
class RatMat:
    rows: int
    cols: int
    a: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Fraction]]) -> "RatMat":
        data = tuple(tuple(Fraction(x) for x in row) for row in rows)
        ncols = len(data[0]) if data else 0
        for row in data:
            if len(row) != ncols:
                raise ValueError("ragged rows")
        return RatMat(len(data), ncols, data)

    @staticmethod
    def build(rows: int, cols: int, f: Callable[[int, int], Fraction]) -> "RatMat":
        return RatMat(rows, cols,
                      tuple(tuple(Fraction(f(i, j)) for j in range(cols))
                            for i in range(rows)))

    def entry(self, i: int, j: int) -> Fraction:
        return self.a[i][j]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.a)

    def __matmul__(self, other: "RatMat") -> "RatMat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = Fraction(0)
                for k in range(self.cols):
                    acc += self.a[i][k] * other.a[k][j]
                row.append(acc)
            out.append(tuple(row))
        return RatMat(self.rows, other.cols, tuple(out))


Column = tuple[Sequence[int], int]
Bands = dict[int, tuple[list[tuple[int, int]], int]]


def integer_column(xs: Iterable) -> Column:
    """The canonical integer column of exact rationals: (a, c) with xs[i] =
    a[i] / c, c > 0 and gcd(*a, c) = 1; ((), 1) for no entry. Each x is an
    int, a Fraction or a (top, bottom) pair, read as report.first_mismatch
    reads a side: a tuple as it is, anything else through
    as_integer_ratio(). c is the lcm of the bottoms, each top is scaled to
    it, and the gcd is divided out, so equal vectors give equal columns; a
    zero bottom raises ZeroDivisionError."""
    pairs = [x if type(x) is tuple else x.as_integer_ratio() for x in xs]
    c = lcm(*[d for _, d in pairs])
    a = [n * (c // d) for n, d in pairs]
    g = gcd(c, *a)
    return tuple([x // g for x in a]), c // g


def integer_bands(block: Mapping[tuple[int, int], object], rows: Iterable[int]) -> Bands:
    """The rows of a sparse block {(i, j): x}, each x an exact rational as
    integer_column reads it, as integer bands keyed by row id, in the order
    of `rows`, which must hold every row of the block: row i is ([(j,
    t_ij)], d_i) with block[i, j] = t_ij / d_i, the integer_column of its
    entries, and ([], 1) where it has no entry."""
    bands = {i: [] for i in rows}
    for (i, j), v in block.items():
        bands[i].append((j, v))
    out = {}
    for i, band in bands.items():
        t, d = integer_column([v for _, v in band])
        out[i] = [(j, x) for (j, _), x in zip(band, t)], d
    return out


def column_mismatches(N: int, bands: Bands, here: Sequence[Column],
                      targets: Sequence[tuple[int, int, Column]]) -> Iterator:
    """The points, n-major over the rows of `bands` and then k, where the band
    image of column k of `here` differs from x / xd times the column (b, e),
    for targets[k] = (x, xd, (b, e)); a row outside the target column
    compares with 0. With row n = t_n / d_n and column k = a / c, a point is
    sum_j t_nj a[j] xd e == x b[n] d_n c over integers. Each failing point is
    ({N, n, k}, image, target), both sides unreduced pairs for
    report.first_mismatch; nothing is reduced here. A two-entry band, as
    every coproduct and contiguity row is, forms its image without a loop."""
    # per column k: a, c, x c, xd e, the target entries and their count (0 where x = 0)
    cols = [(a, c, x * c, xd * e, b, len(b) if x else 0)
            for (a, c), (x, xd, (b, e)) in zip(here, targets)]
    for n, (band, d) in bands.items():
        two = len(band) == 2
        if two:
            (j0, t0), (j1, t1) = band
        for k, (a, c, xc, xde, b, size) in enumerate(cols):
            if two:
                image = t0 * a[j0] + t1 * a[j1]
            else:
                image = 0
                for j, t in band:
                    image += t * a[j]
            want = b[n] if 0 <= n < size else 0
            if image * xde != want * xc * d:
                yield {"N": N, "n": n, "k": k}, (image, d * c), (targets[k][0] * want, xde)


def _reduced_echelon(m: RatMat) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by Gauss-Jordan elimination over Fractions:
    (rows, pivot columns), each pivot 1 and alone in its column."""
    rows = [list(row) for row in m.a]
    pivots: list[int] = []
    for c in range(m.cols):
        r = len(pivots)
        pr = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        head = rows[r][c]
        rows[r] = [x / head for x in rows[r]]
        for i in range(m.rows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def rank(m: RatMat) -> int:
    return len(_reduced_echelon(m)[1])


def nullspace(m: RatMat) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel {v : m v = 0}, one vector per free column:
    1 at that column, 0 at the other free columns, and minus that column of
    the reduced form at each pivot column. That basis is unique."""
    rows, pivots = _reduced_echelon(m)
    basis = []
    for free in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(j == free) for j in range(m.cols)]
        for row, pc in zip(rows, pivots):
            v[pc] = -row[free]
        basis.append(tuple(v))
    return basis

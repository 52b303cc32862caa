"""Dense exact rational matrices (row-major tuples of Fractions: the reduced
view of a CG block, and the tests' dense operators); integer_column, the one
place in the package that clears rationals to integers, which makes the
canonical column every CG block stores (and the band rows, the weight
vector and the elimination rows); and the column kernel: integer_bands
splits a sparse block of exact rationals into integer rows (a run splits
each Delta level once; T_N's rows come from unreduced pairs), and
column_mismatches decides every CG column identity, a band image of a column
against a scalar times a target column, over integers, forming a two-entry
row's image without a loop. Graded operators keep sparse blocks.

nullspace and rank are fraction-free (Bareiss elimination over integers with
exact divisions only, back-substitution over one common denominator per
vector). No runtime path calls them: they are the tests' reference weight
solve, and the benchmark traces them by name.
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


def _integer_echelon(m: RatMat) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form; returns (rows, pivot column list)."""
    work = [list(integer_column(row)[0]) for row in m.a]
    piv_cols: list[int] = []
    r = 0
    prev = 1
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        for i in range(r + 1, m.rows):
            head = work[i][c]
            for j in range(c + 1, m.cols):
                val = work[r][c] * work[i][j] - head * work[r][j]
                quot, rem = divmod(val, prev)
                if rem:
                    raise ArithmeticError("inexact division in fraction-free elimination")
                work[i][j] = quot
            work[i][c] = 0
        prev = work[r][c]
        piv_cols.append(c)
        r += 1
        if r == m.rows:
            break
    return work, piv_cols


def rank(m: RatMat) -> int:
    return len(_integer_echelon(m)[1])


def nullspace(m: RatMat) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel {v : m v = 0}, one vector per free column:
    1 at that column, 0 at the other free columns.

    Back-substitution stays in integers: each vector is kept as integer
    numerators over one common denominator, rescaled by the part of a pivot
    that does not divide its row sum, and one Fraction per entry is built
    at the end."""
    work, piv_cols = _integer_echelon(m)
    pivset = set(piv_cols)
    basis = []
    for free in range(m.cols):
        if free in pivset:
            continue
        num = [0] * m.cols
        num[free] = den = 1
        for i in reversed(range(len(piv_cols))):
            pc, row = piv_cols[i], work[i]
            s = sum(row[j] * num[j] for j in range(pc + 1, m.cols))
            # v[pc] = -s / (den * row[pc]); multiply through by row[pc] / g
            g = gcd(s, row[pc])
            scale = row[pc] // g
            if scale != 1:
                num = [x * scale for x in num]
                den *= scale
            num[pc] = -s // g
        basis.append(tuple(Fraction(x, den) for x in num))
    return basis


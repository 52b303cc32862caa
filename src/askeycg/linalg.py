"""Dense exact rational matrices (row-major tuples of Fractions: the reduced
view of a CG block, and the tests' dense operators) and integer_vector, the
column storage of the CG blocks; graded operators keep sparse blocks.

nullspace and rank are fraction-free (Bareiss elimination over integers with
exact divisions only, back-substitution over one common denominator per
vector). No runtime path calls them: they are the tests' reference weight
solve, and the benchmark traces them by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Sequence

__all__ = ["RatMat", "nullspace", "rank", "integer_vector"]


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


def integer_vector(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """(a, c) with xs[i] = a[i] / c and c the least common denominator."""
    c = lcm(*(x.denominator for x in xs))
    return [x.numerator * (c // x.denominator) for x in xs], c


def _integer_echelon(m: RatMat) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form; returns (rows, pivot column list)."""
    work = [integer_vector(row)[0] for row in m.a]
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


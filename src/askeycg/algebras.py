"""Truncated lowest-weight module representations of four algebras.

The algebras are the oscillator algebra, sl2, the q-oscillator algebra and
U_q(sl2). Each acts on a truncated lowest-weight module with basis vectors
indexed by a level n = 0..levels, where

    H |l, n> = (l + 2n) |l, n>       E |l, n> = |l, n+1>
    F |l, n> = phi(l, n) |l, n-1>

and the lowering coefficient phi determines the algebra. For the q-kinds the
Cartan generator is carried as K = q^{H/2} with eigenvalue kappa * q^n, where
kappa = q^{l/2} labels the module, so everything stays rational.

Operators are stored block per weight level (GradedOperator). Compositions
are truncation-aware: a block exists only when every intermediate level stays
inside the truncated module, and anything below level 0 is the zero space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .exactmath import InvalidParameterError, Scalar, format_scalar, parse_scalar
from .linalg import RatMat
from .report import CheckResult, Report, first_mismatch

__all__ = [
    "AlgebraTag", "AlgebraKind", "ModuleSpec", "GradedOperator", "Generators",
    "phi", "build_generators", "check_relations", "casimir", "CasimirCheck",
    "identity_operator", "diagonal_operator", "scalar_operator",
    "invert_diagonal", "block_entries", "first_block_mismatch", "rational_sqrt",
]


class AlgebraTag(str, Enum):
    OSC = "osc"
    SL2 = "sl2"
    OSC_Q = "osc-q"
    UQ_SL2 = "uq-sl2"


_Q_TAGS = (AlgebraTag.OSC_Q, AlgebraTag.UQ_SL2)


@dataclass(frozen=True)
class AlgebraKind:
    tag: AlgebraTag
    q: Scalar | None = None

    def __post_init__(self):
        if self.tag in _Q_TAGS:
            if self.q is None:
                raise InvalidParameterError(f"{self.tag.value} needs q")
            if self.q in (0, 1, -1):
                raise InvalidParameterError("q must avoid {0, 1, -1}")
        elif self.q is not None:
            raise InvalidParameterError(f"{self.tag.value} takes no q")

    @property
    def is_q(self) -> bool:
        return self.tag in _Q_TAGS


@dataclass(frozen=True)
class ModuleSpec:
    """Truncated lowest-weight module; label is lambda, or kappa = q^{lambda/2}
    for the q-kinds. Irreducibility up to the truncation means phi(label, n)
    never vanishes for 1 <= n <= levels; that is certified at the family
    level, not here, since the defining relations hold regardless."""

    algebra: AlgebraKind
    label: Scalar
    levels: int


def phi(algebra: AlgebraKind, label: Scalar, n: int) -> Scalar:
    """Lowering coefficient of F at level n; phi(label, 0) == 0 always."""
    if n < 0:
        raise ValueError("level must be >= 0")
    tag = algebra.tag
    if tag is AlgebraTag.OSC:
        return Fraction(-n)
    if tag is AlgebraTag.SL2:
        return -Fraction(n) * (n + label - 1)
    q = algebra.q
    if tag is AlgebraTag.OSC_Q:
        return 1 - q ** n
    # U_q(sl2): label is kappa, and q^{lambda} = kappa^2
    return (1 - q ** n) * (1 - q ** (n - 1) * label ** 2)


@dataclass(frozen=True)
class GradedOperator:
    """Weight-graded linear map on a truncated (tensor) module.

    blocks[N] sends level-N coordinates to level-(N+degree) coordinates.
    Levels below 0 are zero-dimensional; levels above len(dims)-1 do not
    exist, so blocks targeting them are simply absent (truncation).
    """

    degree: int
    dims: tuple[int, ...]
    blocks: Mapping[int, RatMat]

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    def dim(self, level: int) -> int:
        if level < 0:
            return 0
        if level > self.top:
            raise ValueError(f"level {level} beyond truncation")
        return self.dims[level]

    def block(self, level: int) -> RatMat | None:
        """Matrix at source level, or None when the target is truncated away."""
        if level in self.blocks:
            return self.blocks[level]
        if level < 0:
            tgt = level + self.degree
            return RatMat.zeros(self.dim(tgt) if tgt >= 0 else 0, 0)
        return None

    def levels(self) -> list[int]:
        return sorted(self.blocks)

    def __matmul__(self, other: "GradedOperator") -> "GradedOperator":
        if self.dims != other.dims:
            raise ValueError("operators live on different modules")
        out = {}
        for n in other.levels():
            mid = n + other.degree
            left = self.block(mid) if mid <= self.top else None
            if left is None:
                continue
            out[n] = left @ other.blocks[n]
        return GradedOperator(self.degree + other.degree, self.dims, out)

    def _merge(self, other: "GradedOperator", op) -> "GradedOperator":
        if self.dims != other.dims:
            raise ValueError("operators live on different modules")
        if self.degree != other.degree:
            raise ValueError("cannot combine operators of different degree")
        keys = set(self.blocks) & set(other.blocks)
        return GradedOperator(self.degree, self.dims,
                              {n: op(self.blocks[n], other.blocks[n]) for n in keys})

    def __add__(self, other: "GradedOperator") -> "GradedOperator":
        return self._merge(other, lambda a, b: a + b)

    def __sub__(self, other: "GradedOperator") -> "GradedOperator":
        return self._merge(other, lambda a, b: a - b)

    def scaled(self, s: Scalar) -> "GradedOperator":
        return GradedOperator(self.degree, self.dims,
                              {n: b.scaled(s) for n, b in self.blocks.items()})

    def to_doc(self) -> dict:
        return {
            "degree": self.degree,
            "blocks": [
                {"N": n, "rows": b.rows, "cols": b.cols,
                 "entries": [[format_scalar(x) for x in row] for row in b.a]}
                for n, b in sorted(self.blocks.items())
            ],
        }

    @staticmethod
    def from_doc(doc: dict, dims: Iterable[int]) -> "GradedOperator":
        blocks = {}
        for rec in doc["blocks"]:
            entries = [[parse_scalar(x) for x in row] for row in rec["entries"]]
            mat = (RatMat.from_rows(entries) if entries
                   else RatMat.zeros(rec["rows"], rec["cols"]))
            if (mat.rows, mat.cols) != (rec["rows"], rec["cols"]):
                raise ValueError("block shape mismatch in document")
            blocks[int(rec["N"])] = mat
        return GradedOperator(int(doc["degree"]), tuple(dims), blocks)


def identity_operator(dims: tuple[int, ...]) -> GradedOperator:
    return GradedOperator(0, dims, {n: RatMat.identity(d) for n, d in enumerate(dims)})


def scalar_operator(dims: tuple[int, ...], value: Callable[[int], Scalar]) -> GradedOperator:
    """Degree-0 operator acting on level N as the scalar value(N)."""
    return GradedOperator(0, dims, {n: RatMat.identity(d).scaled(value(n))
                                    for n, d in enumerate(dims)})


def diagonal_operator(dims: tuple[int, ...],
                      entry: Callable[[int, int], Scalar]) -> GradedOperator:
    """Degree-0 operator, diagonal in the given basis: entry(level, index)."""
    return GradedOperator(0, dims, {
        n: RatMat.build(d, d, lambda i, j, n=n: entry(n, i) if i == j else Fraction(0))
        for n, d in enumerate(dims)})


def invert_diagonal(op: GradedOperator) -> GradedOperator:
    """Inverse of a degree-0 operator whose blocks are diagonal."""
    if op.degree != 0:
        raise ValueError("only degree-0 operators can be inverted blockwise")
    out = {}
    for n, b in op.blocks.items():
        for i in range(b.rows):
            for j in range(b.cols):
                if i != j and b.entry(i, j) != 0:
                    raise ValueError("block is not diagonal")
        out[n] = RatMat.build(b.rows, b.cols,
                              lambda i, j, b=b: 1 / b.entry(i, i) if i == j else Fraction(0))
    return GradedOperator(0, op.dims, out)


def block_entries(lhs: GradedOperator, rhs: GradedOperator,
                  levels: Iterable[int], level_key: str = "level"):
    """(where, lhs entry, rhs entry) over every entry of the blocks at the
    given levels, row by row; blocks that are equal as a whole are skipped."""
    for n in levels:
        a, b = lhs.blocks.get(n), rhs.blocks.get(n)
        if a is None or b is None:
            raise ValueError(f"block {n} outside the checked operators")
        if a == b:
            continue
        for i in range(a.rows):
            for j in range(a.cols):
                yield {level_key: n, "row": i, "col": j}, a.entry(i, j), b.entry(i, j)


def first_block_mismatch(lhs: GradedOperator, rhs: GradedOperator,
                         levels: Iterable[int]):
    """First (level, row, col, lhs, rhs) where the operators differ, or None."""
    return next(((w["level"], w["row"], w["col"], a, b)
                 for w, a, b in block_entries(lhs, rhs, levels) if a != b), None)


def rational_sqrt(x: Scalar) -> Scalar | None:
    """Exact square root when it exists in the rationals, else None."""
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class Generators:
    e: GradedOperator
    f: GradedOperator
    hk: GradedOperator


def single_module_dims(levels: int) -> tuple[int, ...]:
    return (1,) * (levels + 1)


def build_generators(module: ModuleSpec) -> Generators:
    """E, F and H (or K for the q-kinds) on the truncated module."""
    L = module.levels
    dims = single_module_dims(L)
    one = Fraction(1)
    e = GradedOperator(+1, dims, {n: RatMat.from_rows([[one]]) for n in range(L)})
    f_blocks = {0: RatMat.zeros(0, 1)}
    for n in range(1, L + 1):
        f_blocks[n] = RatMat.from_rows([[phi(module.algebra, module.label, n)]])
    f = GradedOperator(-1, dims, f_blocks)
    if module.algebra.is_q:
        q = module.algebra.q
        hk = scalar_operator(dims, lambda n: module.label * q ** n)
    else:
        hk = scalar_operator(dims, lambda n: module.label + 2 * n)
    return Generators(e, f, hk)


def _relation_checks(kind: AlgebraKind, e: GradedOperator, f: GradedOperator,
                     hk: GradedOperator) -> list[CheckResult]:
    """Defining relations of the algebra, checked blockwise up to truncation.

    Shared between single modules and tensor modules: only the operators
    differ. EF-type relations are restricted to levels where both orders of
    composition stay inside the truncation.
    """
    top = e.top
    ident = identity_operator(e.dims)
    lo = (range(0, top), f"levels 0..{top - 1}")  # E-compositions stay inside
    full = (range(0, top + 1), f"levels 0..{top}")
    if not kind.is_q:
        ef = e @ f - f @ e
        relations = [
            ("cartan-raising", hk @ e - e @ hk, e.scaled(2), lo),
            ("cartan-lowering", hk @ f - f @ hk, f.scaled(-2), full),
            ("oscillator-commutator", ef, ident, lo) if kind.tag is AlgebraTag.OSC
            else ("sl2-commutator", ef, hk, lo),
        ]
    else:
        q = kind.q
        qef = (e @ f).scaled(q) - f @ e
        relations = [
            ("cartan-raising", hk @ e, (e @ hk).scaled(q), lo),
            ("cartan-lowering", (hk @ f).scaled(q), f @ hk, full),
            ("q-oscillator-commutator", qef, ident.scaled(q - 1), lo)
            if kind.tag is AlgebraTag.OSC_Q
            else ("uq-sl2-commutator", qef, (ident - hk @ hk).scaled(q - 1), lo),
        ]
    return [first_mismatch(name, rng, block_entries(lhs, rhs, levels))
            for name, lhs, rhs, (levels, rng) in relations]


def _uqsl2_standard_form_check(kind: AlgebraKind, e: GradedOperator,
                               f: GradedOperator, k: GradedOperator) -> CheckResult:
    """With Ft = -q^{1/2} (q-1)^{-2} K^{-1} F, the commutator [E, Ft] must be
    (K - K^{-1}) / (q^{1/2} - q^{-1/2}). Needs q^{1/2} rational."""
    name = "uq-sl2-standard-form"
    root = rational_sqrt(kind.q)
    if root is None:
        return CheckResult.skip(name, "q^(1/2) is not rational; pick q a square")
    q = kind.q
    kinv = invert_diagonal(k)
    ft = (kinv @ f).scaled(-root / (q - 1) ** 2)
    lhs = e @ ft - ft @ e
    rhs = (k - kinv).scaled(1 / (root - 1 / root))
    top = e.top
    return first_mismatch(name, f"levels 0..{top - 1}",
                          block_entries(lhs, rhs, range(0, top)))


def check_relations(module: ModuleSpec, gens: Generators | None = None) -> Report:
    """Certify the defining relations on the truncated module."""
    gens = gens or build_generators(module)
    rep = Report(suite=f"relations:{module.algebra.tag.value}",
                 params={"label": format_scalar(module.label),
                         "levels": module.levels,
                         **({"q": format_scalar(module.algebra.q)}
                            if module.algebra.is_q else {})})
    rep.extend(_relation_checks(module.algebra, gens.e, gens.f, gens.hk))
    if module.algebra.tag is AlgebraTag.UQ_SL2:
        rep.add(_uqsl2_standard_form_check(module.algebra, gens.e, gens.f, gens.hk))
    return rep


@dataclass(frozen=True)
class CasimirCheck:
    op: GradedOperator
    eigenvalue: Scalar
    ok: bool


def casimir(module: ModuleSpec, gens: Generators | None = None) -> CasimirCheck:
    """Build the Casimir element and test that it is the expected scalar.

    osc:      2EF + H            eigenvalue lambda
    sl2:      4EF + H^2 - 2H     eigenvalue lambda(lambda - 2)
    osc_q:    (1 - EF) K^{-1}    eigenvalue 1/kappa
    U_q(sl2): EF K^{-1} - K/q - K^{-1}   eigenvalue -(kappa/q + 1/kappa)
    """
    gens = gens or build_generators(module)
    e, f, hk = gens.e, gens.f, gens.hk
    tag = module.algebra.tag
    lam = module.label
    if tag is AlgebraTag.OSC:
        op = (e @ f).scaled(2) + hk
        eig = lam
    elif tag is AlgebraTag.SL2:
        op = (e @ f).scaled(4) + hk @ hk - hk.scaled(2)
        eig = lam * (lam - 2)
    elif tag is AlgebraTag.OSC_Q:
        kinv = invert_diagonal(hk)
        op = (identity_operator(hk.dims) - e @ f) @ kinv
        eig = 1 / lam
    else:
        q = module.algebra.q
        kinv = invert_diagonal(hk)
        op = e @ f @ kinv - hk.scaled(1 / q) - kinv
        eig = -(lam / q + 1 / lam)
    expected = scalar_operator(op.dims, lambda n: eig)
    hit = first_block_mismatch(op, expected, range(0, module.levels))
    return CasimirCheck(op, eig, hit is None)

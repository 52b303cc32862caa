"""Truncated lowest-weight module representations of four algebras.

The algebras are the oscillator algebra, sl2, the q-oscillator algebra and
U_q(sl2). Each acts on a truncated lowest-weight module with basis vectors
indexed by a level n = 0..levels, where

    H |l, n> = (l + 2n) |l, n>       E |l, n> = |l, n+1>
    F |l, n> = phi(l, n) |l, n-1>

and the lowering coefficient phi determines the algebra. For the q-kinds the
Cartan generator is carried as K = q^{H/2} with eigenvalue kappa * q^n, where
kappa = q^{l/2} labels the module, so everything stays rational.

Operators are stored block per weight level (GradedOperator), each block as
the map of its nonzero entries; every operator here is a weighted shift or a
diagonal, so the blocks stay sparse. One constructor, tensor_operator, builds
every weighted shift on a k-fold tensor module (k = 1 for a single module).
Compositions are truncation-aware: a block exists only when every
intermediate level stays inside the truncated module, and anything below
level 0 is the zero space.

The exact kernels (composition, sum, difference, scaling, apply) work on the
integer numerators and denominators of the stored Fractions: every output
entry is formed as one integer pair (exactmath.product_sum) and reduced once,
into one Fraction. An entry that only one side of a sum stores is copied as
it is (negated for a difference); only entries stored on both sides are added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .exactmath import (InvalidParameterError, Scalar, format_scalar, parse_scalar,
                        product_sum)
from .linalg import RatMat
from .report import CheckResult, Report, first_mismatch

__all__ = [
    "AlgebraTag", "AlgebraKind", "ModuleSpec", "GradedOperator", "Generators",
    "phi", "cartan", "build_generators", "check_relations", "casimir", "CasimirCheck",
    "tensor_operator", "identity_operator", "scalar_operator",
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

    def __post_init__(self):
        if self.algebra.is_q and self.label == 0:
            raise InvalidParameterError("a q-module label kappa must be nonzero")


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

    blocks[N] holds the nonzero entries {(row, col): value} of the map from
    level-N coordinates to level-(N+degree) coordinates; its shape follows
    from dims and degree. Levels below 0 are zero-dimensional; levels above
    len(dims)-1 do not exist, so blocks targeting them are simply absent
    (truncation).

    @, +, - and scaled reduce each output entry once, from integer products
    and sums, and leave out the entries that cancel to zero; an entry stored
    in one operand of a sum only is copied.
    """

    degree: int
    dims: tuple[int, ...]
    blocks: Mapping[int, Mapping[tuple[int, int], Fraction]]

    def __post_init__(self):
        # zeros are dropped, so equal operators have equal entry maps
        object.__setattr__(self, "blocks", {
            n: {ij: v for ij, v in b.items() if v} for n, b in self.blocks.items()})

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    def shape(self, level: int) -> tuple[int, int]:
        """(rows, cols) of the block at a source level that has a block."""
        tgt = level + self.degree
        if not 0 <= level <= self.top or tgt > self.top:
            raise ValueError(f"no block at level {level}")
        return (self.dims[tgt] if tgt >= 0 else 0), self.dims[level]

    def dense(self, level: int) -> RatMat:
        b = self.blocks[level]
        return RatMat.build(*self.shape(level), lambda i, j: b.get((i, j), 0))

    @classmethod
    def _nonzero(cls, degree: int, dims: tuple[int, ...], blocks: dict) -> "GradedOperator":
        """The operator on fresh blocks that store no zeros, as the kernels
        below build them; skips the copy and zero filter of __init__."""
        op = object.__new__(cls)
        object.__setattr__(op, "degree", degree)
        object.__setattr__(op, "dims", dims)
        object.__setattr__(op, "blocks", blocks)
        return op

    def apply(self, level: int, vec) -> tuple[Fraction, ...]:
        """Image of the level-`level` coordinate vector `vec` (Fractions or
        ints); each coordinate is one reduced sum of integer-pair products."""
        rows, cols = self.shape(level)
        if len(vec) != cols:
            raise ValueError("vector length mismatch")
        terms = [[] for _ in range(rows)]
        for (i, j), v in self.blocks[level].items():
            terms[i].append((v, vec[j]))
        return tuple(Fraction(*product_sum(t)) for t in terms)

    def __matmul__(self, other: "GradedOperator") -> "GradedOperator":
        if self.dims != other.dims:
            raise ValueError("operators live on different modules")
        out = {}
        for n, right in other.blocks.items():
            mid = n + other.degree
            if mid >= 0 and mid not in self.blocks:
                continue  # the intermediate level's image is truncated away
            by_col = {}  # the left factor's entries, keyed by the level-mid index
            for (i, k), v in self.blocks.get(mid, {}).items():
                by_col.setdefault(k, []).append((i, v))
            terms = {}  # the factor pairs whose products make each output entry
            for (k, j), w in right.items():
                for i, v in by_col.get(k, ()):
                    terms.setdefault((i, j), []).append((v, w))
            block = out[n] = {}
            for ij, pairs in terms.items():
                top, bottom = product_sum(pairs)
                if top:
                    block[ij] = Fraction(top, bottom)
        return GradedOperator._nonzero(self.degree + other.degree, self.dims, out)

    def _merge(self, other: "GradedOperator", sign: int) -> "GradedOperator":
        """self + sign * other. An entry stored on one side only is copied
        (negated for sign -1); one stored on both is reduced once."""
        if self.dims != other.dims:
            raise ValueError("operators live on different modules")
        if self.degree != other.degree:
            raise ValueError("cannot combine operators of different degree")
        out = {}
        for n in self.blocks.keys() & other.blocks.keys():
            a = self.blocks[n]
            block = out[n] = dict(a)
            for ij, w in other.blocks[n].items():
                v = a.get(ij)
                if v is None:
                    block[ij] = w if sign > 0 else -w
                    continue
                top, bottom = product_sum(((v, 1), (w, sign)))
                if top:
                    block[ij] = Fraction(top, bottom)
                else:
                    del block[ij]
        return GradedOperator._nonzero(self.degree, self.dims, out)

    def __add__(self, other: "GradedOperator") -> "GradedOperator":
        return self._merge(other, 1)

    def __sub__(self, other: "GradedOperator") -> "GradedOperator":
        return self._merge(other, -1)

    def scaled(self, s: Scalar) -> "GradedOperator":
        """s times the operator, each entry reduced once from integer products."""
        sn, sd = s.as_integer_ratio()
        out = {}
        for n, b in self.blocks.items():
            block = out[n] = {}
            if sn:
                for ij, v in b.items():
                    vn, vd = v.as_integer_ratio()
                    block[ij] = Fraction(sn * vn, sd * vd)
        return GradedOperator._nonzero(self.degree, self.dims, out)

    def to_doc(self) -> dict:
        zero = Fraction(0)
        docs = []
        for n, b in sorted(self.blocks.items()):
            rows, cols = self.shape(n)
            docs.append({"N": n, "rows": rows, "cols": cols, "entries": [
                [format_scalar(b.get((i, j), zero)) for j in range(cols)]
                for i in range(rows)]})
        return {"degree": self.degree, "blocks": docs}

    @staticmethod
    def from_doc(doc: dict, dims: Iterable[int]) -> "GradedOperator":
        """Rebuild an operator on a module with the given level dimensions;
        every block must have the shape its level and the degree dictate."""
        shape = GradedOperator(int(doc["degree"]), tuple(dims), {}).shape
        blocks = {}
        for rec in doc["blocks"]:
            n = int(rec["N"])
            rows, cols = shape(n)
            entries = rec["entries"]
            if ((rec["rows"], rec["cols"]) != (rows, cols) or len(entries) != rows
                    or any(len(row) != cols for row in entries)):
                raise ValueError(f"block {n} in document is not {rows}x{cols}")
            blocks[n] = {(i, j): parse_scalar(x)
                         for i, row in enumerate(entries) for j, x in enumerate(row)}
        return GradedOperator(int(doc["degree"]), tuple(dims), blocks)


def _compositions(N: int, parts: int) -> list[tuple[int, ...]]:
    """Ways to write N as an ordered sum of `parts` levels, lexicographic:
    the level-N basis of a `parts`-fold tensor module."""
    if parts == 1:
        return [(N,)]
    return [(n,) + rest for n in range(N + 1) for rest in _compositions(N - n, parts - 1)]


def tensor_operator(dims: tuple[int, ...], shifts: tuple[int, ...],
                    coeff: Callable[[tuple[int, ...]], Scalar]) -> GradedOperator:
    """Weighted shift on a k-fold tensor module, k = len(shifts), with the
    lexicographic basis of compositions at each level: the basis vector with
    factor levels c goes to coeff(c) times the one with levels c + shifts.
    A shift below level 0 of some factor contributes nothing, and coeff is
    not evaluated there."""
    degree = sum(shifts)
    blocks = {}
    for N in range(len(dims)):
        if N + degree >= len(dims):
            continue
        index = {t: i for i, t in enumerate(_compositions(N + degree, len(shifts)))}
        entries = {}
        for col, src in enumerate(_compositions(N, len(shifts))):
            moved = tuple(n + d for n, d in zip(src, shifts))
            if min(moved) >= 0:
                c = coeff(src)
                entries[index[moved], col] = c if isinstance(c, Fraction) else Fraction(c)
        blocks[N] = entries
    return GradedOperator(degree, dims, blocks)


def scalar_operator(dims: tuple[int, ...], value: Callable[[int], Scalar]) -> GradedOperator:
    """Degree-0 operator acting on level N as the scalar value(N)."""
    return GradedOperator(0, dims, {n: {(i, i): Fraction(value(n)) for i in range(d)}
                                    for n, d in enumerate(dims)})


def identity_operator(dims: tuple[int, ...]) -> GradedOperator:
    return scalar_operator(dims, lambda n: 1)


def invert_diagonal(op: GradedOperator) -> GradedOperator:
    """Inverse of a degree-0 operator whose blocks are diagonal."""
    if op.degree != 0:
        raise ValueError("only degree-0 operators can be inverted blockwise")
    if any(i != j for b in op.blocks.values() for i, j in b):
        raise ValueError("block is not diagonal")
    return GradedOperator(0, op.dims, {
        n: {(i, i): 1 / b.get((i, i), Fraction(0)) for i in range(op.dims[n])}
        for n, b in op.blocks.items()})


def block_entries(lhs: GradedOperator, rhs: GradedOperator,
                  levels: Iterable[int], level_key: str = "level"):
    """(where, lhs entry, rhs entry) over the entries stored in either
    operator at the given levels, row by row; blocks that are equal as a
    whole are skipped. Entries stored in neither are zero on both sides, so
    the first unequal pair is the first one of the full row-major walk."""
    if lhs.dims != rhs.dims or lhs.degree != rhs.degree:
        raise ValueError("operators of different modules or degrees")
    zero = Fraction(0)
    for n in levels:
        a, b = lhs.blocks.get(n), rhs.blocks.get(n)
        if a is None or b is None:
            raise ValueError(f"block {n} outside the checked operators")
        if a == b:
            continue
        for i, j in sorted(a.keys() | b.keys()):
            yield {level_key: n, "row": i, "col": j}, a.get((i, j), zero), b.get((i, j), zero)


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


def cartan(algebra: AlgebraKind, label: Scalar, n: int) -> Scalar:
    """Eigenvalue of H (or K for the q-kinds) at level n."""
    return label * algebra.q ** n if algebra.is_q else label + 2 * n


@dataclass(frozen=True)
class Generators:
    """E, F and H (or K) acting on one module, or their coproduct images
    on a tensor module."""
    e: GradedOperator
    f: GradedOperator
    hk: GradedOperator


def build_generators(module: ModuleSpec) -> Generators:
    """E, F and H (or K for the q-kinds) on the truncated module."""
    dims = (1,) * (module.levels + 1)
    alg, label = module.algebra, module.label
    return Generators(
        tensor_operator(dims, (+1,), lambda c: 1),
        tensor_operator(dims, (-1,), lambda c: phi(alg, label, c[0])),
        tensor_operator(dims, (0,), lambda c: cartan(alg, label, c[0])))


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
    mismatch: tuple | None  # first (level, row, col, op entry, scalar entry)

    @property
    def ok(self) -> bool:
        return self.mismatch is None


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
    return CasimirCheck(op, eig, first_block_mismatch(op, expected, range(0, module.levels)))

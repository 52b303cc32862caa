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

Composition works on the integer numerators and denominators of the
stored Fractions: every output entry is formed as one integer pair
(exactmath.product_sum) and reduced once, into one Fraction. Every
composition goes through one block kernel, _block_product, where a diagonal
block only rescales the other factor. Operator
identities (the defining relations, the Casimir, and the coproduct
identities of the other modules) are not composed into operators:
check_identity forms the residual lhs - rhs
of each entry as one unreduced pair, the two sides cross-multiplied, and
reduces only the first unequal entry, for the witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from operator import add
from typing import Callable, Iterable, Mapping

from .exactmath import InvalidParameterError, Scalar, format_scalar, product_sum
from .linalg import RatMat
from .report import CheckResult, Report

__all__ = [
    "AlgebraTag", "AlgebraKind", "ModuleSpec", "GradedOperator", "Generators",
    "phi", "cartan", "build_generators", "check_relations", "casimir", "CasimirCheck",
    "tensor_operator", "scalar_operator", "invert_diagonal", "check_identity",
    "rational_sqrt",
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
    for the q-kinds, and levels >= 1, below which no relation or Casimir
    entry is compared. Irreducibility up to the truncation means phi(label, n)
    never vanishes for 1 <= n <= levels; that is certified at the family
    level, not here, since the defining relations hold regardless."""

    algebra: AlgebraKind
    label: Scalar
    levels: int

    def __post_init__(self):
        if self.levels < 1:
            raise InvalidParameterError("a module needs levels >= 1")
        if self.algebra.is_q and self.label == 0:
            raise InvalidParameterError("a q-module label kappa must be nonzero")


def phi(algebra: AlgebraKind, label: Scalar, n: int) -> Scalar:
    """Lowering coefficient of F at level n; phi(label, 0) == 0 always.

    The value is one Fraction of integers: with label = s/t and q = u/v,
    -n (n t + s - t) / t for sl2, (v^n - u^n) / v^n for the q-oscillator and
    (v^n - u^n)(v^{n-1} t^2 - u^{n-1} s^2) / (v^{2n-1} t^2) for U_q(sl2).
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    tag = algebra.tag
    if tag is AlgebraTag.OSC:
        return Fraction(-n)
    s, t = label.numerator, label.denominator
    if tag is AlgebraTag.SL2:
        return Fraction(-n * (n * t + s - t), t)
    u, v = algebra.q.numerator, algebra.q.denominator
    v_n = v ** n
    if tag is AlgebraTag.OSC_Q:
        return Fraction(v_n - u ** n, v_n)
    if n == 0:
        return Fraction(0)
    # U_q(sl2): label is kappa, and q^{lambda} = kappa^2
    v_n1 = v_n // v
    return Fraction((v_n - u ** n) * (v_n1 * t * t - u ** (n - 1) * s * s),
                    v_n * v_n1 * t * t)


@dataclass(frozen=True)
class GradedOperator:
    """Weight-graded linear map on a truncated (tensor) module.

    blocks[N] holds the nonzero entries {(row, col): value} of the map from
    level-N coordinates to level-(N+degree) coordinates; its shape follows
    from dims and degree. Levels below 0 are zero-dimensional; levels above
    len(dims)-1 do not exist, so blocks targeting them are simply absent
    (truncation).

    @ reduces each output entry once, from integer products and sums, and
    leaves out the entries that cancel to zero. A diagonal degree-0 block on
    either side of @ only rescales the rows or columns of the other.
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
        and constructors below build them; skips the copy and zero filter of
        __init__."""
        op = object.__new__(cls)
        object.__setattr__(op, "degree", degree)
        object.__setattr__(op, "dims", dims)
        object.__setattr__(op, "blocks", blocks)
        return op

    def __matmul__(self, other: "GradedOperator") -> "GradedOperator":
        """self after other: every nonzero pair of _block_product, the one
        composition kernel, reduced into one Fraction."""
        if self.dims != other.dims:
            raise ValueError("operators live on different modules")
        out = {}
        for n in other.blocks:
            pairs = _block_product(self, other, n)
            if pairs is not None:
                out[n] = {ij: Fraction(top, bottom)
                          for ij, (top, bottom) in pairs.items() if top}
        return GradedOperator._nonzero(self.degree + other.degree, self.dims, out)


def _block_product(a: GradedOperator, b: GradedOperator, n: int):
    """Block n of a @ b as unreduced integer pairs {(i, j): (top, bottom)},
    with a top of 0 where products cancel; None where a @ b has no block n
    (b has none, or the intermediate level is truncated out of a). A
    diagonal block on either side only rescales the rows or columns of the
    other; any other pair of blocks sums its products with product_sum."""
    right = b.blocks.get(n)
    mid = n + b.degree
    if right is None or mid >= 0 and mid not in a.blocks:
        return None
    left = a.blocks.get(mid, {})  # nothing below level 0
    if b.degree == 0 and all(i == j for i, j in right):
        scale = {k: w.as_integer_ratio() for (k, _), w in right.items()}
        return {(i, k): (v.numerator * s[0], v.denominator * s[1])
                for (i, k), v in left.items() if (s := scale.get(k))}
    if a.degree == 0 and all(i == j for i, j in left):
        scale = {k: v.as_integer_ratio() for (k, _), v in left.items()}
        return {(k, j): (s[0] * w.numerator, s[1] * w.denominator)
                for (k, j), w in right.items() if (s := scale.get(k))}
    by_col = {}  # the left block's entries, keyed by the level-mid index
    for (i, k), v in left.items():
        by_col.setdefault(k, []).append((i, v))
    terms = {}  # the factor pairs whose products make each output entry
    for (k, j), w in right.items():
        for i, v in by_col.get(k, ()):
            terms.setdefault((i, j), []).append((v, w))
    return {ij: product_sum(pairs) for ij, pairs in terms.items()}


@cache
def _compositions(N: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """Ways to write N as an ordered sum of `parts` levels, lexicographic:
    the level-N basis of a `parts`-fold tensor module, empty below level 0.
    Memoized: it depends on two small integers only, and every operator on
    the module reads it."""
    if parts == 1:
        return ((N,),) if N >= 0 else ()
    return tuple((n,) + rest for n in range(N + 1)
                 for rest in _compositions(N - n, parts - 1))


def tensor_operator(dims: tuple[int, ...],
                    *terms: tuple[tuple[int, ...], Callable[[tuple[int, ...]], Scalar]]
                    ) -> GradedOperator:
    """Sum of weighted shifts of one degree on a k-fold tensor module, with
    the lexicographic basis of compositions at each level. Each term
    (shifts, coeff), k = len(shifts), sends the basis vector with factor
    levels c to coeff(c) times the one with levels c + shifts. Distinct
    shifts never write the same entry, so the shifts must differ. A shift
    below level 0 of some factor contributes nothing, and coeff is not
    evaluated there; each term is evaluated level by level, in order."""
    shifts = [s for s, _ in terms]
    degree = sum(shifts[0])
    if len(set(shifts)) < len(shifts) or any(sum(s) != degree for s in shifts):
        raise ValueError("terms need distinct shifts of one degree")
    blocks = {N: {} for N in range(len(dims)) if N + degree < len(dims)}
    for shift, coeff in terms:
        for N, entries in blocks.items():
            index = {t: i for i, t in enumerate(_compositions(N + degree, len(shift)))}
            for col, src in enumerate(_compositions(N, len(shift))):
                row = index.get(tuple(map(add, src, shift)))  # None below level 0
                if row is not None and (c := coeff(src)):
                    entries[row, col] = c if isinstance(c, Fraction) else Fraction(c)
    return GradedOperator._nonzero(degree, dims, blocks)


def scalar_operator(dims: tuple[int, ...], value: Callable[[int], Scalar]) -> GradedOperator:
    """Degree-0 operator acting on level N as the scalar value(N); value is
    evaluated once per level."""
    blocks = {}
    for n, d in enumerate(dims):
        v = Fraction(value(n))
        blocks[n] = {(i, i): v for i in range(d)} if v else {}
    return GradedOperator._nonzero(0, dims, blocks)


def invert_diagonal(op: GradedOperator) -> GradedOperator:
    """Inverse of a degree-0 operator whose blocks are diagonal."""
    if op.degree != 0:
        raise ValueError("only degree-0 operators can be inverted blockwise")
    if any(i != j for b in op.blocks.values() for i, j in b):
        raise ValueError("block is not diagonal")
    return GradedOperator._nonzero(0, op.dims, {
        n: {(i, i): 1 / b.get((i, i), Fraction(0)) for i in range(op.dims[n])}
        for n, b in op.blocks.items()})


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
    """Eigenvalue of H (or K for the q-kinds) at level n: with label = s/t
    and q = u/v, the one Fraction (s + 2n t) / t, or s u^n / (t v^n)."""
    s, t = label.numerator, label.denominator
    if not algebra.is_q:
        return Fraction(s + 2 * n * t, t)
    u, v = algebra.q.numerator, algebra.q.denominator
    if n < 0:
        u, v, n = v, u, -n
    return Fraction(s * u ** n, t * v ** n)


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
        tensor_operator(dims, ((+1,), lambda c: 1)),
        tensor_operator(dims, ((-1,), lambda c: phi(alg, label, c[0]))),
        tensor_operator(dims, ((0,), lambda c: cartan(alg, label, c[0]))))


def _combination(terms, dims: tuple[int, ...], n: int):
    """Block n of the sum of c * (product of factors) over the (c, factors)
    terms, as unreduced pairs; an empty factor tuple is the identity. None
    when some term has no block n."""
    total = None
    for c, factors in terms:
        if not factors:
            pairs = {(i, i): (1, 1) for i in range(dims[n])}
        elif len(factors) == 1:
            block = factors[0].blocks.get(n)
            pairs = None if block is None else {
                ij: v.as_integer_ratio() for ij, v in block.items()}
        else:
            pairs = _block_product(*factors, n)
        if pairs is None:
            return None
        cn, cd = c.as_integer_ratio()
        if total is None:
            total = pairs if cn == cd else {
                ij: (top * cn, bottom * cd) for ij, (top, bottom) in pairs.items()}
            continue
        for ij, (top, bottom) in pairs.items():
            top, bottom = top * cn, bottom * cd
            old = total.get(ij)
            if old is None:
                total[ij] = top, bottom
            elif old[1] == bottom:
                total[ij] = old[0] + top, bottom
            else:
                total[ij] = old[0] * bottom + top * old[1], old[1] * bottom
    return total


def _relation_checks(kind: AlgebraKind, e: GradedOperator, f: GradedOperator,
                     hk: GradedOperator) -> list[CheckResult]:
    """Defining relations of the algebra, checked blockwise up to truncation.

    Shared between single modules and tensor modules: only the operators
    differ. EF-type relations are restricted to levels where both orders of
    composition stay inside the truncation.

    Each relation is two sides of (scalar, factors) terms, checked by
    check_identity; nothing is composed into an operator.
    """
    top = e.top
    lo = (range(0, top), f"levels 0..{top - 1}")  # E-compositions stay inside
    full = (range(0, top + 1), f"levels 0..{top}")
    if not kind.is_q:
        ef = [(1, (e, f)), (-1, (f, e))]
        relations = [
            ("cartan-raising", [(1, (hk, e)), (-1, (e, hk))], [(2, (e,))], lo),
            ("cartan-lowering", [(1, (hk, f)), (-1, (f, hk))], [(-2, (f,))], full),
            ("oscillator-commutator", ef, [(1, ())], lo) if kind.tag is AlgebraTag.OSC
            else ("sl2-commutator", ef, [(1, (hk,))], lo),
        ]
    else:
        q = kind.q
        qef = [(q, (e, f)), (-1, (f, e))]
        relations = [
            ("cartan-raising", [(1, (hk, e))], [(q, (e, hk))], lo),
            ("cartan-lowering", [(q, (hk, f))], [(1, (f, hk))], full),
            ("q-oscillator-commutator", qef, [(q - 1, ())], lo)
            if kind.tag is AlgebraTag.OSC_Q
            else ("uq-sl2-commutator", qef, [(q - 1, ()), (1 - q, (hk, hk))], lo),
        ]
    return [check_identity(name, rng, levels, lhs, rhs, e.dims)
            for name, lhs, rhs, (levels, rng) in relations]


def check_identity(name: str, checked_range: str, levels: Iterable[int], lhs, rhs,
                   dims: tuple[int, ...], level_key: str = "level") -> CheckResult:
    """Certify lhs == rhs on the given levels of a module with these level
    dimensions. Each side is a list of (scalar, factors) terms with at most
    two factors; no factors means the identity. Per level, the residual
    lhs - rhs of every entry is one unreduced integer pair (products from
    _block_product), the two sides cross-multiplied, so an entry that agrees
    builds no Fraction. A level passes when every residual top is 0; else
    the row-major first nonzero residual is the witness, {level_key: level,
    "row": i, "col": j}, the one place both sides become Fractions. Terms
    of another module or degree, and a checked level where some term has no
    block, raise ValueError."""
    residual = lhs + [(-c, factors) for c, factors in rhs]
    if (len({sum(op.degree for op in factors) for _, factors in residual}) > 1
            or any(op.dims != dims for _, factors in residual for op in factors)):
        raise ValueError("terms of different modules or degrees")
    for n in levels:
        diff = _combination(residual, dims, n)
        if diff is None:
            raise ValueError(f"block {n} outside the checked operators")
        if any(top for top, _ in diff.values()):
            i, j = min(ij for ij, (top, _) in diff.items() if top)
            zero = (0, 1)
            return CheckResult.fail(
                name, checked_range, {level_key: n, "row": i, "col": j},
                Fraction(*_combination(lhs, dims, n).get((i, j), zero)),
                Fraction(*_combination(rhs, dims, n).get((i, j), zero)))
    return CheckResult.ok(name, checked_range)


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
    kf = kinv @ f
    c, s = -root / (q - 1) ** 2, 1 / (root - 1 / root)
    return check_identity(name, f"levels 0..{e.top - 1}", range(e.top),
                          [(c, (e, kf)), (-c, (kf, e))], [(s, (k,)), (-s, (kinv,))], e.dims)


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
    eigenvalue: Scalar
    result: CheckResult  # "casimir" on levels 0..levels-1, witness key "level"

    @property
    def ok(self) -> bool:
        return self.result.passed


def casimir(module: ModuleSpec, gens: Generators | None = None) -> CasimirCheck:
    """Test that the Casimir element acts as the expected scalar.

    osc:      2EF + H            eigenvalue lambda
    sl2:      4EF + H^2 - 2H     eigenvalue lambda(lambda - 2)
    osc_q:    (1 - EF) K^{-1}    eigenvalue 1/kappa
    U_q(sl2): EF K^{-1} - K/q - K^{-1}   eigenvalue -(kappa/q + 1/kappa)

    Each is one check_identity against the scalar; only F K^{-1} is composed.
    """
    gens = gens or build_generators(module)
    e, f, hk = gens.e, gens.f, gens.hk
    tag = module.algebra.tag
    lam = module.label
    if tag is AlgebraTag.OSC:
        lhs, eig = [(2, (e, f)), (1, (hk,))], lam
    elif tag is AlgebraTag.SL2:
        lhs, eig = [(4, (e, f)), (1, (hk, hk)), (-2, (hk,))], lam * (lam - 2)
    elif tag is AlgebraTag.OSC_Q:
        kinv = invert_diagonal(hk)
        lhs, eig = [(1, (kinv,)), (-1, (e, f @ kinv))], 1 / lam
    else:
        q = module.algebra.q
        kinv = invert_diagonal(hk)
        lhs = [(1, (e, f @ kinv)), (-1 / q, (hk,)), (-1, (kinv,))]
        eig = -(lam / q + 1 / lam)
    levels = module.levels
    return CasimirCheck(eig, check_identity("casimir", f"levels 0..{levels - 1}",
                                            range(levels), lhs, [(eig, ())], hk.dims))

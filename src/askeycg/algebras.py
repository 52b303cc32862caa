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
stored Fractions, in one kernel, _compose: every product c v w of a term
is accumulated straight into its entry, keyed (level, i, j), as one
unreduced integer pair, over all the levels asked for in one pass; a
product of two factors walks the left block by column, whatever the
factors' shape. @ reduces each entry once, into one Fraction. Operator
identities (the defining relations, the Casimir, and the coproduct
identities of the other modules) are not composed into operators:
check_identity forms the residual lhs - rhs of every entry of every checked
level in one _compose pass, and reduces only the first unequal entry, for
the witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import takewhile
from operator import add
from typing import Callable, Iterable, Mapping

from .exactmath import InvalidParameterError, Scalar
from .linalg import RatMat
from .report import CheckResult

__all__ = [
    "AlgebraTag", "AlgebraKind", "ModuleSpec", "GradedOperator", "Generators",
    "phi", "cartan", "build_generators", "check_relations", "casimir", "casimir_eigenvalue",
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
    (v^n - u^n)(v^{n-1} t^2 - u^{n-1} s^2) / (v^{2n-1} t^2) for U_q(sl2)
    (_phi, which takes the label as any integer pair (s, t))."""
    return _phi(algebra, *label.as_integer_ratio(), n)


def _phi(algebra: AlgebraKind, s: int, t: int, n: int) -> Scalar:
    """phi of the label s/t, t != 0, not necessarily in lowest terms: each
    formula is homogeneous in (s, t)."""
    if n < 0:
        raise ValueError("level must be >= 0")
    tag = algebra.tag
    if tag is AlgebraTag.OSC:
        return Fraction(-n)
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
    leaves out the entries that cancel to zero.
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
        """self after other, on every level where both have the blocks."""
        if self.dims != other.dims:
            raise ValueError("operators live on different modules")
        present = _block_levels((self, other), self.top)
        levels = [n for n in other.blocks if n in present]
        blocks = {n: {} for n in levels}
        for (n, i, j), (top, bottom) in _compose([(1, (self, other))], levels, self.dims).items():
            if top:
                blocks[n][i, j] = Fraction(top, bottom)
        return GradedOperator._nonzero(self.degree + other.degree, self.dims, blocks)


def _block_levels(factors, top: int):
    """The levels at which the product of the factors (none: the identity)
    has a block, on a module with levels 0..top: those where the rightmost
    factor has its block and the left one its block at the intermediate
    level, unless that lies below level 0, where everything is the zero
    space."""
    if not factors:
        return range(top + 1)
    b = factors[-1]
    if len(factors) == 1:
        return b.blocks.keys()
    a, d = factors[0].blocks, b.degree
    return {n for n in b.blocks if n + d < 0 or n + d in a}


def _columns(block, cn: int, cd: int) -> dict:
    """The entries of a block scaled by cn / cd, keyed by column: {k: [(i,
    cn v_n, cd v_d)]}, the index every two-factor product walks."""
    by_col = {}
    for (i, k), v in block.items():
        vn, vd = v.as_integer_ratio()
        by_col.setdefault(k, []).append((i, cn * vn, cd * vd))
    return by_col


def _products(c, factors, levels, dims):
    """((n, i, j), top, bottom) of every product c v w of one term on the
    levels, all of which the term has (_block_levels), with integer products
    only. A pair of factors walks the left block by column (_columns)."""
    cn, cd = c.as_integer_ratio()
    if not factors:
        for n in levels:
            for i in range(dims[n]):
                yield (n, i, i), cn, cd
        return
    if len(factors) == 1:
        blocks = factors[0].blocks
        for n in levels:
            for (i, j), v in blocks[n].items():
                vn, vd = v.as_integer_ratio()
                yield (n, i, j), cn * vn, cd * vd
        return
    a, b = factors
    for n in levels:
        by_col = _columns(a.blocks.get(n + b.degree, {}), cn, cd)  # nothing below level 0
        for (k, j), w in b.blocks[n].items():
            wn, wd = w.as_integer_ratio()
            for i, vn, vd in by_col.get(k, ()):
                yield (n, i, j), vn * wn, vd * wd


def _compose(terms, levels, dims: tuple[int, ...]) -> dict:
    """The sum of c * (product of factors) over the (c, factors) terms on the
    given levels, where every term has its block (_block_levels), as unreduced
    integer pairs {(n, i, j): (top, bottom)}, a top of 0 where the products
    cancel; an empty factor tuple is the identity. Each product is added
    straight into its entry; equal bottoms add without a product."""
    out = {}
    get = out.get
    for c, factors in terms:
        for key, top, bottom in _products(c, factors, levels, dims):
            old = get(key)
            if old is None:
                out[key] = top, bottom
            elif old[1] == bottom:
                out[key] = old[0] + top, bottom
            else:
                out[key] = old[0] * bottom + top * old[1], old[1] * bottom
    return out


@cache
def _compositions(N: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """Ways to write N as an ordered sum of `parts` levels, lexicographic:
    the level-N basis of a `parts`-fold tensor module, empty below level 0.
    Memoized: it depends on two small integers only, and every shift table
    (_shift_table) of the module reads it."""
    if parts == 1:
        return ((N,),) if N >= 0 else ()
    return tuple((n,) + rest for n in range(N + 1)
                 for rest in _compositions(N - n, parts - 1))


@cache
def _shift_table(N: int, shift: tuple[int, ...]) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(col, row, src) for every level-N basis vector src of a len(shift)-fold
    tensor module (column col) whose image src + shift stays at or above
    level 0 in every factor (row row of level N + sum(shift)). Memoized, as
    _compositions: it depends on the shape alone."""
    parts = len(shift)
    index = {t: i for i, t in enumerate(_compositions(N + sum(shift), parts))}
    return tuple((col, index[t], src)
                 for col, src in enumerate(_compositions(N, parts))
                 if (t := tuple(map(add, src, shift))) in index)


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
            for col, row, src in _shift_table(N, shift):
                if c := coeff(src):
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
    two factors; no factors means the identity. The residual lhs - rhs of
    every entry of every checked level is one unreduced integer pair, from
    one _compose pass, so an entry that agrees builds no Fraction. Levels
    are decided in order: a level passes when every residual top is 0; the
    first that does not gives the witness, its row-major first nonzero
    residual {level_key: level, "row": i, "col": j}, the one place both
    sides become Fractions. Terms of another module or degree raise
    ValueError, and so does a checked level reached where some term has no
    block (every level outside 0..len(dims)-1 is one)."""
    residual = lhs + [(-c, factors) for c, factors in rhs]
    if (len({sum(op.degree for op in factors) for _, factors in residual}) > 1
            or any(op.dims != dims for _, factors in residual for op in factors)):
        raise ValueError("terms of different modules or degrees")
    levels = list(levels)
    present = set(levels).intersection(
        *(_block_levels(factors, len(dims) - 1) for _, factors in residual))
    checked = list(takewhile(present.__contains__, levels))  # up to a missing block
    diff = _compose(residual, checked, dims)
    failing = {n for (n, _, _), (t, _) in diff.items() if t}
    for n in checked:
        if n in failing:
            i, j = min((i, j) for (m, i, j), (t, _) in diff.items() if t and m == n)
            zero = (0, 1)
            return CheckResult.fail(
                name, checked_range, {level_key: n, "row": i, "col": j},
                Fraction(*_compose(lhs, [n], dims).get((n, i, j), zero)),
                Fraction(*_compose(rhs, [n], dims).get((n, i, j), zero)))
    if len(checked) < len(levels):
        raise ValueError(f"block {levels[len(checked)]} outside the checked operators")
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


def check_relations(module: ModuleSpec, gens: Generators | None = None) -> list[CheckResult]:
    """Certify the defining relations on the truncated module, and for
    U_q(sl2) its standard form."""
    gens = gens or build_generators(module)
    results = _relation_checks(module.algebra, gens.e, gens.f, gens.hk)
    if module.algebra.tag is AlgebraTag.UQ_SL2:
        results.append(_uqsl2_standard_form_check(module.algebra, gens.e, gens.f, gens.hk))
    return results


def _casimir_form(module: ModuleSpec) -> tuple[Scalar, Callable[..., list]]:
    """The Casimir of the module's algebra, as (its eigenvalue on the
    module, its left side: a function of E, F and H, or K, giving the
    check_identity terms)."""
    tag, lam = module.algebra.tag, module.label
    if tag is AlgebraTag.OSC:
        return lam, lambda e, f, h: [(2, (e, f)), (1, (h,))]
    if tag is AlgebraTag.SL2:
        return lam * (lam - 2), lambda e, f, h: [(4, (e, f)), (1, (h, h)), (-2, (h,))]
    if tag is AlgebraTag.OSC_Q:
        def lhs(e, f, k):
            kinv = invert_diagonal(k)
            return [(1, (kinv,)), (-1, (e, f @ kinv))]
        return 1 / lam, lhs
    q = module.algebra.q

    def lhs(e, f, k):
        kinv = invert_diagonal(k)
        return [(1, (e, f @ kinv)), (-1 / q, (k,)), (-1, (kinv,))]
    return -(lam / q + 1 / lam), lhs


def casimir_eigenvalue(module: ModuleSpec) -> Scalar:
    """The scalar by which the Casimir acts on the module (see casimir)."""
    return _casimir_form(module)[0]


def casimir(module: ModuleSpec, gens: Generators | None = None) -> list[CheckResult]:
    """Test that the Casimir element acts as the expected scalar:

    osc:      2EF + H            eigenvalue lambda
    sl2:      4EF + H^2 - 2H     eigenvalue lambda(lambda - 2)
    osc_q:    (1 - EF) K^{-1}    eigenvalue 1/kappa
    U_q(sl2): EF K^{-1} - K/q - K^{-1}   eigenvalue -(kappa/q + 1/kappa)

    One result, "casimir" on levels 0..levels-1 with witness key "level",
    from one check_identity against the scalar; only F K^{-1} is composed.
    """
    gens = gens or build_generators(module)
    eig, lhs = _casimir_form(module)
    levels = module.levels
    return [check_identity("casimir", f"levels 0..{levels - 1}", range(levels),
                           lhs(gens.e, gens.f, gens.hk), [(eig, ())], gens.hk.dims)]

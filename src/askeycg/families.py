"""The six finite polynomial families and their contiguity data.

Each family is a finite sequence P_n(k, N), n = 0..N, normalized with a
(q-)binomial prefactor, satisfying a pair of contiguity relations in the
level N:

    P_n(k, N+1)      = alpha1(n, N) P_{n-1}(k, N) + alpha2(n, N) P_n(k, N)
    mu(k, N) P_n(k, N-1) = beta1(n, N) P_{n+1}(k, N) + beta2(n, N) P_n(k, N)

with the boundary convention P_{-1} = P_{N+1} = 0. Each family's series
parameters are written once (_series): poly_value evaluates one P_n(k, N)
through the public (q-)series kernels, and poly_block builds a whole level N
from integer tables split once per level. The left-hand coefficient
mu(k, N) matches the lowering coefficient of an algebra acting on a tensor
product of two lowest-weight modules, which is what makes these families
Clebsch-Gordan coefficients; the mapping is

    Hahn, Krawtchouk -> oscillator      dual Hahn, Racah -> sl2
    q-Hahn           -> q-oscillator    q-Racah          -> U_q(sl2)

For the oscillator pair the second contiguity relation carries a global -1
(in mu, beta1 and beta2) so that mu(k, N) equals the oscillator lowering
coefficient -(N-k); this only rescales the lowering generator.

Constrained parameters are computed, never supplied: beta for dual Hahn
(alpha + beta = lambda1 + lambda2 - 2), gamma for Racah (lambda1 + lambda2
- 1) and for q-Racah (kappa1^2 kappa2^2 / q). Validation is eager and covers
the grid up to n_max: a classical condition is one exact test against the
range of integers it excludes, a q condition a scan over the O(n_max) powers
of q it excludes. So a constructed instance is a certificate that no
denominator in the contiguity or coproduct coefficients vanishes where used.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, partial
from math import comb
from typing import Callable

from .algebras import AlgebraKind, AlgebraTag
from .exactmath import (InvalidParameterError, Scalar, Unreduced, as_scalar,
                        format_scalar, hyper_terminating, nested_sum, parameter_factors,
                        product_sum, q_binomial_pair, q_hyper_terminating, q_powers,
                        ratio_scales)
from .report import CheckResult, Report, first_mismatch

__all__ = [
    "FamilyKind", "FamilyInstance", "ContiguityData", "make_instance",
    "poly_value", "poly_block", "contiguity", "check_contiguity",
    "check_three_term_dual_hahn", "limit_hahn_to_krawtchouk",
    "limit_racah_to_dual_hahn", "block_values", "algebra_for", "labels",
]


class FamilyKind(str, Enum):
    HAHN = "hahn"
    KRAWTCHOUK = "krawtchouk"
    DUAL_HAHN = "dual-hahn"
    RACAH = "racah"
    Q_HAHN = "q-hahn"
    Q_RACAH = "q-racah"

    @property
    def is_q(self) -> bool:
        return self in (FamilyKind.Q_HAHN, FamilyKind.Q_RACAH)


_ALGEBRA_OF = {
    FamilyKind.HAHN: AlgebraTag.OSC,
    FamilyKind.KRAWTCHOUK: AlgebraTag.OSC,
    FamilyKind.DUAL_HAHN: AlgebraTag.SL2,
    FamilyKind.RACAH: AlgebraTag.SL2,
    FamilyKind.Q_HAHN: AlgebraTag.OSC_Q,
    FamilyKind.Q_RACAH: AlgebraTag.UQ_SL2,
}

# free parameters accepted by make_instance, per kind; labels always allowed
_FREE_PARAMS = {
    FamilyKind.HAHN: ("alpha", "beta"),
    FamilyKind.KRAWTCHOUK: ("p",),
    FamilyKind.DUAL_HAHN: ("alpha",),
    FamilyKind.RACAH: ("alpha", "beta"),
    FamilyKind.Q_HAHN: ("q", "alpha", "beta"),
    FamilyKind.Q_RACAH: ("q", "alpha", "beta"),
}


@dataclass(frozen=True)
class FamilyInstance:
    """One family with fully resolved parameters, valid on the grid <= n_max.

    Classical kinds carry module labels lambda1, lambda2; q-kinds carry
    kappa_i = q^{lambda_i / 2} instead, so every formula stays rational.
    """

    kind: FamilyKind
    n_max: int
    alpha: Scalar | None = None
    beta: Scalar | None = None
    gamma: Scalar | None = None
    p: Scalar | None = None
    q: Scalar | None = None
    lambda1: Scalar | None = None
    lambda2: Scalar | None = None
    kappa1: Scalar | None = None
    kappa2: Scalar | None = None

    def to_doc(self) -> dict:
        doc = {"kind": self.kind.value, "n_max": str(self.n_max)}
        for name in ("alpha", "beta", "gamma", "p", "q",
                     "lambda1", "lambda2", "kappa1", "kappa2"):
            value = getattr(self, name)
            if value is not None:
                doc[name] = format_scalar(value)
        return doc


def algebra_for(inst: FamilyInstance) -> AlgebraKind:
    tag = _ALGEBRA_OF[inst.kind]
    return AlgebraKind(tag, inst.q) if inst.kind.is_q else AlgebraKind(tag)


def labels(inst: FamilyInstance) -> tuple[Scalar, Scalar]:
    """Module labels: (lambda1, lambda2) classically, (kappa1, kappa2) for q."""
    if inst.kind.is_q:
        return inst.kappa1, inst.kappa2
    return inst.lambda1, inst.lambda2


def tensor_label(inst: FamilyInstance, k: int) -> Scalar:
    """Label of the k-th irreducible component of the tensor module:
    lambda1 + lambda2 + 2k, or kappa1 kappa2 q^k for the q-kinds."""
    l1, l2 = labels(inst)
    if inst.kind.is_q:
        return l1 * l2 * inst.q ** k
    return l1 + l2 + 2 * k


def make_instance(kind: FamilyKind | str, n_max: int = 8, **params) -> FamilyInstance:
    """Resolve constrained parameters, validate eagerly, return the instance.

    Free parameters per kind (labels lambda1/lambda2 or kappa1/kappa2 may
    always be given; oscillator-family labels default to 0, q-Hahn kappas
    to 1):

        hahn        alpha, beta       krawtchouk  p
        dual-hahn   alpha             racah       alpha, beta
        q-hahn      q, alpha, beta    q-racah     q, alpha, beta (kappas required)
    """
    kind = FamilyKind(kind)
    if n_max < 1:
        raise InvalidParameterError("n_max must be at least 1")
    vals = {}
    for name, raw in params.items():
        if raw is None:
            continue
        allowed = _FREE_PARAMS[kind] + (
            ("kappa1", "kappa2") if kind.is_q else ("lambda1", "lambda2"))
        if name not in allowed:
            raise InvalidParameterError(
                f"{kind.value} does not take a parameter {name!r}")
        vals[name] = as_scalar(raw)

    missing = [name for name in _FREE_PARAMS[kind] if name not in vals]
    if missing:
        raise InvalidParameterError(
            f"{kind.value} needs parameters: {', '.join(missing)}")

    if kind.is_q:
        _require(vals["q"] not in (0, 1, -1), "q must avoid {0, 1, -1}")
        if kind is FamilyKind.Q_RACAH and not {"kappa1", "kappa2"} <= vals.keys():
            raise InvalidParameterError("q-racah needs kappa1 and kappa2")
        vals.setdefault("kappa1", Fraction(1))
        vals.setdefault("kappa2", Fraction(1))
    else:
        vals.setdefault("lambda1", Fraction(0))
        vals.setdefault("lambda2", Fraction(0))

    if kind is FamilyKind.DUAL_HAHN:
        vals["beta"] = vals["lambda1"] + vals["lambda2"] - 2 - vals["alpha"]
    elif kind is FamilyKind.RACAH:
        vals["gamma"] = vals["lambda1"] + vals["lambda2"] - 1
    elif kind is FamilyKind.Q_RACAH:
        vals["gamma"] = vals["kappa1"] ** 2 * vals["kappa2"] ** 2 / vals["q"]

    inst = FamilyInstance(kind=kind, n_max=n_max, **vals)
    _validate(inst)
    return inst


def _require(cond: bool, message: str, *args) -> None:
    """Unless cond, raise InvalidParameterError(message % args), formatted only then."""
    if not cond:
        raise InvalidParameterError(message % args)


def _validate(inst: FamilyInstance) -> None:
    nm = inst.n_max
    kind = inst.kind
    if kind.is_q:
        q = inst.q
        _require(inst.kappa1 != 0 and inst.kappa2 != 0, "kappa labels must be nonzero")
        ab = inst.alpha * inst.beta
        for e in range(-nm, 2 * nm + 3):
            _require(ab * q ** e != 1,
                     "1 - alpha*beta*q^%d vanishes (contiguity denominator)", e)
        for e in range(1, nm + 1):
            _require(inst.alpha * q ** e != 1,
                     "series denominator (alpha*q; q) vanishes at q^%d", e)
        if kind is FamilyKind.Q_RACAH:
            _require(inst.alpha != 0, "q-racah needs alpha nonzero")
            bg = inst.beta * inst.gamma
            for e in range(1, nm + 1):
                _require(bg * q ** e != 1,
                         "series denominator (beta*gamma*q; q) vanishes at q^%d", e)
            for kap, name in ((inst.kappa1, "kappa1"), (inst.kappa2, "kappa2")):
                for e in range(0, nm + 1):
                    _require(kap ** 2 * q ** e != 1,
                             "%s^2 q^%d = 1: module label hits a zero of "
                             "the lowering coefficient", name, e)
            k12 = (inst.kappa1 * inst.kappa2) ** 2
            for e in range(0, 3 * nm):
                _require(k12 * q ** e != 1,
                         "(kappa1*kappa2)^2 q^%d = 1: a tensor component label "
                         "hits a zero of the lowering coefficient", e)
        return

    if kind is FamilyKind.KRAWTCHOUK:
        _require(inst.p != 0, "p must be nonzero")
        _require(inst.p != 1, "p = 1 degenerates the orthogonality weights")
        return

    # Hahn, dual Hahn, Racah: each excluded set is a range of integers
    if kind in (FamilyKind.HAHN, FamilyKind.RACAH):
        # 2n + s - N (0 <= n <= n_max + 1, 0 <= N <= n_max) vanishes exactly for
        # the integers s in -2 n_max - 2 .. n_max, as does the coproduct's
        # n - m + s + 1 (0 <= n, m <= n_max); reported: the zero of least n
        s = inst.alpha + inst.beta
        n = max(0, -(s.numerator // 2))
        _require(not _integer_in(s, -2 * nm - 2, nm),
                 "2n + alpha + beta - N vanishes at (n=%d, N=%d); "
                 "alpha + beta must avoid the integers (genericity)", n, 2 * n + s.numerator)
    # (alpha+1)_k, k <= n_max, vanishes exactly for alpha in -n_max .. -1
    _require(not _integer_in(inst.alpha, -nm, -1),
             "series denominator (alpha+1)_k vanishes (alpha = %s)", inst.alpha)
    if kind is FamilyKind.RACAH:
        # likewise (beta+gamma+1)_k for beta + gamma in -n_max .. -1
        _require(not _integer_in(inst.beta + inst.gamma, -nm, -1),
                 "series denominator (beta+gamma+1)_k vanishes")
    if kind in (FamilyKind.DUAL_HAHN, FamilyKind.RACAH):
        # the sl2 lowering coefficient phi(lam, j) = -j (j + lam - 1) vanishes
        # for some level 1 <= j <= n_max exactly when lam is in 1 - n_max .. 0
        for lam, name in ((inst.lambda1, "lambda1"), (inst.lambda2, "lambda2")):
            _require(not _integer_in(lam, 1 - nm, 0),
                     "%s = %s makes the module reducible within the "
                     "truncation (%s must avoid 0, -1, ..., %d)", name, lam, name, 1 - nm)
        # so must the tensor labels l12 + 2k, 0 <= k <= n_max: l12 = 1 - j - 2k
        # excludes the integers 1 - 3 n_max .. 0, all but -1 when n_max = 1
        l12 = inst.lambda1 + inst.lambda2
        _require(not _integer_in(l12, 1 - 3 * nm, 0) or (nm == 1 and l12 == -1),
                 "lambda1 + lambda2 = %s makes "
                 "a tensor component reducible within the truncation", l12)


def _integer_in(x: Scalar, lo: int, hi: int) -> bool:
    """Whether x is one of the integers lo..hi."""
    return x.denominator == 1 and lo <= x <= hi


# ---------------------------------------------------------------------------
# polynomial values
# ---------------------------------------------------------------------------

def _series(inst: FamilyInstance, N: int):
    """The series of P_n(k, N) on level N as (row, col, den, z): row(n) and
    col(k) are the numerator parameters that vary with n and with k, row(n)
    leading with -n (or q^{-n}); den holds the denominator parameters, the
    implicit k! (or (q; q)_k) aside, and z is the argument (q for q-kinds)."""
    a, b, g, q = inst.alpha, inst.beta, inst.gamma, inst.q
    kind = inst.kind
    if kind is FamilyKind.HAHN:
        return (lambda n: [Fraction(-n), n + a + b - N + 1], lambda k: [Fraction(-k)],
                [a + 1, Fraction(-N)], Fraction(1))
    if kind is FamilyKind.KRAWTCHOUK:
        return (lambda n: [Fraction(-n)], lambda k: [Fraction(-k)],
                [Fraction(-N)], 1 / inst.p)
    if kind is FamilyKind.DUAL_HAHN:
        return (lambda n: [Fraction(-n)], lambda k: [Fraction(-k), k + a + b + 1],
                [a + 1, Fraction(-N)], Fraction(1))
    if kind is FamilyKind.RACAH:
        return (lambda n: [Fraction(-n), n + a + b - N + 1],
                lambda k: [Fraction(-k), k + g],
                [a + 1, b + g + 1, Fraction(-N)], Fraction(1))
    if kind is FamilyKind.Q_HAHN:
        return (lambda n: [q ** -n, a * b * q ** (n - N + 1)], lambda k: [q ** -k],
                [a * q, q ** -N], q)
    return (lambda n: [q ** -n, a * b * q ** (n - N + 1)],
            lambda k: [q ** -k, g * q ** k],
            [a * q, b * g * q, q ** -N], q)


def _prefactor(inst: FamilyInstance, n: int, N: int) -> tuple[int, int]:
    """The (q-)binomial prefactor of P_n(k, N) as an integer pair."""
    return q_binomial_pair(N, n, inst.q) if inst.kind.is_q else (comb(N, n), 1)


def poly_value(inst: FamilyInstance, n: int, k: int, N: int) -> Scalar:
    """P_n(k, N), including the (q-)binomial prefactor; 0 for n outside 0..N.
    The public single-entry route, through the public (q-)series kernels."""
    if not 0 <= N <= inst.n_max:
        raise ValueError(f"N must lie in 0..{inst.n_max}")
    if not 0 <= k <= N:
        raise ValueError("k must lie in 0..N")
    if n < 0 or n > N:
        return Fraction(0)
    prefactor = Fraction(*_prefactor(inst, n, N))
    row, col, den, z = _series(inst, N)
    if inst.kind.is_q:
        return prefactor * q_hyper_terminating(row(n) + col(k), den, inst.q, z, n)
    return prefactor * hyper_terminating(row(n) + col(k), den, z, n)


def poly_block(inst: FamilyInstance, N: int) -> tuple[tuple[Scalar, ...], ...]:
    """The rows n of the CG block P[n][k] = P_n(k, N), built in one pass over
    integers.

    The parameters are split once per block: the row factors and prefactor
    once per n, the column factors once per k, and the term denominators and
    powers of q once for all (exactmath.parameter_factors, ratio_scales).
    Each entry is then one exactmath.nested_sum and one Fraction. Values,
    and errors in row-major order, are those of poly_value; nothing is read
    from the contiguity recurrence or from another block.
    """
    if not 0 <= N <= inst.n_max:
        raise ValueError(f"N must lie in 0..{inst.n_max}")
    prefactors = [_prefactor(inst, n, N) for n in range(N + 1)]
    row, col, den, z = _series(inst, N)
    q = inst.q if inst.kind.is_q else None
    tops, bottoms = ratio_scales(den, z, N, len(row(0)) + len(col(0)), q)
    cols = []
    for k in range(N + 1):
        f, d = parameter_factors(col(k), N, q)
        cols.append((f, [d * y for y in bottoms]))
    rows = []
    for n, (pre_top, pre_bottom) in enumerate(prefactors):
        f, d = parameter_factors(row(n), n, q)
        f = [x * y for x, y in zip(f, tops)]
        rows.append(tuple(
            Fraction(pre_top * top, pre_bottom * bottom)
            for top, bottom in (nested_sum([x * y for x, y in zip(f, cf)],
                                           [d * y for y in cb[:n]])
                                for cf, cb in cols)))
    return tuple(rows)


def block_values(inst: FamilyInstance,
                 blocks: dict | None = None) -> Callable[[int, int, int], Scalar]:
    """(n, k, N) -> P_n(k, N), 0 for n outside 0..N. Values are read from
    `blocks` (level -> CG block, as built by cgverify.cg_block) when given,
    so one table serves every check of a run; otherwise each level N is
    built by poly_block(inst, N) on first use and kept for as long as the
    returned function lives. Either way the values are poly_block's."""
    rows = cache(lambda N: poly_block(inst, N)) if blocks is None else (
        lambda N: blocks[N].P.a)
    return lambda n, k, N: rows(N)[n][k] if 0 <= n <= N else Fraction(0)


# ---------------------------------------------------------------------------
# contiguity coefficient data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContiguityData:
    """The five coefficient functions of the contiguity relations. Built by
    `contiguity`, each is memoized on its integer arguments for as long as
    this object lives; one object serves every check of one verify run."""
    alpha1: Callable[[int, int], Scalar]
    alpha2: Callable[[int, int], Scalar]
    beta1: Callable[[int, int], Scalar]
    beta2: Callable[[int, int], Scalar]
    mu: Callable[[int, int], Scalar]


def _memoized(alpha1, alpha2, beta1, beta2, mu) -> ContiguityData:
    return ContiguityData(cache(alpha1), cache(alpha2), cache(beta1), cache(beta2),
                          cache(mu))


def contiguity(inst: FamilyInstance) -> ContiguityData:
    """Coefficient functions of the two contiguity relations.

    The parameters enter as exactmath.Unreduced pairs, and their sums and
    products alone (a+b, a*b, b*g, a-g, ...) are folded once per call. The
    powers of q and the factors 1 - c q^e that several coefficients share
    are Unreduced pairs memoized on their integer arguments, so each
    coefficient is one chain of integer-pair operations and one reduction,
    into the Fraction it returns; a zero divisor raises ZeroDivisionError as
    a chain of Fractions would. The five functions are memoized on their
    integer arguments too. All memos live in closures owned by the returned
    object: they last exactly as long as that object, and nothing is cached
    on the instance or at module level.
    """
    kind = inst.kind
    lift = Unreduced.of
    if kind is FamilyKind.KRAWTCHOUK:
        minus_p, p_minus_1 = lift(-inst.p), lift(inst.p - 1)
        return _memoized(
            alpha1=lambda n, N: Fraction(1),
            alpha2=lambda n, N: Fraction(1),
            beta1=lambda n, N: (minus_p * (n + 1)).reduce(),
            beta2=lambda n, N: (p_minus_1 * (N - n)).reduce(),
            mu=lambda k, N: Fraction(k - N),
        )
    a, b = lift(inst.alpha), lift(inst.beta)
    if kind is FamilyKind.DUAL_HAHN:
        a1, ab1 = a + 1, a + b + 1
        return _memoized(
            alpha1=lambda n, N: Fraction(1),
            alpha2=lambda n, N: Fraction(1),
            beta1=lambda n, N: ((n + a1) * (-n - 1)).reduce(),
            beta2=lambda n, N: ((N - n + b) * (n - N)).reduce(),
            mu=lambda k, N: ((k - N) * (N + k + ab1)).reduce(),
        )
    if kind in (FamilyKind.HAHN, FamilyKind.RACAH):
        s = a + b
        s1, a1, b1 = s + 1, a + 1, b + 1

        def alpha1(n, N):
            return ((n + s1) / (2 * n - N + s)).reduce()

        def alpha2(n, N):
            return ((n - N + s) / (2 * n - N + s)).reduce()

        if kind is FamilyKind.HAHN:
            # second relation rescaled by -1 so mu matches the oscillator lowering
            return _memoized(
                alpha1, alpha2,
                beta1=lambda n, N: ((n + a1) * (-n - 1) / (2 * n + 2 - N + s)).reduce(),
                beta2=lambda n, N: ((n - N + b1) * (n - N) / (2 * n + 2 - N + s)).reduce(),
                mu=lambda k, N: Fraction(k - N),
            )
        g = lift(inst.gamma)
        bg1, ag1 = b + g + 1, a - g + 1
        return _memoized(
            alpha1, alpha2,
            beta1=lambda n, N: ((n + bg1) * (n + a1) * (-n - 1)
                                / (2 * n + 2 - N + s)).reduce(),
            beta2=lambda n, N: ((n - N + b1) * (n - N + ag1) * (N - n)
                                / (2 * n + 2 - N + s)).reduce(),
            mu=lambda k, N: ((k - N) * (N + k + g)).reduce(),
        )

    qp = q_powers(inst.q)

    def one_minus(c):
        """e -> 1 - c q^e, memoized."""
        return cache(lambda e: 1 - c * qp(e))

    one_minus_ab, one_minus_a, one_minus_q = one_minus(a * b), one_minus(a), one_minus(1)

    def alpha1(n, N):
        return (one_minus_ab(n + 1) / one_minus_ab(2 * n - N)).reduce()

    def alpha2(n, N):
        return (qp(n) * one_minus_ab(n - N) / one_minus_ab(2 * n - N)).reduce()

    if kind is FamilyKind.Q_HAHN:
        return _memoized(
            alpha1, alpha2,
            beta1=lambda n, N: (one_minus_a(n + 1) * one_minus_q(n + 1)
                                / one_minus_ab(2 * n + 2 - N)).reduce(),
            beta2=lambda n, N: (a * qp(n + 1) * (1 - b * qp(n + 1 - N)) * one_minus_q(N - n)
                                / one_minus_ab(2 * n + 2 - N)).reduce(),
            mu=lambda k, N: one_minus_q(N - k).reduce(),
        )
    g = lift(inst.gamma)
    bg = b * g
    return _memoized(
        alpha1, alpha2,
        beta1=lambda n, N: ((1 - bg * qp(n + 1)) * one_minus_a(n + 1) * one_minus_q(n + 1)
                            / one_minus_ab(2 * n + 2 - N)).reduce(),
        beta2=lambda n, N: ((1 - b * qp(n + 1 - N)) * (a * qp(n + 1) - g * qp(N))
                            * one_minus_q(N - n) / one_minus_ab(2 * n + 2 - N)).reduce(),
        mu=lambda k, N: (one_minus_q(N - k) * (1 - g * qp(N + k))).reduce(),
    )


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_contiguity(inst: FamilyInstance, data: ContiguityData | None = None,
                     blocks: dict | None = None) -> Report:
    """Verify both contiguity relations exactly on the whole truncated grid.

    Boundary terms enter through the zero convention; coefficients are never
    evaluated against a vanishing polynomial factor, so every coefficient
    evaluation stays inside the validated grid. Coefficients come from
    `data` when given (a run shares one memoized table with its Delta),
    otherwise from contiguity(inst); polynomial values come from `blocks`
    when given (see block_values). Every side is one unreduced integer pair
    from product_sum: alpha1 P + alpha2 P, beta1 P + beta2 P, and mu P as a
    one-term sum. first_mismatch decides each comparison by cross-multiplying,
    so a side is never reduced unless it is the witness.
    """
    data = data or contiguity(inst)
    P = block_values(inst, blocks)
    nm = inst.n_max

    def raising(n, k, N):
        terms = []
        if 0 <= n - 1 <= N:
            terms.append((data.alpha1(n, N), P(n - 1, k, N)))
        if 0 <= n <= N:
            terms.append((data.alpha2(n, N), P(n, k, N)))
        return P(n, k, N + 1), product_sum(terms)

    def lowering(n, k, N):
        m = data.mu(k, N)
        lhs = product_sum([(m, P(n, k, N - 1))]) if m != 0 and N >= 1 else 0
        terms = []
        if 0 <= n + 1 <= N:
            terms.append((data.beta1(n, N), P(n + 1, k, N)))
        if 0 <= n <= N:
            terms.append((data.beta2(n, N), P(n, k, N)))
        return lhs, product_sum(terms)

    rep = Report(suite=f"contiguity:{inst.kind.value}", params=inst.to_doc())
    rng = f"0<=N<{nm}, -1<=n<=N+1, 0<=k<=N"
    for name, sides in (("raising-contiguity", raising), ("lowering-contiguity", lowering)):
        rep.add(first_mismatch(name, rng, (
            ({"N": N, "n": n, "k": k}, *sides(n, k, N))
            for N in range(nm) for n in range(-1, N + 2) for k in range(N + 1))))
    return rep


def check_three_term_dual_hahn(inst: FamilyInstance,
                               mu_fn: Callable[[int, int], Scalar] | None = None,
                               blocks: dict | None = None) -> Report:
    """Three-term recurrence of the dual Hahn family at alpha = lambda1 - 1:

        A_n P_{n+1} + (A_n + C_n) P_n + C_n P_{n-1} = mu(k) P_n

    with A_n = (n+1)(n+lambda1), C_n = (N-n+1)(N-n+lambda2) and
    mu(k) = (N-k+1)(N+k+lambda1+lambda2), all at fixed level N. Polynomial
    values come from `blocks` when given (see block_values). Each side is one
    unreduced integer pair from product_sum, as in check_contiguity.
    """
    if inst.kind is not FamilyKind.DUAL_HAHN:
        raise InvalidParameterError("three-term recurrence check needs a dual Hahn instance")
    if inst.alpha != inst.lambda1 - 1:
        raise InvalidParameterError("three-term recurrence check needs alpha = lambda1 - 1")
    l1, l2 = inst.lambda1, inst.lambda2
    nm = inst.n_max
    P = block_values(inst, blocks)
    if mu_fn is None:
        mu_fn = lambda k, N: (N - k + 1) * (N + k + l1 + l2)

    def sides(n, k, N):
        a_n = (n + 1) * (n + l1)
        c_n = (N - n + 1) * (N - n + l2)
        return (product_sum([(a_n, P(n + 1, k, N)), (a_n + c_n, P(n, k, N)),
                             (c_n, P(n - 1, k, N))]),
                product_sum([(mu_fn(k, N), P(n, k, N))]))

    rep = Report(suite="three-term:dual-hahn", params=inst.to_doc())
    rep.add(first_mismatch("three-term-recurrence", f"0<=n,k<=N<={nm}", (
        ({"N": N, "n": n, "k": k}, *sides(n, k, N))
        for N in range(nm + 1) for n in range(N + 1) for k in range(N + 1))))
    return rep


def _decay(name: str, checked_range: str, ladder: str, xs: list[Scalar],
           values: list[Callable[..., Scalar]], target: Callable[..., Scalar],
           points: list[dict]) -> CheckResult:
    """The decay rule of both limit ladders: values[i] is the function at xs[i],
    and for consecutive x1 < x2 its exact distance from target at each point,
    d(x) = |values(x)(*point) - target(*point)|, must obey d(x2) <= d(x1) 2 x1/x2.
    So d(x1) = 0 forces d(x2) = 0, and nothing is divided. The first violation
    (pairs in order, then points) fails with witness {<ladder>1: x1,
    <ladder>2: x2, **point}, d(x2) against the bound."""
    for (x1, f1), (x2, f2) in zip(zip(xs, values), zip(xs[1:], values[1:])):
        for at in points:
            args = at.values()
            want = target(*args)
            d2, bound = abs(f2(*args) - want), abs(f1(*args) - want) * 2 * x1 / x2
            if d2 > bound:
                return CheckResult.fail(name, checked_range,
                                        {f"{ladder}1": x1, f"{ladder}2": x2, **at}, d2, bound)
    return CheckResult.ok(name, checked_range)


def limit_hahn_to_krawtchouk(p: Scalar, z_list: list[Scalar],
                             n: int, k: int, N: int) -> Report:
    """First-order convergence of Hahn to Krawtchouk under alpha = p z,
    beta = (1-p) z as z grows. A decay check fails where d(z2) > d(z1) 2 z1/z2
    (_decay; lhs d(z2), rhs the bound): difference-decay for
    d = |Q_n(k, N) - K_n(k, N)| (witness z1, z2), alpha1-decay .. beta2-decay
    for each Hahn contiguity coefficient at (n, N) against the Krawtchouk one
    (witness z1, z2, n, N). mu-equality compares the two exact mu(k, N)."""
    p = as_scalar(p)
    zs = [as_scalar(z) for z in z_list]
    if any(z2 <= z1 for z1, z2 in zip(zs, zs[1:])) or any(z <= 0 for z in zs):
        raise InvalidParameterError("z_list must be positive and increasing")
    if not 0 <= n <= N:
        raise InvalidParameterError("n must lie in 0..N")
    nm = max(N, 1)
    kraw = make_instance(FamilyKind.KRAWTCHOUK, p=p, n_max=nm)
    hahns = [make_instance(FamilyKind.HAHN, alpha=p * z, beta=(1 - p) * z, n_max=nm)
             for z in zs]
    rep = Report(suite="limit:hahn->krawtchouk",
                 params={"p": format_scalar(p), "n": n, "k": k, "N": N,
                         "z_list": ",".join(format_scalar(z) for z in zs)})
    rep.add(_decay("difference-decay", f"z in {{{rep.params['z_list']}}}", "z", zs,
                   [partial(poly_value, hahn, n, k, N) for hahn in hahns],
                   partial(poly_value, kraw, n, k, N), [{}]))
    hdata, kdata = [contiguity(hahn) for hahn in hahns], contiguity(kraw)
    rep.extend(_decay(f"{c}-decay", f"(n,N)=({n},{N})", "z", zs,
                      [getattr(data, c) for data in hdata], getattr(kdata, c),
                      [{"n": n, "N": N}]) for c in ("alpha1", "alpha2", "beta1", "beta2"))
    rep.add(first_mismatch("mu-equality", f"(k,N)=({k},{N})",
                           [({"k": k, "N": N}, hdata[0].mu(k, N), kdata.mu(k, N))]))
    return rep


def limit_racah_to_dual_hahn(alpha: Scalar, lambda1: Scalar, lambda2: Scalar,
                             beta_list: list[Scalar], n_max: int = 8) -> Report:
    """First-order convergence of the Racah coefficient functions to the dual
    Hahn ones as beta grows, at shared alpha and labels (so the Racah gamma
    equals the dual Hahn alpha + beta + 1 automatically). A decay check,
    alpha1-decay .. beta2-decay, fails where d(b2) > d(b1) 2 b1/b2 (_decay;
    lhs d(b2), rhs the bound) on 0 <= n <= N <= n_max (witness beta1, beta2,
    n, N). The mu functions agree exactly, with no limit: mu-equality."""
    alpha = as_scalar(alpha)
    betas = [as_scalar(b) for b in beta_list]
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])) or any(b <= 0 for b in betas):
        raise InvalidParameterError("beta_list must be positive and increasing")
    dual = make_instance(FamilyKind.DUAL_HAHN, lambda1=lambda1, lambda2=lambda2,
                         alpha=alpha, n_max=n_max)
    ddata = contiguity(dual)
    rdata = [contiguity(make_instance(FamilyKind.RACAH, lambda1=lambda1, lambda2=lambda2,
                                      alpha=alpha, beta=b, n_max=n_max))
             for b in betas]  # one memo per beta, shared by all four decays
    rep = Report(suite="limit:racah->dual-hahn",
                 params={"alpha": format_scalar(alpha),
                         "lambda1": format_scalar(as_scalar(lambda1)),
                         "lambda2": format_scalar(as_scalar(lambda2)),
                         "beta_list": ",".join(format_scalar(b) for b in betas),
                         "n_max": n_max})
    grid = [{"n": n, "N": N} for N in range(n_max + 1) for n in range(N + 1)]
    rep.extend(_decay(f"{c}-decay", f"0<=n<=N<={n_max}", "beta", betas,
                      [getattr(data, c) for data in rdata], getattr(ddata, c), grid)
               for c in ("alpha1", "alpha2", "beta1", "beta2"))
    rep.add(first_mismatch("mu-equality", f"0<=k<=N<={n_max}", (
        ({"k": k, "N": N}, rdata[0].mu(k, N), ddata.mu(k, N))
        for N in range(n_max + 1) for k in range(N + 1))))
    return rep

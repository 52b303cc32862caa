"""The six finite polynomial families and their contiguity data.

Each family is a finite sequence P_n(k, N), n = 0..N, normalized with a
(q-)binomial prefactor, satisfying a pair of contiguity relations in the
level N:

    P_n(k, N+1)      = alpha1(n, N) P_{n-1}(k, N) + alpha2(n, N) P_n(k, N)
    mu(k, N) P_n(k, N-1) = beta1(n, N) P_{n+1}(k, N) + beta2(n, N) P_n(k, N)

with the boundary convention P_{-1} = P_{N+1} = 0. Each family's series
parameters are written once, as integer pairs in pieces that do not depend
on the level (_parameters): poly_value evaluates one P_n(k, N) through the
public (q-)series kernels, and poly_block builds a whole level N in one
integer loop over a SeriesTable, integer tables made once per instance (a
verify run makes one for all its levels), with each column's factors
reduced against the level's term denominators and each entry summed up to
its first vanished term, as integer columns over their least common
denominators. The left-hand coefficient
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
range of integers it excludes, a q condition one exact test for the power of
q it excludes (_q_exponent). So a constructed instance is a certificate that
no denominator in the contiguity or coproduct coefficients vanishes where
used, and one from make_instance also that no off-diagonal entry of any
T_N = Delta(E) Delta(F) vanishes (_require_irreducible). three_term_skip
says why the three-term check does not apply; the check raises with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property, partial
from math import comb, gcd, log
from typing import TYPE_CHECKING, Callable

from .algebras import AlgebraKind, AlgebraTag
from .exactmath import (InvalidParameterError, Scalar, SingularParameterError, as_scalar,
                        denominator_factors, format_scalar, hyper_terminating, live_terms,
                        nested_sum, parameter_factors, power_pairs, q_binomial_pair, q_factors,
                        q_hyper_terminating, ratio_scales, scan_poles, term_steps)
from .linalg import column_mismatches, integer_bands, integer_column
from .report import CheckResult, first_mismatch

if TYPE_CHECKING:
    from .cgverify import Run

__all__ = [
    "FamilyKind", "FamilyInstance", "ContiguityData", "make_instance",
    "poly_value", "poly_block", "SeriesTable", "contiguity", "check_contiguity",
    "three_term_skip", "check_three_term_dual_hahn", "limit_hahn_to_krawtchouk",
    "limit_racah_to_dual_hahn", "algebra_for", "labels",
]


class FamilyKind(str, Enum):
    HAHN = "hahn"
    KRAWTCHOUK = "krawtchouk"
    DUAL_HAHN = "dual-hahn"
    RACAH = "racah"
    Q_HAHN = "q-hahn"
    Q_RACAH = "q-racah"

    def __init__(self, value: str):
        self.is_q = value.startswith("q-")  # a plain attribute: read on every hot path


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
# every parameter name make_instance accepts per kind, and each kind by itself
# and by its value
_ALLOWED = {kind: free + (("kappa1", "kappa2") if kind.is_q else ("lambda1", "lambda2"))
            for kind, free in _FREE_PARAMS.items()}
_KINDS = {**{kind: kind for kind in FamilyKind}, **{kind.value: kind for kind in FamilyKind}}
_ZERO, _ONE = Fraction(0), Fraction(1)  # the label defaults, made once


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
    inst = _resolve(kind, n_max, params)
    _require_irreducible(inst)
    return inst


def _resolve(kind: FamilyKind | str, n_max: int, params: dict) -> FamilyInstance:
    """make_instance short of _require_irreducible: the limit ladders never build T_N."""
    kind = _KINDS.get(kind) or FamilyKind(kind)
    if n_max < 1:
        raise InvalidParameterError("n_max must be at least 1")
    vals = {}
    allowed = _ALLOWED[kind]
    for name, raw in params.items():
        if raw is None:
            continue
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
        vals.setdefault("kappa1", _ONE)
        vals.setdefault("kappa2", _ONE)
    else:
        vals.setdefault("lambda1", _ZERO)
        vals.setdefault("lambda2", _ZERO)

    # the constrained parameter from integer pairs, one Fraction reduced once
    if kind is FamilyKind.DUAL_HAHN or kind is FamilyKind.RACAH:
        (s1, t1), (s2, t2) = vals["lambda1"].as_integer_ratio(), vals["lambda2"].as_integer_ratio()
        s, t = s1 * t2 + s2 * t1, t1 * t2  # lambda1 + lambda2 = s / t
        if kind is FamilyKind.RACAH:
            vals["gamma"] = Fraction(s - t, t)
        else:
            an, ad = vals["alpha"].as_integer_ratio()
            vals["beta"] = Fraction((s - 2 * t) * ad - an * t, t * ad)
    elif kind is FamilyKind.Q_RACAH:
        (k1, d1), (k2, d2) = vals["kappa1"].as_integer_ratio(), vals["kappa2"].as_integer_ratio()
        u, v = vals["q"].as_integer_ratio()
        vals["gamma"] = Fraction((k1 * k2) ** 2 * v, (d1 * d2) ** 2 * u)

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
        # every condition on integer pairs: q = u / v, alpha = an / ad, ...
        q = inst.q.as_integer_ratio()
        (an, ad), (bn, bd) = inst.alpha.as_integer_ratio(), inst.beta.as_integer_ratio()
        (k1, d1), (k2, d2) = inst.kappa1.as_integer_ratio(), inst.kappa2.as_integer_ratio()
        _require(k1 != 0 and k2 != 0, "kappa labels must be nonzero")
        e = _q_exponent((an * bn, ad * bd), q, -nm, 2 * nm + 2)
        _require(e is None, "1 - alpha*beta*q^%d vanishes (contiguity denominator)", e)
        e = _q_exponent((an, ad), q, 1, nm)
        _require(e is None, "series denominator (alpha*q; q) vanishes at q^%d", e)
        if kind is FamilyKind.Q_RACAH:
            _require(an != 0, "q-racah needs alpha nonzero")
            gn, gd = inst.gamma.as_integer_ratio()
            e = _q_exponent((bn * gn, bd * gd), q, 1, nm)
            _require(e is None, "series denominator (beta*gamma*q; q) vanishes at q^%d", e)
            for kn, kd, name in ((k1, d1, "kappa1"), (k2, d2, "kappa2")):
                e = _q_exponent((kn * kn, kd * kd), q, 0, nm)
                _require(e is None, "%s^2 q^%d = 1: module label hits a zero of "
                         "the lowering coefficient", name, e)
            e = _q_exponent(((k1 * k2) ** 2, (d1 * d2) ** 2), q, 0, 3 * nm - 1)
            _require(e is None, "(kappa1*kappa2)^2 q^%d = 1: a tensor component label "
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


_REDUCIBLE = "beta2 factor %s vanishes at (n=0, N=%s), so T_N is reducible"


def _require_irreducible(inst: FamilyInstance) -> None:
    """Reject where T_N[n+1][n] = alpha1(n+1, N-1) beta2(n, N) of T_N = Delta(E)
    Delta(F) vanishes, 0 <= n < N <= n_max (alpha1 is kept nonzero by
    _validate): beta = q^j or alpha = gamma q^j, beta or alpha - gamma = j,
    beta = -(j+1) for dual Hahn, j = N - n - 1 < n_max; named at n = 0."""
    nm, kind = inst.n_max, inst.kind
    if kind.is_q:
        q, (an, ad) = inst.q.as_integer_ratio(), inst.alpha.as_integer_ratio()
        _require(an != 0, _REDUCIBLE, "alpha*q^(n+1)", 1)
        e = _q_exponent(inst.beta.as_integer_ratio(), q, 1 - nm, 0)
        _require(e is None, _REDUCIBLE, "1 - beta*q^(n+1-N)", 1 - (e or 0))
        if kind is FamilyKind.Q_RACAH:
            gn, gd = inst.gamma.as_integer_ratio()
            e = _q_exponent((an * gd, ad * gn), q, 1 - nm, 0)
            _require(e is None, _REDUCIBLE, "alpha*q^(n+1) - gamma*q^N", 1 - (e or 0))
    elif kind is FamilyKind.DUAL_HAHN:
        _require(not _integer_in(inst.beta, -nm, -1), _REDUCIBLE, "N - n + beta", -inst.beta)
    elif kind is not FamilyKind.KRAWTCHOUK:
        b = inst.beta
        _require(not _integer_in(b, 0, nm - 1), _REDUCIBLE, "n - N + beta + 1", b + 1)
        if kind is FamilyKind.RACAH:
            x = inst.alpha - inst.gamma
            _require(not _integer_in(x, 0, nm - 1), _REDUCIBLE, "n - N + alpha - gamma + 1",
                     x + 1)


def _integer_in(x: Scalar, lo: int, hi: int) -> bool:
    """Whether x is one of the integers lo..hi."""
    return x.denominator == 1 and lo <= x.numerator <= hi


def _q_exponent(c: tuple[int, int], q: tuple[int, int], lo: int, hi: int) -> int | None:
    """The e in lo..hi with c q^e = 1, or None, for integer pairs c = cn / cd
    (unreduced allowed, cd != 0) and q = u / v (reduced, v > 0). As q avoids
    0 and +-1, its height h = |u| v is >= 2, and reduced c = +-q^-e has height
    h^|e|: one size |e|, from a logarithm to base h, which stays well apart
    from 1 however close q is to 1. c q^e = 1 is cn u^e == cd v^e, or
    cn v^-e == cd u^-e for e < 0, decided over integers."""
    (cn, cd), (u, v) = c, q
    g = gcd(cn, cd)
    height = abs(cn // g * (cd // g))
    size = round(log(height, abs(u) * v)) if cn else 0
    for e in (size, -size):
        if lo <= e <= hi and (cn * u ** e == cd * v ** e if e >= 0
                              else cn * v ** -e == cd * u ** -e):
            return e
    return None


# ---------------------------------------------------------------------------
# polynomial values
# ---------------------------------------------------------------------------

def _parameters(inst: FamilyInstance):
    """The one parameter table of the series of every level: (lead, col,
    shifted, fixed, z), each parameter an integer pair (numerator, nonzero
    denominator), in pieces that do not depend on the level. P_n(k, N) has
    the numerator parameters lead(n), shifted(n - N) and col(k), where
    lead(m) is -m (or q^{-m}) and col(k) leads with lead(k); its denominator
    parameters are fixed and lead(N), the implicit k! (or (q; q)_k) aside;
    z is the argument (q for q-kinds). A piece costs integer products only."""
    a, b, g, q = inst.alpha, inst.beta, inst.gamma, inst.q
    kind = inst.kind
    if not kind.is_q:
        def plus(x, c):  # x + c
            xn, xd = x.as_integer_ratio()
            return xn + c * xd, xd

        def lead(m):
            return -m, 1

        if kind is FamilyKind.KRAWTCHOUK:
            return lead, lambda k: [lead(k)], lambda j: [], [], (1 / inst.p).as_integer_ratio()
        s = a + b
        if kind is FamilyKind.DUAL_HAHN:
            return (lead, lambda k: [lead(k), plus(s, k + 1)], lambda j: [], [plus(a, 1)],
                    (1, 1))
        if kind is FamilyKind.HAHN:
            return (lead, lambda k: [lead(k)], lambda j: [plus(s, j + 1)], [plus(a, 1)],
                    (1, 1))
        return (lead, lambda k: [lead(k), plus(g, k)], lambda j: [plus(s, j + 1)],
                [plus(a, 1), plus(b + g, 1)], (1, 1))

    u, v = q.as_integer_ratio()

    def power(x, e):  # x q^e
        xn, xd = x.as_integer_ratio()
        return (xn * u ** e, xd * v ** e) if e >= 0 else (xn * v ** -e, xd * u ** -e)

    def lead(m):
        return v ** m, u ** m

    ab = a * b

    def shifted(j):
        return [power(ab, j + 1)]

    if kind is FamilyKind.Q_HAHN:
        return lead, lambda k: [lead(k)], shifted, [power(a, 1)], (u, v)
    return (lead, lambda k: [lead(k), power(g, k)], shifted,
            [power(a, 1), power(b * g, 1)], (u, v))


def _prefactor(inst: FamilyInstance, n: int, N: int,
               factors: list[int] | None = None) -> tuple[int, int]:
    """The (q-)binomial prefactor of P_n(k, N) as an integer pair; factors
    as exactmath.q_binomial_pair takes them."""
    return q_binomial_pair(N, n, inst.q, factors) if inst.kind.is_q else (comb(N, n), 1)


def poly_value(inst: FamilyInstance, n: int, k: int, N: int) -> Scalar:
    """P_n(k, N), including the (q-)binomial prefactor; 0 for n outside 0..N.
    The public single-entry route, through the public (q-)series kernels,
    with _parameters's integer pairs turned into Fractions."""
    if not 0 <= N <= inst.n_max:
        raise ValueError(f"N must lie in 0..{inst.n_max}")
    if not 0 <= k <= N:
        raise ValueError("k must lie in 0..N")
    if n < 0 or n > N:
        return Fraction(0)
    prefactor = Fraction(*_prefactor(inst, n, N))
    lead, col, shifted, fixed, z = _parameters(inst)
    num = [Fraction(*x) for x in (lead(n), *shifted(n - N), *col(k))]
    den = [Fraction(*x) for x in (*fixed, lead(N))]
    if inst.kind.is_q:
        return prefactor * q_hyper_terminating(num, den, inst.q, Fraction(*z), n)
    return prefactor * hyper_terminating(num, den, Fraction(*z), n)


class SeriesTable:
    """The integer tables of inst's series for the levels 0..inst.n_max,
    which every level of poly_block slices: made from _parameters on the
    first level read, and kept for as long as this object lives. A verify
    run makes one (Run.blocks) and builds each level from it.

    Per instance: the term steps up to n_max (exactmath.term_steps); each
    column's factors (exactmath.parameter_factors) up to its first vanished
    one (exactmath.live_terms), so at most k; the factors of lead(m) for
    every m, which serve row m and the denominator of level m; those of
    shifted(j) for every j = n - N; the fixed denominator factors with the
    implicit k! or (q; q)_k (exactmath.denominator_factors); and for
    q-kinds the Gaussian-binomial factors v^i - u^i (exactmath.q_factors).
    """

    def __init__(self, inst: FamilyInstance):
        self.inst = inst

    @cached_property
    def _tables(self):
        """(cols, leads, shifted, fixed, e, z, gauss): each column's (f, d)
        up to its first zero, lead(m)'s (f, d) by m, shifted(j)'s by j, the
        fixed denominators' (f, d), e and z for exactmath.ratio_scales, and
        the Gaussian-binomial factors (None classically)."""
        inst, nm = self.inst, self.inst.n_max
        lead, col, shifted, fixed, z = _parameters(inst)
        q = inst.q if inst.kind.is_q else None
        steps = term_steps(nm, q)
        cols = []
        for k in range(nm + 1):
            f, d = parameter_factors(col(k), steps[:k])
            cols.append((f[:live_terms(f)], d))
        r = 1 + len(shifted(0)) + len(col(0))  # numerator parameters per entry
        return (cols, [parameter_factors([lead(m)], steps[:m]) for m in range(nm + 1)],
                {j: parameter_factors(shifted(j), steps[:nm + j]) for j in range(-nm, 1)},
                denominator_factors(fixed, steps, q), len(fixed) + 2 - r, z,
                None if q is None else q_factors(nm, q))

    def level(self, N: int) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The columns of level N (poly_block); N outside 0..inst.n_max is a
        ValueError."""
        inst = self.inst
        if not 0 <= N <= inst.n_max:
            raise ValueError(f"N must lie in 0..{inst.n_max}")
        cols, leads, shifted, (fixed, fd), e, z, gauss = self._tables
        q = inst.q if inst.kind.is_q else None
        f, d = leads[N]
        tops, bottoms = ratio_scales(([x * y for x, y in zip(fixed, f)], fd * d), z, e, q)
        reduced = []  # each column's factors over its term denominators, in lowest terms
        for f, d in cols[:N + 1]:
            cf, cb = [], []
            for x, y in zip(f, bottoms):
                y *= d
                g = gcd(x, y)  # x != 0: the column's factors stop before a zero
                cf.append(x // g)
                cb.append(y // g)
            reduced.append((cf, cb, len(cf)))
        out = [[] for _ in range(N + 1)]
        for n in range(N + 1):
            pre_top, pre_bottom = _prefactor(inst, n, N, gauss)
            scan_poles(bottoms[:n])
            (f, d), (f2, d2) = leads[n], shifted[n - N]
            d *= d2
            g = gcd(d, *tops[:1])  # tops[0] divides every top
            f, d = [x * y * (t // g) for x, y, t in zip(f, f2, tops)], d // g
            stop = live_terms(f)
            for column, (cf, cb, live) in zip(out, reduced):
                top, bottom = nested_sum(f, cf, d, cb, stop if stop < live else live)
                column.append((pre_top * top, pre_bottom * bottom))
        return tuple(integer_column(entries) for entries in out)


def poly_block(inst: FamilyInstance | SeriesTable,
               N: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The columns k of the CG block P[n][k] = P_n(k, N), built in one pass
    over integers: column k is linalg.integer_column of its entries, (a, c)
    with P[n][k] = a[n] / c, c > 0, a and c coprime. inst is the instance,
    which gets a SeriesTable of its own, or a SeriesTable shared by every
    level of a run.

    The level slices the table and builds only what depends on N: the
    ratio scales (exactmath.ratio_scales) over the denominator factors of
    level N; each column's factors, reduced against the level's term
    denominators times the column's own denominator, one gcd per term; and
    per row n the prefactor, the pole scan (the pole rule,
    exactmath.scan_poles), and the row's factors times the scales over the
    row's denominator, reduced by the gcd of that denominator and the first
    scale, which divides every scale. Entry (n, k) is then
    exactmath.nested_sum of its first m term ratios, m from the term rule
    (exactmath.live_terms): where the row's or the column's factors first
    vanish, so at most min(n, k), as -n (or q^{-n}) vanishes at term n and
    -k (or q^{-k}) at term k. The unreduced pairs go to integer_column as
    they are, so no Fraction is built. Values, and errors in row-major
    order, are those of poly_value; nothing is read from the
    contiguity recurrence or from another block.
    """
    if isinstance(inst, FamilyInstance):
        inst = SeriesTable(inst)
    return inst.level(N)


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
    """The five functions, each memoized; a division by zero inside one is
    raised, on a cache miss only, as a SingularParameterError naming the
    coefficient and its arguments."""
    def named(name, f):
        def value(n, N):
            try:
                return f(n, N)
            except ZeroDivisionError:
                raise SingularParameterError(
                    f"the contiguity coefficient {name}({n}, {N}) divides by zero") from None
        return cache(value)
    return ContiguityData(named("alpha1", alpha1), named("alpha2", alpha2),
                          named("beta1", beta1), named("beta2", beta2), named("mu", mu))


def contiguity(inst: FamilyInstance) -> ContiguityData:
    """Coefficient functions of the two contiguity relations.

    Each parameter is read once as its integer pair, and each coefficient is
    one expression of integer products giving (top, bottom), reduced once
    into the Fraction it returns; a zero bottom raises SingularParameterError
    naming the coefficient and (n, N), or (k, N) for mu. The powers of q
    (exactmath.power_pairs) and the factors 1 - c q^e that several
    coefficients share are integer pairs memoized on their integer
    arguments. The five functions are memoized on their integer arguments
    too (_memoized). All memos live in closures owned by the
    returned object: they last exactly as long as that object, and nothing
    is cached on the instance or at module level.
    """
    kind = inst.kind
    if kind is FamilyKind.KRAWTCHOUK:
        pn, pd = inst.p.as_integer_ratio()
        return _memoized(
            alpha1=lambda n, N: Fraction(1),
            alpha2=lambda n, N: Fraction(1),
            beta1=lambda n, N: Fraction(-pn * (n + 1), pd),
            beta2=lambda n, N: Fraction((pn - pd) * (N - n), pd),
            mu=lambda k, N: Fraction(k - N),
        )
    (an, ad), (bn, bd) = inst.alpha.as_integer_ratio(), inst.beta.as_integer_ratio()
    if kind is FamilyKind.DUAL_HAHN:
        sn, sd = an * bd + bn * ad + ad * bd, ad * bd  # a + b + 1
        # beta1 = (n + a + 1)(-n - 1), beta2 = (N - n + b)(n - N),
        # mu = (k - N)(N + k + a + b + 1)
        return _memoized(
            alpha1=lambda n, N: Fraction(1),
            alpha2=lambda n, N: Fraction(1),
            beta1=lambda n, N: Fraction((an + (n + 1) * ad) * (-n - 1), ad),
            beta2=lambda n, N: Fraction((bn + (N - n) * bd) * (n - N), bd),
            mu=lambda k, N: Fraction((k - N) * (sn + (N + k) * sd), sd),
        )
    if kind in (FamilyKind.HAHN, FamilyKind.RACAH):
        sn, sd = an * bd + bn * ad, ad * bd  # a + b

        def alpha1(n, N):  # (n + a + b + 1) / (2n - N + a + b)
            return Fraction((n + 1) * sd + sn, (2 * n - N) * sd + sn)

        def alpha2(n, N):  # (n - N + a + b) / (2n - N + a + b)
            return Fraction((n - N) * sd + sn, (2 * n - N) * sd + sn)

        def lowered(n, N):  # bottom of beta1 and beta2 over sd: 2n + 2 - N + a + b
            return (2 * n + 2 - N) * sd + sn

        if kind is FamilyKind.HAHN:
            # second relation rescaled by -1 so mu matches the oscillator lowering:
            # beta1 = (n + a + 1)(-n - 1) / lowered, beta2 = (n - N + b + 1)(n - N) / lowered
            return _memoized(
                alpha1, alpha2,
                beta1=lambda n, N: Fraction((an + (n + 1) * ad) * (-n - 1) * sd,
                                            ad * lowered(n, N)),
                beta2=lambda n, N: Fraction((bn + (n - N + 1) * bd) * (n - N) * sd,
                                            bd * lowered(n, N)),
                mu=lambda k, N: Fraction(k - N),
            )
        gn, gd = inst.gamma.as_integer_ratio()
        tn, td = bn * gd + gn * bd, bd * gd  # b + g
        wn, wd = an * gd - gn * ad, ad * gd  # a - g
        # beta1 = (n + b + g + 1)(n + a + 1)(-n - 1) / lowered,
        # beta2 = (n - N + b + 1)(n - N + a - g + 1)(N - n) / lowered,
        # mu = (k - N)(N + k + g)
        return _memoized(
            alpha1, alpha2,
            beta1=lambda n, N: Fraction(
                (tn + (n + 1) * td) * (an + (n + 1) * ad) * (-n - 1) * sd,
                td * ad * lowered(n, N)),
            beta2=lambda n, N: Fraction(
                (bn + (n - N + 1) * bd) * (wn + (n - N + 1) * wd) * (N - n) * sd,
                bd * wd * lowered(n, N)),
            mu=lambda k, N: Fraction((k - N) * (gn + (N + k) * gd), gd),
        )

    qp = power_pairs(inst.q)

    def one_minus(cn, cd):
        """e -> 1 - c q^e for c = cn / cd, memoized."""
        def pair(e):
            u, v = qp(e)
            return cd * v - cn * u, cd * v
        return cache(pair)

    om_ab, om_a = one_minus(an * bn, ad * bd), one_minus(an, ad)
    om_b, om_q = one_minus(bn, bd), one_minus(1, 1)

    def alpha1(n, N):  # (1 - ab q^(n+1)) / (1 - ab q^(2n-N))
        (t, b), (tt, bb) = om_ab(n + 1), om_ab(2 * n - N)
        return Fraction(t * bb, b * tt)

    def alpha2(n, N):  # q^n (1 - ab q^(n-N)) / (1 - ab q^(2n-N))
        (u, v), (t, b), (tt, bb) = qp(n), om_ab(n - N), om_ab(2 * n - N)
        return Fraction(u * t * bb, v * b * tt)

    if kind is FamilyKind.Q_HAHN:
        def beta1(n, N):  # (1 - a q^(n+1)) (1 - q^(n+1)) / (1 - ab q^(2n+2-N))
            (t1, b1), (t2, b2), (tt, bb) = om_a(n + 1), om_q(n + 1), om_ab(2 * n + 2 - N)
            return Fraction(t1 * t2 * bb, b1 * b2 * tt)

        def beta2(n, N):  # a q^(n+1) (1 - b q^(n+1-N)) (1 - q^(N-n)) / (1 - ab q^(2n+2-N))
            (u, v), (t1, b1), (t2, b2) = qp(n + 1), om_b(n + 1 - N), om_q(N - n)
            tt, bb = om_ab(2 * n + 2 - N)
            return Fraction(an * u * t1 * t2 * bb, ad * v * b1 * b2 * tt)

        return _memoized(alpha1, alpha2, beta1, beta2,
                         mu=lambda k, N: Fraction(*om_q(N - k)))
    gn, gd = inst.gamma.as_integer_ratio()
    om_bg, om_g = one_minus(bn * gn, bd * gd), one_minus(gn, gd)

    def beta1(n, N):  # (1 - bg q^(n+1)) (1 - a q^(n+1)) (1 - q^(n+1)) / (1 - ab q^(2n+2-N))
        (t1, b1), (t2, b2), (t3, b3) = om_bg(n + 1), om_a(n + 1), om_q(n + 1)
        tt, bb = om_ab(2 * n + 2 - N)
        return Fraction(t1 * t2 * t3 * bb, b1 * b2 * b3 * tt)

    def beta2(n, N):  # (1 - b q^(n+1-N)) (a q^(n+1) - g q^N) (1 - q^(N-n)) / (same)
        (t1, b1), (t3, b3), (tt, bb) = om_b(n + 1 - N), om_q(N - n), om_ab(2 * n + 2 - N)
        (u1, v1), (u2, v2) = qp(n + 1), qp(N)
        t2, b2 = an * u1 * gd * v2 - gn * u2 * ad * v1, ad * v1 * gd * v2
        return Fraction(t1 * t2 * t3 * bb, b1 * b2 * b3 * tt)

    def mu(k, N):  # (1 - q^(N-k)) (1 - g q^(N+k))
        (t1, b1), (t2, b2) = om_q(N - k), om_g(N + k)
        return Fraction(t1 * t2, b1 * b2)

    return _memoized(alpha1, alpha2, beta1, beta2, mu)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_contiguity(run: Run) -> list[CheckResult]:
    """Verify both contiguity relations exactly on the whole truncated grid,
    0 <= N < n_max, -1 <= n <= N+1, 0 <= k <= N, walked n-major.

    Each relation is a band identity on the integer columns of level N,
    decided by linalg.column_mismatches: row n holds the right-hand
    coefficients, split into integer pairs once per (n, N); the target is
    column k of level N+1 (raising), or mu(k, N), split once per (k, N),
    times column k of level N-1 (lowering), whose k = N column is
    (1, 0, ..., 0) as P_0 = 1, empty at N = 0. A coefficient is evaluated
    only next to a polynomial inside 0..N, so inside the validated grid, and
    a row outside the target column compares with 0 (the zero convention).
    Coefficients come from run.contiguity, the memoized table the run's
    Delta shares, and the columns from run.blocks. The contiguity side is
    the witness's lhs; only the first failing point is reduced, by
    first_mismatch.
    """
    inst, data, blocks = run.inst, run.contiguity, run.blocks
    nm = inst.n_max
    zero = Fraction(0)

    def band(j1, x1, j2, x2):
        """Row x1 P_j1 + x2 P_j2 over the product of the two denominators,
        its zero terms dropped: a coefficient outside the grid is given as 0."""
        (s1, d1), (s2, d2) = x1.as_integer_ratio(), x2.as_integer_ratio()
        return [(j, w) for j, w in ((j1, s1 * d2), (j2, s2 * d1)) if w], d1 * d2

    def raising(N):
        bands = {n: band(n - 1, data.alpha1(n, N) if n >= 1 else zero,
                         n, data.alpha2(n, N) if 0 <= n <= N else zero)
                 for n in range(-1, N + 2)}
        return bands, [(1, 1, column) for column in blocks[N + 1].columns]

    def lowering(N):
        bands = {n: band(n + 1, data.beta1(n, N) if n < N else zero,
                         n, data.beta2(n, N) if 0 <= n <= N else zero)
                 for n in range(-1, N + 2)}
        below = [*blocks[N - 1].columns, ((1,) + (0,) * (N - 1), 1)] if N else [((), 1)]
        return bands, [(*data.mu(k, N).as_integer_ratio(), below[k]) for k in range(N + 1)]

    def mismatches(relation):
        for N in range(nm):
            bands, targets = relation(N)
            for where, image, target in column_mismatches(N, bands, blocks[N].columns, targets):
                yield where, target, image

    rng = f"0<=N<{nm}, -1<=n<=N+1, 0<=k<=N"
    return [first_mismatch(name, rng, mismatches(relation))
            for name, relation in (("raising-contiguity", raising),
                                   ("lowering-contiguity", lowering))]


def three_term_skip(inst: FamilyInstance) -> str | None:
    """Why check_three_term_dual_hahn does not apply to inst, or None."""
    if inst.kind is not FamilyKind.DUAL_HAHN:
        return "only defined for dual-hahn"
    if inst.alpha != inst.lambda1 - 1:
        return "needs alpha = lambda1 - 1"


def check_three_term_dual_hahn(
        run: Run, mu_fn: Callable[[int, int], Scalar] | None = None) -> list[CheckResult]:
    """Three-term recurrence of the dual Hahn family at alpha = lambda1 - 1:

        A_n P_{n+1} + (A_n + C_n) P_n + C_n P_{n-1} = mu(k) P_n

    with A_n = (n+1)(n+lambda1), C_n = (N-n+1)(N-n+lambda2) and
    mu(k) = (N-k+1)(N+k+lambda1+lambda2), all at fixed level N: a
    tridiagonal band on the integer columns of level N against mu(k) times
    the same column, walked n-major (linalg.column_mismatches), on the
    columns of run.blocks. An instance it does not apply to raises
    InvalidParameterError with the reason of three_term_skip.
    """
    inst = run.inst
    if reason := three_term_skip(inst):
        raise InvalidParameterError(f"three-term recurrence check: {reason}")
    l1, l2 = inst.lambda1, inst.lambda2
    nm = inst.n_max
    if mu_fn is None:
        mu_fn = lambda k, N: (N - k + 1) * (N + k + l1 + l2)

    def mismatches(N):
        tridiagonal = {}
        for n in range(N + 1):
            a_n, c_n = (n + 1) * (n + l1), (N - n + 1) * (N - n + l2)
            for j, v in ((n + 1, a_n), (n, a_n + c_n), (n - 1, c_n)):
                if 0 <= j <= N:
                    tridiagonal[n, j] = v
        cols = run.blocks[N].columns
        targets = [(*Fraction(mu_fn(k, N)).as_integer_ratio(), col)
                   for k, col in enumerate(cols)]
        return column_mismatches(N, integer_bands(tridiagonal, range(N + 1)), cols, targets)

    return [first_mismatch("three-term-recurrence", f"0<=n,k<=N<={nm}", (
        m for N in range(nm + 1) for m in mismatches(N)))]


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


def _ladder_points(name: str, points: list[Scalar]) -> list[Scalar]:
    """The points of a limit ladder as Scalars; fewer than two (nothing to
    compare), or any not positive and increasing, is an InvalidParameterError."""
    xs = [as_scalar(x) for x in points]
    if len(xs) < 2 or xs[0] <= 0 or any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
        raise InvalidParameterError(
            f"{name} must hold two or more positive, increasing points")
    return xs


def limit_hahn_to_krawtchouk(p: Scalar, z_list: list[Scalar],
                             n: int, k: int, N: int) -> list[CheckResult]:
    """First-order convergence of Hahn to Krawtchouk under alpha = p z,
    beta = (1-p) z as z grows, one result per check. A decay check fails where
    d(z2) > d(z1) 2 z1/z2 (_decay; lhs d(z2), rhs the bound): difference-decay
    for d = |Q_n(k, N) - K_n(k, N)| (witness z1, z2), alpha1-decay .. beta2-decay
    for each Hahn contiguity coefficient at (n, N) against the Krawtchouk one
    (witness z1, z2, n, N); then mu-equality of the two exact mu(k, N)."""
    p = as_scalar(p)
    zs = _ladder_points("z_list", z_list)
    for name, x in (("n", n), ("k", k)):
        if not 0 <= x <= N:
            raise InvalidParameterError(f"{name} must lie in 0..N")
    nm = max(N, 1)
    kraw = _resolve(FamilyKind.KRAWTCHOUK, nm, dict(p=p))
    hahns = [_resolve(FamilyKind.HAHN, nm, dict(alpha=p * z, beta=(1 - p) * z)) for z in zs]
    z_range = ",".join(format_scalar(z) for z in zs)
    hdata, kdata = [contiguity(hahn) for hahn in hahns], contiguity(kraw)
    return [_decay("difference-decay", f"z in {{{z_range}}}", "z", zs,
                   [partial(poly_value, hahn, n, k, N) for hahn in hahns],
                   partial(poly_value, kraw, n, k, N), [{}]),
            *(_decay(f"{c}-decay", f"(n,N)=({n},{N})", "z", zs,
                     [getattr(data, c) for data in hdata], getattr(kdata, c),
                     [{"n": n, "N": N}]) for c in ("alpha1", "alpha2", "beta1", "beta2")),
            first_mismatch("mu-equality", f"(k,N)=({k},{N})",
                           [({"k": k, "N": N}, hdata[0].mu(k, N), kdata.mu(k, N))])]


def limit_racah_to_dual_hahn(alpha: Scalar, lambda1: Scalar, lambda2: Scalar,
                             beta_list: list[Scalar], n_max: int = 8) -> list[CheckResult]:
    """First-order convergence of the Racah coefficient functions to the dual
    Hahn ones as beta grows, at shared alpha and labels (so the Racah gamma
    equals the dual Hahn alpha + beta + 1 automatically), one result per check.
    A decay check, alpha1-decay .. beta2-decay, fails where d(b2) > d(b1) 2 b1/b2
    (_decay; lhs d(b2), rhs the bound) on 0 <= n <= N <= n_max (witness beta1,
    beta2, n, N); then mu-equality, since the mu functions agree exactly."""
    alpha = as_scalar(alpha)
    betas = _ladder_points("beta_list", beta_list)
    shared = dict(lambda1=lambda1, lambda2=lambda2, alpha=alpha)
    ddata = contiguity(_resolve(FamilyKind.DUAL_HAHN, n_max, shared))
    rdata = [contiguity(_resolve(FamilyKind.RACAH, n_max, {**shared, "beta": b}))
             for b in betas]  # one memo per beta, shared by all four decays
    grid = [{"n": n, "N": N} for N in range(n_max + 1) for n in range(N + 1)]
    return [*(_decay(f"{c}-decay", f"0<=n<=N<={n_max}", "beta", betas,
                     [getattr(data, c) for data in rdata], getattr(ddata, c), grid)
              for c in ("alpha1", "alpha2", "beta1", "beta2")),
            first_mismatch("mu-equality", f"0<=k<=N<={n_max}", (
                ({"k": k, "N": N}, rdata[0].mu(k, N), ddata.mu(k, N))
                for N in range(n_max + 1) for k in range(N + 1)))]

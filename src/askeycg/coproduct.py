"""Generalized coproducts on truncated two-factor tensor modules.

The tensor product of two truncated lowest-weight modules splits into total
weight blocks: block N has basis (n, N-n), n = 0..N. The coproduct images

    Delta(E) = x (E x I) + y (I x E)
    Delta(F) = x'(F x I) + y'(I x F)
    Delta(H) = H x I + I x H      (Delta(K) = K x K for the q-kinds)

are weighted shifts on the product basis, each one algebras.tensor_operator
call with two terms, with the diagonal coefficients x, y, x', y'
evaluated at the target basis vector of each shift; Delta(H) and Delta(K)
are diagonal, built from the eigenvalues on each factor. Delta has one
construction: its shifts are weighted straight with the family's contiguity
coefficients, with no division anywhere. The coefficient functions x, y,
x', y' read off from the same data are compared, at every grid point, with
the closed operator expressions in the Cartan and Casimir eigenvalues
(check_algebraic_form); that the images satisfy the defining relations of
the algebra is certified by check_homomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Callable

from .algebras import (AlgebraKind, AlgebraTag, Generators, _relation_checks, cartan,
                       check_identity, invert_diagonal, phi, tensor_operator)
from .exactmath import InvalidParameterError, Scalar, SingularParameterError, power_pairs
from .families import (ContiguityData, FamilyInstance, FamilyKind, algebra_for,
                       contiguity, labels, make_instance)
from .report import CheckResult, first_mismatch

if TYPE_CHECKING:
    from .cgverify import Run

__all__ = [
    "CoproductCoeffs", "coproduct_coeffs", "algebraic_form", "Delta", "build_delta",
    "check_homomorphism", "check_algebraic_form",
    "check_twist_qracah_specialization", "coassoc_constraint", "krawtchouk_coassoc",
]


@dataclass(frozen=True)
class CoproductCoeffs:
    """Diagonal coefficient functions on the product basis, arguments (n, m):
    read off from the contiguity relations (coproduct_coeffs), or the closed
    operator expressions in the eigenvalues of the commuting diagonal
    elements, Cartan and Casimir on each factor (algebraic_form). Those two
    return reduced Fractions; _derived_coeffs and _closed_form, which the
    algebraic-form check compares, return unreduced (top, bottom) pairs."""
    x: Callable[[int, int], Scalar]
    y: Callable[[int, int], Scalar]
    xp: Callable[[int, int], Scalar]
    yp: Callable[[int, int], Scalar]


# integer-pair arithmetic of the closed forms: a rational as (top, bottom)
Pair = tuple[int, int]


def _add(x: Pair, y: Pair) -> Pair:
    return x[0] * y[1] + y[0] * x[1], x[1] * y[1]


def _sub(x: Pair, y: Pair) -> Pair:
    return x[0] * y[1] - y[0] * x[1], x[1] * y[1]


def _mul(x: Pair, y: Pair) -> Pair:
    return x[0] * y[0], x[1] * y[1]


def _div(x: Pair, y: Pair) -> Pair:
    """x / y. With nonzero labels kappa_i, no divisor of a closed form has
    a zero bottom, so a zero bottom marks a division by zero, and every
    later product keeps it."""
    return x[0] * y[1], x[1] * y[0]


def _reducing(coeffs: CoproductCoeffs) -> CoproductCoeffs:
    """coeffs with each (top, bottom) pair reduced into the Fraction it
    returns; a zero bottom raises ZeroDivisionError."""
    def reduced(f):
        return lambda n, m: Fraction(*f(n, m))
    return CoproductCoeffs(*(reduced(getattr(coeffs, a)) for a in ("x", "y", "xp", "yp")))


def coproduct_coeffs(inst: FamilyInstance, data: ContiguityData) -> CoproductCoeffs:
    """Coefficients read off from the contiguity relations:

        x(n, N+1-n) = alpha1(n, N)          y(n, N+1-n) = alpha2(n, N)
        x'(n, N-1-n) = beta1(n, N) / phi(label1, n+1)
        y'(n, N-1-n) = beta2(n, N) / phi(label2, N-n)

    The contiguity values are read from `data`: contiguity(inst), or the
    table a run already holds. The lowering factors phi are memoized per
    level for as long as the returned object lives. Each coefficient is the
    pair of _derived_coeffs, reduced once.
    """
    return _reducing(_derived_coeffs(inst, data))


def _derived_coeffs(inst: FamilyInstance, data: ContiguityData) -> CoproductCoeffs:
    """coproduct_coeffs with every coefficient an unreduced (top, bottom)
    pair: x and y are the integer pairs of the contiguity data's own values,
    and x' = beta1 / phi is (beta1_top phi_bottom, beta1_bottom phi_top), y'
    likewise; a zero phi is a SingularParameterError."""
    alg = algebra_for(inst)
    l1, l2 = labels(inst)
    phi1 = cache(lambda j: phi(alg, l1, j).as_integer_ratio())
    phi2 = cache(lambda j: phi(alg, l2, j).as_integer_ratio())

    def xp(n, m):
        pn, pd = phi1(n + 1)
        if pn == 0:
            raise SingularParameterError(f"phi(label1, {n + 1}) = 0")
        bn, bd = data.beta1(n, n + m + 1).as_integer_ratio()
        return bn * pd, bd * pn

    def yp(n, m):
        pn, pd = phi2(m + 1)
        if pn == 0:
            raise SingularParameterError(f"phi(label2, {m + 1}) = 0")
        bn, bd = data.beta2(n, n + m + 1).as_integer_ratio()
        return bn * pd, bd * pn

    return CoproductCoeffs(
        x=lambda n, m: data.alpha1(n, n + m - 1).as_integer_ratio(),
        y=lambda n, m: data.alpha2(n, n + m - 1).as_integer_ratio(),
        xp=xp,
        yp=yp,
    )


def algebraic_form(inst: FamilyInstance) -> CoproductCoeffs:
    """The closed operator expressions for x, y, x', y' in the eigenvalues of
    the Cartan element and the Casimir on each factor: h_i = l_i + 2n and
    c_i = l_i classically, K_i = kappa_i q^n and c_i = 1/kappa_i for the
    q-kinds.

    Each coefficient is the (top, bottom) pair of _closed_form, reduced once
    into the Fraction it returns. This never reads the contiguity data, so
    the algebraic-form check compares two independent evaluations.
    """
    return _reducing(_closed_form(inst))


def _closed_form(inst: FamilyInstance) -> CoproductCoeffs:
    """_closed_pairs with each pole named: a coefficient whose bottom
    vanishes at (n, m) raises SingularParameterError naming it and (n, m)."""
    def guarded(name, f):
        def pair(n, m):
            top_bottom = f(n, m)
            if top_bottom[1]:
                return top_bottom
            raise SingularParameterError(f"the closed form of {name}({n}, {m}) divides by zero")
        return pair
    pairs = _closed_pairs(inst)
    return CoproductCoeffs(*(guarded(a, getattr(pairs, a)) for a in ("x", "y", "xp", "yp")))


def _closed_pairs(inst: FamilyInstance) -> CoproductCoeffs:
    """algebraic_form with every coefficient an unreduced (top, bottom)
    integer pair. Each parameter is read once as its integer pair, and the
    constants that depend on the parameters alone are folded once per call.
    The per-level eigenvalue factors (l1 + 2n, kappa1 q^n, c_i kappa_i q^n),
    every factor chain that depends on n alone or on m alone (h1(n) - l1 +
    2a + 2b + 2, (1 - q c1 a k1(n)) (1 - q c1 b g k1(n)), ...) and the shared
    denominator are pairs memoized for as long as the returned object lives.
    Each coefficient combines them with integer-pair sums, products and
    quotients in the order of its formula, with no algebraic
    simplification; a zero divisor leaves a zero bottom."""
    kind = inst.kind
    one = (1, 1)
    if kind is FamilyKind.KRAWTCHOUK:
        p = inst.p.as_integer_ratio()
        p_bar = _sub(one, p)
        return CoproductCoeffs(
            x=lambda n, m: one,
            y=lambda n, m: one,
            xp=lambda n, m: p,
            yp=lambda n, m: p_bar,
        )

    a, b = inst.alpha.as_integer_ratio(), inst.beta.as_integer_ratio()
    if not kind.is_q:
        l1, l2 = inst.lambda1.as_integer_ratio(), inst.lambda2.as_integer_ratio()
        # Cartan eigenvalues; the Casimir is l_i
        h1 = cache(lambda n: (l1[0] + 2 * n * l1[1], l1[1]))
        h2 = cache(lambda m: (l2[0] + 2 * m * l2[1], l2[1]))
        two = (2, 1)
        a2 = _add(_mul(two, a), two)
        ab2 = _add(_add(_mul(two, a), _mul(two, b)), two)
        xp_top = cache(lambda n: _add(_sub(h1(n), l1), a2))
        if kind is FamilyKind.DUAL_HAHN:
            b2 = _add(_mul(two, b), two)
            xp = cache(lambda n: _div(xp_top(n), _add(h1(n), l1)))
            yp = cache(lambda m: _div(_add(_sub(h2(m), l2), b2), _add(h2(m), l2)))
            return CoproductCoeffs(
                x=lambda n, m: one,
                y=lambda n, m: one,
                xp=lambda n, m: xp(n),
                yp=lambda n, m: yp(m),
            )

        shift = _add(_sub(l2, l1), ab2)  # h1 - h2 - c1 + c2 + 2a + 2b + 2 = h1 - h2 + shift
        dd = cache(lambda n, m: _add(_sub(h1(n), h2(m)), shift))
        x_top = cache(lambda n: _add(_sub(h1(n), l1), ab2))
        y_top = cache(lambda m: _add(_sub(l2, h2(m)), ab2))
        yp_first = cache(lambda m: _add(_sub(l2, h2(m)), _mul(two, b)))
        x = lambda n, m: _div(x_top(n), dd(n, m))
        y = lambda n, m: _div(y_top(m), dd(n, m))
        if kind is FamilyKind.HAHN:
            return CoproductCoeffs(
                x=x,
                y=y,
                xp=lambda n, m: _div(xp_top(n), dd(n, m)),
                yp=lambda n, m: _div(yp_first(m), dd(n, m)),
            )

        g = inst.gamma.as_integer_ratio()
        bg2 = _add(_add(_mul(two, b), _mul(two, g)), two)
        ag2 = _sub(_mul(two, g), _mul(two, a))
        racah_xp_top = cache(lambda n: _mul(xp_top(n), _add(_sub(h1(n), l1), bg2)))
        racah_yp_top = cache(lambda m: _mul(yp_first(m), _add(_sub(h2(m), l2), ag2)))
        return CoproductCoeffs(
            x=x,
            y=y,
            xp=lambda n, m: _div(racah_xp_top(n), _mul(_add(h1(n), l1), dd(n, m))),
            yp=lambda n, m: _div(racah_yp_top(m), _mul(_add(h2(m), l2), dd(n, m))),
        )

    q, qp = inst.q.as_integer_ratio(), power_pairs(inst.q)
    if kind is FamilyKind.Q_HAHN:
        k1v, k2v = inst.kappa1.as_integer_ratio(), inst.kappa2.as_integer_ratio()
        c1, c2 = _div(one, k1v), _div(one, k2v)  # Casimir eigenvalues q^{-lambda_i/2}
        ck1 = cache(lambda n: _mul(c1, _mul(k1v, qp(n))))
        ck2 = cache(lambda m: _mul(c2, _mul(k2v, qp(m))))
        qa = _mul(q, a)
        qab = _mul(qa, b)
        dd = cache(lambda n, m: _sub(one, _div(_mul(qab, ck1(n)), ck2(m))))
        x_top = cache(lambda n: _sub(one, _mul(qab, ck1(n))))
        y_second = cache(lambda m: _sub(one, _div(qab, ck2(m))))
        xp_top = cache(lambda n: _sub(one, _mul(qa, ck1(n))))
        yp_first = cache(lambda n: _mul(qa, ck1(n)))
        yp_second = cache(lambda m: _sub(one, _div(b, ck2(m))))
        return CoproductCoeffs(
            x=lambda n, m: _div(x_top(n), dd(n, m)),
            y=lambda n, m: _div(_mul(ck1(n), y_second(m)), dd(n, m)),
            xp=lambda n, m: _div(xp_top(n), dd(n, m)),
            yp=lambda n, m: _div(_mul(yp_first(n), yp_second(m)), dd(n, m)),
        )

    # q-Racah: q^{+-lambda_i/2} enter as kappa_i^{+-1}
    kap1, kap2 = inst.kappa1.as_integer_ratio(), inst.kappa2.as_integer_ratio()
    g = inst.gamma.as_integer_ratio()
    c1, c2 = _div(one, kap1), _div(one, kap2)
    k1 = cache(lambda n: _mul(kap1, qp(n)))
    k2 = cache(lambda m: _mul(kap2, qp(m)))
    qab = _mul(_mul(q, a), b)
    qc1a, qc1bg, qc1ab = _mul(_mul(q, c1), a), _mul(_mul(_mul(q, c1), b), g), _mul(qab, c1)
    dd = cache(lambda n, m: _sub(one, _div(_mul(_mul(qc1ab, kap2), k1(n)), k2(m))))
    x_top = cache(lambda n: _sub(one, _mul(qc1ab, k1(n))))
    y_first = cache(lambda n: _mul(c1, k1(n)))
    y_second = cache(lambda m: _sub(one, _div(_mul(qab, kap2), k2(m))))
    xp_top = cache(lambda n: _mul(_sub(one, _mul(qc1a, k1(n))), _sub(one, _mul(qc1bg, k1(n)))))
    xp_bottom = cache(lambda n: _sub(one, _mul(kap1, k1(n))))
    yp_first = cache(lambda n: _mul(qc1a, k1(n)))
    yp_second = cache(lambda m: _mul(_sub(one, _div(_mul(kap2, b), k2(m))),
                                      _sub(one, _div(_mul(_mul(c2, g), k2(m)), a))))
    yp_bottom = cache(lambda m: _sub(one, _mul(kap2, k2(m))))
    return CoproductCoeffs(
        x=lambda n, m: _div(x_top(n), dd(n, m)),
        y=lambda n, m: _div(_mul(y_first(n), y_second(m)), dd(n, m)),
        xp=lambda n, m: _div(xp_top(n), _mul(xp_bottom(n), dd(n, m))),
        yp=lambda n, m: _div(_mul(yp_first(n), yp_second(m)), _mul(yp_bottom(m), dd(n, m))),
    )


Delta = Generators


def build_delta(inst: FamilyInstance, data: ContiguityData) -> Delta:
    """Coproduct images on the tensor module of the instance: the two factor
    modules of labels(inst) under algebra_for(inst), truncated at total
    level inst.n_max, so level N has dimension N + 1.

    The shifts are weighted straight with the contiguity coefficients of
    `data`, which involves no division at all. The Cartan eigenvalues are
    evaluated once per factor and level, as integer pairs, and each entry
    of Delta(H) or Delta(K) is one Fraction of their products.
    """
    alg = algebra_for(inst)
    l1, l2 = labels(inst)
    levels = range(inst.n_max + 1)
    dims = tuple(n + 1 for n in levels)
    # Cartan eigenvalues of each factor as integer pairs, one per level
    h1 = [cartan(alg, l1, n).as_integer_ratio() for n in levels]
    h2 = [cartan(alg, l2, m).as_integer_ratio() for m in levels]

    def diagonal(c):  # K x K, or H x I + I x H, as one Fraction
        (s1, t1), (s2, t2) = h1[c[0]], h2[c[1]]
        return Fraction(s1 * s2 if alg.is_q else s1 * t2 + s2 * t1, t1 * t2)

    dhk = tensor_operator(dims, ((0, 0), diagonal))
    # weights of E x I, I x E, F x I and I x F at the source basis vector c = (n, m)
    return Delta(
        tensor_operator(dims, ((+1, 0), lambda c: data.alpha1(c[0] + 1, c[0] + c[1])),
                        ((0, +1), lambda c: data.alpha2(c[0], c[0] + c[1]))),
        tensor_operator(dims, ((-1, 0), lambda c: data.beta1(c[0] - 1, c[0] + c[1])),
                        ((0, -1), lambda c: data.beta2(c[0], c[0] + c[1]))), dhk)


def check_homomorphism(run: Run) -> list[CheckResult]:
    """The run's coproduct images must satisfy the defining relations of the
    algebra on every block where the compositions stay inside the truncation."""
    delta = run.delta
    return _relation_checks(algebra_for(run.inst), delta.e, delta.f, delta.hk)


def check_algebraic_form(run: Run) -> list[CheckResult]:
    """The closed operator expressions must reproduce the contiguity-derived
    coefficient functions on every tensor basis vector of the grid. The
    derived side is _derived_coeffs of run.contiguity, the table the run's
    Delta shares; the closed side is always evaluated afresh, by
    _closed_form. Both sides are unreduced integer pairs: first_mismatch
    decides each point by cross-multiplying and reduces only a witness."""
    inst = run.inst
    derived = _derived_coeffs(inst, run.contiguity)
    closed = _closed_form(inst)
    nm = inst.n_max
    raising_pts = [(n, s - n) for s in range(1, nm + 1) for n in range(s + 1)]
    lowering_pts = [(n, s - n) for s in range(0, nm) for n in range(s + 1)]
    results = []
    for name, pts in (("x", raising_pts), ("y", raising_pts),
                      ("xp", lowering_pts), ("yp", lowering_pts)):
        dfn = getattr(derived, name)
        cfn = getattr(closed, name)
        rng = (f"n+m in 1..{nm}" if name in ("x", "y") else f"n+m in 0..{nm - 1}")
        results.append(first_mismatch(f"{name}-agreement", rng, (
            ({"n": n, "m": m}, dfn(n, m), cfn(n, m)) for n, m in pts)))
    return results


def check_twist_qracah_specialization(q: Scalar, kappa1: Scalar, kappa2: Scalar, n_max: int = 6,
                                      delta: Delta | None = None) -> list[CheckResult]:
    """At beta = 0, alpha = kappa1^2/q the q-Racah coproduct must collapse to

        Delta(E) = E x I + kappa1^{-1} K x E
        Delta(F) = F x I + kappa1 K x F

    and conjugating by the diagonal twist with eigenvalue kappa1^m on (n, m)
    must produce the standard coproduct E x I + K x E, F x I + K x F.

    No coefficient here ever divides by a lowering coefficient, so module
    labels with a vanishing phi inside the truncation are acceptable; only
    q, the kappas and n_max >= 1 (below it no raising block is compared) are
    validated. An already built `delta` of this point (a verify run's) is
    used as is; otherwise it is built here.
    """
    q, kappa1, kappa2 = (Fraction(v) for v in (q, kappa1, kappa2))
    if q in (0, 1, -1):
        raise InvalidParameterError("q must avoid {0, 1, -1}")
    if kappa1 == 0 or kappa2 == 0:
        raise InvalidParameterError("kappa labels must be nonzero")
    if n_max < 1:
        raise InvalidParameterError("n_max must be at least 1")
    inst = FamilyInstance(kind=FamilyKind.Q_RACAH, n_max=n_max,
                          alpha=kappa1 ** 2 / q, beta=Fraction(0),
                          gamma=kappa1 ** 2 * kappa2 ** 2 / q,
                          q=q, kappa1=kappa1, kappa2=kappa2)
    if delta is None:
        delta = build_delta(inst, contiguity(inst))
    dims = delta.e.dims
    alg = algebra_for(inst)

    k1 = lambda c: cartan(alg, kappa1, c[0])
    e_x_id = tensor_operator(dims, ((+1, 0), lambda c: 1))
    k_x_e = tensor_operator(dims, ((0, +1), k1))
    f_x_id = tensor_operator(dims, ((-1, 0), lambda c: phi(alg, kappa1, c[0])))
    k_x_f = tensor_operator(dims, ((0, -1), lambda c: k1(c) * phi(alg, kappa2, c[1])))

    rng_e = f"blocks 0..{n_max - 1}"
    rng_f = f"blocks 0..{n_max}"

    twist = tensor_operator(dims, ((0, 0), lambda c: kappa1 ** c[1]))
    tinv = invert_diagonal(twist)
    return [check_identity(name, rng, levels, lhs, rhs, dims, "block")
            for name, lhs, rhs, levels, rng in (
            ("specialized-raising", [(1, (delta.e,))],
             [(1, (e_x_id,)), (1 / kappa1, (k_x_e,))], range(n_max), rng_e),
            ("specialized-lowering", [(1, (delta.f,))],
             [(1, (f_x_id,)), (kappa1, (k_x_f,))], range(n_max + 1), rng_f),
            ("twisted-raising", [(1, (twist, delta.e @ tinv))],
             [(1, (e_x_id,)), (1, (k_x_e,))], range(n_max), rng_e),
            ("twisted-lowering", [(1, (twist, delta.f @ tinv))],
             [(1, (f_x_id,)), (1, (k_x_f,))], range(n_max + 1), rng_f))]


# ---------------------------------------------------------------------------
# Krawtchouk triple products and coassociativity
# ---------------------------------------------------------------------------

def _recoupled_weight(outer: CoproductCoeffs, inner: CoproductCoeffs,
                      inner_left: bool, names: tuple[str, str], slot: int,
                      t: tuple[int, int, int]) -> Scalar:
    """Coefficient of the shift in `slot` under (Delta_inner x 1) Delta_outer
    when inner_left, else (1 x Delta_inner) Delta_outer, at the target factor
    levels t; names picks the coefficients, ("x", "y") for E, ("xp", "yp") for F."""
    first, second = (getattr(outer, a) for a in names)
    inner_first, inner_second = (getattr(inner, a) for a in names)
    if inner_left:
        o, i = (t[0] + t[1], t[2]), (t[0], t[1])
        return (first(*o) * inner_first(*i), first(*o) * inner_second(*i),
                second(*o))[slot]
    o, i = (t[0], t[1] + t[2]), (t[1], t[2])
    return (first(*o), second(*o) * inner_first(*i),
            second(*o) * inner_second(*i))[slot]


def _recoupling(dims: tuple[int, ...], lam: tuple[Scalar, Scalar, Scalar],
                outer: CoproductCoeffs, inner: CoproductCoeffs,
                inner_left: bool) -> Generators:
    """E, F and H on a triple tensor product of oscillator modules under one
    recoupling of two two-factor coproducts."""
    osc = AlgebraKind(AlgebraTag.OSC)

    def image(degree, names, factor):
        def in_slot(slot):
            shifts = tuple(degree if j == slot else 0 for j in range(3))

            def coeff(c):
                target = tuple(n + d for n, d in zip(c, shifts))
                weight = _recoupled_weight(outer, inner, inner_left, names, slot, target)
                return weight * factor(lam[slot], c[slot])

            return shifts, coeff

        return tensor_operator(dims, in_slot(0), in_slot(1), in_slot(2))

    # H x I x I + I x H x I + I x I x H: one diagonal term
    hk = tensor_operator(dims, ((0, 0, 0), lambda c: sum(
        cartan(osc, label, n) for label, n in zip(lam, c))))
    return Generators(image(+1, ("x", "y"), lambda label, n: 1),
                      image(-1, ("xp", "yp"), lambda label, n: phi(osc, label, n)), hk)


def coassoc_constraint(p: Scalar, q: Scalar, p2: Scalar, q2: Scalar) -> bool:
    """Whether p2 = p q and 1 - p = (1 - p2)(1 - q2): the condition under
    which the two recouplings of krawtchouk_coassoc must be equal."""
    return p2 == p * q and 1 - p == (1 - p2) * (1 - q2)


def krawtchouk_coassoc(p: Scalar, q: Scalar, p2: Scalar, q2: Scalar,
                       module_labels: tuple[Scalar, Scalar, Scalar] = (0, 0, 0),
                       n_max: int = 4) -> list[CheckResult]:
    """Compare the two recouplings of a triple tensor product under the
    Krawtchouk oscillator coproduct Delta_p(F) = p F x I + (1-p) I x F.

    Each side is built from the two-factor Krawtchouk coefficients
    (algebraic_form) of its own coproducts: (Delta_q x 1) Delta_p on the left,
    (1 x Delta_q2) Delta_p2 on the right. Their F, E and H images are compared,
    in that order, on every block up to n_max (up to n_max - 1 for E), which
    must be at least 1 (below that any quadruple would pass), as one result
    each, "recoupling-F", "recoupling-E" and "recoupling-H" with its block
    range (witness block, row, col), up to the first failing one. The
    lowering weights are (pq, p(1-q), 1-p) and (p2, (1-p2)q2, (1-p2)(1-q2)),
    so the images must be equal when coassoc_constraint holds; a failure
    there is a RuntimeError.
    """
    p, q, p2, q2 = (Fraction(v) for v in (p, q, p2, q2))
    for name, v in (("p", p), ("q", q), ("p2", p2), ("q2", q2)):
        if not 0 < v < 1:
            raise InvalidParameterError(f"{name} must lie strictly between 0 and 1")
    if n_max < 1:
        raise InvalidParameterError("n_max must be at least 1")
    lam = tuple(Fraction(v) for v in module_labels)
    dims = tuple((N + 1) * (N + 2) // 2 for N in range(n_max + 1))
    coproduct = {v: algebraic_form(make_instance(FamilyKind.KRAWTCHOUK, p=v, n_max=n_max))
                 for v in (p, q, p2, q2)}
    lhs = _recoupling(dims, lam, coproduct[p], coproduct[q], inner_left=True)
    rhs = _recoupling(dims, lam, coproduct[p2], coproduct[q2], inner_left=False)
    results = []
    for generator, a, b, top in (("F", lhs.f, rhs.f, n_max + 1), ("E", lhs.e, rhs.e, n_max),
                                 ("H", lhs.hk, rhs.hk, n_max + 1)):
        results.append(check_identity(f"recoupling-{generator}", f"blocks 0..{top - 1}",
                                      range(top), [(1, (a,))], [(1, (b,))], dims, "block"))
        if not results[-1].passed:
            break
    if coassoc_constraint(p, q, p2, q2) and not results[-1].passed:
        raise RuntimeError("internal error: constraint satisfied but the "
                           "recoupling compositions differ")
    return results

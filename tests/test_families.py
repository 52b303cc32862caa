import dataclasses
import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import askeycg.families as families
from askeycg.algebras import AlgebraKind, AlgebraTag, phi
from askeycg.exactmath import InvalidParameterError, SingularParameterError, binomial, q_binomial
from askeycg.cgverify import Run, random_instance
from askeycg.report import first_failure
from askeycg.families import (ContiguityData, FamilyInstance, FamilyKind,
                              check_contiguity, check_three_term_dual_hahn,
                              contiguity, limit_hahn_to_krawtchouk,
                              limit_racah_to_dual_hahn, make_instance,
                              poly_value, three_term_skip)

from test_coefficient_reference import assert_contiguity_matches_reference

ALL_KINDS = list(FamilyKind)


def run_with(inst: FamilyInstance, **artifacts) -> Run:
    """A Run of inst whose named artifacts are the given objects; the others
    are built on first use."""
    run = Run(inst)
    for name, value in artifacts.items():
        setattr(run, name, value)
    return run


def sample_instance(kind: FamilyKind, n_max: int = 6) -> FamilyInstance:
    params = {
        FamilyKind.HAHN: dict(alpha=F(1), beta=F(1, 2), lambda1=F(1), lambda2=F(2)),
        FamilyKind.KRAWTCHOUK: dict(p=F(1, 3)),
        FamilyKind.DUAL_HAHN: dict(lambda1=F(2), lambda2=F(3), alpha=F(1)),
        FamilyKind.RACAH: dict(lambda1=F(2), lambda2=F(5, 2), alpha=F(1, 3), beta=F(1, 5)),
        FamilyKind.Q_HAHN: dict(q=F(1, 4), alpha=F(1, 3), beta=F(2, 5)),
        FamilyKind.Q_RACAH: dict(q=F(1, 4), kappa1=F(1, 2), kappa2=F(1, 3),
                                 alpha=F(1, 5), beta=F(1, 7)),
    }[kind]
    return make_instance(kind, n_max=n_max, **params)


# -- parameter resolution and validation ------------------------------------

def test_a_parameter_given_as_none_is_left_out():
    with_none = make_instance(FamilyKind.HAHN, alpha=F(1, 2), beta=F(1, 3), lambda1=None)
    assert with_none == make_instance(FamilyKind.HAHN, alpha=F(1, 2), beta=F(1, 3))
    assert with_none.lambda1 == 0


def test_constrained_parameters_are_computed():
    dh = sample_instance(FamilyKind.DUAL_HAHN)
    assert dh.beta == dh.lambda1 + dh.lambda2 - 2 - dh.alpha
    ra = sample_instance(FamilyKind.RACAH)
    assert ra.gamma == ra.lambda1 + ra.lambda2 - 1
    qr = sample_instance(FamilyKind.Q_RACAH)
    assert qr.gamma == qr.kappa1 ** 2 * qr.kappa2 ** 2 / qr.q


def test_hahn_integer_alpha_plus_beta_rejected():
    with pytest.raises(InvalidParameterError, match="genericity"):
        make_instance(FamilyKind.HAHN, alpha=F(1), beta=F(1))


# one input per validation message, with the exact text each must keep
PINNED_REJECTIONS = [
    ("q-hahn", 4, dict(q=F(1, 2), alpha=F(1, 3), beta=F(2, 5), kappa1=F(0)),
     "kappa labels must be nonzero"),
    ("q-hahn", 4, dict(q=F(1), alpha=F(1, 3), beta=F(2, 5)), "q must avoid {0, 1, -1}"),
    ("q-hahn", 4, dict(q=F(1, 2), alpha=F(2), beta=F(1)),
     "1 - alpha*beta*q^1 vanishes (contiguity denominator)"),
    ("q-hahn", 4, dict(q=F(1, 2), alpha=F(4), beta=F(3)),
     "series denominator (alpha*q; q) vanishes at q^2"),
    ("q-racah", 4, dict(q=F(1, 2), alpha=F(0), beta=F(1, 7), kappa1=F(1, 2), kappa2=F(1, 3)),
     "q-racah needs alpha nonzero"),
    ("q-racah", 4, dict(q=F(1, 2), alpha=F(3), beta=F(1), kappa1=F(1), kappa2=F(1)),
     "series denominator (beta*gamma*q; q) vanishes at q^1"),
    ("q-racah", 4, dict(q=F(1, 4), alpha=F(1, 5), beta=F(1, 7), kappa1=F(2), kappa2=F(1, 3)),
     "kappa1^2 q^1 = 1: module label hits a zero of the lowering coefficient"),
    ("q-racah", 4, dict(q=F(1, 4), alpha=F(1, 5), beta=F(1, 7), kappa1=F(1, 3), kappa2=F(2)),
     "kappa2^2 q^1 = 1: module label hits a zero of the lowering coefficient"),
    ("q-racah", 1, dict(q=F(1, 4), alpha=F(1, 5), beta=F(1, 7), kappa1=F(3), kappa2=F(4, 3)),
     "(kappa1*kappa2)^2 q^2 = 1: a tensor component label hits a zero of the lowering "
     "coefficient"),
    ("krawtchouk", 4, dict(p=F(0)), "p must be nonzero"),
    ("krawtchouk", 4, dict(p=F(1)), "p = 1 degenerates the orthogonality weights"),
    ("hahn", 4, dict(alpha=F(1), beta=F(1)),
     "2n + alpha + beta - N vanishes at (n=0, N=2); alpha + beta must avoid the integers "
     "(genericity)"),
    ("hahn", 4, dict(alpha=F(-2), beta=F(1, 2)),
     "series denominator (alpha+1)_k vanishes (alpha = -2)"),
    ("racah", 4, dict(alpha=F(1, 3), beta=F(-9, 2), lambda1=F(2), lambda2=F(5, 2)),
     "series denominator (beta+gamma+1)_k vanishes"),
    ("dual-hahn", 4, dict(alpha=F(1), lambda1=F(-1), lambda2=F(3)),
     "lambda1 = -1 makes the module reducible within the truncation (lambda1 must avoid "
     "0, -1, ..., -3)"),
    ("dual-hahn", 4, dict(alpha=F(1), lambda1=F(3), lambda2=F(-2)),
     "lambda2 = -2 makes the module reducible within the truncation (lambda2 must avoid "
     "0, -1, ..., -3)"),
    ("dual-hahn", 4, dict(alpha=F(1), lambda1=F(3, 2), lambda2=F(-7, 2)),
     "lambda1 + lambda2 = -2 makes a tensor component reducible within the truncation"),
    ("racah", 4, dict(alpha=F(1, 3), beta=F(1, 5), lambda1=F(3, 2), lambda2=F(-7, 2)),
     "lambda1 + lambda2 = -2 makes a tensor component reducible within the truncation"),
]


@pytest.mark.parametrize("kind,n_max,params,message", PINNED_REJECTIONS,
                         ids=[m[:40] for *_, m in PINNED_REJECTIONS])
def test_validation_message_is_pinned(kind, n_max, params, message):
    with pytest.raises(InvalidParameterError) as exc:
        make_instance(kind, n_max=n_max, **params)
    assert str(exc.value) == message


# each locus where a beta2 factor of T_N[n+1][n] vanishes at n_max = 4: the
# message at both ends of its range, naming the first (n, N), and a value
# just past each end accepted
_RACAH = dict(lambda1=F(2), lambda2=F(5, 2))  # gamma = 7/2
_Q_RACAH = dict(q=F(1, 4), kappa1=F(1, 2), kappa2=F(1, 3))  # gamma = 1/9
TN_LOCI = [
    ("hahn", dict(alpha=F(1, 3)), "beta", [F(0), F(3)], [F(-1), F(4)],
     "n - N + beta + 1", [1, 4]),
    ("racah", dict(alpha=F(1, 3), **_RACAH), "beta", [F(0), F(3)], [F(-1), F(4)],
     "n - N + beta + 1", [1, 4]),
    ("racah", dict(beta=F(1, 5), **_RACAH), "alpha", [F(7, 2), F(13, 2)], [F(5, 2), F(15, 2)],
     "n - N + alpha - gamma + 1", [1, 4]),
    ("dual-hahn", _RACAH, "alpha", [F(13, 2), F(7, 2)], [F(15, 2), F(5, 2)],  # beta = 5/2 - alpha
     "N - n + beta", [4, 1]),
    ("q-hahn", dict(q=F(1, 2), beta=F(2, 5)), "alpha", [F(0)], [F(1, 3)],
     "alpha*q^(n+1)", [1]),
    ("q-hahn", dict(q=F(1, 2), alpha=F(1, 3)), "beta", [F(1), F(1, 8)], [F(2), F(1, 16)],
     "1 - beta*q^(n+1-N)", [1, 4]),
    ("q-racah", dict(alpha=F(1, 5), **_Q_RACAH), "beta", [F(1), F(1, 64)], [F(4), F(1, 256)],
     "1 - beta*q^(n+1-N)", [1, 4]),
    ("q-racah", dict(beta=F(1, 7), **_Q_RACAH), "alpha", [F(1, 9), F(1, 576)],
     [F(4, 9), F(1, 2304)], "alpha*q^(n+1) - gamma*q^N", [1, 4]),
]


@pytest.mark.parametrize("kind,fixed,name,ends,past,factor,levels", TN_LOCI,
                         ids=[f"{m[0]}:{m[5]}" for m in TN_LOCI])
def test_reducible_t_n_locus_is_rejected_at_both_ends(kind, fixed, name, ends, past, factor,
                                                      levels):
    for value, N in zip(ends, levels):
        with pytest.raises(InvalidParameterError) as exc:
            make_instance(kind, n_max=4, **fixed, **{name: value})
        assert str(exc.value) == (
            f"beta2 factor {factor} vanishes at (n=0, N={N}), so T_N is reducible")
    for value in past:
        make_instance(kind, n_max=4, **fixed, **{name: value})


@pytest.mark.parametrize("kind", [FamilyKind.HAHN, FamilyKind.RACAH])
@pytest.mark.parametrize("n_max", [1, 2, 4, 7])
def test_integer_alpha_plus_beta_is_rejected_by_genericity(kind, n_max):
    # 2n + s - N = 0 has a solution with 0 <= n <= n_max + 1, 0 <= N <= n_max
    # exactly for the integers s in -2 n_max - 2 .. n_max; the first in the
    # scan order (n, then N) has the smallest n
    # gamma = 10/3 keeps alpha - gamma off the integers
    labels = dict(lambda1=F(2), lambda2=F(7, 3)) if kind is FamilyKind.RACAH else {}
    for s in range(-2 * n_max - 2, n_max + 1):
        n = max(0, -(s // 2))
        with pytest.raises(InvalidParameterError) as exc:
            make_instance(kind, n_max=n_max, alpha=s + F(1, 2), beta=F(-1, 2), **labels)
        assert str(exc.value) == (
            f"2n + alpha + beta - N vanishes at (n={n}, N={2 * n + s}); "
            f"alpha + beta must avoid the integers (genericity)")
    for s in (-2 * n_max - 3, n_max + 1):  # just outside: accepted
        make_instance(kind, n_max=n_max, alpha=s + F(1, 2), beta=F(-1, 2), **labels)


def _scanned_rejection(kind, nm, alpha, beta, gamma, lambda1, lambda2):
    """Reference for the classical conditions of make_instance: each one scanned
    over the grid points where it is used, in the order make_instance tests
    them. Returns the message of the first violated condition, or None."""
    if kind in (FamilyKind.HAHN, FamilyKind.RACAH):
        s = alpha + beta
        for n in range(0, nm + 2):
            for N in range(0, nm + 1):
                if 2 * n + s - N == 0:
                    return ("2n + alpha + beta - N vanishes at (n=%d, N=%d); "
                            "alpha + beta must avoid the integers (genericity)" % (n, N))
    for i in range(0, nm):
        if alpha + 1 + i == 0:
            return "series denominator (alpha+1)_k vanishes (alpha = %s)" % alpha
    if kind is FamilyKind.RACAH:
        for i in range(0, nm):
            if beta + gamma + 1 + i == 0:
                return "series denominator (beta+gamma+1)_k vanishes"
    if kind in (FamilyKind.DUAL_HAHN, FamilyKind.RACAH):
        alg = AlgebraKind(AlgebraTag.SL2)
        for lam, name in ((lambda1, "lambda1"), (lambda2, "lambda2")):
            for j in range(1, nm + 1):
                if phi(alg, lam, j) == 0:
                    return ("%s = %s makes the module reducible within the truncation "
                            "(%s must avoid 0, -1, ..., %d)" % (name, lam, name, 1 - nm))
        l12 = lambda1 + lambda2
        for k in range(0, nm + 1):
            for j in range(1, nm + 1):
                if phi(alg, l12 + 2 * k, j) == 0:
                    return ("lambda1 + lambda2 = %s makes "
                            "a tensor component reducible within the truncation" % l12)
    # the beta2 factors of the subdiagonal T_N[n+1][n], 0 <= n < N <= n_max
    if kind is FamilyKind.DUAL_HAHN:
        factors = [("N - n + beta", lambda n, N: N - n + beta)]
    else:
        factors = [("n - N + beta + 1", lambda n, N: n - N + beta + 1)]
    if kind is FamilyKind.RACAH:
        factors.append(("n - N + alpha - gamma + 1", lambda n, N: n - N + alpha - gamma + 1))
    for factor, value in factors:
        for N in range(1, nm + 1):
            for n in range(N):
                if value(n, N) == 0:
                    return ("beta2 factor %s vanishes at (n=%d, N=%d), so T_N is reducible"
                            % (factor, n, N))
    return None


def _halves(lo, hi):
    """Every integer and half-integer in lo..hi."""
    return [F(i, 2) for i in range(2 * lo, 2 * hi + 1)]


def _classical_sweep(nm):
    """(kind, params) taking alpha + beta, alpha, beta + gamma, lambda1, lambda2,
    lambda1 + lambda2, beta and alpha - gamma through every integer and
    half-integer of a window around its excluded set, with the other
    conditions held at a value that passes and at one that fails, so the order
    of the conditions shows too."""
    hahn, dual, racah = FamilyKind.HAHN, FamilyKind.DUAL_HAHN, FamilyKind.RACAH
    window_a, window_s = _halves(-nm - 2, 2), _halves(-2 * nm - 4, nm + 2)
    window_l, window_l12 = _halves(-nm - 1, 2), _halves(-3 * nm - 2, 2)
    labels = dict(lambda1=F(2), lambda2=F(5, 2))  # gamma = 7/2
    for s in window_s:
        for a in (F(1, 3), F(-1)):
            yield hahn, dict(alpha=a, beta=s - a)
            yield racah, dict(alpha=a, beta=s - a, **labels)
    for a in window_a:
        for s in (F(1, 2), F(-1)):
            yield hahn, dict(alpha=a, beta=s - a)
            yield racah, dict(alpha=a, beta=s - a, **labels)
        for l2 in (F(5, 2), F(-1)):
            yield dual, dict(alpha=a, lambda1=F(2), lambda2=l2)
    for bg in window_a:
        for a in (F(1, 3), F(1, 2), F(-1)):
            yield racah, dict(alpha=a, beta=bg - F(7, 2), **labels)
    pairs = [(lam, other) for lam in window_l for other in (F(5, 2), F(-1), F(-1, 2))]
    pairs += [(l2, l1) for l1, l2 in pairs]
    pairs += [(l12 - l2, l2) for l12 in window_l12 for l2 in (F(5, 2), F(-1, 2))]
    for l1, l2 in pairs:
        for a in (F(1, 3), F(-1)):
            yield dual, dict(alpha=a, lambda1=l1, lambda2=l2)
            yield racah, dict(alpha=a, beta=F(1, 5), lambda1=l1, lambda2=l2)
    for b in _halves(-nm - 2, nm + 2):
        for a in (F(1, 3), F(-1)):
            yield hahn, dict(alpha=a, beta=b)
            yield racah, dict(alpha=a, beta=b, **labels)
        for b2 in (F(1, 5), F(-5, 2)):
            yield racah, dict(alpha=F(7, 2) + b, beta=b2, **labels)  # alpha - gamma = b
        yield dual, dict(alpha=F(5, 2) - b, lambda1=F(2), lambda2=F(5, 2))  # beta = b


@pytest.mark.parametrize("n_max", range(1, 9))
def test_classical_validation_matches_the_grid_scan(n_max):
    for kind, params in _classical_sweep(n_max):
        l1, l2 = params.get("lambda1", F(0)), params.get("lambda2", F(0))
        a = params["alpha"]
        b = params["beta"] if "beta" in params else l1 + l2 - 2 - a
        g = l1 + l2 - 1 if kind is FamilyKind.RACAH else None
        want = _scanned_rejection(kind, n_max, a, b, g, l1, l2)
        if want is None:
            make_instance(kind, n_max=n_max, **params)
            continue
        with pytest.raises(InvalidParameterError) as exc:
            make_instance(kind, n_max=n_max, **params)
        assert str(exc.value) == want, (kind, n_max, params)


def fraction_rejection(kind, nm, params):
    """make_instance's verdict on the free parameters `params` in plain
    Fractions: the message of the first condition it violates, in the order
    it tests them, or None. Constrained parameters are computed as Fractions,
    each classical condition is scanned over its grid (_scanned_rejection),
    and each q condition by trying every exponent of its window."""
    if kind is FamilyKind.KRAWTCHOUK:
        p = params["p"]
        return ("p must be nonzero" if p == 0 else
                "p = 1 degenerates the orthogonality weights" if p == 1 else None)
    if not kind.is_q:
        l1, l2 = params.get("lambda1", F(0)), params.get("lambda2", F(0))
        a = params["alpha"]
        b = l1 + l2 - 2 - a if kind is FamilyKind.DUAL_HAHN else params["beta"]
        g = l1 + l2 - 1 if kind is FamilyKind.RACAH else None
        return _scanned_rejection(kind, nm, a, b, g, l1, l2)
    q, a, b = params["q"], params["alpha"], params["beta"]
    if q in (0, 1, -1):
        return "q must avoid {0, 1, -1}"
    k1, k2 = params.get("kappa1", F(1)), params.get("kappa2", F(1))
    racah = kind is FamilyKind.Q_RACAH
    g = k1 ** 2 * k2 ** 2 / q if racah else None

    def hit(c, lo, hi):
        return next((e for e in range(lo, hi + 1) if c * q ** e == 1), None)

    if k1 == 0 or k2 == 0:
        return "kappa labels must be nonzero"
    if (e := hit(a * b, -nm, 2 * nm + 2)) is not None:
        return f"1 - alpha*beta*q^{e} vanishes (contiguity denominator)"
    if (e := hit(a, 1, nm)) is not None:
        return f"series denominator (alpha*q; q) vanishes at q^{e}"
    if racah:
        if a == 0:
            return "q-racah needs alpha nonzero"
        if (e := hit(b * g, 1, nm)) is not None:
            return f"series denominator (beta*gamma*q; q) vanishes at q^{e}"
        for kap, name in ((k1, "kappa1"), (k2, "kappa2")):
            if (e := hit(kap ** 2, 0, nm)) is not None:
                return (f"{name}^2 q^{e} = 1: module label hits a zero of the lowering "
                        "coefficient")
        if (e := hit((k1 * k2) ** 2, 0, 3 * nm - 1)) is not None:
            return (f"(kappa1*kappa2)^2 q^{e} = 1: a tensor component label hits a zero of "
                    "the lowering coefficient")
    # the beta2 factors of the subdiagonal T_N[n+1][n], first at n = 0
    factors = [("alpha*q^(n+1)", lambda N: a * q)]
    factors.append(("1 - beta*q^(n+1-N)", lambda N: 1 - b * q ** (1 - N)))
    if racah:
        factors.append(("alpha*q^(n+1) - gamma*q^N", lambda N: a * q - g * q ** N))
    for factor, value in factors:
        for N in range(1, nm + 1):
            if value(N) == 0:
                return f"beta2 factor {factor} vanishes at (n=0, N={N}), so T_N is reducible"
    return None


_Q_BASES = [F(1, 2), F(-1, 2), F(2, 3), F(-3, 2), F(3), F(1, 3)]
_SMALL = [F(1, 3), F(2, 5), F(-1, 2), F(3), F(-5, 4), F(1)]


@st.composite
def q_validation_point(draw, kind, locus):
    """(n_max, free parameters) of a q-kind, each parameter a small rational
    or a signed power of the base of q times one, then one parameter set on
    or near `locus`: the exponent that hits it is drawn from a window one
    wider than the range make_instance excludes, on both sides."""
    nm = draw(st.integers(1, 5))
    base = draw(st.sampled_from(_Q_BASES))
    q = base ** 2 if draw(st.booleans()) else base

    def atom():
        if draw(st.booleans()):
            return draw(st.sampled_from(_SMALL))
        return draw(st.sampled_from([1, -1])) * base ** draw(st.integers(-6, 6)) \
            * draw(st.sampled_from([F(1), F(1, 2), F(3)]))

    p = {"q": q, "alpha": atom(), "beta": atom(), "kappa1": atom(), "kappa2": atom()}

    def exponent(lo, hi):
        return draw(st.integers(lo - 1, hi + 1))

    def gamma():
        return p["kappa1"] ** 2 * p["kappa2"] ** 2 / q

    if locus == "q":
        p["q"] = draw(st.sampled_from([F(0), F(1), F(-1)]))
    elif locus == "zero":
        p[draw(st.sampled_from(["alpha", "beta", "kappa1", "kappa2"]))] = F(0)
    elif locus == "alpha*beta" and p["alpha"]:
        p["beta"] = q ** -exponent(-nm, 2 * nm + 2) / p["alpha"]
    elif locus == "alpha":
        p["alpha"] = q ** -exponent(1, nm)
    elif locus == "beta*gamma" and gamma():
        p["beta"] = q ** -exponent(1, nm) / gamma()
    elif locus in ("kappa1", "kappa2"):
        p[locus] = draw(st.sampled_from([1, -1])) * base ** -exponent(0, nm)
    elif locus == "kappa1*kappa2" and p["kappa1"]:
        p["kappa2"] = draw(st.sampled_from([1, -1])) * base ** -exponent(0, 3 * nm - 1) \
            / p["kappa1"]
    elif locus == "beta":
        p["beta"] = q ** -exponent(1 - nm, 0)
    elif locus == "alpha/gamma":
        p["alpha"] = gamma() * q ** -exponent(1 - nm, 0)
    if kind is FamilyKind.Q_HAHN and draw(st.booleans()):
        del p["kappa1"], p["kappa2"]  # the q-Hahn labels default to 1
    return nm, p


_Q_LOCI = ["q", "zero", "alpha*beta", "alpha", "beta*gamma", "kappa1", "kappa2",
           "kappa1*kappa2", "beta", "alpha/gamma"]


@st.composite
def classical_validation_point(draw, kind):
    """(n_max, free parameters) of a classical kind, each parameter an
    integer, a half or a third in a window around the integers make_instance
    excludes, so every condition is hit on its range and just past it."""
    nm = draw(st.integers(1, 5))

    def near():
        return F(draw(st.integers(-3 * nm - 3, nm + 3)), draw(st.sampled_from([1, 1, 2, 3])))

    if kind is FamilyKind.KRAWTCHOUK:
        return nm, {"p": draw(st.sampled_from([F(0), F(1), F(1, 3), F(2), F(-1, 2)]))}
    p = {"alpha": near(), "lambda1": near(), "lambda2": near()}
    if kind is not FamilyKind.DUAL_HAHN:
        p["beta"] = near()
    return nm, p


def assert_validation_equals_the_reference(kind, nm, params):
    want = fraction_rejection(kind, nm, params)
    if want is None:
        make_instance(kind, n_max=nm, **params)
        return
    with pytest.raises(InvalidParameterError) as exc:
        make_instance(kind, n_max=nm, **params)
    assert str(exc.value) == want, (kind, nm, params)


@pytest.mark.parametrize("locus", _Q_LOCI)
@pytest.mark.parametrize("kind", [FamilyKind.Q_HAHN, FamilyKind.Q_RACAH])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_q_validation_equals_the_fraction_reference(kind, locus, data):
    nm, params = data.draw(q_validation_point(kind, locus))
    assert_validation_equals_the_reference(kind, nm, params)


@pytest.mark.parametrize("kind", [k for k in ALL_KINDS if not k.is_q])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_classical_validation_equals_the_fraction_reference(kind, data):
    nm, params = data.draw(classical_validation_point(kind))
    assert_validation_equals_the_reference(kind, nm, params)


def test_sl2_label_restrictions():
    with pytest.raises(InvalidParameterError):
        make_instance(FamilyKind.DUAL_HAHN, lambda1=F(-1), lambda2=F(3), alpha=F(1))
    with pytest.raises(InvalidParameterError):
        make_instance(FamilyKind.DUAL_HAHN, lambda1=F(4), lambda2=F(-4), alpha=F(1))


def test_degenerate_q_rejected():
    with pytest.raises(InvalidParameterError):
        make_instance(FamilyKind.Q_HAHN, q=F(1), alpha=F(1, 3), beta=F(1, 5))


@pytest.mark.parametrize("q", [F(0), F(1), F(-1)])
def test_q_racah_degenerate_q_rejected_before_gamma(q):
    with pytest.raises(InvalidParameterError, match="q must avoid"):
        make_instance(FamilyKind.Q_RACAH, q=q, kappa1=F(1, 2), kappa2=F(1, 3),
                      alpha=F(1, 5), beta=F(1, 7))


def test_krawtchouk_p_restrictions():
    with pytest.raises(InvalidParameterError):
        make_instance(FamilyKind.KRAWTCHOUK, p=F(0))
    with pytest.raises(InvalidParameterError):
        make_instance(FamilyKind.KRAWTCHOUK, p=F(1))


def fraction_q_exponent(c, q, lo, hi):
    """The e in lo..hi with c q^e = 1 in Fractions, by trying each e."""
    return next((e for e in range(lo, hi + 1) if c * q ** e == 1), None)


NEAR_ONE = F(10 ** 16 + 1, 10 ** 16)  # one double: log cannot tell its top from its bottom


@pytest.mark.parametrize("q", [F(1, 4), F(-1, 4), F(2, 3), F(-3, 2), F(4), F(-2), F(9, 16),
                               NEAR_ONE, -NEAR_ONE])
def test_q_exponent_equals_the_fraction_rule(q):
    # c = 0, +-q^-e and twice it for every e just outside each window, each
    # as a reduced pair and as one with a common factor and negative bottom,
    # and windows on both sides of 0
    cs = {F(0), F(1), F(-1), F(2)}
    for e in range(-6, 7):
        cs.update({q ** -e, -(q ** -e), 2 * q ** -e, q ** -e / 3})
    for lo, hi in [(-4, 4), (0, 0), (1, 3), (0, 5), (-5, -1), (-2, 0), (3, 2)]:
        for c in cs:
            cn, cd = c.as_integer_ratio()
            want = fraction_q_exponent(c, q, lo, hi)
            for pair in ((cn, cd), (-6 * cn, -6 * cd)):
                assert families._q_exponent(pair, q.as_integer_ratio(), lo, hi) == want


def test_q_near_one_is_validated_exactly():
    # q - 1 = 1e-16: both a q-Hahn point with no excluded power and one with
    # alpha = q^-2 are decided as over Fractions, with the same message
    make_instance(FamilyKind.Q_HAHN, q=NEAR_ONE, alpha=F(1, 3), beta=F(1, 15))
    with pytest.raises(InvalidParameterError,
                       match=re.escape("series denominator (alpha*q; q) vanishes at q^2")):
        make_instance(FamilyKind.Q_HAHN, q=NEAR_ONE, alpha=NEAR_ONE ** -2, beta=F(1, 15))
    with pytest.raises(InvalidParameterError,
                       match=re.escape("1 - alpha*beta*q^4 vanishes (contiguity denominator)")):
        make_instance(FamilyKind.Q_HAHN, q=NEAR_ONE, alpha=F(1, 3), beta=3 * NEAR_ONE ** -4)


def test_q_racah_needs_kappas():
    with pytest.raises(InvalidParameterError, match="kappa"):
        make_instance(FamilyKind.Q_RACAH, q=F(1, 4), alpha=F(1, 5), beta=F(1, 7))


def test_unknown_parameter_rejected():
    with pytest.raises(InvalidParameterError):
        make_instance(FamilyKind.KRAWTCHOUK, p=F(1, 3), gamma=F(2))


# -- polynomial values -------------------------------------------------------

def test_k_zero_column_is_binomial():
    for kind in ALL_KINDS:
        inst = sample_instance(kind)
        for N in range(4):
            for n in range(N + 1):
                want = (q_binomial(N, n, inst.q) if kind.is_q else binomial(N, n))
                assert poly_value(inst, n, 0, N) == want


@pytest.mark.parametrize("k, N, message", [
    (0, -1, "N must lie in 0..6"), (0, 7, "N must lie in 0..6"),
    (-1, 2, "k must lie in 0..N"), (3, 2, "k must lie in 0..N")])
def test_poly_value_rejects_a_level_or_point_off_the_grid(k, N, message):
    with pytest.raises(ValueError) as err:
        poly_value(sample_instance(FamilyKind.HAHN), 0, k, N)
    assert str(err.value) == message


def test_out_of_range_n_is_zero():
    inst = sample_instance(FamilyKind.RACAH)
    assert poly_value(inst, -1, 0, 2) == 0
    assert poly_value(inst, 3, 1, 2) == 0


def test_dual_hahn_value():
    inst = sample_instance(FamilyKind.DUAL_HAHN)
    assert poly_value(inst, 1, 1, 1) == F(-3, 2)
    assert poly_value(inst, 1, 1, 1) == -inst.lambda2 / inst.lambda1


def test_krawtchouk_value():
    inst = sample_instance(FamilyKind.KRAWTCHOUK)
    assert poly_value(inst, 1, 1, 1) == -2


def poly_reference(inst, n, k, N):
    """Second, independent summand implementation for every family: each term
    is its own product of Fractions, and the (q-)binomial prefactor is a
    quotient of plain products, so no exactmath routine is involved."""
    if n < 0 or n > N:
        return F(0)
    a, b, g, q = inst.alpha, inst.beta, inst.gamma, inst.q

    def poch(x, j):
        out = F(1)
        for i in range(j):
            out *= x + i
        return out

    def qpoch(x, j):
        out = F(1)
        for i in range(j):
            out *= 1 - q ** i * x
        return out

    def series(num, den, z, factor):
        # den carries the implicit j! = (1)_j or (q; q)_j
        total = F(0)
        for j in range(n, -1, -1):
            t = F(1)
            for x in num:
                t *= factor(x, j)
            d = F(1)
            for x in den:
                d *= factor(x, j)
            total += t * z ** j / d
        return total

    def classical(num, den, z):
        return math.comb(N, n) * series(num, den + [F(1)], z, poch)

    def basic(num, den):
        prefactor = qpoch(q, N) / (qpoch(q, n) * qpoch(q, N - n))
        return prefactor * series(num, den + [q], q, qpoch)

    kind = inst.kind
    if kind is FamilyKind.HAHN:
        return classical([F(-n), n + a + b - N + 1, F(-k)], [a + 1, F(-N)], F(1))
    if kind is FamilyKind.KRAWTCHOUK:
        return classical([F(-n), F(-k)], [F(-N)], 1 / inst.p)
    if kind is FamilyKind.DUAL_HAHN:
        return classical([F(-n), F(-k), k + a + b + 1], [a + 1, F(-N)], F(1))
    if kind is FamilyKind.RACAH:
        return classical([F(-n), n + a + b - N + 1, F(-k), k + g],
                         [a + 1, b + g + 1, F(-N)], F(1))
    if kind is FamilyKind.Q_HAHN:
        return basic([q ** -n, a * b * q ** (n - N + 1), q ** -k], [a * q, q ** -N])
    return basic([q ** -n, a * b * q ** (n - N + 1), q ** -k, g * q ** k],
                 [a * q, b * g * q, q ** -N])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_series_against_second_implementation(kind):
    # every (n, k, N) up to n_max = 6, n one past each end included
    inst = sample_instance(kind, n_max=6)
    for N in range(7):
        for k in range(N + 1):
            for n in range(-1, N + 2):
                assert poly_value(inst, n, k, N) == poly_reference(inst, n, k, N)


# -- contiguity --------------------------------------------------------------

def test_hahn_contiguity_coefficients():
    data = contiguity(sample_instance(FamilyKind.HAHN))
    a, b = F(1), F(1, 2)
    assert data.alpha2(0, 0) == (a + b) / (a + b) == 1
    assert data.alpha1(1, 2) == (1 + a + b + 1) / (2 + a + b - 2)
    assert data.mu(1, 3) == -2


def test_dual_hahn_contiguity_coefficients_are_one():
    data = contiguity(sample_instance(FamilyKind.DUAL_HAHN))
    for n in range(5):
        for N in range(5):
            assert data.alpha1(n, N) == 1
            assert data.alpha2(n, N) == 1


def test_q_hahn_contiguity_coefficient():
    inst = make_instance(FamilyKind.Q_HAHN, q=F(1, 2), alpha=F(3), beta=F(3), n_max=4)
    data = contiguity(inst)
    assert data.alpha1(0, 0) == F(7, 16)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_check_contiguity_passes(kind):
    assert first_failure(check_contiguity(Run(sample_instance(kind)))) is None


def test_check_contiguity_random_draws():
    rng = random.Random(7)
    for kind in ALL_KINDS:
        for _ in range(2):
            inst = random_instance(kind, rng, n_max=6)
            assert first_failure(check_contiguity(Run(inst))) is None, inst.to_doc()


def test_corrupted_alpha2_fails_with_smallest_witness():
    inst = sample_instance(FamilyKind.HAHN)
    data = contiguity(inst)
    bad = ContiguityData(alpha1=data.alpha1,
                         alpha2=lambda n, N: 2 * data.alpha2(n, N),
                         beta1=data.beta1, beta2=data.beta2, mu=data.mu)
    fail = first_failure(check_contiguity(run_with(inst, contiguity=bad)))
    assert fail is not None and fail.name == "raising-contiguity"
    assert fail.witness.where == {"N": 0, "n": 0, "k": 0}


def test_corrupted_beta1_pins_the_lowering_witness():
    # the lowering counterpart of the acceptance contiguity control: beta1
    # doubled on the same Hahn point; raising still passes
    inst = make_instance(FamilyKind.HAHN, alpha=F(1), beta=F(1, 2), n_max=4)
    data = contiguity(inst)
    results = check_contiguity(run_with(inst, contiguity=dataclasses.replace(
        data, beta1=lambda n, N: 2 * data.beta1(n, N))))
    assert [(c.name, c.passed) for c in results] == [
        ("raising-contiguity", True), ("lowering-contiguity", False)]
    assert results[1].witness.to_dict() == {
        "where": {"N": "1", "n": "0", "k": "0"}, "lhs": "-1", "rhs": "-9/5"}


def test_nonzero_mu_at_k_equal_N_fails_instead_of_raising():
    # the k = N target of the lowering relation is mu(N, N) times P_0 = 1 on
    # level N-1; valid data has mu(N, N) = 0, so only a corrupted mu reads it
    inst = make_instance("hahn", alpha=F(1, 2), beta=F(1, 3), n_max=4)
    data = contiguity(inst)
    results = check_contiguity(run_with(inst, contiguity=dataclasses.replace(
        data, mu=lambda k, N: data.mu(k, N) + (k == N == 2))))
    assert [(c.name, c.passed) for c in results] == [
        ("raising-contiguity", True), ("lowering-contiguity", False)]
    assert results[1].witness.to_dict() == {
        "where": {"N": "2", "n": "0", "k": "2"}, "lhs": "1", "rhs": "0"}


@pytest.mark.parametrize("coeff, name, witness", [
    ("alpha1", "raising-contiguity",
     {"where": {"N": "4", "n": "2", "k": "0"}, "lhs": "5797/4096", "rhs": "22789/8192"}),
    ("alpha2", "raising-contiguity",
     {"where": {"N": "4", "n": "2", "k": "0"}, "lhs": "5797/4096", "rhs": "11993/8192"}),
    ("beta1", "lowering-contiguity",
     {"where": {"N": "4", "n": "2", "k": "0"}, "lhs": "1370285/1048576",
      "rhs": "765546635/293076992"}),
    ("beta2", "lowering-contiguity",
     {"where": {"N": "4", "n": "2", "k": "0"}, "lhs": "1370285/1048576",
      "rhs": "766874675/586153984"}),
    ("mu", "lowering-contiguity",
     {"where": {"N": "4", "n": "0", "k": "2"}, "lhs": "184315/98304",
      "rhs": "184315/196608"}),
])
def test_corrupted_interior_coefficient_witness(coeff, name, witness):
    # one coefficient doubled at the interior point (2, 4) of a q-Racah
    # instance, where both terms of each two-term side are live
    inst = sample_instance(FamilyKind.Q_RACAH)
    data = contiguity(inst)
    good = getattr(data, coeff)
    bad = ContiguityData(**{**{f: getattr(data, f) for f in
                               ("alpha1", "alpha2", "beta1", "beta2", "mu")},
                            coeff: lambda a, N: good(a, N) * (2 if (a, N) == (2, 4) else 1)})
    results = check_contiguity(run_with(inst, contiguity=bad))
    assert [(c.name, c.witness.to_dict()) for c in results if not c.passed] == [
        (name, witness)]


# -- coefficient values against a second implementation -----------------------

def wide_instance(kind: FamilyKind, rng, n_max: int) -> FamilyInstance:
    """A valid instance drawn from parameters of either sign; the q of a
    q-kind has either sign and lies below or above 1 in size. A draw that
    make_instance rejects is redrawn."""
    def rat():
        return F(rng.choice((-1, 1)) * rng.randint(1, 20), rng.randint(1, 12))

    while True:
        params = {"q": rat(), "alpha": rat(), "beta": rat(),
                  "kappa1": rat(), "kappa2": rat()} if kind.is_q else {
            FamilyKind.HAHN: {"alpha": rat(), "beta": rat()},
            FamilyKind.KRAWTCHOUK: {"p": rat()},
            FamilyKind.DUAL_HAHN: {"alpha": rat()},
            FamilyKind.RACAH: {"alpha": rat(), "beta": rat()},
        }[kind] | {"lambda1": rat(), "lambda2": rat()}
        try:
            return make_instance(kind, n_max=n_max, **params)
        except InvalidParameterError:
            continue


def wide_draws(kind: FamilyKind, seed: str, count: int = 12) -> list[FamilyInstance]:
    """count wide instances at n_max 1..6; for a q-kind the draws include q
    of both signs, both below and above 1 in size."""
    rng = random.Random(f"{seed}:{kind.value}")
    draws = [wide_instance(kind, rng, rng.randint(1, 6)) for _ in range(count)]
    if kind.is_q:
        assert {(d.q > 0, abs(d.q) > 1) for d in draws} == {
            (s, b) for s in (True, False) for b in (True, False)}
    return draws


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_contiguity_matches_reference_on_sample(kind):
    assert_contiguity_matches_reference(sample_instance(kind))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_contiguity_matches_reference_on_wide_draws(kind):
    for inst in wide_draws(kind, "contiguity"):
        assert_contiguity_matches_reference(inst)


_BARE_HAHN = dict(kind=FamilyKind.HAHN, alpha=F(1), beta=F(-1), lambda1=F(0), lambda2=F(0))
_BARE_Q_HAHN = dict(kind=FamilyKind.Q_HAHN, q=F(1, 4), alpha=F(2), beta=F(2),
                    kappa1=F(1), kappa2=F(1))


@pytest.mark.parametrize("params, name, args", [
    (_BARE_HAHN, "alpha1", (0, 0)),
    (_BARE_Q_HAHN, "alpha1", (1, 1)),
    (_BARE_Q_HAHN, "alpha2", (1, 1)),
    (_BARE_Q_HAHN, "beta1", (0, 1)),
    (_BARE_Q_HAHN, "beta2", (0, 1)),
])
def test_contiguity_names_its_pole(params, name, args):
    # a bare instance skips make_instance's validation, so a contiguity
    # bottom (2n - N + a + b, or 1 - ab q^(2n-N) and 1 - ab q^(2n+2-N))
    # vanishes on the grid; the error names the coefficient and (n, N), on
    # every call, as no failure is memoized
    coefficient = getattr(contiguity(FamilyInstance(n_max=3, **params)), name)
    message = f"the contiguity coefficient {name}{args} divides by zero"
    for _ in range(2):
        with pytest.raises(SingularParameterError) as err:
            coefficient(*args)
        assert str(err.value) == message


# -- dual Hahn three-term recurrence ----------------------------------------

def test_three_term_passes():
    inst = make_instance(FamilyKind.DUAL_HAHN, lambda1=F(2), lambda2=F(3),
                         alpha=F(1), n_max=6)
    assert first_failure(check_three_term_dual_hahn(Run(inst))) is None


def test_three_term_block_zero_trivial():
    inst = make_instance(FamilyKind.DUAL_HAHN, lambda1=F(5, 2), lambda2=F(7, 3),
                         alpha=F(3, 2), n_max=1)
    assert first_failure(check_three_term_dual_hahn(Run(inst))) is None


def test_three_term_requires_dual_hahn():
    with pytest.raises(InvalidParameterError) as err:
        check_three_term_dual_hahn(Run(sample_instance(FamilyKind.RACAH, n_max=3)))
    assert str(err.value) == "three-term recurrence check: only defined for dual-hahn"


def test_three_term_requires_matching_alpha():
    inst = make_instance(FamilyKind.DUAL_HAHN, lambda1=F(2), lambda2=F(3),
                         alpha=F(1, 2), n_max=3)
    with pytest.raises(InvalidParameterError) as err:
        check_three_term_dual_hahn(Run(inst))
    assert str(err.value) == "three-term recurrence check: needs alpha = lambda1 - 1"


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kind=st.sampled_from(ALL_KINDS), seed=st.integers(0, 2 ** 32 - 1),
       standard=st.booleans())
def test_three_term_skip_is_none_exactly_where_the_check_runs(kind, seed, standard):
    # wide draws of every family, and for dual Hahn also the standard point
    # alpha = lambda1 - 1; where the rule gives a reason the check raises it
    rng = random.Random(seed)
    inst = wide_instance(kind, rng, rng.randint(1, 3))
    if kind is FamilyKind.DUAL_HAHN and standard:
        try:
            inst = make_instance(kind, n_max=inst.n_max, lambda1=inst.lambda1,
                                 lambda2=inst.lambda2, alpha=inst.lambda1 - 1)
        except InvalidParameterError:
            assume(False)
    reason = three_term_skip(inst)
    try:
        results = check_three_term_dual_hahn(Run(inst))
    except InvalidParameterError as exc:
        assert reason and str(exc) == f"three-term recurrence check: {reason}"
    else:
        assert reason is None and results


def test_three_term_corrupted_mu_fails():
    inst = make_instance(FamilyKind.DUAL_HAHN, lambda1=F(2), lambda2=F(3),
                         alpha=F(1), n_max=4)
    l1, l2 = inst.lambda1, inst.lambda2
    fail = first_failure(check_three_term_dual_hahn(
        Run(inst), mu_fn=lambda k, N: (N - k + 1) * (N + k + l1 + l2) + 1))
    assert fail is not None and fail.witness is not None


@pytest.mark.parametrize("bump, rhs", [(F(1, 3), "125/6"), (F(-2), "37/2")])
def test_three_term_witness_is_reduced(bump, rhs):
    inst = make_instance(FamilyKind.DUAL_HAHN, lambda1=F(5, 2), lambda2=F(7, 3),
                         alpha=F(3, 2), n_max=4)
    l1, l2 = inst.lambda1, inst.lambda2
    results = check_three_term_dual_hahn(Run(inst), mu_fn=lambda k, N: (
        (N - k + 1) * (N + k + l1 + l2) + (bump if N == 2 else 0)))
    assert first_failure(results).witness.to_dict() == {
        "where": {"N": "2", "n": "0", "k": "0"}, "lhs": "41/2", "rhs": rhs}


# -- self-duality ------------------------------------------------------------

def test_hahn_dual_hahn_transpose_relation():
    a, b = F(1), F(1, 2)
    hahn = make_instance(FamilyKind.HAHN, alpha=a, beta=b, n_max=6)
    for N in range(7):
        # dual Hahn at matched parameters (alpha, beta - N); labels chosen so
        # the constrained beta resolves to exactly that value
        dual = make_instance(FamilyKind.DUAL_HAHN, lambda1=F(1),
                             lambda2=a + b - N + 1, alpha=a, n_max=max(N, 1))
        assert dual.beta == b - N
        for n in range(N + 1):
            for k in range(N + 1):
                lhs = poly_value(hahn, n, k, N) * binomial(N, k)
                rhs = poly_value(dual, k, n, N) * binomial(N, n)
                assert lhs == rhs


# -- limits ------------------------------------------------------------------

def test_limit_hahn_to_krawtchouk():
    results = limit_hahn_to_krawtchouk(F(1, 3), [F(1000), F(10 ** 6)], 1, 1, 2)
    assert first_failure(results) is None


def test_limit_degenerate_points_have_zero_difference():
    # n = 0 and k = 0 reduce both families to the binomial prefactor
    for (n, k) in ((0, 2), (2, 0)):
        results = limit_hahn_to_krawtchouk(F(1, 3), [F(1000), F(10 ** 6)], n, k, 2)
        assert first_failure(results) is None


def test_limit_hahn_to_krawtchouk_reads_the_hahn_coefficients(monkeypatch):
    def hahn_beta1_times_seven(inst):
        data = contiguity(inst)
        if inst.kind is not FamilyKind.HAHN:
            return data
        return dataclasses.replace(data, beta1=lambda n, N: 7 * data.beta1(n, N))

    monkeypatch.setattr("askeycg.families.contiguity", hahn_beta1_times_seven)
    results = limit_hahn_to_krawtchouk(F(1, 3), [F(1000), F(10 ** 6)], 1, 1, 2)
    failed = [c for c in results if not c.passed]
    assert [c.name for c in failed] == ["beta1-decay"]
    assert failed[0].witness.where == {"z1": F(1000), "z2": F(10 ** 6), "n": 1, "N": 2}


@pytest.mark.parametrize("zs, n, k, N, where, lhs, rhs", [
    # d(z1) = 0 < d(z2): the bound is 0
    ([F(3, 2), F(203, 2)], 2, 2, 3, {"z1": F(3, 2), "z2": F(203, 2)}, "2880/8987", "0"),
    # d(1/2) = 18/7, d(3/2) = 2 > 18/7 * 2/3
    ([F(1, 2), F(3, 2)], 1, 1, 2, {"z1": F(1, 2), "z2": F(3, 2)}, "2", "12/7"),
])
def test_limit_hahn_difference_decay_witness(zs, n, k, N, where, lhs, rhs):
    results = limit_hahn_to_krawtchouk(F(1, 3), zs, n, k, N)
    decay = results[0]
    assert decay.name == "difference-decay" and not decay.passed
    assert (decay.witness.where, decay.witness.lhs, decay.witness.rhs) == (where, lhs, rhs)


def test_limit_hahn_to_krawtchouk_check_names():
    results = limit_hahn_to_krawtchouk(F(1, 3), [F(1000), F(10 ** 6)], 1, 1, 2)
    assert [c.name for c in results] == [
        "difference-decay", "alpha1-decay", "alpha2-decay", "beta1-decay",
        "beta2-decay", "mu-equality"]


def test_limit_z_list_must_increase():
    with pytest.raises(InvalidParameterError):
        limit_hahn_to_krawtchouk(F(1, 3), [F(10 ** 6), F(1000)], 1, 1, 2)


@pytest.mark.parametrize("n", [-499, -1, 3])
def test_limit_n_must_lie_in_the_level(n):
    # P_n(k, 2) is 0 on both sides for these n, and at z = 1000 the Hahn
    # coefficients divide by 2n - N + z = 0 at n = -499
    with pytest.raises(InvalidParameterError, match="n must lie in 0..N"):
        limit_hahn_to_krawtchouk(F(1, 3), [F(1000), F(10 ** 6)], n, 1, 2)


@pytest.mark.parametrize("k", [-1, 3])
def test_limit_k_must_lie_in_the_level(monkeypatch, k):
    # rejected before any instance is built, like a bad n
    def no_build(*args):
        raise AssertionError("an instance was built")

    monkeypatch.setattr("askeycg.families._resolve", no_build)
    with pytest.raises(InvalidParameterError, match="k must lie in 0..N"):
        limit_hahn_to_krawtchouk(F(1, 3), [F(1000), F(10 ** 6)], 1, k, 2)


@pytest.mark.parametrize("points", [[], [F(1000)], [F(0), F(1000)], [F(-1), F(1000)],
                                    [F(1000), F(1000)]])
def test_limit_ladders_need_two_positive_increasing_points(points):
    # one point compares nothing, so every decay check would pass vacuously
    with pytest.raises(InvalidParameterError, match="two or more"):
        limit_hahn_to_krawtchouk(F(1, 3), points, 1, 1, 2)
    with pytest.raises(InvalidParameterError, match="two or more"):
        limit_racah_to_dual_hahn(F(1), F(2), F(3), points, n_max=4)


def test_limit_racah_to_dual_hahn():
    results = limit_racah_to_dual_hahn(F(1), F(2), F(3), [F(1000), F(10 ** 6)], n_max=4)
    assert first_failure(results) is None


@pytest.mark.parametrize("betas, want", [
    ([F(1, 3), F(2, 3)], [
        ("alpha1-decay", ({"beta1": F(1, 3), "beta2": F(2, 3), "n": 0, "N": 2}, "18/5", "18/7")),
        ("alpha2-decay", ({"beta1": F(1, 3), "beta2": F(2, 3), "n": 1, "N": 4}, "6/5", "6/7")),
        ("beta1-decay", ({"beta1": F(1, 3), "beta2": F(2, 3), "n": 0, "N": 4},
                         "117/10", "117/14")),
        ("beta2-decay", ({"beta1": F(1, 3), "beta2": F(2, 3), "n": 0, "N": 4},
                         "234/5", "234/7")),
        ("mu-equality", None)]),
    # the first pair passes, the second fails
    ([F(4, 3), F(5, 3), F(7, 3)], [
        ("alpha1-decay", ({"beta1": F(5, 3), "beta2": F(7, 3), "n": 0, "N": 3}, "24", "48/7")),
        ("alpha2-decay", None), ("beta1-decay", None), ("beta2-decay", None),
        ("mu-equality", None)]),
])
def test_limit_racah_to_dual_hahn_witnesses(betas, want):
    results = limit_racah_to_dual_hahn(F(1, 2), F(2), F(3), betas, n_max=4)
    assert [(c.name, c.witness and (c.witness.where, c.witness.lhs, c.witness.rhs))
            for c in results] == want


def _result_doc(name, checked_range, where=None, lhs=None, rhs=None):
    """CheckResult.to_dict() of a result that passed, or failed at where."""
    witness = where and {"where": where, "lhs": lhs, "rhs": rhs}
    return {"name": name, "passed": witness is None, "skipped": False, "reason": "",
            "checked_range": checked_range, "witness": witness}


def test_limit_hahn_to_krawtchouk_readme_point_results():
    rng, where = "(n,N)=(2,3)", {"z1": "3/2", "z2": "203/2", "n": "2", "N": "3"}
    results = limit_hahn_to_krawtchouk(F(1, 3), [F(3, 2), F(203, 2)], 2, 2, 3)
    assert [c.to_dict() for c in results] == [
        _result_doc("difference-decay", "z in {3/2,203/2}",
                    {"z1": "3/2", "z2": "203/2"}, "2880/8987", "0"),
        _result_doc("alpha1-decay", rng),
        _result_doc("alpha2-decay", rng),
        _result_doc("beta1-decay", rng, where, "12/209", "8/203"),
        _result_doc("beta2-decay", rng, where, "4/209", "8/609"),
        _result_doc("mu-equality", "(k,N)=(2,3)")]


def test_limit_racah_to_dual_hahn_failing_results():
    rng = "0<=n<=N<=4"

    def where(n, N):
        return {"beta1": "1/3", "beta2": "2/3", "n": n, "N": N}

    results = limit_racah_to_dual_hahn(F(1, 2), F(2), F(3), [F(1, 3), F(2, 3)], n_max=4)
    assert [c.to_dict() for c in results] == [
        _result_doc("alpha1-decay", rng, where("0", "2"), "18/5", "18/7"),
        _result_doc("alpha2-decay", rng, where("1", "4"), "6/5", "6/7"),
        _result_doc("beta1-decay", rng, where("0", "4"), "117/10", "117/14"),
        _result_doc("beta2-decay", rng, where("0", "4"), "234/5", "234/7"),
        _result_doc("mu-equality", "0<=k<=N<=4")]


def test_limit_ladders_take_reducible_t_n_points():
    # the ladders never build T_N, so make_instance's reducible-T_N loci do
    # not narrow them: Hahn beta = 1, Racah beta = 1 and 2, and at alpha = 4
    # both Racah alpha - gamma = 0 and dual Hahn beta = -1
    for kind, params in [("hahn", dict(alpha=F(1, 2), beta=F(1))),
                         ("racah", dict(alpha=F(1, 2), beta=F(2), lambda1=F(2), lambda2=F(3))),
                         ("racah", dict(alpha=F(4), beta=F(1, 3), lambda1=F(2), lambda2=F(3))),
                         ("dual-hahn", dict(alpha=F(4), lambda1=F(2), lambda2=F(3)))]:
        with pytest.raises(InvalidParameterError, match="so T_N is reducible"):
            make_instance(kind, n_max=4, **params)
    assert limit_hahn_to_krawtchouk(F(1, 3), [F(3, 2), F(203, 2)], 2, 2, 3)
    for args, failed, witness in [
            ((F(1, 2), F(2), F(3), [F(1), F(2), F(4)]), ["alpha1-decay"],
             ({"beta1": F(1), "beta2": F(2), "n": 0, "N": 3}, "8", "8/3")),
            ((F(4), F(2), F(3), [F(1, 3), F(1000, 3)]),
             ["alpha1-decay", "alpha2-decay", "beta1-decay", "beta2-decay"],
             ({"beta1": F(1, 3), "beta2": F(1000, 3), "n": 0, "N": 0}, "3/1012", "3/6500"))]:
        results = limit_racah_to_dual_hahn(*args, n_max=4)
        assert [c.name for c in results if not c.passed] == failed
        w = first_failure(results).witness
        assert (w.where, w.lhs, w.rhs) == witness


# -- random draws ------------------------------------------------------------

class LowestDraw:
    """An rng stub whose every randint is its lower bound."""

    def randint(self, a, b):
        return a


def test_random_instance_gives_up_after_its_tries():
    # every Hahn draw is alpha = beta = 1, which genericity rejects
    with pytest.raises(RuntimeError, match=r"^no valid draw for hahn after 200 tries$"):
        random_instance(FamilyKind.HAHN, LowestDraw())


@pytest.mark.parametrize("n_max", [0, -3])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_random_instance_refuses_a_bad_n_max_before_any_draw(kind, n_max):
    # no draw can fix n_max, so the refusal names it and takes nothing from rng
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(InvalidParameterError, match=r"^n_max must be at least 1$"):
        random_instance(kind, rng, n_max)
    assert rng.getstate() == state


def test_random_instance_deterministic():
    a = random_instance(FamilyKind.RACAH, random.Random(3), n_max=4)
    b = random_instance(FamilyKind.RACAH, random.Random(3), n_max=4)
    assert a == b


def test_random_instance_drawn_rationals_bounded():
    rng = random.Random(11)
    for kind in ALL_KINDS:
        inst = random_instance(kind, rng, n_max=4)
        for name in ("p", "q", "kappa1", "kappa2"):
            v = getattr(inst, name)
            if v is not None:
                assert abs(v.numerator) <= 20 and v.denominator <= 25

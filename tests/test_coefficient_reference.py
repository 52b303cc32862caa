"""The coefficient layer against plain Fraction arithmetic.

ref_contiguity and ref_algebraic_form write the contiguity coefficients
(families.contiguity) and the closed operator expressions
(coproduct.algebraic_form) out term by term over Fractions, with nothing
folded, memoized or left unreduced: a second implementation of each, and
ref_derived the coefficients read off the contiguity relations
(coproduct.coproduct_coeffs). Every coefficient is compared on the whole
grid, for all six families, over hypothesis draws at n_max <= 6: valid
instances whose parameters and q take either sign, with q below and above 1
in size, and bare FamilyInstance points, which skip validation, where some
bottom vanishes on the grid. There both implementations must raise, and at
the same points: the reference a ZeroDivisionError, the closed forms a
SingularParameterError that names the pole.
"""

from fractions import Fraction as F

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from askeycg.algebras import phi
from askeycg.coproduct import algebraic_form, coproduct_coeffs
from askeycg.exactmath import InvalidParameterError, SingularParameterError
from askeycg.families import (FamilyInstance, FamilyKind, algebra_for, contiguity, labels,
                              make_instance)

ALL_KINDS = list(FamilyKind)
COEFFICIENTS = ("x", "y", "xp", "yp")


def outcome(fn, *args):
    """The value of fn(*args), or ZeroDivisionError when it divides by zero:
    it raises ZeroDivisionError, or SingularParameterError at a closed
    form's pole."""
    try:
        return fn(*args)
    except (ZeroDivisionError, SingularParameterError):
        return ZeroDivisionError


def ref_contiguity(inst: FamilyInstance) -> dict:
    """The contiguity coefficients written out term by term, with nothing
    folded or memoized, as a second implementation of `contiguity`."""
    kind = inst.kind
    a, b, g, q = inst.alpha, inst.beta, inst.gamma, inst.q
    if kind is FamilyKind.HAHN:
        return {
            "alpha1": lambda n, N: (n + a + b + 1) / (2 * n + a + b - N),
            "alpha2": lambda n, N: (n + a + b - N) / (2 * n + a + b - N),
            "beta1": lambda n, N: -(n + 1 + a) * (n + 1) / (2 * n + 2 + a + b - N),
            "beta2": lambda n, N: -(n + 1 + b - N) * (N - n) / (2 * n + 2 + a + b - N),
            "mu": lambda k, N: F(k - N),
        }
    if kind is FamilyKind.KRAWTCHOUK:
        p = inst.p
        return {
            "alpha1": lambda n, N: F(1),
            "alpha2": lambda n, N: F(1),
            "beta1": lambda n, N: -p * (n + 1),
            "beta2": lambda n, N: -(1 - p) * (N - n),
            "mu": lambda k, N: F(k - N),
        }
    if kind is FamilyKind.DUAL_HAHN:
        return {
            "alpha1": lambda n, N: F(1),
            "alpha2": lambda n, N: F(1),
            "beta1": lambda n, N: -(n + 1 + a) * (n + 1),
            "beta2": lambda n, N: (N - n + b) * (n - N),
            "mu": lambda k, N: (k - N) * (N + k + a + b + 1),
        }
    if kind is FamilyKind.RACAH:
        return {
            "alpha1": lambda n, N: (n + a + b + 1) / (2 * n + a + b - N),
            "alpha2": lambda n, N: (n + a + b - N) / (2 * n + a + b - N),
            "beta1": lambda n, N: -(n + b + g + 1) * (n + a + 1) * (n + 1)
                                  / (2 * n + 2 + a + b - N),
            "beta2": lambda n, N: (n + 1 + b - N) * (n + 1 + a - g - N) * (N - n)
                                  / (2 * n + 2 + a + b - N),
            "mu": lambda k, N: (k - N) * (N + k + g),
        }
    shared = {
        "alpha1": lambda n, N: (1 - a * b * q ** (n + 1)) / (1 - a * b * q ** (2 * n - N)),
        "alpha2": lambda n, N: q ** n * (1 - a * b * q ** (n - N))
                               / (1 - a * b * q ** (2 * n - N)),
    }
    if kind is FamilyKind.Q_HAHN:
        return shared | {
            "beta1": lambda n, N: (1 - a * q ** (n + 1)) * (1 - q ** (n + 1))
                                  / (1 - a * b * q ** (2 * n + 2 - N)),
            "beta2": lambda n, N: a * q ** (n + 1) * (1 - b * q ** (n + 1 - N))
                                  * (1 - q ** (N - n)) / (1 - a * b * q ** (2 * n + 2 - N)),
            "mu": lambda k, N: 1 - q ** (N - k),
        }
    return shared | {
        "beta1": lambda n, N: (1 - b * g * q ** (n + 1)) * (1 - a * q ** (n + 1))
                              * (1 - q ** (n + 1)) / (1 - a * b * q ** (2 * n + 2 - N)),
        "beta2": lambda n, N: (1 - b * q ** (n + 1 - N)) * (a * q ** (n + 1) - g * q ** N)
                              * (1 - q ** (N - n)) / (1 - a * b * q ** (2 * n + 2 - N)),
        "mu": lambda k, N: (1 - q ** (N - k)) * (1 - g * q ** (N + k)),
    }


def ref_algebraic_form(inst) -> dict:
    """The closed forms written out term by term in the Cartan and Casimir
    eigenvalues, with nothing folded or tabulated, as a second implementation
    of `algebraic_form`."""
    kind = inst.kind
    a, b, g, q = inst.alpha, inst.beta, inst.gamma, inst.q
    if kind is FamilyKind.KRAWTCHOUK:
        p = inst.p
        return {"x": lambda n, m: F(1), "y": lambda n, m: F(1),
                "xp": lambda n, m: p, "yp": lambda n, m: 1 - p}
    if kind is FamilyKind.HAHN:
        l1, l2 = inst.lambda1, inst.lambda2

        def dd(n, m):
            h1, h2, c1, c2 = l1 + 2 * n, l2 + 2 * m, l1, l2
            return h1 - h2 - c1 + c2 + 2 * a + 2 * b + 2

        return {"x": lambda n, m: (l1 + 2 * n - l1 + 2 * a + 2 * b + 2) / dd(n, m),
                "y": lambda n, m: (l2 - (l2 + 2 * m) + 2 * a + 2 * b + 2) / dd(n, m),
                "xp": lambda n, m: (l1 + 2 * n - l1 + 2 * a + 2) / dd(n, m),
                "yp": lambda n, m: (l2 - (l2 + 2 * m) + 2 * b) / dd(n, m)}
    if kind is FamilyKind.DUAL_HAHN:
        l1, l2 = inst.lambda1, inst.lambda2
        return {"x": lambda n, m: F(1), "y": lambda n, m: F(1),
                "xp": lambda n, m: ((l1 + 2 * n) - l1 + 2 * a + 2) / ((l1 + 2 * n) + l1),
                "yp": lambda n, m: ((l2 + 2 * m) - l2 + 2 * b + 2) / ((l2 + 2 * m) + l2)}
    if kind is FamilyKind.RACAH:
        l1, l2 = inst.lambda1, inst.lambda2

        def dd(n, m):
            return (l1 + 2 * n) - (l2 + 2 * m) - l1 + l2 + 2 * a + 2 * b + 2

        def xp(n, m):
            h1 = l1 + 2 * n
            return ((h1 - l1 + 2 * a + 2) * (h1 - l1 + 2 * b + 2 * g + 2)
                    / ((h1 + l1) * dd(n, m)))

        def yp(n, m):
            h2 = l2 + 2 * m
            return ((l2 - h2 + 2 * b) * (h2 - l2 - 2 * a + 2 * g)
                    / ((h2 + l2) * dd(n, m)))

        return {"x": lambda n, m: ((l1 + 2 * n) - l1 + 2 * a + 2 * b + 2) / dd(n, m),
                "y": lambda n, m: (l2 - (l2 + 2 * m) + 2 * a + 2 * b + 2) / dd(n, m),
                "xp": xp, "yp": yp}
    if kind is FamilyKind.Q_HAHN:
        k1v, k2v = inst.kappa1, inst.kappa2
        c1, c2 = 1 / k1v, 1 / k2v
        ck1 = lambda n: c1 * (k1v * q ** n)
        ck2 = lambda m: c2 * (k2v * q ** m)
        dd = lambda n, m: 1 - q * a * b * ck1(n) / ck2(m)
        return {"x": lambda n, m: (1 - q * a * b * ck1(n)) / dd(n, m),
                "y": lambda n, m: ck1(n) * (1 - q * a * b / ck2(m)) / dd(n, m),
                "xp": lambda n, m: (1 - q * a * ck1(n)) / dd(n, m),
                "yp": lambda n, m: q * a * ck1(n) * (1 - b / ck2(m)) / dd(n, m)}
    kap1, kap2 = inst.kappa1, inst.kappa2
    k1 = lambda n: kap1 * q ** n
    k2 = lambda m: kap2 * q ** m
    dd = lambda n, m: 1 - q * (1 / kap1) * kap2 * a * b * k1(n) / k2(m)
    return {
        "x": lambda n, m: (1 - a * b * q * (1 / kap1) * k1(n)) / dd(n, m),
        "y": lambda n, m: (1 / kap1) * k1(n) * (1 - a * b * q * kap2 / k2(m)) / dd(n, m),
        "xp": lambda n, m: ((1 - q * (1 / kap1) * a * k1(n))
                            * (1 - q * (1 / kap1) * b * g * k1(n))
                            / ((1 - kap1 * k1(n)) * dd(n, m))),
        "yp": lambda n, m: (q * (1 / kap1) * a * k1(n)
                            * (1 - kap2 * b / k2(m)) * (1 - (1 / kap2) * g * k2(m) / a)
                            / ((1 - kap2 * k2(m)) * dd(n, m))),
    }


def ref_derived(inst) -> dict:
    """The coefficients read off the contiguity relations, from
    ref_contiguity: x and y are alpha1 and alpha2, x' and y' are beta1 and
    beta2 over the lowering coefficient phi of the factor they lower."""
    ref, alg, (l1, l2) = ref_contiguity(inst), algebra_for(inst), labels(inst)
    return {"x": lambda n, m: ref["alpha1"](n, n + m - 1),
            "y": lambda n, m: ref["alpha2"](n, n + m - 1),
            "xp": lambda n, m: ref["beta1"](n, n + m + 1) / phi(alg, l1, n + 1),
            "yp": lambda n, m: ref["beta2"](n, n + m + 1) / phi(alg, l2, m + 1)}


def contiguity_points(inst):
    """(n, N) and (k, N) with N up to n_max and n, k one past each end."""
    return [(n, N) for N in range(inst.n_max + 1) for n in range(-1, N + 2)]


def product_points(inst):
    """(n, m) with n and m up to n_max."""
    return [(n, m) for n in range(inst.n_max + 1) for m in range(inst.n_max + 1)]


def outcomes(inst, data, form):
    """Every contiguity coefficient of `data` and every closed form of
    `form` on its grid, in order, each a value or ZeroDivisionError."""
    return ([outcome(data[name], *p) for name in sorted(data) for p in contiguity_points(inst)]
            + [outcome(form[name], *p) for name in COEFFICIENTS for p in product_points(inst)])


def assert_contiguity_matches_reference(inst: FamilyInstance) -> None:
    data, ref = contiguity(inst), ref_contiguity(inst)
    for name, want in ref.items():
        got = getattr(data, name)
        for n, N in contiguity_points(inst):
            assert outcome(got, n, N) == outcome(want, n, N), (name, n, N, inst.to_doc())


def assert_algebraic_form_matches_reference(inst) -> None:
    form, ref = algebraic_form(inst), ref_algebraic_form(inst)
    for name, want in ref.items():
        got = getattr(form, name)
        for n, m in product_points(inst):
            assert outcome(got, n, m) == outcome(want, n, m), (name, n, m, inst.to_doc())


# -- draws ----------------------------------------------------------------------

signs = st.sampled_from((-1, 1))
nonzero = st.builds(lambda s, n, d: F(s * n, d), signs, st.integers(1, 20), st.integers(1, 12))
proper = st.fractions(min_value=F(1, 12), max_value=F(11, 12), max_denominator=12)
qs = st.builds(lambda s, x, big: s * (1 / x if big else x), signs, proper, st.booleans())


@st.composite
def free_parameters(draw, kind):
    """n_max and the free parameters of kind, as make_instance takes them."""
    if kind.is_q:
        params = {"q": draw(qs), "alpha": draw(nonzero), "beta": draw(nonzero),
                  "kappa1": draw(nonzero), "kappa2": draw(nonzero)}
    else:
        names = {FamilyKind.HAHN: ("alpha", "beta"), FamilyKind.KRAWTCHOUK: ("p",),
                 FamilyKind.DUAL_HAHN: ("alpha",), FamilyKind.RACAH: ("alpha", "beta")}[kind]
        params = {name: draw(nonzero) for name in (*names, "lambda1", "lambda2")}
    return draw(st.integers(1, 6)), params


@st.composite
def valid_instances(draw, kind):
    n_max, params = draw(free_parameters(kind))
    try:
        return make_instance(kind, n_max=n_max, **params)
    except InvalidParameterError:
        assume(False)


@st.composite
def vanishing_instances(draw, kind):
    """A bare instance of kind, its constrained parameters resolved as
    make_instance would, with one relation forced that makes a bottom of
    the contiguity coefficients or of the closed forms vanish on the grid:
    alpha + beta = j, or alpha beta = q^j, or a label at a pole of
    h_i + c_i (lambda_i = -i) or of 1 - kappa_i K_i (kappa_i^2 = q^-i), or a
    zero alpha, which the q-Racah y' divides by."""
    n_max, p = draw(free_parameters(kind))
    j = draw(st.integers(-n_max - 1, n_max - 1))
    i = draw(st.integers(0, n_max))
    relation = draw(st.sampled_from({
        FamilyKind.HAHN: ("sum",), FamilyKind.RACAH: ("sum", "label"),
        FamilyKind.DUAL_HAHN: ("label",), FamilyKind.Q_HAHN: ("product",),
        FamilyKind.Q_RACAH: ("product", "kappa", "alpha")}[kind]))
    if relation == "sum":
        p["beta"] = j - p["alpha"]
    elif relation == "product":
        p["beta"] = p["q"] ** j / p["alpha"]
    elif relation == "label":
        p[draw(st.sampled_from(("lambda1", "lambda2")))] = F(-i)
    elif relation == "kappa":
        r = abs(p["q"])
        p["q"], p[draw(st.sampled_from(("kappa1", "kappa2")))] = r * r, r ** -i
    else:
        p["alpha"] = F(0)
    if kind is FamilyKind.DUAL_HAHN:
        p["beta"] = p["lambda1"] + p["lambda2"] - 2 - p["alpha"]
    elif kind is FamilyKind.RACAH:
        p["gamma"] = p["lambda1"] + p["lambda2"] - 1
    elif kind is FamilyKind.Q_RACAH:
        p["gamma"] = p["kappa1"] ** 2 * p["kappa2"] ** 2 / p["q"]
    return FamilyInstance(kind=kind, n_max=n_max, **p)


# -- comparisons ------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_KINDS).flatmap(valid_instances))
def test_every_coefficient_matches_the_fraction_reference(inst):
    assert_contiguity_matches_reference(inst)
    assert_algebraic_form_matches_reference(inst)
    derived, ref = coproduct_coeffs(inst, contiguity(inst)), ref_derived(inst)
    nm = inst.n_max
    for name in COEFFICIENTS:
        lowering = name in ("xp", "yp")
        for s in range(0, nm) if lowering else range(1, nm + 1):
            for n in range(s + 1):
                assert getattr(derived, name)(n, s - n) == ref[name](n, s - n), (
                    name, n, s - n, inst.to_doc())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([k for k in ALL_KINDS if k is not FamilyKind.KRAWTCHOUK])
       .flatmap(vanishing_instances))
def test_a_vanishing_bottom_raises_where_the_reference_does(inst):
    got = outcomes(inst, {name: getattr(contiguity(inst), name) for name in
                          ("alpha1", "alpha2", "beta1", "beta2", "mu")},
                   {name: getattr(algebraic_form(inst), name) for name in COEFFICIENTS})
    want = outcomes(inst, ref_contiguity(inst), ref_algebraic_form(inst))
    assert ZeroDivisionError in want, inst.to_doc()
    assert got == want, inst.to_doc()

from dataclasses import replace
from fractions import Fraction as F

import pytest

from askeycg import coproduct, report

from askeycg.algebras import check_identity, phi, scalar_operator
from askeycg.cgverify import Run, verify_weight_grading
from askeycg.coproduct import (algebraic_form, build_delta, check_algebraic_form,
                               check_homomorphism, check_twist_qracah_specialization,
                               coassoc_constraint, coproduct_coeffs, krawtchouk_coassoc,
                               twist_skip)
from askeycg.exactmath import InvalidParameterError, SingularParameterError
from askeycg.families import (ContiguityData, FamilyInstance, FamilyKind, algebra_for,
                              contiguity, labels, make_instance)
from askeycg.linalg import nullspace
from askeycg.report import first_failure

from test_algebras import with_entry
from test_coefficient_reference import assert_algebraic_form_matches_reference
from test_families import ALL_KINDS, run_with, sample_instance, wide_draws
from test_linalg import to_lists


# -- coefficient functions ----------------------------------------------------

def test_hahn_x_matches_contiguity_coefficient():
    inst = sample_instance(FamilyKind.HAHN)
    cf = coproduct_coeffs(inst, contiguity(inst))
    a, b = inst.alpha, inst.beta
    for N in range(5):
        for n in range(N + 2):
            assert cf.x(n, N + 1 - n) == (n + a + b + 1) / (2 * n + a + b - N)


def test_krawtchouk_coefficients_are_constant():
    inst = sample_instance(FamilyKind.KRAWTCHOUK)
    cf = coproduct_coeffs(inst, contiguity(inst))
    for n in range(4):
        for m in range(4):
            assert cf.x(n, m + 1) == 1 and cf.y(n, m + 1) == 1
            assert cf.xp(n, m) == inst.p and cf.yp(n, m) == 1 - inst.p


def test_dual_hahn_xp_example():
    # alpha = lambda1 - 1 collapses x' to 1
    inst = make_instance(FamilyKind.DUAL_HAHN, lambda1=F(2), lambda2=F(3),
                         alpha=F(1), n_max=5)
    cf = coproduct_coeffs(inst, contiguity(inst))
    for n in range(4):
        for m in range(4):
            assert cf.xp(n, m) == 1


def test_dual_hahn_standard_specialization_all_ones():
    inst = make_instance(FamilyKind.DUAL_HAHN, lambda1=F(5, 2), lambda2=F(7, 3),
                         alpha=F(3, 2), n_max=6)
    assert inst.alpha == inst.lambda1 - 1 and inst.beta == inst.lambda2 - 1
    cf = coproduct_coeffs(inst, contiguity(inst))
    for n in range(5):
        for m in range(5):
            assert cf.xp(n, m) == 1 and cf.yp(n, m) == 1
            assert cf.x(n, m + 1) == 1 and cf.y(n, m + 1) == 1


def test_coefficients_reproduce_contiguity_data():
    for kind in ALL_KINDS:
        inst = sample_instance(kind)
        cf = coproduct_coeffs(inst, contiguity(inst))
        data = contiguity(inst)
        alg = algebra_for(inst)
        l1, l2 = labels(inst)
        for N in range(5):
            for n in range(N + 1):
                assert cf.x(n, N + 1 - n) == data.alpha1(n, N)
                assert cf.y(n, N + 1 - n) == data.alpha2(n, N)
                if n <= N - 1:
                    assert cf.xp(n, N - 1 - n) * phi(alg, l1, n + 1) == data.beta1(n, N)
                    assert cf.yp(n, N - 1 - n) * phi(alg, l2, N - n) == data.beta2(n, N)


# -- operator construction -----------------------------------------------------

def test_weight_diagonal_eigenvalues():
    inst = sample_instance(FamilyKind.RACAH)
    delta = build_delta(inst, contiguity(inst))
    for N in range(inst.n_max + 1):
        blk = delta.hk.dense(N)
        want = inst.lambda1 + inst.lambda2 + 2 * N
        assert all(blk.entry(i, i) == want for i in range(N + 1))


def test_krawtchouk_block0_raising():
    inst = sample_instance(FamilyKind.KRAWTCHOUK)
    delta = build_delta(inst, contiguity(inst))
    blk = delta.e.dense(0)
    assert to_lists(blk) == [[F(1)], [F(1)]]


def test_hahn_lowering_kernel_on_block_one():
    inst = sample_instance(FamilyKind.HAHN)  # alph=1, beta=1/2
    delta = build_delta(inst, contiguity(inst))
    basis = nullspace(delta.f.dense(1))
    assert len(basis) == 1
    v = basis[0]
    v = tuple(x / v[0] for x in v)
    assert v == (F(1), F(-1, 4))
    assert v[1] == -inst.beta / (inst.alpha + 1)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_build_delta_evaluates_cartan_and_phi_once_per_factor_level(kind, monkeypatch):
    inst = sample_instance(kind, n_max=5)
    calls = {}
    for name in ("cartan", "phi"):
        original = getattr(coproduct, name)
        calls[name] = []
        monkeypatch.setattr(coproduct, name, lambda *a, f=original, c=calls[name]:
                            c.append(a) or f(*a))
    build_delta(inst, contiguity(inst))
    levels = inst.n_max + 1  # per factor
    assert len(calls["cartan"]) <= 2 * levels
    assert calls["phi"] == []  # the contiguity weights need no lowering factor


@pytest.mark.parametrize("kind, factor, row, lhs, rhs", [
    (FamilyKind.HAHN, 0, "2", "8", "7"), (FamilyKind.HAHN, 1, "0", "8", "7"),
    (FamilyKind.Q_RACAH, 0, "2", "11/32", "1/96"), (FamilyKind.Q_RACAH, 1, "0", "49/96", "1/96")])
def test_delta_hk_reads_each_entrys_own_cartan_pairs(kind, factor, row, lhs, rhs, monkeypatch):
    # one factor's eigenvalue shifted at its level 2 reaches exactly the
    # entries that read it: grading fails at the first of them, with the
    # witness the per-entry Fractions gave; Delta(H) or Delta(K) shares one
    # Fraction per distinct integer pair, never one per level
    inst = sample_instance(kind, n_max=4)
    label, original = labels(inst)[factor], coproduct.cartan
    monkeypatch.setattr(coproduct, "cartan", lambda alg, x, n: original(alg, x, n)
                        + (x == label and n == 2))
    failed = first_failure(verify_weight_grading(Run(inst)))
    assert failed.to_dict()["witness"] == {"where": {"N": "2", "row": row, "col": row},
                                           "lhs": lhs, "rhs": rhs}


# -- homomorphism ---------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_homomorphism(kind):
    inst = sample_instance(kind)
    assert report.first_failure(check_homomorphism(Run(inst))) is None


def test_hahn_delta_commutator_is_identity():
    inst = sample_instance(FamilyKind.HAHN)
    delta = build_delta(inst, contiguity(inst))
    assert check_identity("commutator", "", range(inst.n_max),
                          [(1, (delta.e, delta.f)), (-1, (delta.f, delta.e))], [(1, ())],
                          delta.e.dims).passed


def test_corrupted_y_fails_homomorphism():
    inst = sample_instance(FamilyKind.HAHN)
    bad = build_delta(inst, data=replace(contiguity(inst), alpha2=lambda n, N: F(1)))
    fail = report.first_failure(check_homomorphism(run_with(inst, delta=bad)))
    assert fail is not None and fail.witness is not None


# -- closed operator expressions ------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_algebraic_form_agreement(kind):
    inst = sample_instance(kind)
    assert report.first_failure(check_algebraic_form(Run(inst))) is None


def test_hahn_localization_denominator():
    inst = sample_instance(FamilyKind.HAHN)
    form = algebraic_form(inst)
    a, b = inst.alpha, inst.beta
    for n in range(4):
        for m in range(4):
            dd = 2 * (n - m) + 2 * a + 2 * b + 2
            assert form.x(n, m) == (2 * n + 2 * a + 2 * b + 2) / dd


def test_racah_raising_second_slot_coefficient():
    inst = sample_instance(FamilyKind.RACAH)
    form = algebraic_form(inst)
    a, b = inst.alpha, inst.beta
    for n in range(4):
        for m in range(4):
            dd = 2 * (n - m) + 2 * a + 2 * b + 2
            assert form.y(n, m) == (2 * a + 2 * b + 2 - 2 * m) / dd


def test_q_hahn_casimir_cartan_product_eigenvalue():
    inst = sample_instance(FamilyKind.Q_HAHN)
    q, a, b = inst.q, inst.alpha, inst.beta
    form = algebraic_form(inst)
    for n in range(4):
        for m in range(4):
            dd = 1 - a * b * q ** (n - m + 1)
            assert form.x(n, m) == (1 - a * b * q ** (n + 1)) / dd


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_algebraic_form_matches_reference_on_sample(kind):
    assert_algebraic_form_matches_reference(sample_instance(kind))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_algebraic_form_matches_reference_on_wide_draws(kind):
    for inst in wide_draws(kind, "algebraic-form"):
        assert_algebraic_form_matches_reference(inst)


def xp_shifted(inst):
    """The contiguity data of inst with phi(label1, n+1) added to beta1(n, N):
    the derived x'(n, m) = beta1(n, n+m+1) / phi(label1, n+1) is shifted by 1."""
    data, alg, (l1, _) = contiguity(inst), algebra_for(inst), labels(inst)
    return replace(data, beta1=lambda n, N: data.beta1(n, N) + phi(alg, l1, n + 1))


@pytest.mark.parametrize("kind, lhs, rhs", [
    (FamilyKind.HAHN, "9/5", "4/5"),
    (FamilyKind.KRAWTCHOUK, "4/3", "1/3"),
    (FamilyKind.DUAL_HAHN, "2", "1"),
    (FamilyKind.RACAH, "70/23", "47/23"),
    (FamilyKind.Q_HAHN, "113/58", "55/58"),
    (FamilyKind.Q_RACAH, "8522/3753", "4769/3753"),
])
def test_algebraic_form_negative_control(kind, lhs, rhs):
    # the derived x' shifted by 1 fails first at the origin: derived side lhs
    inst = sample_instance(kind)
    fail = report.first_failure(check_algebraic_form(run_with(inst, contiguity=xp_shifted(inst))))
    assert fail.name == "xp-agreement"
    assert fail.witness.to_dict() == {"where": {"n": "0", "m": "0"}, "lhs": lhs, "rhs": rhs}


@pytest.mark.parametrize("name, message", [
    ("xp", "phi(label1, 1) = 0"), ("yp", "phi(label2, 1) = 0")])
def test_derived_lowering_coefficient_names_a_vanishing_phi(name, message):
    # a bare dual Hahn instance with lambda1 = lambda2 = 0: the sl2
    # lowering coefficient phi(0, 1) = 0 is the divisor of x'(0, m) and y'(n, 0)
    bare = FamilyInstance(kind=FamilyKind.DUAL_HAHN, n_max=3, alpha=F(1), beta=F(-3),
                          lambda1=F(0), lambda2=F(0))
    with pytest.raises(SingularParameterError) as err:
        getattr(coproduct_coeffs(bare, contiguity(bare)), name)(0, 0)
    assert str(err.value) == message


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_public_coefficients_stay_reduced_fractions(kind):
    inst = sample_instance(kind)
    for coeffs in (algebraic_form(inst), coproduct_coeffs(inst, contiguity(inst))):
        for name in ("x", "y", "xp", "yp"):
            value = getattr(coeffs, name)(1, 1)
            assert type(value) is F, (name, value)


@pytest.mark.parametrize("kind, params, derived, pole", [
    (FamilyKind.HAHN, dict(alpha=F(1), beta=F(-1), lambda1=F(0), lambda2=F(0)),
     ("alpha1", 0, 0), ("x", 0, 1)),
    (FamilyKind.RACAH, dict(alpha=F(1), beta=F(-1), gamma=F(3), lambda1=F(2), lambda2=F(2)),
     ("alpha1", 0, 0), ("x", 0, 1)),
    (FamilyKind.Q_HAHN, dict(q=F(1, 4), alpha=F(2), beta=F(2), kappa1=F(1), kappa2=F(1)),
     ("alpha1", 1, 1), ("xp", 0, 0)),
    (FamilyKind.Q_RACAH, dict(q=F(1, 4), alpha=F(2), beta=F(2), gamma=F(1, 9),
                              kappa1=F(1, 3), kappa2=F(1, 5)),
     ("alpha1", 1, 1), ("xp", 0, 0)),
])
def test_vanishing_closed_form_denominator_raises(kind, params, derived, pole):
    # a bare instance skips make_instance's validation, so the shared
    # denominator dd(n, m) of the closed forms (and of the contiguity
    # coefficients) vanishes on the grid. The derived side raises first,
    # naming the first contiguity pole it reaches, (coefficient, n, N). With
    # the derived side replaced by constants, the closed side names the first
    # pole it reaches, (coefficient, n, m), and algebraic_form the same one.
    bare = FamilyInstance(kind=kind, n_max=3, **params)
    with pytest.raises(SingularParameterError) as err:
        check_algebraic_form(Run(bare))
    assert str(err.value) == "the contiguity coefficient %s(%d, %d) divides by zero" % derived
    constant = ContiguityData(*(lambda n, N: F(7),) * 5)
    name, n, m = pole
    message = f"the closed form of {name}({n}, {m}) divides by zero"
    with pytest.raises(SingularParameterError) as err:
        check_algebraic_form(run_with(bare, contiguity=constant))
    assert str(err.value) == message
    with pytest.raises(SingularParameterError) as err:
        getattr(algebraic_form(bare), name)(n, m)
    assert str(err.value) == message


def counting(monkeypatch, owner, name):
    """Count the calls of owner.name from now on, passing them through."""
    calls = []
    original = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_algebraic_form_check_reduces_only_its_witness(kind, monkeypatch):
    inst = sample_instance(kind)
    shared, shifted = Run(inst), run_with(inst, contiguity=xp_shifted(inst))
    for run in (shared, shifted):
        check_algebraic_form(run)  # every contiguity value is now memoized
    built = counting(monkeypatch, coproduct, "Fraction")
    fractions = counting(monkeypatch, report, "Fraction")
    assert report.first_failure(check_algebraic_form(shared)) is None
    assert (built, fractions) == ([], [])
    results = check_algebraic_form(shifted)
    assert [c.name for c in results if not c.passed] == ["xp-agreement"]
    assert built == [] and len(fractions) == 2


# -- q-Racah specialization and twist --------------------------------------------

def test_twist_specialization_passes():
    for k1, k2 in ((F(2), F(3)), (F(1, 2), F(1, 3))):
        results = check_twist_qracah_specialization(F(1, 4), k1, k2, n_max=6)
        assert report.first_failure(results) is None


@pytest.mark.parametrize("q, k1, k2", [(F(1, 4), F(2), F(3)), (F(1, 4), F(1, 2), F(1, 3)),
                                       (F(-3, 2), F(-2, 5), F(7))])
def test_twist_skip_recognises_the_point_the_check_builds(monkeypatch, q, k1, k2):
    # the check builds its q-Racah point unvalidated; off it in alpha or in
    # beta the rule gives its reason
    built = []
    original = coproduct.build_delta
    monkeypatch.setattr(coproduct, "build_delta",
                        lambda inst, data: built.append(inst) or original(inst, data))
    check_twist_qracah_specialization(q, k1, k2, n_max=2)
    assert [twist_skip(inst) for inst in built] == [None]
    for alpha, beta in ((built[0].alpha + 1, F(0)), (built[0].alpha, F(1, 5))):
        assert twist_skip(replace(built[0], alpha=alpha, beta=beta)) == \
            "needs beta = 0 and alpha = kappa1^2/q"


def test_twist_skip_on_wide_draws_and_a_validated_twist_point():
    for inst in (inst for kind in ALL_KINDS for inst in wide_draws(kind, "twist-skip")):
        if inst.kind is not FamilyKind.Q_RACAH:
            assert twist_skip(inst) == "only defined for q-racah"
        elif inst.beta == 0 and inst.alpha == inst.kappa1 ** 2 / inst.q:
            assert twist_skip(inst) is None
        else:
            assert twist_skip(inst) == "needs beta = 0 and alpha = kappa1^2/q"
    point = make_instance(FamilyKind.Q_RACAH, n_max=3, q=F(1, 4), kappa1=F(1, 2),
                          kappa2=F(1, 3), alpha=F(1), beta=F(0))
    assert twist_skip(point) is None


@pytest.mark.parametrize("n_max", [0, -1, -3])
def test_twist_rejects_vacuous_truncation(n_max):
    # below n_max = 1 the raising checks would compare no block at all
    with pytest.raises(InvalidParameterError, match="n_max"):
        check_twist_qracah_specialization(F(1, 4), F(1, 2), F(1, 3), n_max=n_max)


@pytest.mark.parametrize("q, kappa1, kappa2, message", [
    (F(1), F(1, 2), F(1, 3), "q must avoid {0, 1, -1}"),
    (F(1, 4), F(0), F(1, 3), "kappa labels must be nonzero"),
    (F(1, 4), F(1, 2), F(0), "kappa labels must be nonzero")])
def test_twist_rejects_q_and_kappa_off_their_domain(q, kappa1, kappa2, message):
    with pytest.raises(InvalidParameterError) as err:
        check_twist_qracah_specialization(q, kappa1, kappa2, n_max=2)
    assert str(err.value) == message


def test_twist_block_zero_to_one_coefficients():
    q, k1, k2 = F(1, 4), F(1, 2), F(1, 3)
    inst = make_instance(FamilyKind.Q_RACAH, q=q, kappa1=k1, kappa2=k2,
                         alpha=k1 ** 2 / q, beta=F(0), n_max=4)
    delta = build_delta(inst, contiguity(inst))
    # raising block 0 -> 1: column (0,0) has entries (E x I, kappa1^{-1} K x E)
    blk = delta.e.dense(0)
    assert to_lists(blk) == [[F(1)], [q ** 0]]


def test_beta_zero_collapses_yp():
    q, k1, k2 = F(1, 4), F(1, 2), F(1, 3)
    inst = make_instance(FamilyKind.Q_RACAH, q=q, kappa1=k1, kappa2=k2,
                         alpha=k1 ** 2 / q, beta=F(0), n_max=4)
    cf = coproduct_coeffs(inst, contiguity(inst))
    for n in range(3):
        for m in range(3):
            assert cf.xp(n, m) == 1
            assert cf.yp(n, m) == k1 ** 2 * q ** n


def passed_and_witness(results):
    return [(c.name, c.to_dict()["witness"]) for c in results]


def test_twist_witnesses_on_a_corrupted_delta(monkeypatch):
    build = coproduct.build_delta

    def scaled_lowering(inst, data):
        d = build(inst, data)
        return coproduct.Delta(d.e, with_entry(d.f, 3, (1, 2), 3 * d.f.blocks[3][1, 2]), d.hk)

    monkeypatch.setattr(coproduct, "build_delta", scaled_lowering)
    lowering = {"where": {"block": "3", "row": "1", "col": "2"},
                "lhs": "675/256", "rhs": "225/256"}
    assert passed_and_witness(check_twist_qracah_specialization(F(1, 4), F(1, 2), F(1, 3), 4)) == [
        ("specialized-raising", None), ("specialized-lowering", lowering),
        ("twisted-raising", None), ("twisted-lowering", lowering)]

    def planted_raising(inst, data):
        d = build(inst, data)
        return coproduct.Delta(with_entry(d.e, 2, (3, 1), F(5)), d.f, d.hk)

    monkeypatch.setattr(coproduct, "build_delta", planted_raising)
    where = {"block": "2", "row": "3", "col": "1"}
    assert passed_and_witness(check_twist_qracah_specialization(F(1, 4), F(2), F(3), 4)) == [
        ("specialized-raising", {"where": where, "lhs": "5", "rhs": "0"}),
        ("specialized-lowering", None),
        ("twisted-raising", {"where": where, "lhs": "5/2", "rhs": "0"}),
        ("twisted-lowering", None)]


def test_twist_reads_a_given_delta():
    q, k1, k2 = F(1, 4), F(1, 2), F(1, 3)
    inst = make_instance(FamilyKind.Q_RACAH, q=q, kappa1=k1, kappa2=k2,
                         alpha=k1 ** 2 / q, beta=F(0), n_max=4)
    d = build_delta(inst, contiguity(inst))
    bad = coproduct.Delta(d.e, with_entry(d.f, 3, (1, 2), 3 * d.f.blocks[3][1, 2]), d.hk)
    lowering = {"where": {"block": "3", "row": "1", "col": "2"},
                "lhs": "675/256", "rhs": "225/256"}
    assert passed_and_witness(check_twist_qracah_specialization(q, k1, k2, 4, bad)) == [
        ("specialized-raising", None), ("specialized-lowering", lowering),
        ("twisted-raising", None), ("twisted-lowering", lowering)]


# -- Krawtchouk coassociativity ---------------------------------------------------

def test_coassoc_central_charge_quadruple():
    args = (F(1, 2), F(1, 3), F(1, 6), F(2, 5))
    assert coassoc_constraint(*args)
    assert report.first_failure(krawtchouk_coassoc(*args, n_max=4)) is None


def test_coassoc_all_half_fails_both():
    args = (F(1, 2), F(1, 2), F(1, 2), F(1, 2))
    bad = report.first_failure(krawtchouk_coassoc(*args, n_max=4))
    assert not coassoc_constraint(*args) and bad is not None
    assert bad.witness is not None


def test_coassoc_partial_constraint_not_enough():
    # p2 = p q holds but the second condition fails
    args = (F(1, 2), F(1, 3), F(1, 6), F(1, 2))
    assert not coassoc_constraint(*args)
    assert report.first_failure(krawtchouk_coassoc(*args, n_max=4)) is not None


def test_coassoc_guards_the_constraint_with_its_predicate(monkeypatch):
    # unequal recouplings where coassoc_constraint holds are an internal error
    monkeypatch.setattr(coproduct, "coassoc_constraint", lambda *args: True)
    with pytest.raises(RuntimeError, match="constraint satisfied"):
        krawtchouk_coassoc(F(1, 2), F(1, 2), F(1, 2), F(1, 2))


def test_coassoc_rejects_degenerate_probabilities():
    with pytest.raises(InvalidParameterError):
        krawtchouk_coassoc(F(1, 2), F(1), F(1, 2), F(1, 2))


@pytest.mark.parametrize("n_max", [0, -1, -3])
def test_coassoc_rejects_vacuous_truncation(n_max):
    # below n_max = 1 no block would be compared, so any quadruple would pass
    with pytest.raises(InvalidParameterError):
        krawtchouk_coassoc(F(1, 2), F(1, 3), F(1, 5), F(2, 5), n_max=n_max)


@pytest.mark.parametrize("args, passed", [
    ((F(1, 2), F(1, 3), F(1, 6), F(2, 5)), [True, True, True]),
    ((F(1, 2), F(1, 2), F(1, 2), F(1, 2)), [False])])
def test_coassoc_results_name_their_generator_and_blocks(args, passed):
    # F, E and H in that order, up to the first failure; E has no block n_max
    results = krawtchouk_coassoc(*args, n_max=3)
    assert [(c.name, c.checked_range, c.passed) for c in results] == list(zip(
        ("recoupling-F", "recoupling-E", "recoupling-H"),
        ("blocks 0..3", "blocks 0..2", "blocks 0..3"), passed))


@pytest.mark.parametrize("args,labels,n_max,witness", [
    ((F(1, 2), F(1, 2), F(1, 2), F(1, 2)), (0, 0, 0), 4, (0, "-1/2", "-1/4")),
    ((F(1, 2), F(1, 3), F(1, 6), F(1, 2)), (0, 0, 0), 4, (0, "-1/2", "-5/12")),
    ((F(1, 2), F(1, 3), F(1, 4), F(1, 3)), (F(1), F(2, 3), F(-1, 2)), 3, (1, "-1/3", "-1/4")),
    ((F(1, 3), F(3, 4), F(1, 5), F(2, 7)), (F(4), F(0), F(5, 2)), 2, (0, "-2/3", "-4/7"))])
def test_coassoc_witnesses(args, labels, n_max, witness):
    bad = report.first_failure(krawtchouk_coassoc(*args, module_labels=labels, n_max=n_max))
    col, lhs, rhs = witness
    assert (bad is None, coassoc_constraint(*args)) == (False, False)
    assert ({**bad.witness.where, "lhs": bad.witness.lhs, "rhs": bad.witness.rhs}
            == {"block": 1, "row": 0, "col": col, "lhs": lhs, "rhs": rhs})


@pytest.mark.parametrize("inner_left", [True, False])
def test_recoupled_cartan_acts_as_the_total_weight(inner_left):
    # H x I x I + I x H x I + I x I x H on level N is l1 + l2 + l3 + 2N
    lam, n_max = (F(1), F(2, 3), F(-1, 2)), 3
    dims = tuple((N + 1) * (N + 2) // 2 for N in range(n_max + 1))
    form = algebraic_form(make_instance(FamilyKind.KRAWTCHOUK, p=F(1, 3), n_max=n_max))
    hk = coproduct._recoupling(dims, lam, form, form, inner_left).hk
    total = scalar_operator(dims, lambda N: sum(lam) + 2 * N)
    assert check_identity("weight", "", range(n_max + 1), [(1, (hk,))], [(1, (total,))],
                          dims).passed

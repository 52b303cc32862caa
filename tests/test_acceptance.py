"""Acceptance suite.

One test per criterion, each printing a single pass/fail line. Everything is
exact rational arithmetic: the tolerance everywhere is zero, and the limit
criteria use the exact first-order ratio bound 2*z1/z2 (= 1/500 for the
standard pair z = 10^3, 10^6).
"""

import random
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

from askeycg.algebras import (AlgebraKind, AlgebraTag, Generators, GradedOperator,
                              ModuleSpec, build_generators, casimir, casimir_eigenvalue,
                              check_relations, phi, scalar_operator)
from askeycg.cgverify import (CGBlock, Run, WeightSolutionError, cg_block,
                              lowest_weight_oracle, orthogonality_weights,
                              random_instance, verify_lowering, verify_raising)
from askeycg.coproduct import (Delta, check_algebraic_form, check_homomorphism,
                               check_twist_qracah_specialization, coassoc_constraint,
                               coproduct_coeffs, krawtchouk_coassoc)
from askeycg.families import (ContiguityData, FamilyKind, algebra_for, check_contiguity,
                              check_three_term_dual_hahn, contiguity, labels,
                              limit_hahn_to_krawtchouk, limit_racah_to_dual_hahn,
                              make_instance, poly_value)
from askeycg.cgverify import verify_weight_grading
from askeycg.linalg import RatMat
from askeycg.report import first_failure

from test_families import run_with

ALL_KINDS = list(FamilyKind)
N_MAX = 8
DRAWS = 5


def _draws(kind: FamilyKind, n_max: int = N_MAX):
    rng = random.Random(f"acceptance:{kind.value}")
    return [random_instance(kind, rng, n_max=n_max) for _ in range(DRAWS)]


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_contiguity_suite():
    worst = 0.0
    for kind in ALL_KINDS:
        t0 = time.perf_counter()
        for inst in _draws(kind):
            bad = first_failure(check_contiguity(Run(inst)))
            assert bad is None, (kind.value, inst.to_doc(), bad)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        assert elapsed < 5.0, f"{kind.value} took {elapsed:.2f}s"
    _report(1, "contiguity suite, 6 families x 5 draws, N<8", True,
            f"slowest family {worst:.2f}s")


def test_criterion_02_dual_hahn_three_term():
    values = [F(2), F(3), F(5, 2), F(7, 3)]
    for l1 in values:
        for l2 in values:
            inst = make_instance(FamilyKind.DUAL_HAHN, lambda1=l1, lambda2=l2,
                                 alpha=l1 - 1, n_max=N_MAX)
            bad = first_failure(check_three_term_dual_hahn(Run(inst)))
            assert bad is None, (l1, l2, bad)
    _report(2, "dual Hahn three-term recurrence, 16 label pairs, N<=8", True)


def test_criterion_03_representation_suite():
    mods = [
        ModuleSpec(AlgebraKind(AlgebraTag.OSC), F(5), 8),
        ModuleSpec(AlgebraKind(AlgebraTag.SL2), F(3), 8),
        ModuleSpec(AlgebraKind(AlgebraTag.OSC_Q, F(1, 4)), F(2, 3), 8),
        ModuleSpec(AlgebraKind(AlgebraTag.UQ_SL2, F(9, 16)), F(2, 5), 8),
    ]
    expected_eigenvalues = [F(5), F(3), F(3, 2), -(F(2, 5) / F(9, 16) + F(5, 2))]
    for mod, eig in zip(mods, expected_eigenvalues):
        results = check_relations(mod)
        assert first_failure(results) is None and not any(c.skipped for c in results), \
            (mod.algebra.tag, first_failure(results))
        assert [c.passed for c in casimir(mod)] == [True], mod.algebra.tag
        assert casimir_eigenvalue(mod) == eig, mod.algebra.tag
    _report(3, "defining relations and scalar Casimir, 4 algebras, levels=8", True)


def test_criterion_04_homomorphism_suite():
    for kind in ALL_KINDS:
        for inst in _draws(kind):
            bad = first_failure(check_homomorphism(Run(inst)))
            assert bad is None, (kind.value, inst.to_doc(), bad)
    _report(4, "coproduct homomorphism, 6 families x 5 draws, blocks<=7", True)


def test_criterion_05_cg_equivalence():
    for kind in ALL_KINDS:
        for inst in _draws(kind):
            run = Run(inst)
            oracle = lowest_weight_oracle(run)
            for N in range(N_MAX + 1):
                assert oracle[N].P == cg_block(inst, N).P, \
                    (kind.value, N, inst.to_doc())
            assert [c.passed for c in verify_raising(run)] == [True] * N_MAX, kind.value
            assert [c.passed for c in verify_lowering(run)] == [True] * N_MAX, kind.value
    _report(5, "CG blocks equal the lowest-weight oracle; raising/lowering "
               "exact incl. top-column annihilation", True)


def test_criterion_06_algebraic_form_agreement():
    for kind in ALL_KINDS:
        for inst in _draws(kind):
            bad = first_failure(check_algebraic_form(Run(inst)))
            assert bad is None, (kind.value, inst.to_doc(), bad)
    _report(6, "closed coproduct expressions match contiguity-derived "
               "coefficients everywhere", True)


def test_criterion_07_specializations():
    # (a) dual Hahn at alpha = lambda1 - 1: the standard sl2 coproduct
    for l1, l2 in ((F(2), F(3)), (F(5, 2), F(7, 3)), (F(4), F(3, 2))):
        inst = make_instance(FamilyKind.DUAL_HAHN, lambda1=l1, lambda2=l2,
                             alpha=l1 - 1, n_max=6)
        cf = coproduct_coeffs(inst, contiguity(inst))
        for n in range(6):
            for m in range(6):
                assert cf.xp(n, m) == 1 and cf.yp(n, m) == 1
                assert cf.x(n, m + 1) == 1 and cf.y(n, m + 1) == 1
    # (b) q-Racah at beta = 0, alpha = kappa1^2/q, plus the twist
    for q, k1, k2 in ((F(1, 4), F(1, 2), F(1, 3)), (F(1, 4), F(2), F(3))):
        bad = first_failure(check_twist_qracah_specialization(q, k1, k2, n_max=6))
        assert bad is None, (q, k1, k2, bad)
    _report(7, "standard-coproduct specializations and the diagonal twist", True)


def test_criterion_08_limits():
    zs = [F(10) ** 3, F(10) ** 6]
    for N in range(5):
        for k in range(N + 1):
            for n in range(N + 1):
                results = limit_hahn_to_krawtchouk(F(1, 3), zs, n, k, N)
                assert first_failure(results) is None, (n, k, N, first_failure(results))
    results = limit_racah_to_dual_hahn(F(1), F(2), F(3), zs, n_max=4)
    assert first_failure(results) is None, first_failure(results)
    _report(8, "Hahn->Krawtchouk and Racah->dual Hahn first-order limits, "
               "ratio bound 2*10^-3", True)


def test_criterion_09_coassociativity():
    pinned = (F(1, 2), F(1, 3), F(1, 6), F(2, 5))
    assert coassoc_constraint(*pinned)
    assert first_failure(krawtchouk_coassoc(*pinned, n_max=4)) is None
    pinned = (F(1, 2), F(1, 2), F(1, 2), F(1, 2))
    assert not coassoc_constraint(*pinned)
    assert first_failure(krawtchouk_coassoc(*pinned, n_max=4)) is not None

    rng = random.Random("acceptance:coassoc")

    def unit():
        den = rng.randint(2, 12)
        return F(rng.randint(1, den - 1), den)

    quadruples = []
    for _ in range(50):
        quadruples.append((unit(), unit(), unit(), unit()))
    for _ in range(50):
        # central charges generate constraint-satisfying quadruples
        c1, c2, c3 = (F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(3))
        quadruples.append((
            (c1 + c2) / (c1 + c2 + c3),   # p
            c1 / (c1 + c2),               # q
            c1 / (c1 + c2 + c3),          # p2
            c2 / (c2 + c3),               # q2
        ))
    exceptions = 0
    for p, q, p2, q2 in quadruples:
        equal = first_failure(krawtchouk_coassoc(p, q, p2, q2, n_max=4)) is None
        holds = coassoc_constraint(p, q, p2, q2)
        if holds and not equal:
            exceptions += 1
        # the converse also holds for this coproduct: equality forces the constraint
        assert equal == holds, (p, q, p2, q2)
    assert exceptions == 0
    _report(9, "recoupling equality iff the probability constraint, "
               "100 quadruples + 2 pinned", True)


def test_criterion_10_orthogonality():
    for kind in ALL_KINDS:
        for inst in _draws(kind):
            run = Run(inst)
            for N in range(N_MAX + 1):
                w = orthogonality_weights(run, N)
                assert all(x != 0 for x in w.omega_prime)
    _report(10, "one-dimensional weight solution with nonvanishing norms, "
                "6 families x 5 draws, N<=8", True)


def test_criterion_11_negative_controls():
    witnesses = []

    # contiguity: alpha2 doubled
    inst = make_instance(FamilyKind.HAHN, alpha=F(1), beta=F(1, 2), n_max=4)
    data = contiguity(inst)
    results = check_contiguity(run_with(inst, contiguity=ContiguityData(
        alpha1=data.alpha1, alpha2=lambda n, N: 2 * data.alpha2(n, N),
        beta1=data.beta1, beta2=data.beta2, mu=data.mu)))
    witnesses.append(("contiguity", first_failure(results)))

    # three-term: mu off by one
    dh = make_instance(FamilyKind.DUAL_HAHN, lambda1=F(2), lambda2=F(3),
                       alpha=F(1), n_max=4)
    results = check_three_term_dual_hahn(
        Run(dh), mu_fn=lambda k, N: (N - k + 1) * (N + k + 5) + 1)
    witnesses.append(("three-term", first_failure(results)))

    # representation relations: lowering sign flipped
    mod = ModuleSpec(AlgebraKind(AlgebraTag.SL2), F(3), 4)
    gens = build_generators(mod)
    bad_f = GradedOperator(-1, gens.f.dims, {n: {ij: -v for ij, v in b.items()}
                                             for n, b in gens.f.blocks.items()})
    results = check_relations(mod, Generators(gens.e, bad_f, gens.hk))
    witnesses.append(("relations", first_failure(results)))

    # homomorphism: y coefficient replaced by 1
    hahn = make_instance(FamilyKind.HAHN, alpha=F(1), beta=F(1, 2), n_max=4)
    results = check_homomorphism(run_with(
        hahn, contiguity=replace(contiguity(hahn), alpha2=lambda n, N: F(1))))
    witnesses.append(("homomorphism", first_failure(results)))

    # algebraic form: derived xp shifted, by phi(label1, n+1) added to beta1
    data, l1 = contiguity(hahn), labels(hahn)[0]
    results = check_algebraic_form(run_with(hahn, contiguity=replace(
        data, beta1=lambda n, N: data.beta1(n, N) + phi(algebra_for(hahn), l1, n + 1))))
    witnesses.append(("algebraic-form", first_failure(results)))

    # raising: binomial prefactor dropped from the blocks
    from askeycg.exactmath import binomial
    corrupt = {N: CGBlock.from_matrix(N, RatMat.build(
        N + 1, N + 1, lambda n, k, N=N: poly_value(hahn, n, k, N) / binomial(N, n)))
        for N in range(5)}
    witnesses.append(("raising", first_failure(verify_raising(run_with(hahn, blocks=corrupt)))))

    # lowering: same corruption; N = 2 is the smallest level where a
    # binomial prefactor differs from 1
    witnesses.append(("lowering", first_failure(verify_lowering(run_with(hahn, blocks=corrupt)))))

    # weight grading: Delta(H) shifted by one
    delta = Run(hahn).delta
    bad_delta = Delta(delta.e, delta.f, scalar_operator(
        delta.hk.dims, lambda N: hahn.lambda1 + hahn.lambda2 + 2 * N + 1))
    results = verify_weight_grading(run_with(hahn, delta=bad_delta))
    witnesses.append(("grading", first_failure(results)))

    expected = {
        "contiguity": ("raising-contiguity", {"N": "0", "n": "0", "k": "0"}, "1", "2"),
        "three-term": ("three-term-recurrence", {"N": "0", "n": "0", "k": "0"}, "5", "6"),
        "relations": ("sl2-commutator", {"level": "0", "row": "0", "col": "0"}, "-3", "3"),
        "homomorphism": ("oscillator-commutator", {"level": "1", "row": "0", "col": "1"},
                         "8/15", "0"),
        "algebraic-form": ("xp-agreement", {"n": "0", "m": "0"}, "9/5", "4/5"),
        "raising": ("raising", {"N": "1", "n": "1", "k": "0"}, "2", "1"),
        "lowering": ("lowering", {"N": "2", "n": "0", "k": "0"}, "-2/3", "-2"),
        "grading": ("weight-grading", {"N": "0", "row": "0", "col": "0"}, "1", "0"),
    }
    for name, fail in witnesses:
        assert fail is not None, f"{name} missed the corruption"
        assert fail.witness is not None, f"{name} failure carries no witness"
        check, where, lhs, rhs = expected[name]
        assert (fail.name, fail.witness.to_dict()) == \
            (check, {"where": where, "lhs": lhs, "rhs": rhs}), name

    # orthogonality: a singular block must be refused loudly
    with pytest.raises(WeightSolutionError):
        orthogonality_weights(run_with(hahn, blocks={1: CGBlock.from_matrix(1, RatMat.from_rows(
            [[F(1), F(1)], [F(1), F(1)]]))}), 1)

    _report(11, "every suite pinpoints an injected corruption with a witness",
            True, f"{len(witnesses)} suites + orthogonality guard")

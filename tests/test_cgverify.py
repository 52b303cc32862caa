from fractions import Fraction as F

import pytest

from askeycg.cgverify import (CGBlock, WeightData, WeightSolutionError, cg_block,
                              lowest_weight_oracle, orthogonality_weights,
                              tensor_lowering_eigenvalue, verify_lowering,
                              verify_raising, verify_weight_grading)
from askeycg.coproduct import build_delta, tensor_module
from askeycg.exactmath import binomial, q_binomial
from askeycg.families import FamilyKind, poly_value
from askeycg.linalg import RatMat, inverse

from test_families import ALL_KINDS, sample_instance


def test_block_zero_is_unit():
    inst = sample_instance(FamilyKind.Q_RACAH)
    assert cg_block(inst, 0).P.to_lists() == [[F(1)]]


def test_dual_hahn_block_one():
    inst = sample_instance(FamilyKind.DUAL_HAHN)
    assert cg_block(inst, 1).P.to_lists() == [[F(1), F(1)], [F(1), F(-3, 2)]]


def test_first_column_is_binomial_vector():
    for kind in ALL_KINDS:
        inst = sample_instance(kind)
        blk = cg_block(inst, 3)
        for n in range(4):
            want = q_binomial(3, n, inst.q) if kind.is_q else binomial(3, n)
            assert blk.P.entry(n, 0) == want


# -- raising / lowering -------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_raising_and_lowering(kind):
    inst = sample_instance(kind)
    tm = tensor_module(inst)
    for N in range(tm.n_max):
        assert verify_raising(inst, tm, N).passed
    for N in range(1, tm.n_max + 1):
        assert verify_lowering(inst, tm, N).passed


def test_krawtchouk_pascal_row():
    inst = sample_instance(FamilyKind.KRAWTCHOUK)
    tm = tensor_module(inst)
    delta = build_delta(inst, tm)
    image = delta.e.dense(0) @ cg_block(inst, 0).P
    assert image.column(0) == (F(1), F(1))
    assert cg_block(inst, 1).P.column(0) == (F(1), F(1))


def test_raising_detects_missing_binomial_prefactor():
    inst = sample_instance(FamilyKind.HAHN)
    tm = tensor_module(inst)

    def corrupt(N):
        return CGBlock(N, RatMat.build(
            N + 1, N + 1,
            lambda n, k: poly_value(inst, n, k, N) / binomial(N, n)))

    blocks = {N: corrupt(N) for N in range(tm.n_max + 1)}
    rep = verify_raising(inst, tm, 1, blocks)
    fail = rep.first_failure()
    assert fail is not None and fail.witness is not None


def test_lowering_annihilates_top_column():
    for kind in ALL_KINDS:
        inst = sample_instance(kind)
        tm = tensor_module(inst)
        delta = build_delta(inst, tm)
        for N in range(1, 4):
            image = delta.f.dense(N) @ cg_block(inst, N).P
            assert all(image.entry(n, N) == 0 for n in range(N))


def test_dual_hahn_lowering_eigenvalue():
    inst = sample_instance(FamilyKind.DUAL_HAHN)
    l1, l2 = inst.lambda1, inst.lambda2
    for N in range(1, 5):
        for k in range(N):
            want = -(N - k) * (N + k + l1 + l2 - 1)
            assert tensor_lowering_eigenvalue(inst, k, N - k) == want


def test_q_racah_lowering_eigenvalue():
    inst = sample_instance(FamilyKind.Q_RACAH)
    q, k1, k2 = inst.q, inst.kappa1, inst.kappa2
    for N in range(1, 5):
        for k in range(N):
            want = (1 - q ** (N - k)) * (1 - q ** (N + k - 1) * k1 ** 2 * k2 ** 2)
            assert tensor_lowering_eigenvalue(inst, k, N - k) == want


# -- lowest-weight oracle -----------------------------------------------------

def test_oracle_block_one_hahn():
    inst = sample_instance(FamilyKind.HAHN)
    oracle = lowest_weight_oracle(inst, tensor_module(inst))
    assert oracle[1].P.column(1) == (F(1), F(-1, 4))


def test_oracle_block_one_standard_sl2():
    inst = sample_instance(FamilyKind.DUAL_HAHN)
    oracle = lowest_weight_oracle(inst, tensor_module(inst))
    assert oracle[1].P.column(1) == (F(1), -inst.lambda2 / inst.lambda1)


def test_oracle_first_column_trivial_kernel():
    inst = sample_instance(FamilyKind.Q_HAHN)
    oracle = lowest_weight_oracle(inst, tensor_module(inst))
    assert oracle[0].P.to_lists() == [[F(1)]]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_oracle_equals_polynomial_blocks(kind):
    inst = sample_instance(kind, n_max=5)
    oracle = lowest_weight_oracle(inst, tensor_module(inst))
    for N in range(6):
        assert oracle[N].P == cg_block(inst, N).P


# -- orthogonality weights ----------------------------------------------------

def test_weights_block_zero():
    inst = sample_instance(FamilyKind.HAHN)
    w = orthogonality_weights(inst, 0)
    assert w.omega == (F(1),) and w.omega_prime == (F(1),)


def test_weights_dual_hahn_example():
    inst = sample_instance(FamilyKind.DUAL_HAHN)
    w = orthogonality_weights(inst, 1)
    assert w.omega == (F(1), F(2, 3))
    assert w.omega_prime == (F(5, 3), F(5, 2))


def test_weights_orthogonalize_exactly():
    for kind in ALL_KINDS:
        inst = sample_instance(kind)
        for N in range(5):
            P = cg_block(inst, N).P
            w = orthogonality_weights(inst, N)
            for k in range(N + 1):
                for l in range(N + 1):
                    s = sum((P.entry(n, k) * P.entry(n, l) * w.omega[n]
                             for n in range(N + 1)), F(0))
                    assert s == (w.omega_prime[l] if k == l else 0)


def test_krawtchouk_weights_positive():
    inst = sample_instance(FamilyKind.KRAWTCHOUK)
    for N in range(7):
        w = orthogonality_weights(inst, N)
        assert all(x > 0 for x in w.omega)
        assert all(x > 0 for x in w.omega_prime)


def test_weights_reject_singular_block():
    inst = sample_instance(FamilyKind.HAHN)
    bad = CGBlock(1, RatMat.from_rows([[F(1), F(1)], [F(1), F(1)]]))
    with pytest.raises(WeightSolutionError):
        orthogonality_weights(inst, 1, bad)


# -- weight grading -----------------------------------------------------------

def test_weight_grading_all_families():
    for kind in ALL_KINDS:
        inst = sample_instance(kind)
        assert verify_weight_grading(inst, tensor_module(inst)).passed


def test_weight_grading_eigenvalues():
    inst = sample_instance(FamilyKind.DUAL_HAHN)
    tm = tensor_module(inst)
    delta = build_delta(inst, tm)
    assert delta.hk.dense(0).entry(0, 0) == inst.lambda1 + inst.lambda2
    assert delta.hk.dense(3).entry(1, 1) == inst.lambda1 + inst.lambda2 + 6
    qinst = sample_instance(FamilyKind.Q_RACAH)
    qdelta = build_delta(qinst, tensor_module(qinst))
    assert (qdelta.hk.dense(2).entry(0, 0)
            == qinst.kappa1 * qinst.kappa2 * qinst.q ** 2)


def test_weight_grading_negative_control():
    inst = sample_instance(FamilyKind.HAHN)
    tm = tensor_module(inst)
    delta = build_delta(inst, tm)
    from askeycg.algebras import scalar_operator
    from askeycg.coproduct import Delta
    bad = Delta(delta.e, delta.f,
                scalar_operator(delta.hk.dims,
                                lambda N: inst.lambda1 + inst.lambda2 + 2 * N + 1))
    rep = verify_weight_grading(inst, tm, bad)
    fail = rep.first_failure()
    assert fail is not None and fail.witness is not None


# -- basis change -------------------------------------------------------------

def test_lowering_is_diagonalized_in_cg_basis():
    inst = sample_instance(FamilyKind.RACAH)
    tm = tensor_module(inst)
    delta = build_delta(inst, tm)
    for N in range(1, 5):
        u_here = cg_block(inst, N).P
        u_below = cg_block(inst, N - 1).P
        recoupled = inverse(u_below) @ delta.f.dense(N) @ u_here
        for k in range(N + 1):
            for row in range(N):
                want = (tensor_lowering_eigenvalue(inst, k, N - k)
                        if (row == k and k < N) else F(0))
                assert recoupled.entry(row, k) == want


# -- serialization ------------------------------------------------------------

def test_cg_block_doc_round_trip():
    inst = sample_instance(FamilyKind.Q_RACAH)
    blk = cg_block(inst, 3)
    assert CGBlock.from_doc(blk.to_doc()) == blk


def test_weight_data_doc_round_trip():
    inst = sample_instance(FamilyKind.RACAH)
    w = orthogonality_weights(inst, 3)
    assert WeightData.from_doc(w.to_doc()) == w

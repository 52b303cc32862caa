import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import askeycg.cgverify as cgverify
from askeycg.algebras import GradedOperator, scalar_operator
from askeycg.cgverify import (CGBlock, WeightData, WeightSolutionError, _draw_params,
                              cg_block, lowest_weight_oracle, orthogonality_weights,
                              random_instance, tensor_lowering_eigenvalue,
                              verify_lowering, verify_raising, verify_weight_grading)
from askeycg.cli import run_verify_suite
from askeycg.coproduct import Delta, build_delta, tensor_module
from askeycg.exactmath import InvalidParameterError, binomial, q_binomial
from askeycg.families import FamilyKind, make_instance, poly_value
from askeycg.linalg import RatMat

from test_families import ALL_KINDS, sample_instance
from test_linalg import inverse, matmul, to_lists


def test_block_zero_is_unit():
    inst = sample_instance(FamilyKind.Q_RACAH)
    assert to_lists(cg_block(inst, 0).P) == [[F(1)]]


def test_dual_hahn_block_one():
    inst = sample_instance(FamilyKind.DUAL_HAHN)
    assert to_lists(cg_block(inst, 1).P) == [[F(1), F(1)], [F(1), F(-3, 2)]]


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
    image = matmul(delta.e.dense(0), cg_block(inst, 0).P)
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
            image = matmul(delta.f.dense(N), cg_block(inst, N).P)
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
    assert to_lists(oracle[0].P) == [[F(1)]]


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


# -- orthogonality weights from T_N = Delta(E) Delta(F) ------------------------

def weights_or_error(inst, N, blk, delta=None):
    try:
        return orthogonality_weights(inst, N, blk, delta)
    except WeightSolutionError as exc:
        return f"error: {exc}"


def assert_paths_agree(inst):
    """The certified guess from Delta gives what the full solve gives, block
    by block, WeightData or error message."""
    delta = build_delta(inst, tensor_module(inst))
    for N in range(inst.n_max + 1):
        blk = cg_block(inst, N)
        assert weights_or_error(inst, N, blk, delta) == weights_or_error(inst, N, blk)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS), seed=st.integers(0, 10 ** 6),
       n_max=st.integers(1, 6))
def test_symmetrizer_path_equals_full_solve(kind, seed, n_max):
    try:
        inst = make_instance(kind, n_max=n_max,
                             **_draw_params(kind, random.Random(seed)))
    except InvalidParameterError:
        assume(False)
    assert_paths_agree(inst)


def test_symmetrizer_path_on_degenerate_racah_point():
    # T_N is reducible on blocks 2..4, which fall back and fail as in
    # tests/golden/racah-degenerate.json: "Omega_0 vanishes"
    inst = make_instance("racah", n_max=4, alpha=F(1, 3), beta=F(1),
                         lambda1=F(3, 2), lambda2=F(5))
    assert_paths_agree(inst)
    delta = build_delta(inst, tensor_module(inst))
    failed = {N: weights_or_error(inst, N, cg_block(inst, N), delta) for N in range(5)}
    assert {N: err for N, err in failed.items() if isinstance(err, str)} == {
        N: "error: weight normalization Omega_0 vanishes" for N in (2, 3, 4)}


def spy_callers(monkeypatch, name):
    """Record the name of the function calling askeycg.cgverify.<name>."""
    callers = []
    original = getattr(cgverify, name)

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args)

    monkeypatch.setattr(cgverify, name, spy)
    return callers


def with_f_entry_scaled(delta, level, ij, factor):
    f = delta.f
    blocks = {n: dict(b) for n, b in f.blocks.items()}
    blocks[level][ij] *= factor
    return Delta(delta.e, GradedOperator(f.degree, f.dims, blocks), delta.hk)


def test_corrupted_delta_falls_back_to_the_same_verdict(monkeypatch):
    # one I x F entry of level 3 feeds T_3[2][1], so only block 3's guess is wrong
    inst = sample_instance(FamilyKind.RACAH)
    good = build_delta(inst, tensor_module(inst))
    bad = with_f_entry_scaled(good, 3, (1, 1), 2)
    blocks = [cg_block(inst, N) for N in range(inst.n_max + 1)]
    want = [orthogonality_weights(inst, N, blk) for N, blk in enumerate(blocks)]
    want_report = run_verify_suite(inst, ["orthogonality"]).to_dict()
    rank_callers = spy_callers(monkeypatch, "rank")
    assert [orthogonality_weights(inst, N, blk, bad) for N, blk in enumerate(blocks)] == want
    assert rank_callers == ["orthogonality_weights"]  # block 3 took the full solve
    monkeypatch.setattr("askeycg.cli.build_delta", lambda *args, **kwargs: bad)
    assert run_verify_suite(inst, ["orthogonality"]).to_dict() == want_report


def test_unconstrained_weights_are_not_certified():
    # P = I leaves every Omega a solution; the guess from a real Delta solves
    # the system and has nonzero norms, yet it is not the only solution
    inst = sample_instance(FamilyKind.HAHN)
    delta = build_delta(inst, tensor_module(inst))
    eye = CGBlock(2, RatMat.build(3, 3, lambda i, j: F(i == j)))
    with pytest.raises(WeightSolutionError, match="has dimension 3, expected 1"):
        orthogonality_weights(inst, 2, eye, delta)


def test_vanishing_norm_is_not_certified():
    # T_1 = [[*, 1], [-1, *]] guesses Omega = (1, -1): it solves the one
    # off-diagonal row of P = [[1, 1], [1, 1]] uniquely, but both norms vanish
    inst = sample_instance(FamilyKind.HAHN)
    dims = (1, 2)
    e = GradedOperator(1, dims, {0: {(0, 0): F(1), (1, 0): F(1)}})
    f = GradedOperator(-1, dims, {0: {}, 1: {(0, 0): F(-1), (0, 1): F(1)}})
    delta = Delta(e, f, scalar_operator(dims, lambda n: 1))
    bad = CGBlock(1, RatMat.from_rows([[F(1), F(1)], [F(1), F(1)]]))
    with pytest.raises(WeightSolutionError, match="CG block 1 is singular"):
        orthogonality_weights(inst, 1, bad, delta)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_verify_suite_certifies_weights_without_a_solve(kind, monkeypatch):
    inst = sample_instance(kind)
    rank_callers = spy_callers(monkeypatch, "rank")
    nullspace_callers = spy_callers(monkeypatch, "nullspace")
    assert run_verify_suite(inst).passed
    assert "orthogonality_weights" not in rank_callers + nullspace_callers
    assert "lowest_weight_oracle" in nullspace_callers  # the spy sees calls
    rank_callers.clear()
    nullspace_callers.clear()
    orthogonality_weights(inst, 2)  # no Delta, no guess: the full solve
    assert rank_callers == nullspace_callers == ["orthogonality_weights"]


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
        recoupled = matmul(matmul(inverse(u_below), delta.f.dense(N)), u_here)
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

# -- random draws -------------------------------------------------------------

# random_instance(kind, random.Random(seed), n_max=6).to_doc() for every family
# and seeds 0-2, less kind and n_max: what the acceptance predicate (every
# block 1..n_max admits orthogonality weights) let through when recorded
PINNED_DRAWS = {
    ("hahn", 0): {"alpha": "13/14", "beta": "2/9", "lambda1": "17/16", "lambda2": "13/10"},
    ("hahn", 1): {"alpha": "5/19", "beta": "1/3", "lambda1": "1/4", "lambda2": "15/16"},
    ("hahn", 2): {"alpha": "2/3", "beta": "1/4", "lambda1": "3/5", "lambda2": "9/20"},
    ("krawtchouk", 0): {"p": "13/14", "lambda1": "7", "lambda2": "9/17"},
    ("krawtchouk", 1): {"p": "5/6", "lambda1": "1/3", "lambda2": "1/4"},
    ("krawtchouk", 2): {"p": "1/3", "lambda1": "1/4", "lambda2": "3/5"},
    ("dual-hahn", 0): {"alpha": "580/567", "beta": "145/1134", "lambda1": "27/14", "lambda2": "11/9"},
    ("dual-hahn", 1): {"alpha": "136/285", "beta": "34/285", "lambda1": "24/19", "lambda2": "4/3"},
    ("dual-hahn", 2): {"alpha": "11/14", "beta": "11/84", "lambda1": "5/3", "lambda2": "5/4"},
    ("racah", 0): {"alpha": "8/9", "beta": "13/14", "gamma": "271/126", "lambda1": "27/14", "lambda2": "11/9"},
    ("racah", 1): {"alpha": "4/5", "beta": "1/2", "gamma": "91/57", "lambda1": "24/19", "lambda2": "4/3"},
    ("racah", 2): {"alpha": "6/7", "beta": "5/11", "gamma": "23/12", "lambda1": "5/3", "lambda2": "5/4"},
    ("q-hahn", 0): {"alpha": "2/3", "beta": "8/9", "q": "4/9", "kappa1": "13/14", "kappa2": "8/11"},
    ("q-hahn", 1): {"alpha": "1/2", "beta": "4/5", "q": "1/16", "kappa1": "1/2", "kappa2": "13/14"},
    ("q-hahn", 2): {"alpha": "1/2", "beta": "6/7", "q": "1/4", "kappa1": "5/11", "kappa2": "5/8"},
    ("q-racah", 0): {"alpha": "2/3", "beta": "8/9", "gamma": "6084/5929", "q": "4/9", "kappa1": "13/14", "kappa2": "8/11"},
    ("q-racah", 1): {"alpha": "1/2", "beta": "4/5", "gamma": "169/49", "q": "1/16", "kappa1": "1/2", "kappa2": "13/14"},
    ("q-racah", 2): {"alpha": "1/2", "beta": "6/7", "gamma": "625/1936", "q": "1/4", "kappa1": "5/11", "kappa2": "5/8"},
}


@pytest.mark.parametrize("kind,seed", sorted(PINNED_DRAWS))
def test_random_instance_draws_pinned(kind, seed):
    inst = random_instance(kind, random.Random(seed), n_max=6)
    assert inst.to_doc() == {"kind": kind, "n_max": "6", **PINNED_DRAWS[kind, seed]}

from fractions import Fraction as F

import pytest

from askeycg.algebras import (AlgebraKind, AlgebraTag, GradedOperator, Generators,
                              ModuleSpec, block_entries, build_generators, casimir,
                              check_relations, identity_operator, phi,
                              scalar_operator, first_block_mismatch,
                              tensor_operator)
from askeycg.report import first_mismatch

from test_linalg import to_lists

OSC = AlgebraKind(AlgebraTag.OSC)
SL2 = AlgebraKind(AlgebraTag.SL2)


def oscq(q):
    return AlgebraKind(AlgebraTag.OSC_Q, F(q))


def uqsl2(q):
    return AlgebraKind(AlgebraTag.UQ_SL2, F(q))


def test_phi_values():
    assert phi(OSC, F(7), 3) == -3
    assert phi(SL2, F(2), 1) == -2
    assert phi(uqsl2(F(1, 2)), F(2), 1) == F(-3, 2)
    assert phi(oscq(F(1, 2)), F(5), 2) == F(3, 4)
    for alg, label in ((OSC, F(4)), (SL2, F(3, 2)),
                       (oscq(F(1, 4)), F(2)), (uqsl2(F(1, 4)), F(1, 3))):
        assert phi(alg, label, 0) == 0


def test_osc_commutator_is_identity():
    gens = build_generators(ModuleSpec(OSC, F(5), 2))
    comm = gens.e @ gens.f - gens.f @ gens.e
    assert first_block_mismatch(comm, identity_operator(comm.dims), range(2)) is None


def test_sl2_commutator_is_h():
    gens = build_generators(ModuleSpec(SL2, F(2), 2))
    comm = gens.e @ gens.f - gens.f @ gens.e
    assert first_block_mismatch(comm, gens.hk, range(2)) is None


def test_oscq_commutator():
    q = F(1, 2)
    gens = build_generators(ModuleSpec(oscq(q), F(1), 3))
    lhs = (gens.e @ gens.f).scaled(q) - gens.f @ gens.e
    rhs = scalar_operator(lhs.dims, lambda n: q - 1)
    assert first_block_mismatch(lhs, rhs, range(3)) is None


def test_degree_bookkeeping():
    gens = build_generators(ModuleSpec(SL2, F(7, 2), 4))
    assert gens.e.degree == 1 and gens.f.degree == -1 and gens.hk.degree == 0
    he = gens.hk @ gens.e - gens.e @ gens.hk
    assert he.degree == 1
    assert first_block_mismatch(he, gens.e.scaled(2), range(4)) is None


@pytest.mark.parametrize("algebra,label", [
    (OSC, F(17, 5)), (SL2, F(7, 3)),
    (oscq(F(9, 16)), F(2, 7)), (uqsl2(F(9, 16)), F(3, 5)),
])
def test_check_relations_passes(algebra, label):
    rep = check_relations(ModuleSpec(algebra, label, 8))
    assert rep.passed
    assert not any(c.skipped for c in rep.checks)


def test_uqsl2_standard_form_skipped_for_non_square_q():
    rep = check_relations(ModuleSpec(uqsl2(F(1, 2)), F(3), 4))
    std = next(c for c in rep.checks if c.name == "uq-sl2-standard-form")
    assert std.skipped
    others = [c for c in rep.checks if not c.skipped]
    assert others and all(c.passed for c in others)


def test_corrupted_phi_fails_with_witness():
    mod = ModuleSpec(OSC, F(0), 4)
    gens = build_generators(mod)
    bad_f = GradedOperator(-1, gens.f.dims,
                           gens.f.scaled(-1).blocks)
    rep = check_relations(mod, Generators(gens.e, bad_f, gens.hk))
    bad = rep.first_failure()
    assert bad is not None and bad.witness is not None
    assert int(bad.witness.where["level"]) <= 1


def test_casimir_eigenvalues():
    assert casimir(ModuleSpec(OSC, F(5), 6)).eigenvalue == 5
    assert casimir(ModuleSpec(SL2, F(3), 6)).eigenvalue == 3
    assert casimir(ModuleSpec(uqsl2(F(1, 2)), F(2), 6)).eigenvalue == F(-9, 2)
    assert casimir(ModuleSpec(oscq(F(1, 4)), F(2, 3), 6)).eigenvalue == F(3, 2)
    for mod in (ModuleSpec(OSC, F(5), 6), ModuleSpec(SL2, F(3), 6),
                ModuleSpec(uqsl2(F(1, 2)), F(2), 6),
                ModuleSpec(oscq(F(1, 4)), F(2, 3), 6)):
        assert casimir(mod).ok


def test_casimir_commutes_with_e_and_f():
    for mod in (ModuleSpec(OSC, F(7, 4), 6), ModuleSpec(SL2, F(5, 2), 6),
                ModuleSpec(uqsl2(F(9, 16)), F(2, 5), 6)):
        gens = build_generators(mod)
        c = casimir(mod, gens).op
        lhs, rhs = c @ gens.e, gens.e @ c
        assert first_block_mismatch(lhs, rhs, range(mod.levels - 1)) is None
        lhs, rhs = c @ gens.f, gens.f @ c
        assert first_block_mismatch(lhs, rhs, range(mod.levels - 1)) is None


def test_composition_associative_and_degree_additive():
    gens = build_generators(ModuleSpec(SL2, F(9, 4), 5))
    a, b, c = gens.e, gens.f, gens.hk
    left = (a @ b) @ c
    right = a @ (b @ c)
    assert left.degree == right.degree == a.degree + b.degree + c.degree
    assert first_block_mismatch(left, right, sorted(set(left.blocks) & set(right.blocks))) is None


def test_graded_operator_serialization_round_trip():
    gens = build_generators(ModuleSpec(oscq(F(1, 4)), F(2, 3), 3))
    doc = gens.f.to_doc()
    back = GradedOperator.from_doc(doc, gens.f.dims)
    assert back == gens.f
    assert doc["blocks"][0] == {"N": 0, "rows": 0, "cols": 1, "entries": []}


def test_graded_operator_from_doc_rejects_wrong_block_shape():
    gens = build_generators(ModuleSpec(OSC, F(2), 3))
    doc = gens.f.to_doc()
    # level 2 of a lowering map on a single module is 1x1; this record is 2x2
    doc["blocks"][2] = {"N": 2, "rows": 2, "cols": 2,
                        "entries": [["1", "0"], ["0", "1"]]}
    with pytest.raises(ValueError):
        GradedOperator.from_doc(doc, gens.f.dims)


def test_block_entries_witness_is_row_major_first():
    # the differing entries are stored in reverse row-major order
    lhs = GradedOperator(0, (1, 3), {0: {}, 1: {(2, 0): F(5), (0, 1): F(7)}})
    rhs = GradedOperator(0, (1, 3), {0: {}, 1: {}})
    assert list(lhs.blocks[1]) == [(2, 0), (0, 1)]
    assert first_block_mismatch(lhs, rhs, range(2)) == (1, 0, 1, F(7), F(0))
    res = first_mismatch("m", "", block_entries(lhs, rhs, range(2)))
    assert res.witness.where == {"level": 1, "row": 0, "col": 1}


def test_tensor_operator_on_three_fold_module():
    # level 1 basis (0,0,1), (0,1,0), (1,0,0); level 2 basis (0,0,2), (0,1,1),
    # (0,2,0), (1,0,1), (1,1,0), (2,0,0)
    dims = (1, 3, 6)
    raise_middle = tensor_operator(dims, (0, +1, 0),
                                   lambda c: 1 + c[0] + 2 * c[1] + 4 * c[2])
    assert raise_middle.degree == 1 and sorted(raise_middle.blocks) == [0, 1]
    assert to_lists(raise_middle.dense(1)) == [
        [0, 0, 0], [5, 0, 0], [0, 3, 0], [0, 0, 0], [0, 0, 2], [0, 0, 0]]
    # lowering a vacuum factor contributes nothing, and coeff is not evaluated there
    lower_first = tensor_operator(dims, (-1, 0, 0), lambda c: F(1, c[0]))
    assert lower_first.shape(0) == (0, 1) and lower_first.blocks[0] == {}
    assert to_lists(lower_first.dense(1)) == [[0, 0, 1]]
    assert to_lists(lower_first.dense(2)) == [
        [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, F(1, 2)]]

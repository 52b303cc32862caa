from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from askeycg.algebras import (AlgebraKind, AlgebraTag, GradedOperator, Generators,
                              ModuleSpec, block_entries, build_generators, casimir,
                              check_relations, identity_operator, phi,
                              scalar_operator, first_block_mismatch,
                              tensor_operator)
from askeycg.exactmath import InvalidParameterError
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


@pytest.mark.parametrize("algebra", [oscq(F(1, 4)), uqsl2(F(1, 4))])
def test_zero_label_on_q_algebra_rejected(algebra):
    # kappa = q^(lambda/2) is never 0; K^{-1} and the Casimir would divide by it
    with pytest.raises(InvalidParameterError, match="label"):
        ModuleSpec(algebra, F(0), 3)


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


# -- the operator kernels against a Fraction reference -------------------------
# ref_* are the per-term Fraction kernels GradedOperator used before it formed
# each entry as an integer pair; they return blocks as entry maps without zeros.

def ref_matmul(a, b):
    out = {}
    for n, right in b.blocks.items():
        mid = n + b.degree
        if mid >= 0 and mid not in a.blocks:
            continue
        by_col = {}
        for (i, k), v in a.blocks.get(mid, {}).items():
            by_col.setdefault(k, []).append((i, v))
        acc = {}
        for (k, j), w in right.items():
            for i, v in by_col.get(k, ()):
                acc[i, j] = acc.get((i, j), 0) + v * w
        out[n] = {ij: v for ij, v in acc.items() if v}
    return out


def ref_merge(a, b, op):
    zero = F(0)
    out = {}
    for n in a.blocks.keys() & b.blocks.keys():
        x, y = a.blocks[n], b.blocks[n]
        out[n] = {ij: v for ij in x.keys() | y.keys()
                  if (v := op(x.get(ij, zero), y.get(ij, zero)))}
    return out


def ref_scaled(a, s):
    return {n: {ij: s * v for ij, v in b.items() if s * v} for n, b in a.blocks.items()}


def ref_apply(a, level, vec):
    out = [F(0)] * a.shape(level)[0]
    for (i, j), v in a.blocks[level].items():
        out[i] += v * vec[j]
    return tuple(out)


def assert_entry_maps(op, degree, want):
    assert op.degree == degree and op.blocks.keys() == want.keys()
    for n, block in op.blocks.items():
        assert block.keys() == want[n].keys()
        assert all(type(v) is F and v != 0 for v in block.values())
        assert block == want[n]


SMALL = st.sampled_from([F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(3, 4), F(-4, 3)])
WIDE = st.builds(F, st.one_of(st.integers(-60, 60), st.integers(2 ** 200, 2 ** 203),
                              st.integers(-2 ** 203, -2 ** 200)),
                 st.one_of(st.integers(1, 12), st.integers(2 ** 200, 2 ** 201))).filter(bool)
VALUES = st.one_of(SMALL, WIDE)


@st.composite
def modules(draw):
    return tuple(draw(st.integers(1, 4)) for _ in range(draw(st.integers(1, 6))))


@st.composite
def operators(draw, dims, degree):
    """Random sparse operator; a block goes missing now and then, as after a
    truncated composition."""
    blocks = {}
    for n in range(len(dims)):
        tgt = n + degree
        if tgt >= len(dims) or draw(st.integers(0, 5)) == 0:
            continue
        keys = [(i, j) for i in range(dims[tgt] if tgt >= 0 else 0) for j in range(dims[n])]
        chosen = draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
        blocks[n] = {ij: draw(VALUES) for ij in chosen}
    return GradedOperator(degree, dims, blocks)


def plant_product_zeros(draw, a, b):
    """Rewrite b so that, now and then, two products of one entry of a @ b
    cancel: a[i,k1] b[k1,j] + a[i,k2] b[k2,j] = 0."""
    blocks = {n: dict(blk) for n, blk in b.blocks.items()}
    for n, blk in blocks.items():
        left = a.blocks.get(n + b.degree, {})
        rows = {}
        for (i, k), v in left.items():
            rows.setdefault(i, []).append((k, v))
        pairs = [r for r in rows.values() if len(r) >= 2]
        if not pairs or not draw(st.booleans()):
            continue
        (k1, v1), (k2, v2) = draw(st.sampled_from(pairs))[:2]
        j = draw(st.integers(0, b.dims[n] - 1))
        w1 = blk.setdefault((k1, j), draw(VALUES))
        blk[k2, j] = -v1 * w1 / v2
    return GradedOperator(b.degree, b.dims, blocks)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_matmul_matches_fraction_reference(data):
    dims = data.draw(modules())
    a = data.draw(operators(dims, data.draw(st.sampled_from([-1, 0, 1]))))
    b = data.draw(operators(dims, data.draw(st.sampled_from([-1, 0, 1]))))
    b = plant_product_zeros(data.draw, a, b)
    assert_entry_maps(a @ b, a.degree + b.degree, ref_matmul(a, b))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_sum_and_difference_match_fraction_reference(data):
    dims = data.draw(modules())
    degree = data.draw(st.sampled_from([-1, 0, 1]))
    a = data.draw(operators(dims, degree))
    b = data.draw(operators(dims, degree))
    # entries of a copied into b, negated or not, cancel in a + b or a - b
    for n, blk in b.blocks.items():
        for ij, v in a.blocks.get(n, {}).items():
            if data.draw(st.integers(0, 2)) == 0:
                blk[ij] = data.draw(st.sampled_from([v, -v]))
    b = GradedOperator(degree, dims, b.blocks)
    assert_entry_maps(a + b, degree, ref_merge(a, b, lambda x, y: x + y))
    assert_entry_maps(a - b, degree, ref_merge(a, b, lambda x, y: x - y))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), s=st.one_of(st.just(0), st.just(F(0)), st.integers(-5, 5),
                                   st.integers(2 ** 200, 2 ** 201), VALUES))
def test_scaled_matches_fraction_reference(data, s):
    dims = data.draw(modules())
    a = data.draw(operators(dims, data.draw(st.sampled_from([-1, 0, 1]))))
    assert_entry_maps(a.scaled(s), a.degree, ref_scaled(a, s))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_apply_matches_fraction_reference(data):
    dims = data.draw(modules())
    a = data.draw(operators(dims, data.draw(st.sampled_from([-1, 0, 1]))))
    assume(a.blocks)
    level = data.draw(st.sampled_from(sorted(a.blocks)))
    cols = a.shape(level)[1]
    ints = st.one_of(st.integers(-9, 9), st.integers(2 ** 200, 2 ** 201))
    vec = data.draw(st.lists(st.one_of(ints, VALUES) if data.draw(st.booleans())
                             else ints, min_size=cols, max_size=cols))
    # a vector that the row of two stored entries maps to zero
    row = [(j, v) for (i, j), v in a.blocks[level].items() if i == 0]
    if len(row) >= 2 and data.draw(st.booleans()):
        (j1, v1), (j2, v2) = row[:2]
        vec[j2] = -v1 * F(vec[j1]) / v2
    got = a.apply(level, vec)
    assert all(type(x) is F for x in got)
    assert got == ref_apply(a, level, vec)
    with pytest.raises(ValueError):
        a.apply(level, vec + [1])

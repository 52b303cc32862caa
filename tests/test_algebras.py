import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from askeycg.algebras import (AlgebraKind, AlgebraTag, GradedOperator, Generators,
                              ModuleSpec, build_generators, casimir, casimir_eigenvalue, cartan,
                              check_identity, check_relations, invert_diagonal, phi,
                              rational_sqrt, scalar_operator, tensor_operator,
                              _relation_checks, _uqsl2_standard_form_check)
from askeycg.coproduct import build_delta, check_homomorphism
from askeycg.exactmath import InvalidParameterError
from askeycg.families import FamilyKind, algebra_for, contiguity, labels, make_instance
from askeycg.report import CheckResult, first_failure

from test_families import ALL_KINDS, run_with, sample_instance, wide_instance
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


@pytest.mark.parametrize("tag, q, message", [
    (AlgebraTag.OSC_Q, None, "osc-q needs q"),
    (AlgebraTag.UQ_SL2, F(-1), "q must avoid {0, 1, -1}"),
    (AlgebraTag.SL2, F(1, 2), "sl2 takes no q")])
def test_algebra_kind_rejects_a_q_off_its_tag(tag, q, message):
    with pytest.raises(InvalidParameterError) as err:
        AlgebraKind(tag, q)
    assert str(err.value) == message


def test_operator_misuse_raises():
    dims = (1, 2, 3)  # a two-fold tensor module up to level 2
    e = tensor_operator(dims, ((+1, 0), lambda c: 1))
    cases = [
        (lambda: e.shape(2), "no block at level 2"),
        (lambda: e.shape(-1), "no block at level -1"),
        (lambda: e @ scalar_operator((1, 2), lambda n: 1), "operators live on different modules"),
        (lambda: invert_diagonal(e), "only degree-0 operators can be inverted blockwise"),
        (lambda: invert_diagonal(tensor_operator(dims, ((+1, -1), lambda c: 1))),
         "block is not diagonal"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


def ref_phi(alg, label, n):
    """phi written out over Fractions, one factor at a time."""
    if alg.tag is AlgebraTag.OSC:
        return F(-n)
    if alg.tag is AlgebraTag.SL2:
        return -F(n) * (F(n) + label - 1)
    q = alg.q
    one_minus_qn = 1 - q ** n
    if alg.tag is AlgebraTag.OSC_Q:
        return one_minus_qn
    return one_minus_qn * (1 - q ** (n - 1) * label * label)


def ref_cartan(alg, label, n):
    return label * alg.q ** n if alg.is_q else label + F(2 * n)


PIN_QS = (F(1, 4), F(-2, 3), F(5, 2), F(-7, 3))  # both signs, |q| below and above 1


@pytest.mark.parametrize("alg", [OSC, SL2] + [make(q) for make in (oscq, uqsl2)
                                              for q in PIN_QS], ids=repr)
@pytest.mark.parametrize("label", [F(7, 3), F(-5, 2), F(1), F(-3)])
def test_phi_and_cartan_match_fraction_reference(alg, label):
    for n in range(9):
        assert phi(alg, label, n) == ref_phi(alg, label, n), (n,)
    for n in range(-3, 9):  # cartan also answers below level 0
        assert cartan(alg, label, n) == ref_cartan(alg, label, n), (n,)
    with pytest.raises(ValueError):
        phi(alg, label, -1)


def test_scalar_operator_evaluates_value_once_per_level():
    levels = []
    op = scalar_operator((1, 2, 3, 4), lambda n: levels.append(n) or F(n, 3))
    assert levels == [0, 1, 2, 3]
    assert op.blocks[3] == {(i, i): F(1) for i in range(4)}


@pytest.mark.parametrize("zero", [0, F(0)], ids=["int", "Fraction"])
def test_constructors_store_no_zero_coefficients(zero):
    dims = (1, 2, 3)  # a two-fold tensor module
    op = tensor_operator(dims, ((0, 0), lambda c: zero if c[0] % 2 else c[1] + 1))
    assert op.blocks == {0: {(0, 0): F(1)}, 1: {(0, 0): F(2)},
                         2: {(0, 0): F(3), (2, 2): F(1)}}
    assert all(type(v) is F for b in op.blocks.values() for v in b.values())
    assert scalar_operator(dims, lambda n: zero) == GradedOperator(
        0, dims, {n: {} for n in range(len(dims))})
    partly = scalar_operator(dims, lambda n: zero if n == 1 else n + 1)
    assert partly.blocks == {0: {(0, 0): F(1)}, 1: {}, 2: {(i, i): F(3) for i in range(3)}}


def test_osc_commutator_is_identity():
    gens = build_generators(ModuleSpec(OSC, F(5), 2))
    comm = ref_lin((1, ref_mul(gens.e, gens.f)), (-1, ref_mul(gens.f, gens.e)))
    assert ref_check("c", "", comm, ref_scalar(comm.dims, 1), range(2)).passed


def test_sl2_commutator_is_h():
    gens = build_generators(ModuleSpec(SL2, F(2), 2))
    comm = ref_lin((1, ref_mul(gens.e, gens.f)), (-1, ref_mul(gens.f, gens.e)))
    assert ref_check("c", "", comm, gens.hk, range(2)).passed


def test_oscq_commutator():
    q = F(1, 2)
    gens = build_generators(ModuleSpec(oscq(q), F(1), 3))
    lhs = ref_lin((q, ref_mul(gens.e, gens.f)), (-1, ref_mul(gens.f, gens.e)))
    rhs = scalar_operator(lhs.dims, lambda n: q - 1)
    assert ref_check("c", "", lhs, rhs, range(3)).passed


def test_degree_bookkeeping():
    gens = build_generators(ModuleSpec(SL2, F(7, 2), 4))
    assert gens.e.degree == 1 and gens.f.degree == -1 and gens.hk.degree == 0
    assert (gens.hk @ gens.e).degree == (gens.e @ gens.hk).degree == 1
    assert check_identity("c", "", range(4), [(1, (gens.hk, gens.e)), (-1, (gens.e, gens.hk))],
                          [(2, (gens.e,))], gens.e.dims).passed


@pytest.mark.parametrize("algebra,label", [
    (OSC, F(17, 5)), (SL2, F(7, 3)),
    (oscq(F(9, 16)), F(2, 7)), (uqsl2(F(9, 16)), F(3, 5)),
])
def test_check_relations_passes(algebra, label):
    results = check_relations(ModuleSpec(algebra, label, 8))
    assert first_failure(results) is None
    assert not any(c.skipped for c in results)


@pytest.mark.parametrize("algebra", [oscq(F(1, 4)), uqsl2(F(1, 4))])
def test_zero_label_on_q_algebra_rejected(algebra):
    # kappa = q^(lambda/2) is never 0; K^{-1} and the Casimir would divide by it
    with pytest.raises(InvalidParameterError, match="label"):
        ModuleSpec(algebra, F(0), 3)


@pytest.mark.parametrize("levels", [0, -1, -5])
@pytest.mark.parametrize("algebra", [OSC, SL2, oscq(F(1, 4)), uqsl2(F(1, 4))], ids=repr)
def test_module_without_a_level_above_zero_rejected(algebra, levels):
    # at levels 0 no relation or Casimir entry would be compared: a vacuous pass
    with pytest.raises(InvalidParameterError, match="levels"):
        ModuleSpec(algebra, F(2), levels)


def test_uqsl2_standard_form_skipped_for_non_square_q():
    results = check_relations(ModuleSpec(uqsl2(F(1, 2)), F(3), 4))
    std = next(c for c in results if c.name == "uq-sl2-standard-form")
    assert std.skipped
    others = [c for c in results if not c.skipped]
    assert others and all(c.passed for c in others)


def test_corrupted_phi_fails_with_witness():
    mod = ModuleSpec(OSC, F(0), 4)
    gens = build_generators(mod)
    bad_f = GradedOperator(-1, gens.f.dims, {n: {ij: -v for ij, v in b.items()}
                                             for n, b in gens.f.blocks.items()})
    bad = first_failure(check_relations(mod, Generators(gens.e, bad_f, gens.hk)))
    assert bad is not None and bad.witness is not None
    assert int(bad.witness.where["level"]) <= 1


def test_casimir_eigenvalues():
    assert casimir_eigenvalue(ModuleSpec(OSC, F(5), 6)) == 5
    assert casimir_eigenvalue(ModuleSpec(SL2, F(3), 6)) == 3
    assert casimir_eigenvalue(ModuleSpec(uqsl2(F(1, 2)), F(2), 6)) == F(-9, 2)
    assert casimir_eigenvalue(ModuleSpec(oscq(F(1, 4)), F(2, 3), 6)) == F(3, 2)
    for mod in (ModuleSpec(OSC, F(5), 6), ModuleSpec(SL2, F(3), 6),
                ModuleSpec(uqsl2(F(1, 2)), F(2), 6),
                ModuleSpec(oscq(F(1, 4)), F(2, 3), 6)):
        assert [c.passed for c in casimir(mod)] == [True]


def test_casimir_commutes_with_e_and_f():
    for mod in (ModuleSpec(OSC, F(7, 4), 6), ModuleSpec(SL2, F(5, 2), 6),
                ModuleSpec(uqsl2(F(9, 16)), F(2, 5), 6)):
        gens = build_generators(mod)
        c, _ = ref_casimir_operator(mod, gens.e, gens.f, gens.hk)
        for g in (gens.e, gens.f):
            assert ref_check("commute", "", ref_mul(c, g), ref_mul(g, c),
                             range(mod.levels - 1)).passed


def test_composition_associative_and_degree_additive():
    gens = build_generators(ModuleSpec(SL2, F(9, 4), 5))
    a, b, c = gens.e, gens.f, gens.hk
    left = (a @ b) @ c
    right = a @ (b @ c)
    assert left.degree == right.degree == a.degree + b.degree + c.degree
    common = left.blocks.keys() & right.blocks.keys()
    assert common and all(left.blocks[n] == right.blocks[n] for n in common)


@pytest.mark.parametrize("level_key", ["level", "N"])
def test_check_identity_witness_is_row_major_first(level_key):
    # the differing entries are stored in reverse row-major order
    lhs = GradedOperator(0, (1, 3), {0: {}, 1: {(2, 0): F(5), (0, 1): F(7)}})
    rhs = GradedOperator(0, (1, 3), {0: {}, 1: {}})
    assert list(lhs.blocks[1]) == [(2, 0), (0, 1)]
    res = check_identity("m", "r", range(2), [(1, (lhs,))], [(1, (rhs,))], lhs.dims, level_key)
    assert res == CheckResult.fail("m", "r", {level_key: 1, "row": 0, "col": 1}, F(7), F(0))


def test_check_identity_rejects_terms_of_different_modules_or_degrees():
    gens = build_generators(ModuleSpec(OSC, F(1), 3))
    longer = build_generators(ModuleSpec(OSC, F(1), 4))
    # the raising maps agree on the levels both have: a silent pass before
    for lhs, rhs in (([(1, (gens.e,))], [(1, (gens.f,))]),
                     ([(1, (gens.e, gens.f))], [(1, (gens.hk,)), (1, (gens.e,))]),
                     ([(1, (gens.e,))], [(1, (longer.e,))])):
        with pytest.raises(ValueError, match="different modules or degrees"):
            check_identity("c", "", range(2), lhs, rhs, gens.e.dims)


@pytest.mark.parametrize("levels", [[-1], [4], [4, 0], [-1, 0]])
@pytest.mark.parametrize("sides", [([(2, ())], [(1, ())]), ([(1, ())], [(1, ()), (1, ())])])
def test_check_identity_levels_outside_the_module_have_no_block(levels, sides):
    # dims (1, 1, 1, 1): the sides differ on every level there is, so a level
    # outside 0..3 read as some level (-1 as the top one) would give a witness;
    # it has no block, for the identity term too, and is reached first
    dims = build_generators(ModuleSpec(SL2, F(3), 3)).e.dims
    assert dims == (1, 1, 1, 1)
    bad = levels[0]
    with pytest.raises(ValueError, match=f"block {bad} outside the checked operators"):
        check_identity("x", "", levels, *sides, dims)


def test_check_identity_decides_levels_in_order_up_to_a_missing_block():
    dims = (1, 1, 1, 1)
    full = {n: {(0, 0): F(n + 1)} for n in range(4)}

    def cut(blocks, drop, change=None):
        return GradedOperator(0, dims, {n: ({(0, 0): F(9)} if n == change else b)
                                        for n, b in blocks.items() if n != drop})

    ref = GradedOperator(0, dims, full)
    # a level that fails before the missing one gives its witness
    res = check_identity("w", "r", range(4), [(1, (cut(full, 3, change=1),))],
                         [(1, (ref,))], dims)
    assert res == CheckResult.fail("w", "r", {"level": 1, "row": 0, "col": 0}, F(9), F(2))
    # a missing level reached before any failure raises, whatever fails after it
    with pytest.raises(ValueError, match="block 2 outside the checked operators"):
        check_identity("w", "r", range(4), [(1, (cut(full, 2, change=3),))],
                       [(1, (ref,))], dims)
    # levels are decided in the order given
    res = check_identity("w", "r", [3, 1], [(1, (cut(full, None, change=1),))],
                         [(1, (cut(full, None, change=3),))], dims)
    assert res.witness.where == {"level": 3, "row": 0, "col": 0}


def test_tensor_operator_on_three_fold_module():
    # level 1 basis (0,0,1), (0,1,0), (1,0,0); level 2 basis (0,0,2), (0,1,1),
    # (0,2,0), (1,0,1), (1,1,0), (2,0,0)
    dims = (1, 3, 6)
    raise_middle = tensor_operator(dims, ((0, +1, 0),
                                          lambda c: 1 + c[0] + 2 * c[1] + 4 * c[2]))
    assert raise_middle.degree == 1 and sorted(raise_middle.blocks) == [0, 1]
    assert to_lists(raise_middle.dense(1)) == [
        [0, 0, 0], [5, 0, 0], [0, 3, 0], [0, 0, 0], [0, 0, 2], [0, 0, 0]]
    # lowering a vacuum factor contributes nothing, and coeff is not evaluated there
    lower_first = tensor_operator(dims, ((-1, 0, 0), lambda c: F(1, c[0])))
    assert lower_first.shape(0) == (0, 1) and lower_first.blocks[0] == {}
    assert to_lists(lower_first.dense(1)) == [[0, 0, 1]]
    assert to_lists(lower_first.dense(2)) == [
        [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, F(1, 2)]]


def test_tensor_operator_sums_terms_of_distinct_shifts():
    # level 1 basis (0,1), (1,0); level 2 basis (0,2), (1,1), (2,0)
    dims = (1, 2, 3)
    calls = []
    op = tensor_operator(dims, ((+1, 0), lambda c: calls.append((1, c)) or 1 + c[1]),
                         ((0, +1), lambda c: calls.append((2, c)) or F(1, 2 + c[0])))
    assert op.degree == 1 and sorted(op.blocks) == [0, 1]
    assert to_lists(op.dense(0)) == [[F(1, 2)], [1]]
    assert to_lists(op.dense(1)) == [[F(1, 2), 0], [2, F(1, 3)], [0, 1]]
    # each term is evaluated level by level before the next term
    assert calls == [(1, (0, 0)), (1, (0, 1)), (1, (1, 0)), (2, (0, 0)), (2, (0, 1)), (2, (1, 0))]
    for terms in ([((+1, 0), lambda c: 1), ((+1, 0), lambda c: 2)],
                  [((+1, 0), lambda c: 1), ((0, -1), lambda c: 2)]):
        with pytest.raises(ValueError, match="distinct shifts of one degree"):
            tensor_operator(dims, *terms)


# -- the operator kernels against a Fraction reference -------------------------
# ref_* are per-term Fraction kernels of composition, sum, scaling and apply;
# they return blocks as entry maps without zeros.

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


@st.composite
def diagonal_operators(draw, dims):
    """Random degree-0 operator with diagonal blocks; a block or a diagonal
    entry goes missing now and then."""
    blocks = {}
    for n, d in enumerate(dims):
        if draw(st.integers(0, 5)):
            blocks[n] = {(i, i): draw(VALUES) for i in range(d) if draw(st.integers(0, 4))}
    return GradedOperator(0, dims, blocks)


def factor(draw, dims):
    """(operator, whether it is diagonal)"""
    if draw(st.booleans()):
        return draw(diagonal_operators(dims)), True
    return draw(operators(dims, draw(st.sampled_from([-1, 0, 1])))), False


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_matmul_matches_fraction_reference(data):
    dims = data.draw(modules())
    (a, _), (b, b_diagonal) = factor(data.draw, dims), factor(data.draw, dims)
    if not b_diagonal:
        b = plant_product_zeros(data.draw, a, b)
    assert_entry_maps(a @ b, a.degree + b.degree, ref_matmul(a, b))


# -- the operator identities against a composition-based reference -----------
# Each side is composed with the ref_* kernels above and compared entry by
# entry, row-major; no GradedOperator kernel takes part.

def ref_mul(a, b):
    return GradedOperator(a.degree + b.degree, a.dims, ref_matmul(a, b))


def ref_lin(*terms):
    """The sum of s * op over the (s, op) terms, all of one degree."""
    out = None
    for s, op in terms:
        term = GradedOperator(op.degree, op.dims, ref_scaled(op, F(s)))
        out = term if out is None else GradedOperator(
            op.degree, op.dims, ref_merge(out, term, lambda x, y: x + y))
    return out


def ref_scalar(dims, value):
    return GradedOperator(0, dims, {n: {(i, i): F(value) for i in range(d)}
                                    for n, d in enumerate(dims)})


def ref_check(name, checked_range, lhs, rhs, levels, level_key="level"):
    """The row-major first entry where the composed sides differ."""
    zero = F(0)
    for n in levels:
        a, b = lhs.blocks.get(n), rhs.blocks.get(n)
        if a is None or b is None:
            raise ValueError(f"block {n} outside the checked operators")
        for i, j in sorted(a.keys() | b.keys()):
            x, y = a.get((i, j), zero), b.get((i, j), zero)
            if x != y:
                return CheckResult.fail(name, checked_range,
                                        {level_key: n, "row": i, "col": j}, x, y)
    return CheckResult.ok(name, checked_range)


def ref_relation_checks(kind, e, f, hk):
    """The relation checks as they were first written: each side composed."""
    top = e.top
    ident = ref_scalar(e.dims, 1)
    lo = (range(0, top), f"levels 0..{top - 1}")
    full = (range(0, top + 1), f"levels 0..{top}")
    if not kind.is_q:
        ef = ref_lin((1, ref_mul(e, f)), (-1, ref_mul(f, e)))
        relations = [
            ("cartan-raising", ref_lin((1, ref_mul(hk, e)), (-1, ref_mul(e, hk))),
             ref_lin((2, e)), lo),
            ("cartan-lowering", ref_lin((1, ref_mul(hk, f)), (-1, ref_mul(f, hk))),
             ref_lin((-2, f)), full),
            ("oscillator-commutator", ef, ident, lo) if kind.tag is AlgebraTag.OSC
            else ("sl2-commutator", ef, hk, lo),
        ]
    else:
        q = kind.q
        qef = ref_lin((q, ref_mul(e, f)), (-1, ref_mul(f, e)))
        relations = [
            ("cartan-raising", ref_mul(hk, e), ref_lin((q, ref_mul(e, hk))), lo),
            ("cartan-lowering", ref_lin((q, ref_mul(hk, f))), ref_mul(f, hk), full),
            ("q-oscillator-commutator", qef, ref_lin((q - 1, ident)), lo)
            if kind.tag is AlgebraTag.OSC_Q
            else ("uq-sl2-commutator", qef,
                  ref_lin((q - 1, ident), (1 - q, ref_mul(hk, hk))), lo),
        ]
    return [ref_check(name, rng, lhs, rhs, levels)
            for name, lhs, rhs, (levels, rng) in relations]


def ref_standard_form(kind, e, f, k):
    """[E, Ft] against (K - K^{-1}) / (q^{1/2} - q^{-1/2}), Ft composed."""
    name = "uq-sl2-standard-form"
    q = kind.q
    root = rational_sqrt(q)
    if root is None:
        return CheckResult.skip(name, "q^(1/2) is not rational; pick q a square")
    kinv = invert_diagonal(k)
    ft = ref_lin((-root / (q - 1) ** 2, ref_mul(kinv, f)))
    lhs = ref_lin((1, ref_mul(e, ft)), (-1, ref_mul(ft, e)))
    rhs = ref_lin((1 / (root - 1 / root), k), (-1 / (root - 1 / root), kinv))
    return ref_check(name, f"levels 0..{e.top - 1}", lhs, rhs, range(e.top))


def ref_casimir_operator(module, e, f, hk):
    """(operator, eigenvalue) of the Casimir composed as an operator."""
    tag, lam = module.algebra.tag, module.label
    if tag is AlgebraTag.OSC:
        op, eig = ref_lin((2, ref_mul(e, f)), (1, hk)), lam
    elif tag is AlgebraTag.SL2:
        op = ref_lin((4, ref_mul(e, f)), (1, ref_mul(hk, hk)), (-2, hk))
        eig = lam * (lam - 2)
    elif tag is AlgebraTag.OSC_Q:
        kinv = invert_diagonal(hk)
        op = ref_mul(ref_lin((1, ref_scalar(hk.dims, 1)), (-1, ref_mul(e, f))), kinv)
        eig = 1 / lam
    else:
        q = module.algebra.q
        kinv = invert_diagonal(hk)
        op = ref_lin((1, ref_mul(ref_mul(e, f), kinv)), (-1 / q, hk), (-1, kinv))
        eig = -(lam / q + 1 / lam)
    return op, eig


def ref_casimir(module, e, f, hk):
    """(eigenvalue, check) of the Casimir composed as an operator."""
    op, eig = ref_casimir_operator(module, e, f, hk)
    levels = module.levels
    return eig, ref_check("casimir", f"levels 0..{levels - 1}", op,
                          ref_scalar(hk.dims, eig), range(levels))


def casimir_outcome(module, e, f, hk):
    """(eigenvalue, witness as (where, lhs, rhs) or None) of casimir."""
    [check] = casimir(module, Generators(e, f, hk))
    w = check.witness
    return casimir_eigenvalue(module), None if w is None else (w.where, w.lhs, w.rhs)


def ref_casimir_outcome(module, e, f, hk):
    eig, check = ref_casimir(module, e, f, hk)
    w = check.witness
    return eig, None if w is None else (w.where, w.lhs, w.rhs)


Q_VALUES = st.sampled_from([F(1, 4), F(-2, 3), F(5, 2), F(-7, 3), F(9, 16), F(4)])


@st.composite
def relation_operands(draw):
    """(module, e, f, hk): the generators of a single module, or the coproduct
    images of a family instance with a module of its first label, with, now
    and then, one entry changed or one block dropped."""
    if draw(st.booleans()):
        tag = draw(st.sampled_from(list(AlgebraTag)))
        kind = AlgebraKind(tag, draw(Q_VALUES)) if tag in (
            AlgebraTag.OSC_Q, AlgebraTag.UQ_SL2) else AlgebraKind(tag)
        module = ModuleSpec(kind, draw(VALUES), draw(st.integers(1, 6)))
        gens = build_generators(module)
    else:
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        inst = wide_instance(draw(st.sampled_from(ALL_KINDS)), rng, draw(st.integers(1, 5)))
        module = ModuleSpec(algebra_for(inst), labels(inst)[0], inst.n_max)
        gens = build_delta(inst, contiguity(inst))
    ops = [gens.e, gens.f, gens.hk]
    change = draw(st.sampled_from(["none", "none", "entry", "entry", "block"]))
    if change != "none":
        which = draw(st.integers(0, 2))
        op = ops[which]
        blocks = {n: dict(b) for n, b in op.blocks.items()}
        n = draw(st.sampled_from(sorted(blocks)))
        rows, cols = op.shape(n)
        if change == "block":
            del blocks[n]
        elif rows and cols:
            ij = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
            old = blocks[n].get(ij, F(0))
            blocks[n][ij] = draw(st.one_of(st.just(F(0)), st.just(-old), VALUES,
                                           VALUES.map(lambda v: old + v)))
        ops[which] = GradedOperator(op.degree, op.dims, blocks)
    return (module, *ops)


def relation_outcome(fn, *operands):
    try:
        return fn(*operands)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def as_dicts(outcome):
    return [c.to_dict() for c in outcome] if isinstance(outcome, list) else outcome


@settings(max_examples=150, deadline=None)
@given(operands=relation_operands())
def test_relation_checks_match_composition_reference(operands):
    module, e, f, hk = operands
    kind = module.algebra
    got = relation_outcome(_relation_checks, kind, e, f, hk)
    want = relation_outcome(ref_relation_checks, kind, e, f, hk)
    assert got == want
    assert as_dicts(got) == as_dicts(want)
    assert (relation_outcome(casimir_outcome, module, e, f, hk)
            == relation_outcome(ref_casimir_outcome, module, e, f, hk))
    got = relation_outcome(lambda *a: casimir(a[0], Generators(*a[1:])), module, e, f, hk)
    want = relation_outcome(lambda *a: [ref_casimir(*a)[1]], module, e, f, hk)
    assert got == want
    if kind.tag is AlgebraTag.UQ_SL2:
        got = relation_outcome(lambda *a: [_uqsl2_standard_form_check(*a)], kind, e, f, hk)
        want = relation_outcome(lambda *a: [ref_standard_form(*a)], kind, e, f, hk)
        assert as_dicts(got) == as_dicts(want)


def count_compositions(monkeypatch) -> list:
    calls = []
    compose = GradedOperator.__matmul__
    monkeypatch.setattr(GradedOperator, "__matmul__",
                        lambda a, b: calls.append((a.degree, b.degree)) or compose(a, b))
    return calls


# one family per algebra tag; q = 1/2 is not a square, so the U_q(sl2)
# standard form, which composes through @, is skipped
@pytest.mark.parametrize("inst", [
    sample_instance(FamilyKind.HAHN, 5), sample_instance(FamilyKind.RACAH, 5),
    make_instance(FamilyKind.Q_HAHN, 5, q=F(1, 2), alpha=F(1, 3), beta=F(2, 5)),
    make_instance(FamilyKind.Q_RACAH, 5, q=F(1, 2), kappa1=F(1, 2), kappa2=F(1, 3),
                  alpha=F(1, 5), beta=F(1, 7))], ids=lambda inst: inst.kind.value)
def test_relation_checks_compose_nothing(inst, monkeypatch):
    run = run_with(inst, delta=build_delta(inst, contiguity(inst)))
    module = ModuleSpec(algebra_for(inst), labels(inst)[0], inst.n_max)
    gens = build_generators(module)
    calls = count_compositions(monkeypatch)
    assert first_failure(check_homomorphism(run)) is None
    results = check_relations(module, gens)
    assert first_failure(results) is None and calls == []
    assert [c.skipped for c in results] == [False] * 3 + [True] * (
        algebra_for(inst).tag is AlgebraTag.UQ_SL2)


def test_uqsl2_standard_form_is_the_only_composing_relation_check(monkeypatch):
    module = ModuleSpec(uqsl2(F(9, 16)), F(3, 5), 5)
    gens = build_generators(module)
    calls = count_compositions(monkeypatch)
    assert first_failure(check_relations(module, gens)) is None
    assert calls == [(0, -1)]  # K^{-1} F


@pytest.mark.parametrize("which,level", [("e", 2), ("f", 2), ("hk", 1)])
def test_relation_check_without_a_checked_block_raises_value_error(which, level):
    # without block 2 of H, H E has no block 1
    inst = sample_instance(FamilyKind.RACAH, n_max=4)
    delta = build_delta(inst, contiguity(inst))
    op = getattr(delta, which)
    cut = GradedOperator(op.degree, op.dims, {n: b for n, b in op.blocks.items() if n != 2})
    with pytest.raises(ValueError, match=f"block {level} outside the checked operators"):
        check_homomorphism(run_with(inst, delta=replace(delta, **{which: cut})))


# -- witnesses pinned on corrupted inputs --------------------------------------

def with_entry(op, level, ij, value):
    blocks = {n: dict(b) for n, b in op.blocks.items()}
    blocks[level][ij] = value
    return GradedOperator(op.degree, op.dims, blocks)


@pytest.mark.parametrize("algebra,label,eig,lhs", [
    (OSC, F(5), F(5), F(7)), (SL2, F(3), F(3), F(7)),
    (oscq(F(1, 4)), F(2, 3), F(3, 2), F(-189, 2)),
    (uqsl2(F(9, 16)), F(2, 5), F(-289, 90), F(78991, 7290))], ids=repr)
def test_casimir_witness_on_corrupted_lowering(algebra, label, eig, lhs):
    module = ModuleSpec(algebra, label, 5)
    gens = build_generators(module)
    f = with_entry(gens.f, 3, (0, 0), gens.f.blocks[3][0, 0] + 1)
    assert casimir_outcome(module, gens.e, f, gens.hk) == (
        eig, ({"level": 3, "row": 0, "col": 0}, str(lhs), str(eig)))


def test_standard_form_witnesses_on_corrupted_generators():
    module = ModuleSpec(uqsl2(F(9, 16)), F(3, 5), 5)
    gens = build_generators(module)
    results = check_relations(module, Generators(gens.e, with_entry(gens.f, 4, (0, 0), F(1, 2)),
                                                 gens.hk))
    assert [(c.name, c.witness and c.witness.to_dict()) for c in results] == [
        ("cartan-raising", None), ("cartan-lowering", None),
        ("uq-sl2-commutator", {"where": {"level": "3", "row": "0", "col": "0"},
                               "lhs": "-37866887/419430400", "rhs": "-2902532017/6710886400"}),
        ("uq-sl2-standard-form", {"where": {"level": "3", "row": "0", "col": "0"},
                                  "lhs": "37866887/11430720", "rhs": "414647431/26127360"})]
    std = _uqsl2_standard_form_check(module.algebra, gens.e, gens.f,
                                     with_entry(gens.hk, 1, (0, 0), F(7)))
    assert std.to_dict()["witness"] == {"where": {"level": "1", "row": "0", "col": "0"},
                                        "lhs": "-23887/15680", "rhs": "-576/49"}

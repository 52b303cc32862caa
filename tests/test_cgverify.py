import random
import re
import sys
from fractions import Fraction as F
from functools import cache
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import askeycg.cgverify as cgverify
import askeycg.cli as cli
import askeycg.families as families
import askeycg.linalg as linalg
from askeycg.algebras import GradedOperator, scalar_operator
from askeycg.cgverify import (CGBlock, DegenerateKernelError, Run, WeightData,
                              WeightSolutionError, _draw_params, cg_block,
                              component_eigenvalues, lowest_weight_oracle,
                              orthogonality_weights,
                              random_instance, tensor_lowering_eigenvalue,
                              verify_lowering, verify_raising, verify_weight_grading)
from askeycg.cli import run_verify_suite, table_doc
from askeycg.coproduct import Delta, build_delta
from askeycg.exactmath import (InvalidParameterError, SingularParameterError,
                               binomial, format_scalar, q_binomial)
from askeycg.families import (FamilyInstance, FamilyKind, SeriesTable, check_contiguity,
                              contiguity, make_instance, poly_block, poly_value)
from askeycg.linalg import RatMat, nullspace, rank
from askeycg.report import first_failure

from test_algebras import with_entry
from test_families import (ALL_KINDS, poly_reference, run_with, sample_instance,
                           wide_draws, wide_instance)
from test_golden_reports import CASES as GOLDEN_CASES
from test_golden_reports import report as golden_report
from test_linalg import inverse, matmul, to_lists


def test_block_zero_is_unit():
    inst = sample_instance(FamilyKind.Q_RACAH)
    assert to_lists(cg_block(inst, 0).P) == [[F(1)]]


@pytest.mark.parametrize("N", [-2, -1, 7, 8])
def test_block_outside_the_grid_is_rejected(N):
    inst = sample_instance(FamilyKind.HAHN)
    with pytest.raises(ValueError, match=r"^N must lie in 0\.\.6$"):
        cg_block(inst, N)


def test_dual_hahn_block_one():
    inst = sample_instance(FamilyKind.DUAL_HAHN)
    assert to_lists(cg_block(inst, 1).P) == [[F(1), F(1)], [F(1), F(-3, 2)]]


def assert_block_matches_entries(inst, top=None):
    """Every entry of every block, up to level top (n_max by default), equals
    poly_value and the second, exactmath-free implementation poly_reference."""
    for N in range((inst.n_max if top is None else top) + 1):
        P = cg_block(inst, N).P
        assert (P.rows, P.cols) == (N + 1, N + 1)
        for n in range(N + 1):
            for k in range(N + 1):
                assert P.entry(n, k) == poly_value(inst, n, k, N) == poly_reference(inst, n, k, N)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_block_entries_on_sample(kind):
    assert_block_matches_entries(sample_instance(kind, n_max=8))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_block_entries_on_wide_draws(kind):
    for inst in wide_draws(kind, "cg-block"):
        assert_block_matches_entries(inst)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_block_needs_neither_the_recurrence_nor_the_entry_route(kind, monkeypatch):
    # no value may come from the contiguity recurrence, and the block builder
    # does not route through the per-entry path or the public series kernels
    inst = sample_instance(kind)
    want = [cg_block(inst, N) for N in range(inst.n_max + 1)]

    def forbidden(*args, **kwargs):
        raise AssertionError("the block builder called a forbidden route")

    names = ("contiguity", "poly_value", "hyper_terminating", "q_hyper_terminating")
    patched = 0
    for module in [m for name, m in sys.modules.items()
                   if name == "askeycg" or name.startswith("askeycg.")]:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
                patched += 1
    assert patched >= 8  # each is defined in one module and re-exported by the package
    assert [cg_block(inst, N) for N in range(inst.n_max + 1)] == want


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(n_max=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_block_columns_are_reduced_integer_vectors(kind, n_max, seed):
    # each stored column (a, c) is the value column over its least common
    # denominator: c > 0 and gcd(*a, c) = 1, so its storage is unique; the
    # contiguity check reads the same columns from a run's own blocks as
    # from this table
    inst = wide_instance(kind, random.Random(seed), n_max)
    blocks = {N: cg_block(inst, N) for N in range(n_max + 1)}
    for N, blk in blocks.items():
        assert len(blk.columns) == N + 1
        for k, (a, c) in enumerate(blk.columns):
            assert c > 0 and gcd(*a, c) == 1
            assert [F(x, c) for x in a] == [poly_value(inst, n, k, N) for n in range(N + 1)]
    standalone = check_contiguity(Run(inst))
    assert first_failure(standalone) is None, first_failure(standalone)
    assert standalone == check_contiguity(run_with(inst, blocks=blocks))


def first_entry_error(inst, N):
    """The error of the first poly_value call of block N, in row-major order."""
    for n in range(N + 1):
        for k in range(N + 1):
            try:
                poly_value(inst, n, k, N)
            except SingularParameterError as exc:
                return exc
    raise AssertionError(f"block {N} has no singular entry")


# FamilyInstance(...) skips validation, so each of these has a series pole: a
# vanishing (alpha+1)_j, (beta+gamma+1)_j, (alpha q; q)_j or (beta gamma q; q)_j,
# or at q = -1 a vanishing (q; q) factor, in the prefactor first
SINGULAR = [
    FamilyInstance(FamilyKind.HAHN, 4, alpha=F(-2), beta=F(1, 2),
                   lambda1=F(1), lambda2=F(2)),
    FamilyInstance(FamilyKind.HAHN, 4, alpha=F(-3), beta=F(1, 2),
                   lambda1=F(1), lambda2=F(2)),
    FamilyInstance(FamilyKind.DUAL_HAHN, 4, alpha=F(-3), beta=F(7, 2),
                   lambda1=F(2), lambda2=F(5, 2)),
    FamilyInstance(FamilyKind.RACAH, 4, alpha=F(1, 3), beta=F(-5, 2), gamma=F(1, 2),
                   lambda1=F(1), lambda2=F(1, 2)),
    FamilyInstance(FamilyKind.Q_HAHN, 4, q=F(1, 3), alpha=F(9), beta=F(2, 5),
                   kappa1=F(1), kappa2=F(1)),
    FamilyInstance(FamilyKind.Q_RACAH, 4, q=F(-2), alpha=F(1, 5), beta=F(1, 2),
                   gamma=F(-1, 4), kappa1=F(1, 2), kappa2=F(1, 3)),
    FamilyInstance(FamilyKind.Q_HAHN, 4, q=F(-1), alpha=F(1, 3), beta=F(2, 5),
                   kappa1=F(1), kappa2=F(1)),
]


@pytest.mark.parametrize("inst", SINGULAR, ids=lambda i: i.kind.value)
@pytest.mark.parametrize("N", [3, 4])
def test_block_raises_the_first_entry_error(inst, N):
    want = first_entry_error(inst, N)
    with pytest.raises(SingularParameterError) as got:
        cg_block(inst, N)
    assert type(got.value) is type(want)
    assert (got.value.term, str(got.value)) == (want.term, str(want))


# (instance, pole term or None), each built by FamilyInstance(...) without
# validation. With no pole, a row or column factor vanishes before min(n, k):
# n - N + i for alpha + beta = -1, k - 2 + i for gamma = -2, k - 1 + i for
# alpha + beta = -2 (dual Hahn), 1 - q^(i+k-1) for gamma = 1/q and 1 - q^(i+n-N)
# for alpha beta = 1/q. With one, (alpha+1)_j, (beta+gamma+1)_j or
# (alpha q; q)_j vanishes at term 3, past min(n, k) in column 0 of row 3.
VANISHING = [
    (FamilyInstance(FamilyKind.HAHN, 5, alpha=F(1, 2), beta=F(-3, 2),
                    lambda1=F(1), lambda2=F(2)), None),
    (FamilyInstance(FamilyKind.RACAH, 5, alpha=F(1, 3), beta=F(1, 2), gamma=F(-2),
                    lambda1=F(1), lambda2=F(1, 2)), None),
    (FamilyInstance(FamilyKind.DUAL_HAHN, 5, alpha=F(1, 2), beta=F(-5, 2),
                    lambda1=F(2), lambda2=F(5, 2)), None),
    (FamilyInstance(FamilyKind.Q_RACAH, 5, q=F(1, 3), alpha=F(1, 5), beta=F(2, 5),
                    gamma=F(3), kappa1=F(1, 2), kappa2=F(1, 3)), None),
    (FamilyInstance(FamilyKind.Q_HAHN, 5, q=F(1, 3), alpha=F(1, 2), beta=F(6),
                    kappa1=F(1), kappa2=F(1)), None),
    (FamilyInstance(FamilyKind.HAHN, 5, alpha=F(-3), beta=F(1, 2),
                    lambda1=F(1), lambda2=F(2)), 3),
    (FamilyInstance(FamilyKind.RACAH, 5, alpha=F(1, 3), beta=F(-5, 2), gamma=F(-1, 2),
                    lambda1=F(1), lambda2=F(1, 2)), 3),
    (FamilyInstance(FamilyKind.Q_HAHN, 5, q=F(1, 3), alpha=F(27), beta=F(2, 5),
                    kappa1=F(1), kappa2=F(1)), 3),
]


@pytest.mark.parametrize("inst, pole", VANISHING,
                         ids=lambda x: x.kind.value if isinstance(x, FamilyInstance) else str(x))
def test_block_sums_stop_at_the_first_vanished_term(inst, pole):
    last = inst.n_max if pole is None else pole - 1
    assert_block_matches_entries(inst, last)
    for N in range(last + 1, inst.n_max + 1):
        want = first_entry_error(inst, N)
        with pytest.raises(SingularParameterError) as at_column_zero:
            poly_value(inst, pole, 0, N)
        assert (at_column_zero.value.term, str(at_column_zero.value)) == (want.term, str(want))
        with pytest.raises(SingularParameterError) as got:
            cg_block(inst, N)
        assert (got.value.term, str(got.value)) == (want.term, str(want))


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(n_max=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_run_blocks_equal_blocks_built_alone(kind, n_max, seed):
    # the run's levels slice one SeriesTable; each level built alone makes
    # a table of its own
    inst = wide_instance(kind, random.Random(seed), n_max)
    assert Run(inst).blocks == {N: cg_block(inst, N) for N in range(n_max + 1)}


def test_run_blocks_make_one_table_on_the_first_level_read(monkeypatch):
    # cg_block is still called once per level, each time with the same table,
    # and the parameter table is written once, inside the first call
    inst = sample_instance(FamilyKind.Q_RACAH, n_max=4)
    made, sources = [], []
    original_parameters, original_block = families._parameters, cgverify.cg_block

    def parameters(inst):
        made.append(len(sources))
        return original_parameters(inst)

    def block(source, N):
        sources.append(source)
        return original_block(source, N)

    monkeypatch.setattr(families, "_parameters", parameters)
    monkeypatch.setattr(cgverify, "cg_block", block)
    blocks = Run(inst).blocks
    assert len(sources) == inst.n_max + 1 and made == [1]
    assert all(type(s) is SeriesTable and s is sources[0] for s in sources)
    assert blocks == {N: original_block(inst, N) for N in blocks}


@pytest.mark.parametrize("N", [-1, 5])
def test_a_level_outside_the_instance_range_is_a_value_error(N):
    inst = sample_instance(FamilyKind.HAHN, n_max=4)
    for source in (inst, SeriesTable(inst)):
        with pytest.raises(ValueError, match=re.escape("N must lie in 0..4")):
            poly_block(source, N)


def level_or_error(source, N):
    """poly_block(source, N), or its error as (type, message, term)."""
    try:
        return poly_block(source, N)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "term", None)


def entries_or_first_error(inst, N):
    """The columns of level N from poly_value, each integer_column of its
    entries, or the first error of a poly_value call in row-major order."""
    values = [[None] * (N + 1) for _ in range(N + 1)]
    for n in range(N + 1):
        for k in range(N + 1):
            try:
                values[k][n] = poly_value(inst, n, k, N)
            except Exception as exc:
                return type(exc), str(exc), getattr(exc, "term", None)
    return tuple(linalg.integer_column(column) for column in values)


@st.composite
def unvalidated_instance(draw, kind):
    """A FamilyInstance(...) of kind built without validation: integer alpha,
    beta, gamma or small fractions, and q from {0, +-1, +-2} or a small
    fraction, so poles, vanished terms and degenerate q all occur."""
    integer = st.integers(-4, 4).map(F)
    value = st.one_of(integer, st.builds(F, st.integers(-9, 9), st.integers(1, 6)))
    params = {name: draw(value) for name in ("alpha", "beta", "gamma", "lambda1", "lambda2")}
    if kind is FamilyKind.KRAWTCHOUK:
        params["p"] = draw(value)
    if kind.is_q:
        params["q"] = draw(st.one_of(st.sampled_from([F(0), F(1), F(-1), F(2), F(-2)]),
                                     st.builds(F, st.integers(-5, 5), st.integers(1, 5))))
        params["kappa1"], params["kappa2"] = draw(value), draw(value)
    return FamilyInstance(kind, draw(st.integers(1, 7)), **params)


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_block_equals_the_entry_route_or_raises_its_first_error(kind, data):
    # every level, alone and from a run-wide table, equals poly_value entry by
    # entry or raises poly_value's first error in row-major order, with the
    # same type, message and term
    inst = data.draw(unvalidated_instance(kind))
    table = SeriesTable(inst)
    for N in range(inst.n_max + 1):
        want = entries_or_first_error(inst, N)
        assert level_or_error(inst, N) == want
        assert level_or_error(table, N) == want


@pytest.mark.parametrize("q", [F(0), F(1)])
def test_block_at_degenerate_q_raises_the_binomial_error_first(q):
    # q in {0, 1}: the table is built without an error, and each level raises
    # q_binomial's InvalidParameterError before any series term is read
    inst = FamilyInstance(FamilyKind.Q_RACAH, 3, q=q, alpha=F(1, 5), beta=F(2),
                          gamma=F(-1), kappa1=F(1, 2), kappa2=F(1, 3))
    table = SeriesTable(inst)
    for N in range(4):
        want = (InvalidParameterError, "q_binomial undefined at q in {0, 1}", None)
        assert entries_or_first_error(inst, N) == want
        assert level_or_error(inst, N) == level_or_error(table, N) == want


def test_a_pole_meets_a_vanished_column_factor_and_a_live_one():
    # alpha = -2: (alpha + 1)_j vanishes at term 2, where the factor -k + 1
    # of column 1 vanishes too and column 3 is still live; the zero bottom is
    # reduced against the live factor and never against the vanished one, so
    # the pole rule still names term 2
    inst = FamilyInstance(FamilyKind.HAHN, 4, alpha=F(-2), beta=F(1, 2),
                          lambda1=F(1), lambda2=F(2))
    want = (SingularParameterError, "denominator parameter hits a pole at term k=2", 2)
    for N in (3, 4):
        assert entries_or_first_error(inst, N) == want
        assert level_or_error(inst, N) == level_or_error(SeriesTable(inst), N) == want
    assert_block_matches_entries(inst, 1)


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
    run = Run(sample_instance(kind))
    assert [c.passed for c in verify_raising(run)] == [True] * run.inst.n_max
    assert [c.passed for c in verify_lowering(run)] == [True] * run.inst.n_max


def test_krawtchouk_pascal_row():
    inst = sample_instance(FamilyKind.KRAWTCHOUK)
    delta = Run(inst).delta
    image = matmul(delta.e.dense(0), cg_block(inst, 0).P)
    assert image.column(0) == (F(1), F(1))
    assert cg_block(inst, 1).P.column(0) == (F(1), F(1))


def test_raising_detects_missing_binomial_prefactor():
    inst = sample_instance(FamilyKind.HAHN)

    def corrupt(N):
        return CGBlock.from_matrix(N, RatMat.build(
            N + 1, N + 1,
            lambda n, k: poly_value(inst, n, k, N) / binomial(N, n)))

    blocks = {N: corrupt(N) for N in range(inst.n_max + 1)}
    fail = first_failure(verify_raising(run_with(inst, blocks=blocks)))
    assert fail is not None and fail.witness is not None


def test_lowering_annihilates_top_column():
    for kind in ALL_KINDS:
        inst = sample_instance(kind)
        delta = Run(inst).delta
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


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_component_eigenvalues_are_the_tensor_lowering_eigenvalues(kind):
    # the integer-pair labels give the value of tensor_label on every level
    for seed in range(3):
        inst = random_instance(kind, random.Random(seed), n_max=6)
        for N in range(inst.n_max + 1):
            lam = component_eigenvalues(inst, N)
            assert all(type(x) is F for x in lam)
            assert lam == tuple(tensor_lowering_eigenvalue(inst, k, N - k)
                                for k in range(N + 1))


def test_q_racah_lowering_eigenvalue():
    inst = sample_instance(FamilyKind.Q_RACAH)
    q, k1, k2 = inst.q, inst.kappa1, inst.kappa2
    for N in range(1, 5):
        for k in range(N):
            want = (1 - q ** (N - k)) * (1 - q ** (N + k - 1) * k1 ** 2 * k2 ** 2)
            assert tensor_lowering_eigenvalue(inst, k, N - k) == want


# -- block corruptions: each reader against a plain Fraction walk --------------

def first_unequal(points):
    """The first (where, lhs, rhs) with lhs != rhs, its sides printed as a
    witness prints them; None when every point agrees."""
    return next(((where, str(lhs), str(rhs)) for where, lhs, rhs in points if lhs != rhs),
                None)


def fraction_walk_witnesses(inst, blocks, data, delta) -> dict:
    """The first witness of each block reader, from CGBlock.P and the dense
    Delta blocks in plain Fractions: contiguity n-major over the grid, raising
    and lowering k-major within a level, levels in order."""
    nm = inst.n_max

    def P(n, k, N):
        return blocks[N].P.entry(n, k) if 0 <= n <= N else F(0)

    def below(n, k, N):  # column k of level N-1; its k = N column is (1, 0, ..., 0)
        return P(n, k, N - 1) if k < N else F(n == 0)

    def image(op, n, k, N):
        M = op.dense(N)
        return sum((M.entry(n, j) * P(j, k, N) for j in range(N + 1)), F(0))

    lam = {N: component_eigenvalues(inst, N) for N in range(nm + 1)}
    return {
        "raising-contiguity": first_unequal(
            ({"N": N, "n": n, "k": k}, P(n, k, N + 1),
             (data.alpha1(n, N) * P(n - 1, k, N) if n >= 1 else 0)
             + (data.alpha2(n, N) * P(n, k, N) if 0 <= n <= N else 0))
            for N in range(nm) for n in range(-1, N + 2) for k in range(N + 1)),
        "lowering-contiguity": first_unequal(
            ({"N": N, "n": n, "k": k}, data.mu(k, N) * below(n, k, N),
             (data.beta1(n, N) * P(n + 1, k, N) if n < N else 0)
             + (data.beta2(n, N) * P(n, k, N) if 0 <= n <= N else 0))
            for N in range(nm) for n in range(-1, N + 2) for k in range(N + 1)),
        "raising": first_unequal(
            ({"N": N, "n": n, "k": k}, image(delta.e, n, k, N), P(n, k, N + 1))
            for N in range(nm) for k in range(N + 1) for n in range(N + 2)),
        "lowering": first_unequal(
            ({"N": N, "n": n, "k": k}, image(delta.f, n, k, N),
             lam[N][k] * P(n, k, N - 1) if k < N else F(0))
            for N in range(1, nm + 1) for k in range(N + 1) for n in range(N)),
    }


def reader_witnesses(inst, blocks, data, delta) -> dict:
    def first(checks):
        bad = first_failure(checks)
        return bad and (bad.witness.where, bad.witness.lhs, bad.witness.rhs)

    run = run_with(inst, blocks=blocks, contiguity=data, delta=delta)
    raising_contiguity, lowering_contiguity = check_contiguity(run)
    return {
        "raising-contiguity": first([raising_contiguity]),
        "lowering-contiguity": first([lowering_contiguity]),
        "raising": first(verify_raising(run)),
        "lowering": first(verify_lowering(run)),
    }


@cache
def sample_artifacts(kind):
    run = Run(sample_instance(kind, n_max=4))
    return run.inst, run.blocks, run.contiguity, run.delta


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS), data=st.data())
def test_block_corruption_witnesses_equal_a_plain_fraction_walk(kind, data):
    # one or two entries of one block shifted; every reader names the first
    # failing point of its own documented order, as the plain walk does
    inst, blocks, coefficients, delta = sample_artifacts(kind)
    N = data.draw(st.integers(0, inst.n_max))
    rows = [list(row) for row in blocks[N].P.a]
    for _ in range(data.draw(st.integers(1, 2))):
        n, k = data.draw(st.integers(0, N)), data.draw(st.integers(0, N))
        rows[n][k] += data.draw(st.sampled_from([F(1), F(-1, 2), F(3, 7)]))
    corrupted = {**blocks, N: CGBlock.from_matrix(N, RatMat.from_rows(rows))}
    want = fraction_walk_witnesses(inst, corrupted, coefficients, delta)
    assert reader_witnesses(inst, corrupted, coefficients, delta) == want
    assert any(want.values())


# -- the run's integer bands of Delta ------------------------------------------

def test_run_splits_delta_into_bands_once(monkeypatch):
    # raising, lowering and the oracle read one split of each Delta level
    inst = sample_instance(FamilyKind.RACAH, n_max=4)
    run = Run(inst)
    splits = []
    original = linalg.integer_bands
    monkeypatch.setattr(cgverify, "integer_bands",
                        lambda block, rows: splits.append(1) or original(block, rows))
    assert [c.passed for c in verify_raising(run)] == [True] * inst.n_max
    assert [c.passed for c in verify_lowering(run)] == [True] * inst.n_max
    assert lowest_weight_oracle(run) == list(run.blocks.values())
    assert run.bands is run.bands
    assert len(splits) == len(run.delta.e.blocks) + len(run.delta.f.blocks)
    e, f = run.bands
    assert e[1] == linalg.integer_bands(run.delta.e.blocks[1], range(3))
    assert f[2] == linalg.integer_bands(run.delta.f.blocks[2], range(2))


def level_two_tripled(inst) -> Delta:
    """The Delta of inst with one entry each of Delta(E) and Delta(F) on
    level 2 tripled."""
    good = Run(inst).delta
    scaled = with_f_entry_scaled(good, 2, (0, 1), 3)
    e = good.e
    return Delta(with_entry(e, 2, (0, 0), e.blocks[2][0, 0] * 3), scaled.f, good.hk)


def test_a_delta_given_before_the_first_read_reaches_every_band_reader():
    # raising and lowering pass every block below 2 and stop at block 2, and
    # the oracle's kernel on block 2 moves
    inst = sample_instance(FamilyKind.HAHN, n_max=4)
    run = run_with(inst, delta=level_two_tripled(inst))
    assert [c.passed for c in verify_raising(run)] == [True, True, False]
    assert [c.passed for c in verify_lowering(run)] == [True, False]
    oracle = lowest_weight_oracle(run)
    assert oracle[:2] == [run.blocks[0], run.blocks[1]]
    assert oracle[2].columns[2] != run.blocks[2].columns[2]


def test_a_delta_given_to_the_suite_stops_raising_and_lowering_at_block_two(monkeypatch):
    # the same Delta through run_verify_suite: both entries fail at block 2
    # with their range ending at that block
    inst = sample_instance(FamilyKind.HAHN, n_max=4)
    bad = level_two_tripled(inst)
    monkeypatch.setattr(cgverify, "build_delta", lambda inst, data: bad)
    checks = run_verify_suite(inst, ["raising", "lowering"]).to_dict()["checks"]
    got = {c["name"]: (c["passed"], c["checked_range"], c["witness"]["where"]["N"])
           for c in checks if not c["skipped"]}
    assert got == {
        "raising": (False, "block 0 -> 1, 0<=k<=0; block 1 -> 2, 0<=k<=1; "
                           "block 2 -> 3, 0<=k<=2", "2"),
        "lowering": (False, "block 1 -> 0, 0<=k<=1; block 2 -> 1, 0<=k<=2", "2"),
    }


# -- lowest-weight oracle -----------------------------------------------------

def test_oracle_block_one_hahn():
    inst = sample_instance(FamilyKind.HAHN)
    oracle = lowest_weight_oracle(Run(inst))
    assert oracle[1].P.column(1) == (F(1), F(-1, 4))


def test_oracle_block_one_standard_sl2():
    inst = sample_instance(FamilyKind.DUAL_HAHN)
    oracle = lowest_weight_oracle(Run(inst))
    assert oracle[1].P.column(1) == (F(1), -inst.lambda2 / inst.lambda1)


def test_oracle_first_column_trivial_kernel():
    inst = sample_instance(FamilyKind.Q_HAHN)
    oracle = lowest_weight_oracle(Run(inst))
    assert to_lists(oracle[0].P) == [[F(1)]]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_oracle_equals_polynomial_blocks(kind):
    inst = sample_instance(kind, n_max=5)
    oracle = lowest_weight_oracle(Run(inst))
    for N in range(6):
        # the same canonical integer columns, hence the same entries
        assert oracle[N].columns == cg_block(inst, N).columns


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_block_route_stores_the_same_column_tuples(kind):
    # cg_block (unreduced series pairs), the oracle (band images) and
    # from_matrix (Fractions) all store linalg.integer_column of the values
    inst = sample_instance(kind)
    oracle = lowest_weight_oracle(Run(inst))
    for N in range(inst.n_max + 1):
        block = cg_block(inst, N)
        assert block.columns == oracle[N].columns == CGBlock.from_matrix(N, block.P).columns


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_oracle_evaluates_no_polynomial(kind, monkeypatch):
    # every column, its scale included, comes from Delta alone
    inst = sample_instance(kind, n_max=5)
    run = run_with(inst, delta=build_delta(inst, contiguity(inst)))
    want = [cg_block(inst, N) for N in range(inst.n_max + 1)]

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle evaluated a polynomial")

    for module in [m for name, m in sys.modules.items()
                   if name == "askeycg" or name.startswith("askeycg.")]:
        for name in ("poly_block", "poly_value", "cg_block"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    assert lowest_weight_oracle(run) == want


@pytest.mark.parametrize("entries,message", [
    ({(0, 0): F(0), (0, 1): F(0)},
     "kernel of the lowering map on block 1 has dimension 2, expected 1"),
    ({(0, 1): F(0)},
     "kernel vector on block 1 has first entry 0, so it cannot be scaled to P_0(1, 1) = 1"),
], ids=["zero-row", "zero-first-entry"])
def test_oracle_degenerate_kernel(entries, message):
    # Delta(F) on block 1 is the row (beta2(0, 1), beta1(0, 1))
    inst = sample_instance(FamilyKind.HAHN)
    delta = Run(inst).delta
    f = delta.f
    assert f.dense(1).entry(0, 0) != 0 and f.dense(1).entry(0, 1) != 0
    for ij, value in entries.items():
        f = with_entry(f, 1, ij, value)
    with pytest.raises(DegenerateKernelError) as exc:
        lowest_weight_oracle(run_with(inst, delta=Delta(delta.e, f, delta.hk)))
    assert str(exc.value) == message


@pytest.mark.parametrize("zeros,message", [
    ([(0, 0), (1, 2)], "kernel of the lowering map on block 2 has dimension 2, expected 1"),
    ([(1, 2)], "kernel vector on block 2 has first entry 0, so it cannot be scaled to "
               "P_0(2, 2) = 1"),
], ids=["shared-column", "last-row-diagonal"])
def test_oracle_kernel_dimension_counts_matched_columns(zeros, message):
    # Delta(F) on block 2 reduced to rows (0, b1, 0) and (0, b2, 0): no row is
    # zero, yet both sit in column 1, so the rank is 1 and the kernel a plane.
    # Rows (b2, b1, 0) and (0, b2, 0) have rank 2: the kernel is the line
    # through (0, 0, 1)
    inst = sample_instance(FamilyKind.HAHN)
    delta = Run(inst).delta
    f = delta.f
    for ij in zeros:
        f = with_entry(f, 2, ij, F(0))
    assert len(f.blocks[2]) == 4 - len(zeros)
    with pytest.raises(DegenerateKernelError) as exc:
        lowest_weight_oracle(run_with(inst, delta=Delta(delta.e, f, delta.hk)))
    assert str(exc.value) == message


def test_lowering_entry_off_the_upper_bidiagonal_fails_the_oracle():
    # with 7 added at [0][3] of Delta(F) on block 3, the kernel there is
    # spanned by (-8603/243, -875/6, -50, 1), not by the bidiagonal
    # recurrence's vector: the oracle refuses the block, and cg-oracle fails
    # with that error as its witness
    inst = make_instance("hahn", alpha=F(1, 3), beta=F(1, 5), lambda1=F(1, 2),
                         lambda2=F(2, 3), n_max=4)
    delta = Run(inst).delta
    assert (0, 3) not in delta.f.blocks[3]
    f = with_entry(delta.f, 3, (0, 3), F(7))
    kernel = nullspace(f.dense(3))
    assert [[x / v[-1] for x in v] for v in kernel] == [[F(-8603, 243), F(-875, 6), F(-50), 1]]
    message = "Delta(F) on block 3 has entry [0][3] off its upper bidiagonal"
    run = run_with(inst, delta=Delta(delta.e, f, delta.hk))
    with pytest.raises(DegenerateKernelError, match=re.escape(message)):
        lowest_weight_oracle(run)
    [result] = cli._oracle(run)
    assert not result.passed and result.witness.where == {"error": message}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_oracle_kernel_matches_the_full_solve_on_every_zero_pattern(k):
    # every way of zeroing the 2k band entries of an upper bidiagonal block
    # gives the verdict and the integer column of the vector of nullspace on
    # its dense form
    band = [(i, i + d) for i in range(k) for d in (0, 1)]
    for mask in range(1 << len(band)):
        block = {ij: F(3 + 2 * t, 11 + t) for t, ij in enumerate(band) if mask >> t & 1}
        bands = linalg.integer_bands(block, range(k))
        basis = nullspace(RatMat.build(k, k + 1, lambda i, j: block.get((i, j), F(0))))
        if len(basis) != 1:
            want = (f"kernel of the lowering map on block {k} has dimension {len(basis)}, "
                    "expected 1")
        elif basis[0][0] == 0:
            want = (f"kernel vector on block {k} has first entry 0, so it cannot be scaled "
                    f"to P_0({k}, {k}) = 1")
        else:
            assert cgverify._lowering_kernel(bands, k) == linalg.integer_column(
                x / basis[0][0] for x in basis[0])
            continue
        with pytest.raises(DegenerateKernelError) as exc:
            cgverify._lowering_kernel(bands, k)
        assert str(exc.value) == want


# -- orthogonality weights ----------------------------------------------------

def test_weights_block_zero():
    inst = sample_instance(FamilyKind.HAHN)
    w = orthogonality_weights(Run(inst), 0)
    assert w.omega == (F(1),) and w.omega_prime == (F(1),)


def test_weights_block_zero_norm_is_the_square():
    # sum_n P[n][0]^2 Omega_n = P[0][0]^2 on block 0, on both paths
    inst = sample_instance(FamilyKind.HAHN)
    delta = Run(inst).delta
    blk = CGBlock.from_matrix(0, RatMat.from_rows([[F(2)]]))
    for run in (run_with(inst, blocks={0: blk}), run_with(inst, blocks={0: blk}, delta=delta)):
        w = orthogonality_weights(run, 0)
        assert (w.omega, w.omega_prime) == ((F(1),), (F(4),))


def test_weights_dual_hahn_example():
    inst = sample_instance(FamilyKind.DUAL_HAHN)
    w = orthogonality_weights(Run(inst), 1)
    assert w.omega == (F(1), F(2, 3))
    assert w.omega_prime == (F(5, 3), F(5, 2))


def test_weights_orthogonalize_exactly():
    for kind in ALL_KINDS:
        inst = sample_instance(kind)
        run = Run(inst)
        for N in range(5):
            P = cg_block(inst, N).P
            w = orthogonality_weights(run, N)
            for k in range(N + 1):
                for l in range(N + 1):
                    s = sum((P.entry(n, k) * P.entry(n, l) * w.omega[n]
                             for n in range(N + 1)), F(0))
                    assert s == (w.omega_prime[l] if k == l else 0)


def test_krawtchouk_weights_positive():
    run = Run(sample_instance(FamilyKind.KRAWTCHOUK))
    for N in range(7):
        w = orthogonality_weights(run, N)
        assert all(x > 0 for x in w.omega)
        assert all(x > 0 for x in w.omega_prime)


def test_weights_reject_singular_block():
    inst = sample_instance(FamilyKind.HAHN)
    bad = CGBlock.from_matrix(1, RatMat.from_rows([[F(1), F(1)], [F(1), F(1)]]))
    with pytest.raises(WeightSolutionError):
        orthogonality_weights(run_with(inst, blocks={1: bad}), 1)


@pytest.mark.parametrize("N", [-1, 7])
def test_weights_outside_the_grid_are_rejected(N):
    # a level outside 0..n_max has no T_N to certify: it is refused, not
    # certified vacuously (N = -1) or failed at step 1 (N = n_max + 1)
    inst = sample_instance(FamilyKind.HAHN)
    blk = cg_block(inst, min(max(N, 0), inst.n_max))
    with pytest.raises(ValueError, match=r"^orthogonality weights need 0 <= N <= n_max$"):
        orthogonality_weights(run_with(inst, blocks={N: blk}), N)


def fraction_weights(run, N):
    """Omega and Omega' of block N in plain Fractions: T_N from the dense
    Delta blocks, Omega_{n+1} = Omega_n T[n][n+1] / T[n+1][n] and Omega'_l =
    sum_n P[n][l]^2 Omega_n, after checking T P = P Lambda entrywise."""
    P, lam = run.blocks[N].P, run.eigenvalues[N]
    if N:
        T = run.delta.e.dense(N - 1) @ run.delta.f.dense(N)
        assert all(sum((T.entry(i, j) * P.entry(j, l) for j in range(N + 1)), F(0))
                   == P.entry(i, l) * lam[l] for i in range(N + 1) for l in range(N + 1))
    omega = [F(1)]
    for n in range(N):
        omega.append(omega[-1] * T.entry(n, n + 1) / T.entry(n + 1, n))
    return WeightData(N, tuple(omega), tuple(
        sum((P.entry(n, l) ** 2 * omega[n] for n in range(N + 1)), F(0))
        for l in range(N + 1)))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_weights_equal_a_fraction_reference_on_every_level(kind):
    for seed in range(3):
        run = Run(random_instance(kind, random.Random(seed), n_max=6))
        for N in range(run.inst.n_max + 1):
            assert orthogonality_weights(run, N) == fraction_weights(run, N)


# -- orthogonality weights from T_N = Delta(E) Delta(F) ------------------------

def full_solve(inst, N, blk):
    """Reference weights of blk: Gauss-Jordan elimination of all N(N+1)/2
    off-diagonal equations (linalg.nullspace and rank), normalized to
    Omega_0 = 1, or WeightSolutionError when the solution is not one line
    with nonzero Omega_0 and norms. inst is unused: Omega depends on P alone."""
    P = blk.P
    if rank(P) != N + 1:
        raise WeightSolutionError(f"CG block {N} is singular")
    if N == 0:
        return WeightData(0, (F(1),), (P.entry(0, 0) ** 2,))
    rows = [[P.entry(n, k) * P.entry(n, l) for n in range(N + 1)]
            for k in range(N + 1) for l in range(k + 1, N + 1)]
    basis = nullspace(RatMat.from_rows(rows))
    if len(basis) != 1:
        raise WeightSolutionError(
            f"weight solution space at block {N} has dimension {len(basis)}, expected 1")
    omega = basis[0]
    if omega[0] == 0:
        raise WeightSolutionError("weight normalization Omega_0 vanishes")
    omega = tuple(x / omega[0] for x in omega)
    omega_prime = []
    for l in range(N + 1):
        norm = sum((P.entry(n, l) ** 2 * omega[n] for n in range(N + 1)), F(0))
        if norm == 0:
            raise WeightSolutionError(f"Omega' vanishes at column {l}")
        omega_prime.append(norm)
    return WeightData(N, omega, tuple(omega_prime))


def weights_or_error(solve, *args):
    try:
        return solve(*args)
    except WeightSolutionError as exc:
        return f"error: {exc}"


def assert_paths_agree(inst):
    """The certified weights from Delta, given or built, are the full
    solve's, block by block."""
    delta = Run(inst).delta
    for N in range(inst.n_max + 1):
        blk = cg_block(inst, N)
        assert orthogonality_weights(run_with(inst, blocks={N: blk}, delta=delta), N) \
            == orthogonality_weights(run_with(inst, blocks={N: blk}), N) \
            == full_solve(inst, N, blk)


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
    # make_instance rejects this point, since T_N is reducible on blocks 2..4;
    # bare, those blocks fail step 1 at the zero T_N[N-1][N-2], where the full
    # solve fails as tests/golden/racah-degenerate.json did: "Omega_0 vanishes"
    inst = FamilyInstance(FamilyKind.RACAH, 4, alpha=F(1, 3), beta=F(1), gamma=F(11, 2),
                          lambda1=F(3, 2), lambda2=F(5))
    run = Run(inst)
    got = [weights_or_error(orthogonality_weights, run, N) for N in range(5)]
    want = [weights_or_error(full_solve, inst, N, blk) for N, blk in run.blocks.items()]
    assert got[:2] == want[:2] and all(isinstance(w, WeightData) for w in got[:2])
    assert got[2:] == [f"error: block {N}, step 1: T_N[{N - 1}][{N - 2}] vanishes, "
                       f"so no diagonal symmetrizes T_N" for N in (2, 3, 4)]
    assert want[2:] == ["error: weight normalization Omega_0 vanishes"] * 3


def spy_callers(monkeypatch, name, module=cgverify):
    """Record the name of the function calling module.<name>, patched in
    every module that binds the same function."""
    callers = []
    original = getattr(module, name)

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__dict__", {}).get(name) is original:
            monkeypatch.setattr(mod, name, spy)
    return callers


def with_f_entry_scaled(delta, level, ij, factor):
    f = delta.f
    blocks = {n: dict(b) for n, b in f.blocks.items()}
    blocks[level][ij] *= factor
    return Delta(delta.e, GradedOperator(f.degree, f.dims, blocks), delta.hk)


def test_corrupted_delta_fails_orthogonality_at_its_block(monkeypatch):
    # one I x F entry of level 3 feeds T_3[2][1], so only block 3's weights
    # are wrong: T_3 P = P Lambda fails there with a witness, and a wrong
    # Delta never makes orthogonality pass
    inst = sample_instance(FamilyKind.RACAH)
    good = Run(inst).delta
    bad = with_f_entry_scaled(good, 3, (1, 1), 2)
    run = run_with(inst, delta=bad)
    want = [full_solve(inst, N, blk) for N, blk in run.blocks.items()]
    got = [weights_or_error(orthogonality_weights, run, N) for N in run.blocks]
    assert got == want[:3] + ["error: block 3, step 4: (T_N P)[1][0] != (P Lambda)[1][0]"] \
        + want[4:]
    assert run_verify_suite(inst, ["orthogonality"]).passed
    monkeypatch.setattr("askeycg.cgverify.build_delta", lambda *args, **kwargs: bad)
    fail = first_failure(run_verify_suite(inst, ["orthogonality"]).checks)
    assert (fail.name, fail.witness.where) == (
        "orthogonality", {"error": "block 3, step 4: (T_N P)[1][0] != (P Lambda)[1][0]"})


def t_rows_as_values(run, N):
    """T_N of the certificate (cgverify._t_rows) as {(i, j): Fraction}, after
    checking each row is reduced: d > 0 and gcd(d, *row) = 1."""
    rows = cgverify._t_rows(run, N)
    assert len(rows) == N + 1
    assert all(d > 0 and gcd(d, *row.values()) == 1 for row, d in rows)
    return {(i, j): F(x, d) for i, (row, d) in enumerate(rows) for j, x in row.items()}


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS), seed=st.integers(0, 10 ** 6),
       n_max=st.integers(1, 6))
def test_t_rows_from_the_bands_equal_the_composed_operator(kind, seed, n_max):
    # the rows the certificate builds from the run's bands are the blocks of
    # Delta(E) @ Delta(F), entry by entry, as values
    try:
        inst = make_instance(kind, n_max=n_max, **_draw_params(kind, random.Random(seed)))
    except InvalidParameterError:
        assume(False)
    run = Run(inst)
    t = run.delta.e @ run.delta.f
    for N in range(n_max + 1):
        assert t_rows_as_values(run, N) == t.blocks.get(N, {})


def test_a_delta_given_before_the_first_read_reaches_the_bands_and_t_n():
    # Delta(F) tripled at level 2 moves T_2, Delta(E) tripled at level 2
    # moves T_3: both reach the certificate through the run's bands
    inst = sample_instance(FamilyKind.HAHN, n_max=4)
    bad = level_two_tripled(inst)
    run, good = run_with(inst, delta=bad), Run(inst)
    t, t_good = bad.e @ bad.f, good.delta.e @ good.delta.f
    assert run.bands[0][2] == linalg.integer_bands(bad.e.blocks[2], range(4))
    for N in range(inst.n_max + 1):
        assert t_rows_as_values(run, N) == t.blocks.get(N, {})
        assert (t.blocks.get(N) == t_good.blocks.get(N)) == (N not in (2, 3))


@pytest.mark.parametrize("kind", [FamilyKind.RACAH, FamilyKind.Q_HAHN])
@pytest.mark.parametrize("side,level,ij,factor,N,message", [
    ("e", 2, (1, 1), 2, 3, "step 4: (T_N P)[1][0] != (P Lambda)[1][0]"),
    ("e", 2, (1, 0), 0, 3, "step 1: T_N[1][0] vanishes, so no diagonal symmetrizes T_N"),
    ("e", 3, (0, 0), 0, 4, "step 1: T_N[0][1] vanishes, so no diagonal symmetrizes T_N"),
    ("f", 3, (1, 2), 0, 3, "step 1: T_N[1][2] vanishes, so no diagonal symmetrizes T_N"),
    ("f", 2, (0, 0), 0, 2, "step 1: T_N[1][0] vanishes, so no diagonal symmetrizes T_N"),
])
def test_a_corrupted_delta_entry_fails_its_block_at_its_step(kind, side, level, ij, factor,
                                                            N, message):
    # one entry of Delta(E) at level N-1 or of Delta(F) at level N, scaled or
    # zeroed, moves T_N alone: block N fails at its step, with its message,
    # and every other block keeps the weights of the uncorrupted run
    inst = sample_instance(kind)
    good = Run(inst).delta
    op = getattr(good, side)
    bad = with_entry(op, level, ij, op.blocks[level][ij] * factor)
    delta = Delta(bad, good.f, good.hk) if side == "e" else Delta(good.e, bad, good.hk)
    run = run_with(inst, delta=delta)
    got = [weights_or_error(orthogonality_weights, run, M) for M in run.blocks]
    assert got == [f"error: block {N}, {message}" if M == N
                   else orthogonality_weights(Run(inst), M) for M in run.blocks]


def test_unconstrained_weights_are_not_certified():
    # P = I leaves every Omega a solution of the off-diagonal system; its
    # columns are no eigenvectors of T_2, so step 4 refuses it
    inst = sample_instance(FamilyKind.HAHN)
    delta = Run(inst).delta
    eye = CGBlock.from_matrix(2, RatMat.build(3, 3, lambda i, j: F(i == j)))
    with pytest.raises(WeightSolutionError,
                       match=re.escape("block 2, step 4: (T_N P)[0][0] != (P Lambda)[0][0]")):
        orthogonality_weights(run_with(inst, blocks={2: eye}, delta=delta), 2)
    with pytest.raises(WeightSolutionError, match="has dimension 3, expected 1"):
        full_solve(inst, 2, eye)


def test_vanishing_norm_is_not_certified():
    # T_1 = [[-1, 1], [-1, 1]] gives Omega = (1, -1): it solves the one
    # off-diagonal row of P = [[1, 1], [1, 1]] uniquely, but both norms
    # vanish; the equal columns are no eigenvectors of distinct eigenvalues,
    # so step 4 refuses P before any norm
    inst = sample_instance(FamilyKind.HAHN)
    dims = (1, 2)
    e = GradedOperator(1, dims, {0: {(0, 0): F(1), (1, 0): F(1)}})
    f = GradedOperator(-1, dims, {0: {}, 1: {(0, 0): F(-1), (0, 1): F(1)}})
    delta = Delta(e, f, scalar_operator(dims, lambda n: 1))
    bad = CGBlock.from_matrix(1, RatMat.from_rows([[F(1), F(1)], [F(1), F(1)]]))
    with pytest.raises(WeightSolutionError,
                       match=re.escape("block 1, step 4: (T_N P)[0][0] != (P Lambda)[0][0]")):
        orthogonality_weights(run_with(inst, blocks={1: bad}, delta=delta), 1)
    with pytest.raises(WeightSolutionError, match="CG block 1 is singular"):
        full_solve(inst, 1, bad)


def two_level_delta(e, f):
    """Delta on levels 0 and 1 (dims 1 and 2) from E's column e, level 0 -> 1,
    and F's row f, level 1 -> 0; so T_1 = E F has entries e[i] f[j]."""
    dims = (1, 2)
    return Delta(GradedOperator(1, dims, {0: {(i, 0): x for i, x in enumerate(e) if x}}),
                 GradedOperator(-1, dims, {0: {}, 1: {(0, j): x for j, x in enumerate(f) if x}}),
                 scalar_operator(dims, lambda n: 1))


def with_columns(blk, cols):
    """blk with column k replaced by the column cols[k] (None keeps it)."""
    n = blk.P.rows
    return CGBlock.from_matrix(blk.N, RatMat.build(n, n, lambda i, k: (
        blk.P.entry(i, k) if cols[k] is None else cols[k][i])))


def test_eigenvectors_of_a_repeated_eigenvalue_are_not_certified():
    # column 1 duplicates column 0 and the run's Lambda_1 repeats Lambda_0,
    # so T P = P Lambda holds, T symmetrizes and the norms are nonzero; only
    # the distinct eigenvalues rule out the singular P
    inst = sample_instance(FamilyKind.HAHN)
    delta = Run(inst).delta
    blk = cg_block(inst, 3)
    twin = with_columns(blk, [None, blk.P.column(0), None, None])
    lam = list(component_eigenvalues(inst, 3))
    lam[1] = lam[0]
    with pytest.raises(WeightSolutionError, match=re.escape(
            f"block 3, step 3: Lambda_0 = Lambda_1 = {format_scalar(lam[0])}")):
        orthogonality_weights(run_with(inst, blocks={3: twin}, delta=delta,
                                       eigenvalues={3: tuple(lam)}), 3)
    with pytest.raises(WeightSolutionError, match="CG block 3 is singular"):
        full_solve(inst, 3, twin)


def test_zero_column_is_not_certified():
    # a zero column is an eigenvector of anything; its norm vanishes
    inst = sample_instance(FamilyKind.HAHN)
    delta = Run(inst).delta
    blk = cg_block(inst, 3)
    holed = with_columns(blk, [None, None, (F(0),) * 4, None])
    with pytest.raises(WeightSolutionError,
                       match=re.escape("block 3, step 5: Omega' vanishes at column 2")):
        orthogonality_weights(run_with(inst, blocks={3: holed}, delta=delta), 3)
    with pytest.raises(WeightSolutionError, match="CG block 3 is singular"):
        full_solve(inst, 3, holed)


def test_weights_of_non_eigenvectors_are_not_certified():
    # T_1 = [[1, 2], [1, 2]] symmetrizes with Omega = (1, 2), and P's columns
    # have nonzero norms under it, but they are not eigenvectors of T_1:
    # step 4 refuses them, where the full solve finds Omega = (1, 1)
    inst = sample_instance(FamilyKind.HAHN)
    blk = CGBlock.from_matrix(1, RatMat.from_rows([[F(1), F(1)], [F(1), F(-1)]]))
    delta = two_level_delta([1, 1], [1, 2])
    with pytest.raises(WeightSolutionError,
                       match=re.escape("block 1, step 4: (T_N P)[0][0] != (P Lambda)[0][0]")):
        orthogonality_weights(run_with(inst, blocks={1: blk}, delta=delta), 1)
    assert full_solve(inst, 1, blk) == WeightData(1, (F(1), F(1)), (F(2), F(2)))


def test_zero_lower_entry_of_t_is_declined():
    # T_1 = [[0, c], [0, c]] with c = Lambda_0 has the eigenvectors (1, 1) and
    # (1, 0) of P, but T_1[1][0] = 0 leaves no symmetrizer; the full solve
    # finds Omega_0 = 0
    inst = sample_instance(FamilyKind.HAHN)
    c = tensor_lowering_eigenvalue(inst, 0, 1)
    blk = CGBlock.from_matrix(1, RatMat.from_rows([[F(1), F(1)], [F(1), F(0)]]))
    delta = two_level_delta([1, 1], [0, c])
    with pytest.raises(WeightSolutionError, match=re.escape(
            "block 1, step 1: T_N[1][0] vanishes, so no diagonal symmetrizes T_N")):
        orthogonality_weights(run_with(inst, blocks={1: blk}, delta=delta), 1)
    with pytest.raises(WeightSolutionError, match="Omega_0 vanishes"):
        full_solve(inst, 1, blk)


def test_zero_upper_entry_of_t_is_declined_before_any_eigenvalue(monkeypatch):
    # T_1 = [[c, 0], [c, 0]] with c = Lambda_0 has the eigenvectors (1, 1) and
    # (0, 1) of P, but T_1[0][1] = 0: the certificate stops at once, where the
    # full solve finds the vanishing norm
    inst = sample_instance(FamilyKind.HAHN)
    c = tensor_lowering_eigenvalue(inst, 0, 1)
    blk = CGBlock.from_matrix(1, RatMat.from_rows([[F(1), F(0)], [F(1), F(1)]]))
    delta = two_level_delta([1, 1], [c, 0])
    eigen_callers = spy_callers(monkeypatch, "component_eigenvalues")
    with pytest.raises(WeightSolutionError, match=re.escape(
            "block 1, step 1: T_N[0][1] vanishes, so no diagonal symmetrizes T_N")):
        orthogonality_weights(run_with(inst, blocks={1: blk}, delta=delta), 1)
    assert eigen_callers == []
    with pytest.raises(WeightSolutionError, match="Omega' vanishes at column 1"):
        full_solve(inst, 1, blk)


def test_t_off_its_tridiagonal_band_is_declined():
    # T_2 = E F = [[-5, 5, 6], [3, -3, 6], [-3, 3, 2]] has the eigenvectors
    # of P with the distinct Lambda = (-8, 2, 0), nonzero off-diagonals and
    # nonzero columns; the ratios give Omega = (1, 5/3, 10/3), yet W T is not
    # symmetric and (P^T W P)[0][1] = -2/3: its [0][2] entry is refused
    inst = make_instance("hahn", alpha=F(1, 3), beta=F(1, 5), lambda1=F(1, 2),
                         lambda2=F(2, 3), n_max=2)
    dims = (1, 2, 3)
    e = [[-1, -3], [3, -3], [-1, -1]]
    f = [[2, -2, 0], [1, -1, -2]]
    sparse = lambda rows: {(i, j): F(x) for i, r in enumerate(rows) for j, x in enumerate(r) if x}
    delta = Delta(GradedOperator(1, dims, {0: sparse([[1], [1]]), 1: sparse(e)}),
                  GradedOperator(-1, dims, {0: {}, 1: sparse([[1, 1]]), 2: sparse(f)}),
                  scalar_operator(dims, lambda n: 1))
    cols = [(F(1), F(-3, 2), F(3, 4)), (F(1), F(1), F(1, 3)), (F(1), F(1), F(0))]
    blk = CGBlock.from_matrix(2, RatMat.build(3, 3, lambda i, k: cols[k][i]))
    P, W = blk.P, (F(1), F(5, 3), F(10, 3))
    assert sum((P.entry(n, 0) * P.entry(n, 1) * W[n] for n in range(3)), F(0)) == F(-2, 3)
    run = run_with(inst, blocks={2: blk}, delta=delta, eigenvalues={2: (F(-8), F(2), F(0))})
    with pytest.raises(WeightSolutionError, match=re.escape(
            "block 2, step 1: T_N[0][2] lies off the tridiagonal band")):
        orthogonality_weights(run, 2)


def spy_dense_elimination(monkeypatch):
    """Callers of linalg.rank and linalg.nullspace, wherever they are bound."""
    return (spy_callers(monkeypatch, "rank", linalg),
            spy_callers(monkeypatch, "nullspace", linalg))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_certified_weights_equal_the_full_solve_at_nmax_10(kind, monkeypatch):
    # one pinned draw per family: every block is certified without a solve,
    # and the certified WeightData is the full solve's
    inst = random_instance(kind, random.Random(0), n_max=10)
    delta = Run(inst).delta
    rank_callers, nullspace_callers = spy_dense_elimination(monkeypatch)
    for N in range(inst.n_max + 1):
        blk = cg_block(inst, N)
        certified = orthogonality_weights(run_with(inst, blocks={N: blk}, delta=delta), N)
        assert rank_callers == nullspace_callers == []
        assert certified == full_solve(inst, N, blk)
        rank_callers.clear()
        nullspace_callers.clear()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_verify_suite_certifies_weights_without_a_solve(kind, monkeypatch):
    inst = sample_instance(kind)
    rank_callers, nullspace_callers = spy_dense_elimination(monkeypatch)
    assert run_verify_suite(inst).passed
    orthogonality_weights(Run(inst), 2)  # the run builds Delta; nothing is solved for
    assert rank_callers == nullspace_callers == []
    full_solve(inst, 2, cg_block(inst, 2))
    assert rank_callers == nullspace_callers == ["full_solve"]  # the spies see calls


def test_no_runtime_path_calls_dense_elimination(monkeypatch):
    # neither the verify suite (every golden case, every sample instance),
    # nor the table, nor a draw at n_max = 10 eliminates densely
    rank_callers, nullspace_callers = spy_dense_elimination(monkeypatch)
    for name in sorted(GOLDEN_CASES):
        golden_report(name)
    for kind in ALL_KINDS:
        run_verify_suite(sample_instance(kind))
        table_doc(sample_instance(kind, n_max=4))
        random_instance(kind, random.Random(0), n_max=10)
    assert rank_callers == nullspace_callers == []


# -- weight grading -----------------------------------------------------------

def test_weight_grading_all_families():
    for kind in ALL_KINDS:
        inst = sample_instance(kind)
        assert first_failure(verify_weight_grading(Run(inst))) is None


def test_weight_grading_eigenvalues():
    inst = sample_instance(FamilyKind.DUAL_HAHN)
    delta = Run(inst).delta
    assert delta.hk.dense(0).entry(0, 0) == inst.lambda1 + inst.lambda2
    assert delta.hk.dense(3).entry(1, 1) == inst.lambda1 + inst.lambda2 + 6
    qinst = sample_instance(FamilyKind.Q_RACAH)
    qdelta = Run(qinst).delta
    assert (qdelta.hk.dense(2).entry(0, 0)
            == qinst.kappa1 * qinst.kappa2 * qinst.q ** 2)


def test_weight_grading_negative_control():
    inst = sample_instance(FamilyKind.HAHN)
    delta = Run(inst).delta
    from askeycg.algebras import scalar_operator
    from askeycg.coproduct import Delta
    bad = Delta(delta.e, delta.f,
                scalar_operator(delta.hk.dims,
                                lambda N: inst.lambda1 + inst.lambda2 + 2 * N + 1))
    fail = first_failure(verify_weight_grading(run_with(inst, delta=bad)))
    assert fail is not None and fail.witness is not None


@pytest.mark.parametrize("entries,witness", [
    ({(2, (0, 1)): F(5), (3, (0, 0)): F(1)}, ({"N": "2", "row": "0", "col": "1"}, "5", "0")),
    ({(2, (1, 1)): F(7), (2, (1, 0)): F(-1)}, ({"N": "2", "row": "1", "col": "0"}, "-1", "0")),
    ({(2, (1, 1)): F(0), (2, (2, 1)): F(3)}, ({"N": "2", "row": "1", "col": "1"}, "0", "7")),
], ids=["off-diagonal", "off-diagonal-first-in-row", "vanished-diagonal"])
def test_weight_grading_certifies_off_diagonal_zeros(entries, witness):
    # Delta(H) of the Hahn sample is 7 on block 2; every entry off the
    # diagonal must be 0, and the row-major first wrong entry is the witness
    inst = sample_instance(FamilyKind.HAHN)
    delta = Run(inst).delta
    hk = delta.hk
    for (level, ij), value in entries.items():
        hk = with_entry(hk, level, ij, value)
    fail = first_failure(verify_weight_grading(run_with(inst, delta=Delta(delta.e, delta.f, hk))))
    where, lhs, rhs = witness
    assert fail.witness.to_dict() == {"where": where, "lhs": lhs, "rhs": rhs}


# -- basis change -------------------------------------------------------------

def test_lowering_is_diagonalized_in_cg_basis():
    inst = sample_instance(FamilyKind.RACAH)
    delta = Run(inst).delta
    for N in range(1, 5):
        u_here = cg_block(inst, N).P
        u_below = cg_block(inst, N - 1).P
        recoupled = matmul(matmul(inverse(u_below), delta.f.dense(N)), u_here)
        for k in range(N + 1):
            for row in range(N):
                want = (tensor_lowering_eigenvalue(inst, k, N - k)
                        if (row == k and k < N) else F(0))
                assert recoupled.entry(row, k) == want


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


def test_readme_library_example_runs():
    # the Library section of the README, run as written
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    code = library.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "lowest_weight_oracle" in code
    exec(compile(code, "README.md", "exec"), {})

"""Clebsch-Gordan blocks, the independent lowest-weight oracle, and the
orthogonality weights.

A CG block at total level N is the (N+1) x (N+1) matrix P with P[n][k] =
P_n(k, N); its column k holds the coordinates of the k-th adapted basis
vector in the product basis (n, N-n). CGBlock stores it by columns, column k
as the canonical integer column (a, c) with P[n][k] = a[n] / c that
linalg.integer_column makes for every route (cg_block, from_matrix, the
oracle); its reduced view P (a RatMat of Fractions) is made only when read,
for the table and the tests. cg_block builds the columns in one
integer pass (families.poly_block), straight from the series, never from the
contiguity recurrence or another block; they equal poly_value entry by
entry. A run's levels share one families.SeriesTable, the integer tables of
the series made once, on the first level read (Run.blocks).

Column k of the level-N block must be mapped by Delta(E) onto column k of
level N+1, and by Delta(F) onto the lowering coefficient of the component
with label index k times column k of level N-1; the k = N column must be
annihilated. The run splits every Delta(E) and Delta(F) level into integer
bands once (Run.bands). verify_raising and verify_lowering walk their own
levels, one result per level up to the first failing one, and decide every
point with linalg.column_mismatches, the one comparison of a band image of a
column with a target column; only the first failing point is reduced, for
its witness.

The oracle rebuilds the same columns from Delta's bands alone, reading no CG
value and evaluating no polynomial: the kernel of Delta(F) on block k (which
must be one-dimensional), scaled to first entry v_0 = 1 = P_0(k, k), seeds
the k-th tower, and the integer bands of Delta(E) push it up level by level,
each column written over one denominator with its gcd divided out, the
canonical storage of cg_block. Entrywise agreement with the polynomial
route is the central certificate.

The orthogonality weights Omega solve sum_n P[n][k] P[n][l] Omega_n = 0 for
k != l. Column k of block N is an eigenvector of the tridiagonal T_N =
Delta(E) Delta(F) on level N, with eigenvalue the lowering coefficient of
component k, and Omega is the diagonal that symmetrizes T_N. So
orthogonality is certified by commutation alone, in O(N^2) integer
operations on the stored columns, with no linear system solved and no
weight or norm formed (orthogonality_weights gives the steps and the
proof). Each row of T_N is one row of the run's Delta(E) bands times the
(at most two) rows of its Delta(F) bands it reads, in integers. The verify
suite reads that certificate alone; orthogonality_weights forms Omega and
the norms, for the table and the tests.

Every check of a family instance, here and in families and coproduct, takes
a Run: the artifacts of one verify run (Delta, its bands, the blocks, the
contiguity data, the eigenvalues), each built once, on first use, by the one
class that knows how, and dropped with the run. The twist check takes its
q-Racah point and a Delta instead. The raising, lowering and grading checks
return lists of report.CheckResult, as the other named checks do.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .algebras import (ModuleSpec, _phi, build_generators, check_identity, phi,
                       scalar_operator)
from .coproduct import build_delta
from .exactmath import InvalidParameterError, Scalar, format_scalar
from .families import (FamilyInstance, FamilyKind, SeriesTable, algebra_for, contiguity,
                       labels, make_instance, poly_block, tensor_label)
from .families import poly_value  # noqa: F401  bench/test_bench.py reads cgverify.poly_value
from .linalg import Column, RatMat, column_mismatches, integer_bands, integer_column
from .report import CheckResult, first_mismatch

__all__ = [
    "Run", "CGBlock", "WeightData", "DegenerateKernelError", "WeightSolutionError",
    "cg_block", "verify_raising", "verify_lowering", "lowest_weight_oracle",
    "orthogonality_weights", "verify_weight_grading",
    "tensor_lowering_eigenvalue", "component_eigenvalues", "random_instance",
]


class DegenerateKernelError(RuntimeError):
    """Delta(F) on some block is not upper bidiagonal, or its kernel there is
    not a line with nonzero first entry."""


class WeightSolutionError(RuntimeError):
    """A step of the weight certificate (orthogonality_weights) failed; the
    message names the step, its block and its entry, columns or column."""


@dataclass(frozen=True)
class CGBlock:
    """The CG block at level N, stored by columns: columns[k] = (a, c) holds
    P[n][k] = a[n] / c, c > 0, a and c coprime (linalg.integer_column).
    P is the reduced view, a RatMat of Fractions made on first read."""
    N: int
    columns: tuple[Column, ...]

    @classmethod
    def from_matrix(cls, N: int, P: RatMat) -> "CGBlock":
        """The block with the entries of P, each column its integer_column."""
        return cls(N, tuple(integer_column(P.column(k)) for k in range(P.cols)))

    @cached_property
    def P(self) -> RatMat:
        rows = tuple(zip(*(tuple(Fraction(x, c) for x in a) for a, c in self.columns)))
        return RatMat(len(rows), len(self.columns), rows)


@dataclass(frozen=True)
class WeightData:
    N: int
    omega: tuple[Scalar, ...]
    omega_prime: tuple[Scalar, ...]


def cg_block(inst: FamilyInstance | SeriesTable, N: int) -> CGBlock:
    """The CG block at level N, its columns from families.poly_block of inst,
    the instance or a SeriesTable of it: every entry equals poly_value(inst,
    n, k, N), and N outside 0..n_max is a ValueError."""
    return CGBlock(N, poly_block(inst, N))


def tensor_lowering_eigenvalue(inst: FamilyInstance, k: int, j: int) -> Scalar:
    """Lowering coefficient of the k-th tensor component at its level j."""
    return phi(algebra_for(inst), tensor_label(inst, k), j)


def component_eigenvalues(inst: FamilyInstance, N: int) -> tuple[Scalar, ...]:
    """Lambda_k = tensor_lowering_eigenvalue(inst, k, N - k), k = 0..N, on
    level N; Lambda_N = 0. The algebra is made once, and each tensor_label
    goes to phi as one unreduced integer pair (algebras._phi): with labels
    s1/t1, s2/t2 and q = u/v, (s1 t2 + s2 t1 + 2k t1 t2, t1 t2), or
    (s1 s2 u^k, t1 t2 v^k)."""
    algebra = algebra_for(inst)
    (s1, t1), (s2, t2) = (x.as_integer_ratio() for x in labels(inst))
    if inst.kind.is_q:
        (u, v), s, t = inst.q.as_integer_ratio(), s1 * s2, t1 * t2
        label = lambda k: (s * u ** k, t * v ** k)
    else:
        s, t = s1 * t2 + s2 * t1, t1 * t2
        label = lambda k: (s + 2 * k * t, t)
    return tuple(_phi(algebra, *label(k), N - k) for k in range(N + 1))


class Run:
    """The artifacts of one verify run of inst, each built on first use and
    shared by every check that reads it: each factor module with its
    generators (`relations`, `casimir`), the contiguity data, Delta, its
    integer bands (`raising`, `lowering`, `cg-oracle`, `orthogonality`;
    built from run.delta on first read), the CG blocks (integer columns,
    every level from one SeriesTable) and
    the component eigenvalues Lambda of every level (`lowering`,
    `orthogonality`). The contiguity data memoizes every coefficient it
    evaluates, so the contiguity check, Delta (hence every check that reads
    it) and the derived side of the algebraic-form check evaluate each
    coefficient once per run. No artifact outlives its run.

    Every check of inst takes the run and reads the artifacts it needs from
    it; raising and lowering read those of each level they walk. The twist
    check takes run.delta, not the run. Assigning an attribute (run.blocks =
    ..., run.delta = ...) before a check reads it replaces that artifact for
    the rest of the run; the bands of a Delta so given are split from it."""

    def __init__(self, inst: FamilyInstance):
        self.inst = inst

    @cached_property
    def factors(self):
        modules = [ModuleSpec(algebra_for(self.inst), label, self.inst.n_max)
                   for label in labels(self.inst)]
        return [(module, build_generators(module)) for module in modules]

    @cached_property
    def contiguity(self):
        return contiguity(self.inst)

    @cached_property
    def delta(self):
        return build_delta(self.inst, self.contiguity)

    @cached_property
    def blocks(self):
        table = SeriesTable(self.inst)  # its tables are made by the first level read
        return {N: cg_block(table, N) for N in range(self.inst.n_max + 1)}

    @cached_property
    def eigenvalues(self):
        return [component_eigenvalues(self.inst, N) for N in range(self.inst.n_max + 1)]

    @cached_property
    def bands(self):
        """(e, f): the integer rows of Delta(E) and Delta(F), {N:
        linalg.integer_bands of the block at source level N}, split once from
        the run's Delta for raising, lowering, the oracle and T_N."""
        return tuple({N: integer_bands(b, range(op.shape(N)[0])) for N, b in op.blocks.items()}
                     for op in (self.delta.e, self.delta.f))


def _k_major(N: int, bands, here, targets) -> list:
    """linalg.column_mismatches sorted by k: the sort is stable, so the
    points are walked k-major."""
    return sorted(column_mismatches(N, bands, here, targets), key=lambda point: point[0]["k"])


def _by_level(name: str, levels: range, step: int, level) -> list[CheckResult]:
    """One result per level N of levels, in order, for the map from block N
    to block N + step: level(N) gives its (bands, columns, targets), walked
    k-major (_k_major) and decided over integers; only the first failing
    point is reduced, into the witness. The walk stops after the first
    failing level, so the ranges read up to it."""
    results = []
    for N in levels:
        results.append(first_mismatch(name, f"block {N} -> {N + step}, 0<=k<={N}",
                                      _k_major(N, *level(N))))
        if not results[-1].passed:
            break
    return results


def verify_raising(run: Run) -> list[CheckResult]:
    """Delta(E) must map column k of block N to column k of block N+1, for
    N = 0..n_max-1 (_by_level)."""
    return _by_level("raising", range(run.inst.n_max), 1, lambda N: (
        run.bands[0][N], run.blocks[N].columns,
        [(1, 1, column) for column in run.blocks[N + 1].columns]))


def verify_lowering(run: Run) -> list[CheckResult]:
    """Delta(F) on column k of block N gives Lambda_k times column k of block
    N-1, for N = 1..n_max (_by_level); the k = N column dies."""
    def level(N):
        below, lam = run.blocks[N - 1].columns, run.eigenvalues[N]
        targets = [(*lam[k].as_integer_ratio(), below[k]) for k in range(N)]
        targets.append((0, 1, ((), 1)))
        return run.bands[1][N], run.blocks[N].columns, targets

    return _by_level("lowering", range(1, run.inst.n_max + 1), -1, level)


def lowest_weight_oracle(run: Run) -> list[CGBlock]:
    """Rebuild every CG block from the run's Delta alone; no CG value is read.

    For each k the kernel of Delta(F) on block k must be exactly
    one-dimensional; the kernel vector is scaled to first entry v_0 = 1,
    which is P_0(k, k) in every family (the (q-)binomial prefactor and the
    first series term are both 1 at n = 0), and its integer column seeds the
    k-th tower (_lowering_kernel). Delta(E) pushes it up: each level's
    integer bands (run.bands) are scaled to one denominator L, and column
    (a, c) maps to the band images over L c with the gcd divided out, the
    canonical linalg.integer_column that cg_block stores.
    """
    e_bands, f_bands = run.bands
    columns = []  # columns[N][k] is column k of block N
    for N in range(run.inst.n_max + 1):
        level = []
        if N:
            bands = e_bands[N - 1].values()
            L = lcm(*(d for _, d in bands))
            rows = [[(j, t * (L // d)) for j, t in band] for band, d in bands]
            for a, c in columns[-1]:
                tops = []
                for row in rows:
                    top = 0
                    for j, t in row:
                        top += t * a[j]
                    tops.append(top)
                g = gcd(L * c, *tops)
                level.append((tuple([x // g for x in tops]), L * c // g))
        level.append(_lowering_kernel(f_bands[N], N))
        columns.append(level)
    return [CGBlock(N, tuple(level)) for N, level in enumerate(columns)]


def _lowering_kernel(bands, k: int) -> Column:
    """The integer column of the kernel vector of Delta(F) on block k, given
    as its integer bands, scaled to v_0 = 1, in O(k).

    Delta(F) there must be upper bidiagonal, [i][i] = beta2(i, k) and
    [i][i+1] = beta1(i, k); an entry off that band is refused. With every
    beta1 nonzero, as make_instance certifies, the kernel is the line
    v_{i+1} = -beta2(i, k) v_i / beta1(i, k), a ratio of two tops of row i,
    so its denominator cancels; v_i is one integer pair, reduced at each
    step. A zero beta1(i, k) cuts off rows and columns up to i as a square
    triangular block: singular (a zero beta2 in it) it adds a kernel
    dimension, else it forces v_0 = 0."""
    rows = [dict(bands[i][0]) for i in range(k)]
    for i, row in enumerate(rows):
        far = [j for j in row if j - i not in (0, 1)]
        if far:
            raise DegenerateKernelError(
                f"Delta(F) on block {k} has entry [{i}][{min(far)}] off its upper bidiagonal")
    down = [row.get(i, 0) for i, row in enumerate(rows)]
    up = [row.get(i + 1, 0) for i, row in enumerate(rows)]
    if not all(up):
        dim, singular = 1, False
        for d, u in zip(down, up):
            singular = singular or not d
            if not u:
                dim, singular = dim + singular, False
        raise DegenerateKernelError(
            f"kernel of the lowering map on block {k} has dimension {dim}, expected 1"
            if dim != 1 else f"kernel vector on block {k} has first entry 0, so it "
            f"cannot be scaled to P_0({k}, {k}) = 1")
    vec = [(1, 1)]
    for d, u in zip(down, up):
        top, bottom = vec[-1]
        top, bottom = -d * top, u * bottom
        g = gcd(top, bottom)
        vec.append((top // g, bottom // g))
    return integer_column(vec)


def orthogonality_weights(run: Run, N: int) -> WeightData:
    """The weights Omega, Omega_0 = 1, making the CG columns of block N
    orthogonal with nonzero norms, unique up to scale (signs as found):

        sum_n P[n][k] P[n][l] Omega_n = delta_{k,l} Omega'_l

    Omega is certified by commutation with T = T_N = Delta(E) Delta(F) on
    level N, built from the run's bands of Delta (_t_rows), and block N; N
    outside 0..n_max is a ValueError, and a failed step raises
    WeightSolutionError naming it:

    1. T is tridiagonal, and none of T[n][n+1], T[n+1][n] is zero;
    2. Omega_{n+1} / Omega_n = T[n][n+1] / T[n+1][n], so W = diag(Omega) is
       invertible and, as T is tridiagonal, W T is symmetric;
    3. Lambda_k = tensor_lowering_eigenvalue(inst, k, N - k), which is 0 at
       k = N, are pairwise distinct (the run's eigenvalues of level N);
    4. T P = P Lambda exactly;
    5. no column of P is zero.

    Proof. By 3, 4 and 5 the columns of P are nonzero eigenvectors of
    distinct eigenvalues, so P is invertible, and by 2 so is G = P^T W P. G
    satisfies Lambda G = P^T T^T W P = P^T W T P = G Lambda by 4 and 2, so
    by 3 G is diagonal: Omega solves every off-diagonal equation, and G's
    diagonal holds the norms, none zero as G is invertible. Any diagonal W'
    with P^T W' P = D' diagonal gives W' T = P^-T D' Lambda P^-1, which is
    symmetric, so W'_{n+1} T[n+1][n] = W'_n T[n][n+1], and by 1 W' = W'_0
    Omega: the solution space is the line through Omega. T is a witness
    checked exactly, so the proof never rests on Delta being right. The
    verify suite decides steps 1, 3, 4 and 5 alone (_weight_certificate),
    and forms no weight and no norm; Omega and the norms are formed here.

    On an instance make_instance accepts, with Delta and the blocks right, no
    step fails. 1: Delta(E) has entries [n][n-1] and [n][n] and Delta(F)
    [m][m] and [m][m+1], so T is tridiagonal, and validation keeps T[n][n+1]
    = alpha2(n, N-1) beta1(n, N) and T[n+1][n] = alpha1(n+1, N-1) beta2(n,
    N) nonzero. 3: its label conditions keep the component lowering
    coefficients distinct. 4 is the intertwining. 5: P[0][l] = P_0(l, N) = 1.
    """
    rows = _weight_certificate(run, N)
    omega = [Fraction(1)]
    for n in range(N):
        (row, d), (below, d1) = rows[n], rows[n + 1]
        omega.append(omega[-1] * Fraction(row[n + 1] * d1, d * below[n]))
    w, L = integer_column(omega)
    norms = (Fraction(sum(x * x * y for x, y in zip(a, w)), c * c * L)
             for a, c in run.blocks[N].columns)
    return WeightData(N, tuple(omega), tuple(norms))


def _weight_certificate(run: Run, N: int) -> list[tuple[dict[int, int], int]]:
    """Steps 1, 3, 4 and 5 of orthogonality_weights over integers, with no
    weight or norm formed; returns the rows of T_N (_t_rows)."""
    if not 0 <= N <= run.inst.n_max:
        raise ValueError("orthogonality weights need 0 <= N <= n_max")

    def failed(step, what):
        return WeightSolutionError(f"block {N}, step {step}: {what}")

    rows = _t_rows(run, N)
    for i, (row, _) in enumerate(rows):
        far = [j for j in row if abs(i - j) > 1]
        if far:
            raise failed(1, f"T_N[{i}][{min(far)}] lies off the tridiagonal band")
        for j in (i - 1, i + 1):
            if 0 <= j <= N and j not in row:
                raise failed(1, f"T_N[{i}][{j}] vanishes, so no diagonal symmetrizes T_N")
    lam = run.eigenvalues[N]
    if len({x.as_integer_ratio() for x in lam}) < len(lam):
        l, x = next((l, x) for l, x in enumerate(lam) if x in lam[:l])
        raise failed(3, f"Lambda_{lam.index(x)} = Lambda_{l} = {format_scalar(x)}")
    # against itself, a column's denominator drops out
    own = [(a, 1) for a, _ in run.blocks[N].columns]
    T = {i: (list(row.items()), d) for i, (row, d) in enumerate(rows)}
    bad = _k_major(N, T, own, [(*x.as_integer_ratio(), a) for a, x in zip(own, lam)])
    if bad:
        i, l = bad[0][0]["n"], bad[0][0]["k"]
        raise failed(4, f"(T_N P)[{i}][{l}] != (P Lambda)[{i}][{l}]")
    for l, (a, _) in enumerate(own):
        if not any(a):
            raise failed(5, f"Omega' vanishes at column {l}")
    return rows


def _t_rows(run: Run, N: int) -> list[tuple[dict[int, int], int]]:
    """Rows 0..N of T_N = Delta(E) Delta(F) on level N, row i as ({j: t_ij},
    d_i) with T[i][j] = t_ij / d_i, from the run's bands: row i of Delta(E)
    at level N-1, over d, times the rows m of Delta(F) at level N it reads,
    u_m / d_m, is sum_m t_m u_m prod_{m' != m} d_m' over d prod_m d_m, with
    its gcd divided out and no zero entry. Without both levels (N = 0: F
    maps to the zero space) the rows are empty."""
    e, f = run.bands[0].get(N - 1), run.bands[1].get(N)
    if e is None or f is None:
        return [({}, 1)] * (N + 1)
    rows = []
    for i in range(N + 1):
        band, d = e[i]
        acc, b = {}, 1  # sum_m t_m (row m of F) = acc / b
        for m, t in band:
            fband, fd = f[m]
            if fd != 1:
                for j in acc:
                    acc[j] *= fd
            for j, u in fband:
                acc[j] = acc.get(j, 0) + t * u * b
            b *= fd
        d *= b
        g = gcd(d, *acc.values())
        rows.append(({j: x // g for j, x in acc.items() if x}, d // g))
    return rows


def verify_weight_grading(run: Run) -> list[CheckResult]:
    """Delta(H) (or Delta(K)) must act on block N as the scalar
    tensor_label(inst, N): lambda1 + lambda2 + 2N (or kappa1 kappa2 q^N).
    One algebras.check_identity against that scalar operator decides every
    level; the row-major first failing entry of the first failing level is
    the witness {N, row, col}."""
    inst, hk = run.inst, run.delta.hk
    label = scalar_operator(hk.dims, lambda N: tensor_label(inst, N))
    return [check_identity("weight-grading", f"blocks 0..{inst.n_max}", range(inst.n_max + 1),
                           [(1, (hk,))], [(1, (label,))], hk.dims, "N")]


# ---------------------------------------------------------------------------
# random draws
# ---------------------------------------------------------------------------

def _unit_fraction(rng) -> Fraction:
    den = rng.randint(2, 20)
    return Fraction(rng.randint(1, den - 1), den)


def _positive_fraction(rng) -> Fraction:
    return Fraction(rng.randint(1, 20), rng.randint(1, 20))


def _draw_params(kind: FamilyKind, rng) -> dict:
    if kind is FamilyKind.HAHN:
        return {"alpha": _positive_fraction(rng), "beta": _positive_fraction(rng),
                "lambda1": _positive_fraction(rng), "lambda2": _positive_fraction(rng)}
    if kind is FamilyKind.KRAWTCHOUK:
        return {"p": _unit_fraction(rng),
                "lambda1": _positive_fraction(rng), "lambda2": _positive_fraction(rng)}
    if kind is FamilyKind.DUAL_HAHN:
        l1 = 1 + _positive_fraction(rng)
        l2 = 1 + _positive_fraction(rng)
        # alpha strictly between 0 and l1 + l2 - 2 keeps both alpha, beta > -1
        return {"lambda1": l1, "lambda2": l2,
                "alpha": (l1 + l2 - 2) * _unit_fraction(rng)}
    if kind is FamilyKind.RACAH:
        return {"lambda1": 1 + _positive_fraction(rng),
                "lambda2": 1 + _positive_fraction(rng),
                "alpha": _unit_fraction(rng), "beta": _unit_fraction(rng)}
    base = Fraction(rng.randint(1, 3), rng.randint(2, 4))
    while base >= 1:
        base = Fraction(rng.randint(1, 3), rng.randint(2, 4))
    q = base ** 2  # squares keep q^(1/2) rational for the U_q(sl2) checks
    # labels in (0, 1) keep every kappa-dependent denominator away from 1
    return {"q": q, "alpha": _unit_fraction(rng), "beta": _unit_fraction(rng),
            "kappa1": _unit_fraction(rng), "kappa2": _unit_fraction(rng)}


_MAX_TRIES = 200


def random_instance(kind: FamilyKind | str, rng, n_max: int = 8) -> FamilyInstance:
    """Draw a valid instance: numerators and denominators of drawn rationals
    stay <= 20, redrawing on validation failure; n_max < 1 raises before any draw."""
    kind = FamilyKind(kind)
    if n_max < 1:
        raise InvalidParameterError("n_max must be at least 1")
    for _ in range(_MAX_TRIES):
        try:
            return make_instance(kind, n_max=n_max, **_draw_params(kind, rng))
        except InvalidParameterError:
            continue
    raise RuntimeError(f"no valid draw for {kind.value} after {_MAX_TRIES} tries")

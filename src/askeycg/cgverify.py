"""Clebsch-Gordan blocks, the independent lowest-weight oracle, and the
orthogonality weights.

A CG block at total level N is the (N+1) x (N+1) matrix P with P[n][k] =
P_n(k, N); its column k holds the coordinates of the k-th adapted basis
vector in the product basis (n, N-n). cg_block builds it in one integer pass
(families.poly_block), straight from the series, never from the contiguity
recurrence or another block; it equals poly_value entry by entry.

Column k of the level-N block must be mapped by Delta(E) onto column k of
level N+1, and by Delta(F) onto the lowering coefficient of the component
with label index k times column k of level N-1; the k = N column must be
annihilated.

The oracle rebuilds the same columns from Delta alone, reading no CG value
and evaluating no polynomial: the kernel of Delta(F) on block k (which must
be one-dimensional), scaled to first entry v_0 = 1 = P_0(k, k), seeds the
k-th tower, and repeated application of Delta(E) fills in the higher levels.
Entrywise agreement with the polynomial route is the central certificate.

The orthogonality weights Omega solve sum_n P[n][k] P[n][l] Omega_n = 0 for
k != l. Since the CG matrix intertwines the coproduct with the sum of the
irreducible components, column k of block N is an eigenvector of the
tridiagonal T_N = Delta(E) Delta(F) on level N with eigenvalue the component
lowering coefficient phi(tensor_label(k), N - k), and the diagonal that
symmetrizes T_N is Omega. So Omega is certified by commutation, in O(N^2)
integer operations: T_N has nonzero off-diagonal entries and distinct
eigenvalues, T_N P = P Lambda exactly, and every norm Omega'_l is nonzero
(_certified_weights gives the proof). When a step fails, Omega comes from
the full solve, Bareiss elimination of all N(N+1)/2 equations, whose result
or error is the verdict. T_N is a witness checked exactly: the weights never
rest on Delta being right.

random_instance draws seeded instances whose blocks all admit orthogonality
weights; it lives here because that test is orthogonality_weights itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebras import _apply_pairs, _block_product, check_identity, phi, scalar_operator
from .coproduct import Delta, build_delta
from .exactmath import InvalidParameterError, Scalar, format_scalar, product_sum
from .families import (FamilyInstance, FamilyKind, algebra_for, make_instance,
                       poly_block, tensor_label)
from .families import poly_value  # noqa: F401  bench/test_bench.py reads cgverify.poly_value
from .linalg import RatMat, integer_vector, nullspace, rank
from .report import Report, first_mismatch

__all__ = [
    "CGBlock", "WeightData", "DegenerateKernelError", "WeightSolutionError",
    "cg_block", "verify_raising", "verify_lowering", "lowest_weight_oracle",
    "orthogonality_weights", "verify_weight_grading",
    "tensor_lowering_eigenvalue", "random_instance",
]


class DegenerateKernelError(RuntimeError):
    """The lowering kernel on some block is not a line with nonzero first entry."""


class WeightSolutionError(RuntimeError):
    """The orthogonality weight system has no one-dimensional solution, or a
    normalization or norm vanished."""


@dataclass(frozen=True)
class CGBlock:
    N: int
    P: RatMat

    def to_doc(self) -> dict:
        return {"N": self.N,
                "P": [[format_scalar(x) for x in row] for row in self.P.a]}


@dataclass(frozen=True)
class WeightData:
    N: int
    omega: tuple[Scalar, ...]
    omega_prime: tuple[Scalar, ...]

    def to_doc(self) -> dict:
        return {"N": self.N,
                "omega": [format_scalar(x) for x in self.omega],
                "omega_prime": [format_scalar(x) for x in self.omega_prime],
                "normalization": "omega0=1"}


def cg_block(inst: FamilyInstance, N: int) -> CGBlock:
    """The CG block at level N, from families.poly_block: every entry equals
    poly_value(inst, n, k, N), and N outside 0..n_max is a ValueError."""
    return CGBlock(N, RatMat(N + 1, N + 1, poly_block(inst, N)))


def tensor_lowering_eigenvalue(inst: FamilyInstance, k: int, j: int) -> Scalar:
    """Lowering coefficient of the k-th tensor component at its level j."""
    return phi(algebra_for(inst), tensor_label(inst, k), j)


def verify_raising(inst: FamilyInstance, N: int,
                   blocks: dict[int, CGBlock] | None = None,
                   delta: Delta | None = None) -> Report:
    """Delta(E) must map column k of block N to column k of block N+1. The
    images are unreduced pairs (algebras._apply_pairs), compared with the
    block entries by first_mismatch; only a witness is reduced."""
    if not 0 <= N < inst.n_max:
        raise ValueError("raising check needs 0 <= N < n_max")
    delta = delta or build_delta(inst)
    blocks = blocks or {}
    here = blocks.get(N) or cg_block(inst, N)
    above = blocks.get(N + 1) or cg_block(inst, N + 1)

    def sides():
        for k in range(N + 1):
            image = _apply_pairs(delta.e, N, here.P.column(k))
            for n in range(N + 2):
                yield {"N": N, "n": n, "k": k}, image[n], above.P.entry(n, k)

    rep = Report(suite=f"raising:{inst.kind.value}", params=inst.to_doc())
    rep.add(first_mismatch("raising", f"block {N} -> {N + 1}, 0<=k<={N}", sides()))
    return rep


def verify_lowering(inst: FamilyInstance, N: int,
                    blocks: dict[int, CGBlock] | None = None,
                    delta: Delta | None = None) -> Report:
    """Delta(F) on column k of block N gives the component lowering
    eigenvalue times column k of block N-1; the k = N column dies. Both
    sides are unreduced pairs, the image from algebras._apply_pairs and the
    product from product_sum; only a witness is reduced."""
    if not 1 <= N <= inst.n_max:
        raise ValueError("lowering check needs 1 <= N <= n_max")
    delta = delta or build_delta(inst)
    blocks = blocks or {}
    here = blocks.get(N) or cg_block(inst, N)
    below = blocks.get(N - 1) or cg_block(inst, N - 1)

    def sides():
        for k in range(N + 1):
            image = _apply_pairs(delta.f, N, here.P.column(k))
            eig = tensor_lowering_eigenvalue(inst, k, N - k) if k < N else 0
            for n in range(N):
                want = product_sum([(eig, below.P.entry(n, k))]) if k < N else 0
                yield {"N": N, "n": n, "k": k}, image[n], want

    rep = Report(suite=f"lowering:{inst.kind.value}", params=inst.to_doc())
    rep.add(first_mismatch("lowering", f"block {N} -> {N - 1}, 0<=k<={N}", sides()))
    return rep


def lowest_weight_oracle(inst: FamilyInstance, delta: Delta | None = None) -> list[CGBlock]:
    """Rebuild every CG block from the coproduct alone; no CG value is read.

    For each k the kernel of Delta(F) on block k must be exactly
    one-dimensional; the kernel vector is scaled to first entry v_0 = 1,
    which is P_0(k, k) in every family (the (q-)binomial prefactor and the
    first series term are both 1 at n = 0), then pushed up with Delta(E).

    An accepted instance reaches neither DegenerateKernelError. On block k,
    Delta(F) is the k x (k+1) upper bidiagonal matrix with Delta(F)[i][i] =
    beta2(i, k) and Delta(F)[i][i+1] = beta1(i, k), and make_instance
    certifies every factor of beta1(i, k) nonzero for 0 <= i < k <= n_max.
    So v_{i+1} = -beta2(i, k) v_i / beta1(i, k): the kernel is one line, and
    v_0 = 0 would force v = 0.
    """
    delta = delta or build_delta(inst)
    nm = inst.n_max
    columns: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    for k in range(nm + 1):
        basis = nullspace(delta.f.dense(k))
        if len(basis) != 1:
            raise DegenerateKernelError(
                f"kernel of the lowering map on block {k} has dimension "
                f"{len(basis)}, expected 1")
        vec = basis[0]
        if vec[0] == 0:
            raise DegenerateKernelError(
                f"kernel vector on block {k} has first entry 0, so it cannot be "
                f"scaled to P_0({k}, {k}) = 1")
        vec = tuple(x / vec[0] for x in vec)
        columns[(k, k)] = vec
        for N in range(k, nm):
            vec = delta.e.apply(N, vec)
            columns[(k, N + 1)] = vec
    return [CGBlock(N, RatMat.build(N + 1, N + 1, lambda n, k, N=N: columns[k, N][n]))
            for N in range(nm + 1)]


def orthogonality_weights(inst: FamilyInstance, N: int,
                          block: CGBlock | None = None,
                          delta: Delta | None = None) -> WeightData:
    """Solve for the diagonal weights Omega making the CG columns orthogonal:

        sum_n P[n][k] P[n][l] Omega_n = delta_{k,l} Omega'_l

    The homogeneous off-diagonal system must have a one-dimensional solution
    space; Omega is normalized to Omega_0 = 1 and every Omega'_l must be
    nonzero. Signs are reported as found; no positivity is claimed.

    With `delta` given, the diagonal that symmetrizes T_N = Delta(E) Delta(F)
    is tried first and certified by commutation (_certified_weights): T_N P =
    P Lambda with distinct eigenvalues and nonzero norms. When T_N has a zero
    off-diagonal entry or a step fails, the full solve below runs, and its
    result or error is the verdict.
    """
    P = (block or cg_block(inst, N)).P
    if delta is not None:
        found = _certified_weights(inst, P, N, delta)
        if found:
            return found
    if rank(P) != N + 1:
        raise WeightSolutionError(f"CG block {N} is singular")
    if N == 0:
        return WeightData(0, (Fraction(1),), (P.entry(0, 0) ** 2,))
    rows = []
    for k in range(N + 1):
        for l in range(k + 1, N + 1):
            rows.append([P.entry(n, k) * P.entry(n, l) for n in range(N + 1)])
    basis = nullspace(RatMat.from_rows(rows))
    if len(basis) != 1:
        raise WeightSolutionError(
            f"weight solution space at block {N} has dimension {len(basis)}, "
            f"expected 1")
    omega = basis[0]
    if omega[0] == 0:
        raise WeightSolutionError("weight normalization Omega_0 vanishes")
    omega = tuple(x / omega[0] for x in omega)
    omega_prime = []
    for l in range(N + 1):
        norm = sum((P.entry(n, l) ** 2 * omega[n] for n in range(N + 1)),
                   Fraction(0))
        if norm == 0:
            raise WeightSolutionError(f"Omega' vanishes at column {l}")
        omega_prime.append(norm)
    return WeightData(N, omega, tuple(omega_prime))


def _certified_weights(inst: FamilyInstance, P: RatMat, N: int,
                       delta: Delta) -> WeightData | None:
    """The weights of P certified by commutation with T, the tridiagonal part
    of T_N = Delta(E) Delta(F) on level N, or None when a step fails:

    1. none of T[n][n+1], T[n+1][n] is zero;
    2. Omega_0 = 1 and Omega_{n+1} / Omega_n = T[n][n+1] / T[n+1][n], so
       W T is symmetric for W = diag(Omega);
    3. Lambda_k = tensor_lowering_eigenvalue(inst, k, N - k), which is 0 at
       k = N, are pairwise distinct;
    4. T P = P Lambda exactly;
    5. every norm Omega'_l = sum_n P[n][l]^2 Omega_n is nonzero.

    Proof. G = P^T W P satisfies Lambda G = P^T T^T W P = P^T W T P = G Lambda
    by 4 and 2, so by 3 G is diagonal: Omega solves every off-diagonal
    equation, and G's diagonal holds the norms. By 5 G is nonsingular, hence
    so is P. Any diagonal W' with P^T W' P = D' diagonal gives
    W' T = P^-T D' Lambda P^-1, which is symmetric, so W'_{n+1} T[n+1][n] =
    W'_n T[n][n+1], and by 1 W' = W'_0 Omega: the solution space is the line
    through Omega. T is a witness checked exactly, so the proof never rests
    on Delta being right. All checks run over integers: row i of T is t_i /
    d_i and column l of P is a_l / c_l."""
    T = {ij: Fraction(*pair)
         for ij, pair in (_block_product(delta.e, delta.f, N) or {}).items() if pair[0]}
    omega = [Fraction(1)]
    for n in range(N):
        up, down = T.get((n, n + 1)), T.get((n + 1, n))
        if not up or not down:
            return None
        omega.append(omega[-1] * up / down)
    lam = [tensor_lowering_eigenvalue(inst, k, N - k) for k in range(N + 1)]
    if len(set(lam)) <= N:
        return None
    rows = []
    for i in range(N + 1):
        band = [j for j in (i - 1, i, i + 1) if (i, j) in T]
        t, d = integer_vector([T[i, j] for j in band])
        rows.append((list(zip(band, t)), d))
    cols = [integer_vector(P.column(l)) for l in range(N + 1)]
    for (a, _), x in zip(cols, lam):
        xn, xd = x.as_integer_ratio()
        for i, (row, d) in enumerate(rows):
            if xd * sum(t * a[j] for j, t in row) != xn * d * a[i]:
                return None
    w, L = integer_vector(omega)
    omega_prime = []
    for a, c in cols:
        norm = sum(x * x * y for x, y in zip(a, w))
        if not norm:
            return None
        omega_prime.append(Fraction(norm, c * c * L))
    return WeightData(N, tuple(omega), tuple(omega_prime))


def verify_weight_grading(inst: FamilyInstance, delta: Delta | None = None) -> Report:
    """Delta(H) (or Delta(K)) must act on block N as the scalar
    tensor_label(inst, N): lambda1 + lambda2 + 2N (or kappa1 kappa2 q^N)."""
    delta = delta or build_delta(inst)
    expected = scalar_operator(delta.hk.dims, lambda N: tensor_label(inst, N))
    rep = Report(suite=f"weight-grading:{inst.kind.value}", params=inst.to_doc())
    rep.add(check_identity("weight-grading", f"blocks 0..{inst.n_max}", range(inst.n_max + 1),
                           [(1, (delta.hk,))], [(1, (expected,))], delta.hk.dims, "N"))
    return rep


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
    stay <= 20, redrawing on validation failure. A draw is also rejected when
    orthogonality_weights fails on some block 1..n_max (a singular block, a
    weight system without a one-dimensional solution, or a zero norm), since
    that would defeat the basis-change and orthogonality checks the draws
    exist to feed."""
    kind = FamilyKind(kind)
    for _ in range(_MAX_TRIES):
        try:
            inst = make_instance(kind, n_max=n_max, **_draw_params(kind, rng))
            delta = build_delta(inst)
            for N in range(1, n_max + 1):
                orthogonality_weights(inst, N, delta=delta)
        except (InvalidParameterError, WeightSolutionError):
            continue
        return inst
    raise RuntimeError(f"no valid draw for {kind.value} after {_MAX_TRIES} tries")

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

The oracle rebuilds the same columns without evaluating a single polynomial:
the kernel of Delta(F) on block k (which must be one-dimensional) seeds the
k-th tower, and repeated application of Delta(E) fills in the higher levels.
Entrywise agreement with the polynomial route is the central certificate.

The orthogonality weights Omega solve sum_n P[n][k] P[n][l] Omega_n = 0 for
k != l. The columns of block N are eigenvectors of the tridiagonal
T_N = Delta(E) Delta(F) on level N, and the diagonal that symmetrizes T_N is
a candidate Omega, read in O(N) from two bidiagonal blocks of Delta. The
candidate is certified on P alone, in integer arithmetic: it solves every
off-diagonal equation (existence), the equations (0, l) have rank N modulo a
prime, so no other normalized solution exists (uniqueness), and every norm
Omega'_l is nonzero, which also makes P nonsingular. When T_N has a zero
off-diagonal entry or a step fails, Omega comes from the full solve, Bareiss
elimination of all N(N+1)/2 equations, whose result or error is the verdict.
Delta only proposes; the weights never rest on it.

random_instance draws seeded instances whose blocks all admit orthogonality
weights; it lives here because that test is orthogonality_weights itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebras import check_identity, phi, scalar_operator
from .coproduct import Delta, build_delta
from .exactmath import InvalidParameterError, Scalar, format_scalar, parse_scalar
from .families import (FamilyInstance, FamilyKind, algebra_for, block_values,
                       make_instance, poly_block, tensor_label)
from .families import poly_value  # noqa: F401  bench/test_bench.py reads cgverify.poly_value
from .linalg import RatMat, integer_vector, nullspace, rank, rank_mod
from .report import Report, first_mismatch

__all__ = [
    "CGBlock", "WeightData", "DegenerateKernelError", "WeightSolutionError",
    "cg_block", "verify_raising", "verify_lowering", "lowest_weight_oracle",
    "orthogonality_weights", "verify_weight_grading",
    "tensor_lowering_eigenvalue", "random_instance",
]


class DegenerateKernelError(RuntimeError):
    """The lowering kernel on some block is not one-dimensional."""


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

    @staticmethod
    def from_doc(doc: dict) -> "CGBlock":
        P = RatMat.from_rows([[parse_scalar(x) for x in row] for row in doc["P"]])
        return CGBlock(int(doc["N"]), P)


@dataclass(frozen=True)
class WeightData:
    N: int
    omega: tuple[Scalar, ...]
    omega_prime: tuple[Scalar, ...]
    normalization: str = "omega0=1"

    def to_doc(self) -> dict:
        return {"N": self.N,
                "omega": [format_scalar(x) for x in self.omega],
                "omega_prime": [format_scalar(x) for x in self.omega_prime],
                "normalization": self.normalization}

    @staticmethod
    def from_doc(doc: dict) -> "WeightData":
        return WeightData(int(doc["N"]),
                          tuple(parse_scalar(x) for x in doc["omega"]),
                          tuple(parse_scalar(x) for x in doc["omega_prime"]),
                          doc.get("normalization", "omega0=1"))


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
    """Delta(E) must map column k of block N to column k of block N+1."""
    if not 0 <= N < inst.n_max:
        raise ValueError("raising check needs 0 <= N < n_max")
    delta = delta or build_delta(inst)
    blocks = blocks or {}
    here = blocks.get(N) or cg_block(inst, N)
    above = blocks.get(N + 1) or cg_block(inst, N + 1)

    def sides():
        for k in range(N + 1):
            image = delta.e.apply(N, here.P.column(k))
            for n in range(N + 2):
                yield {"N": N, "n": n, "k": k}, image[n], above.P.entry(n, k)

    rep = Report(suite=f"raising:{inst.kind.value}", params=inst.to_doc())
    rep.add(first_mismatch("raising", f"block {N} -> {N + 1}, 0<=k<={N}", sides()))
    return rep


def verify_lowering(inst: FamilyInstance, N: int,
                    blocks: dict[int, CGBlock] | None = None,
                    delta: Delta | None = None) -> Report:
    """Delta(F) on column k of block N gives the component lowering
    eigenvalue times column k of block N-1; the k = N column dies."""
    if not 1 <= N <= inst.n_max:
        raise ValueError("lowering check needs 1 <= N <= n_max")
    delta = delta or build_delta(inst)
    blocks = blocks or {}
    here = blocks.get(N) or cg_block(inst, N)
    below = blocks.get(N - 1) or cg_block(inst, N - 1)

    def sides():
        for k in range(N + 1):
            image = delta.f.apply(N, here.P.column(k))
            eig = tensor_lowering_eigenvalue(inst, k, N - k) if k < N else Fraction(0)
            for n in range(N):
                want = eig * below.P.entry(n, k) if k < N else Fraction(0)
                yield {"N": N, "n": n, "k": k}, image[n], want

    rep = Report(suite=f"lowering:{inst.kind.value}", params=inst.to_doc())
    rep.add(first_mismatch("lowering", f"block {N} -> {N - 1}, 0<=k<={N}", sides()))
    return rep


def lowest_weight_oracle(inst: FamilyInstance,
                         blocks: dict[int, CGBlock] | None = None,
                         delta: Delta | None = None) -> list[CGBlock]:
    """Rebuild every CG block from the coproduct alone.

    For each k the kernel of Delta(F) on block k must be exactly
    one-dimensional; the kernel vector is normalized so its n = 0 entry
    matches P_0(k, k) (anchoring at the smallest nonzero entry if that one
    ever vanished), then pushed up with Delta(E). The anchor values are read
    from `blocks` when given; nothing else is taken from the polynomials.
    """
    delta = delta or build_delta(inst)
    value = block_values(inst, blocks)
    nm = inst.n_max
    columns: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    for k in range(nm + 1):
        basis = nullspace(delta.f.dense(k))
        if len(basis) != 1:
            raise DegenerateKernelError(
                f"kernel of the lowering map on block {k} has dimension "
                f"{len(basis)}, expected 1")
        vec = basis[0]
        anchor = next((i for i in range(k + 1)
                       if vec[i] != 0 and value(i, k, k) != 0), None)
        if anchor is None:
            raise DegenerateKernelError(
                f"kernel vector on block {k} cannot be normalized against the "
                f"polynomial column")
        scale = value(anchor, k, k) / vec[anchor]
        vec = tuple(scale * x for x in vec)
        columns[(k, k)] = vec
        for N in range(k, nm):
            vec = delta.e.apply(N, vec)
            columns[(k, N + 1)] = vec
    out = []
    for N in range(nm + 1):
        out.append(CGBlock(N, RatMat.build(
            N + 1, N + 1, lambda n, k: columns[(k, N)][n])))
    return out


def orthogonality_weights(inst: FamilyInstance, N: int,
                          block: CGBlock | None = None,
                          delta: Delta | None = None) -> WeightData:
    """Solve for the diagonal weights Omega making the CG columns orthogonal:

        sum_n P[n][k] P[n][l] Omega_n = delta_{k,l} Omega'_l

    The homogeneous off-diagonal system must have a one-dimensional solution
    space; Omega is normalized to Omega_0 = 1 and every Omega'_l must be
    nonzero. Signs are reported as found; no positivity is claimed.

    With `delta` given, the diagonal that symmetrizes T_N = Delta(E) Delta(F)
    is tried first and certified on P (see the module docstring): existence,
    uniqueness by a rank mod a prime, and nonzero norms. When T_N has a zero
    off-diagonal entry or a step fails, the full solve below runs, and its
    result or error is the verdict.
    """
    P = (block or cg_block(inst, N)).P
    if delta is not None:
        omega = _symmetrizer(delta, N)
        found = _certified_weights(P, N, omega) if omega else None
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


def _symmetrizer(delta: Delta, N: int) -> list[Fraction] | None:
    """Omega with Omega_0 = 1 and Omega_{n+1} / Omega_n = T[n][n+1] / T[n+1][n]
    for the tridiagonal T = Delta(E)_{N-1 -> N} Delta(F)_{N -> N-1}, read off
    the two bidiagonal blocks; None when an off-diagonal entry of T vanishes."""
    e, f = delta.e.blocks.get(N - 1, {}), delta.f.blocks.get(N, {})
    omega = [Fraction(1)]
    for n in range(N):
        up = e.get((n, n), 0) * f.get((n, n + 1), 0)
        down = e.get((n + 1, n), 0) * f.get((n, n), 0)
        if not up or not down:
            return None
        omega.append(omega[-1] * up / down)
    return omega


# a fixed prime for the uniqueness step; any prime gives a valid certificate
_PRIME = (1 << 61) - 1


def _certified_weights(P: RatMat, N: int, omega: list[Fraction]) -> WeightData | None:
    """WeightData(N, omega, ...) if omega provably is the normalized solution
    of the weight system of P and every norm is nonzero, else None. All sums
    run over integers: column l of P is a_l / c_l and Omega is w / L."""
    cols = [integer_vector(P.column(k)) for k in range(N + 1)]
    w, L = integer_vector(omega)
    weighted = [[x * y for x, y in zip(a, w)] for a, _ in cols]
    # existence: omega solves every off-diagonal row
    for k in range(N + 1):
        a = cols[k][0]
        for l in range(k + 1, N + 1):
            if sum(x * y for x, y in zip(a, weighted[l])):
                return None
    # uniqueness: the rows (0, l) alone leave at most a line of solutions
    a0 = cols[0][0]
    if rank_mod([[x * y for x, y in zip(a0, cols[l][0])]
                 for l in range(1, N + 1)], _PRIME) != N:
        return None
    # norms: nonzero, so P^T Omega P is nonsingular and so is P
    omega_prime = []
    for (a, c), aw in zip(cols, weighted):
        norm = sum(x * y for x, y in zip(a, aw))
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


def random_instance(kind: FamilyKind | str, rng, n_max: int = 8,
                    max_tries: int = 200) -> FamilyInstance:
    """Draw a valid instance: numerators and denominators of drawn rationals
    stay <= 20, redrawing on validation failure. A draw is also rejected when
    orthogonality_weights fails on some block 1..n_max (a singular block, a
    weight system without a one-dimensional solution, or a zero norm), since
    that would defeat the basis-change and orthogonality checks the draws
    exist to feed."""
    kind = FamilyKind(kind)
    for _ in range(max_tries):
        try:
            inst = make_instance(kind, n_max=n_max, **_draw_params(kind, rng))
            delta = build_delta(inst)
            for N in range(1, n_max + 1):
                orthogonality_weights(inst, N, delta=delta)
        except (InvalidParameterError, WeightSolutionError):
            continue
        return inst
    raise RuntimeError(f"no valid draw for {kind.value} after {max_tries} tries")

"""Named state families with closed-form reference values.

Each generator returns a validated DensityMatrix; the *_analytics helpers
return the closed-form quantum mi, best projective record mi and their
difference where those are known exactly, so optimizer output can be
checked against them.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .linalg import (
    DensityMatrix,
    DimensionMismatchError,
    InvalidStateError,
    binary_entropy,
    fourier_matrix,
    shannon_entropy,
    xlog2x,
)
from .measures import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    MiSearchResult,
    Povm,
    ProjectiveBasis,
    classical_mutual_info,
    joint_distribution,
    maximize_mi_povm,
    maximize_mi_projective,
    quantum_mutual_info,
)
from .optimize import OptimizerConfig


@dataclass(frozen=True)
class FamilyAnalytics:
    """Closed-form reference triple for a state family."""

    quantum_mi: float
    mi_projective: float
    nonclassicality: float


def bell_diagonal_probs(r) -> np.ndarray:
    """Bell-basis eigenvalues of the state 1/4 (I + sum_j r_j sigma_j x sigma_j)."""
    r1, r2, r3 = (float(v) for v in r)
    lam = np.array(
        [
            (1 - r1 - r2 - r3) / 4,
            (1 - r1 + r2 + r3) / 4,
            (1 + r1 - r2 + r3) / 4,
            (1 + r1 + r2 - r3) / 4,
        ]
    )
    if lam.min() < -1e-12:
        raise InvalidStateError(f"correlation vector {r} gives eigenvalue {lam.min():.3e}")
    return np.clip(lam, 0.0, None)


def bell_diagonal_state(r) -> DensityMatrix:
    """Two-qubit state with maximally mixed marginals and diagonal
    correlation tensor r = (r1, r2, r3)."""
    r1, r2, r3 = (float(v) for v in r)
    bell_diagonal_probs(r)
    m = (
        np.eye(4)
        + r1 * np.kron(PAULI_X, PAULI_X)
        + r2 * np.kron(PAULI_Y, PAULI_Y)
        + r3 * np.kron(PAULI_Z, PAULI_Z)
    ) / 4
    return DensityMatrix(m, 2, 2)


def bell_diagonal_analytics(r) -> FamilyAnalytics:
    """Exact values: the optimal projective pair measures along the axis
    with the largest |r_j|."""
    lam = bell_diagonal_probs(r)
    smut = 2.0 - shannon_entropy(lam)
    rm = float(np.max(np.abs(np.asarray(r, dtype=float))))
    mi = 1.0 - binary_entropy((1 + rm) / 2)
    return FamilyAnalytics(smut, mi, smut - mi)


def correlation_tensor_state(w: np.ndarray) -> DensityMatrix:
    """Two-qubit state 1/4 (I + sum_jk w_jk sigma_j x sigma_k) for a general
    real 3x3 correlation tensor."""
    w = np.asarray(w, dtype=float)
    if w.shape != (3, 3):
        raise DimensionMismatchError(f"w must be 3x3, got {w.shape}")
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    m = np.eye(4, dtype=np.complex128)
    for j in range(3):
        for k in range(3):
            m = m + w[j, k] * np.kron(paulis[j], paulis[k])
    return DensityMatrix(m / 4, 2, 2)


def _swap_operator(d: int) -> np.ndarray:
    return np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)


def werner_state(d: int, alpha: float) -> DensityMatrix:
    """Werner state (I - alpha * SWAP) / (d^2 - d alpha); admissible for
    alpha in [-1, 1]."""
    if d < 2:
        raise DimensionMismatchError(f"d must be >= 2, got {d}")
    if not -1.0 <= alpha <= 1.0:
        raise InvalidStateError(f"alpha must lie in [-1, 1], got {alpha}")
    m = (np.eye(d * d) - alpha * _swap_operator(d)) / (d * d - d * alpha)
    return DensityMatrix(m, d, d)


def werner_analytics(d: int, alpha: float) -> FamilyAnalytics:
    """Closed forms for the Werner family; the best projective pair is any
    matched basis, which gives the standard-bases outcome table."""
    if d < 2:
        raise DimensionMismatchError(f"d must be >= 2, got {d}")
    if not -1.0 <= alpha <= 1.0:
        raise InvalidStateError(f"alpha must lie in [-1, 1], got {alpha}")
    if alpha == 0.0:
        return FamilyAnalytics(0.0, 0.0, 0.0)
    norm = d * (d - alpha)
    lam_sym = (1 - alpha) / norm
    lam_anti = (1 + alpha) / norm
    n_sym = d * (d + 1) / 2
    n_anti = d * (d - 1) / 2
    s_ab = -(n_sym * xlog2x(lam_sym) + n_anti * xlog2x(lam_anti))
    smut = 2 * np.log2(d) - s_ab
    mi = np.log2(d / (d - alpha)) + (1 - alpha) / (d - alpha) * (
        np.log2(1 - alpha) if alpha < 1.0 else 0.0
    )
    return FamilyAnalytics(float(smut), float(mi), float(smut - mi))


def _check_unbiased(u: np.ndarray, d: int) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (d, d):
        raise DimensionMismatchError(f"u1 must be {d}x{d}, got {u.shape}")
    if np.max(np.abs(u.conj().T @ u - np.eye(d))) > 1e-9:
        raise InvalidStateError("u1 is not unitary")
    if np.max(np.abs(np.abs(u) ** 2 - 1.0 / d)) > 1e-9:
        raise InvalidStateError("u1 is not unbiased with respect to the computational basis")
    return u


def locking_state(d: int, u1: np.ndarray | None = None) -> DensityMatrix:
    """Correlation-locking state on (2d) x d levels.

    Alice holds a basis label t in {0, 1} and a value i; Bob holds the value
    encoded in basis U_t, with U_0 = I and U_1 unbiased (default Fourier).
    """
    if d < 2:
        raise DimensionMismatchError(f"d must be >= 2, got {d}")
    u1 = fourier_matrix(d) if u1 is None else _check_unbiased(u1, d)
    dim_a = 2 * d
    m = np.zeros((dim_a * d, dim_a * d), dtype=np.complex128)
    for t, u in enumerate((np.eye(d, dtype=np.complex128), u1)):
        for i in range(d):
            a = t * d + i
            proj_b = np.outer(u[:, i], u[:, i].conj())
            m[a * d : (a + 1) * d, a * d : (a + 1) * d] += proj_b / (2 * d)
    return DensityMatrix(m, dim_a, d)


def sigma_locking_state(d: int) -> DensityMatrix:
    """Classically correlated cousin of the locking state: Bob holds
    i + t mod d in the computational basis, so one basis fits all t."""
    if d < 2:
        raise DimensionMismatchError(f"d must be >= 2, got {d}")
    dim_a = 2 * d
    m = np.zeros((dim_a * d, dim_a * d), dtype=np.complex128)
    for t in range(2):
        for i in range(d):
            a = t * d + i
            b = (i + t) % d
            idx = a * d + b
            m[idx, idx] += 1.0 / (2 * d)
    return DensityMatrix(m, dim_a, d)


@dataclass(frozen=True)
class LockingReport:
    """Correlation audit of a locking-type state.

    mi_no_comm is the heuristic no-communication record mi; mi_after_one_bit
    is the exact record mi once Alice announces t (one bit) and Bob measures
    in the matching basis.  unlock_gain is their difference, i.e. the
    correlation unlocked by the announcement; comm_cost records the bit it
    took."""

    variant: str
    dim: int
    quantum_mi: float
    mi_no_comm: float
    mi_after_one_bit: float
    comm_cost: float
    unlock_gain: float
    converged: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _conditional_value_state(d: int, u: np.ndarray) -> DensityMatrix:
    """State of (value register, B) given the basis label: uniform over i of
    |i><i| x U|i><i|U^dag."""
    m = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        proj = np.outer(u[:, i], u[:, i].conj())
        m[i * d : (i + 1) * d, i * d : (i + 1) * d] = proj / d
    return DensityMatrix(m, d, d)


def _sigma_conditional_state(d: int, t: int) -> DensityMatrix:
    m = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        idx = i * d + (i + t) % d
        m[idx, idx] = 1.0 / d
    return DensityMatrix(m, d, d)


def locking_demo(
    d: int,
    cfg: OptimizerConfig | None = None,
    u1: np.ndarray | None = None,
    variant: str = "locking",
) -> LockingReport:
    """Run the one-bit unlock protocol on a locking-type state.

    The after-announcement value is computed exactly: condition on t, measure
    the value register computationally and Bob in the basis matched to t,
    then take the mutual information of the combined (t, i) vs s record.
    """
    cfg = cfg or OptimizerConfig()
    if variant == "locking":
        u1 = fourier_matrix(d) if u1 is None else _check_unbiased(u1, d)
        rho = locking_state(d, u1)
        bob_bases = (np.eye(d, dtype=np.complex128), u1)
        conds = [_conditional_value_state(d, u) for u in bob_bases]
    elif variant == "sigma":
        rho = sigma_locking_state(d)
        bob_bases = (np.eye(d, dtype=np.complex128), np.eye(d, dtype=np.complex128))
        conds = [_sigma_conditional_state(d, t) for t in range(2)]
    else:
        raise ValueError(f"variant must be 'locking' or 'sigma', got {variant!r}")

    smut = quantum_mutual_info(rho)
    best = maximize_mi_projective(rho, cfg)

    blocks = []
    for cond, ub in zip(conds, bob_bases):
        jd = joint_distribution(cond, np.eye(d), ub)
        blocks.append(jd.table / 2.0)
    after = classical_mutual_info(np.vstack(blocks))

    return LockingReport(
        variant=variant,
        dim=d,
        quantum_mi=smut,
        mi_no_comm=best.value,
        mi_after_one_bit=after,
        comm_cost=1.0,
        unlock_gain=after - best.value,
        converged=best.converged,
    )


def classical_quantum_state(
    probs, cond_states, basis: np.ndarray | None = None
) -> DensityMatrix:
    """sum_i p_i |a_i><a_i| x rho_i with {a_i} orthonormal on Alice
    (computational by default)."""
    p = np.asarray(probs, dtype=float)
    if p.min() < 0 or abs(p.sum() - 1.0) > 1e-9:
        raise InvalidStateError("probs must be a distribution")
    n = len(p)
    states = [np.asarray(s, dtype=np.complex128) for s in cond_states]
    if len(states) != n:
        raise DimensionMismatchError("need one conditional state per probability")
    db = states[0].shape[0]
    if basis is None:
        basis = np.eye(n, dtype=np.complex128)
    basis = np.asarray(basis, dtype=np.complex128)
    m = np.zeros((n * db, n * db), dtype=np.complex128)
    for i in range(n):
        proj_a = np.outer(basis[:, i], basis[:, i].conj())
        m += p[i] * np.kron(proj_a, states[i])
    return DensityMatrix(m, n, db)


def trine_state() -> DensityMatrix:
    """Uniform mixture of |i><i| x |phi_i><phi_i| with the three trine
    directions in the x-z plane of the Bloch sphere."""
    kets = []
    for i in range(3):
        beta = 2 * np.pi * i / 3
        kets.append(np.array([np.cos(beta / 2), np.sin(beta / 2)], dtype=np.complex128))
    return classical_quantum_state(
        np.full(3, 1 / 3), [np.outer(k, k.conj()) for k in kets]
    )


def trine_bloch_vectors() -> np.ndarray:
    """Bloch vectors of the trine kets, rows (x, y, z)."""
    beta = 2 * np.pi * np.arange(3) / 3
    return np.stack([np.sin(beta), np.zeros(3), np.cos(beta)], axis=1)


def trine_projective_grid(n_points: int = 10_000) -> tuple[float, float, float]:
    """Exhaustive grid over Bob's projective bases for the trine state with
    Alice fixed computational; returns (best mi, theta, phi).

    Bases are parameterized by a Bloch direction on the upper hemisphere
    (antipodal directions give the same basis).
    """
    n_theta = max(2, int(np.sqrt(n_points)))
    n_phi = max(2, n_points // n_theta)
    thetas = np.linspace(0.0, np.pi / 2, n_theta)
    phis = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    nx = (np.sin(tt) * np.cos(pp)).ravel()
    ny = (np.sin(tt) * np.sin(pp)).ravel()
    nz = np.cos(tt).ravel()
    bloch = trine_bloch_vectors()
    dots = bloch @ np.stack([nx, ny, nz])  # (3, G)
    cond_plus = (1 + dots) / 2
    joint_plus = cond_plus / 3
    joint_minus = (1 - cond_plus) / 3
    cells = np.concatenate([joint_plus, joint_minus], axis=0)  # (6, G)
    h_joint = -xlog2x(cells).sum(axis=0)
    pb = joint_plus.sum(axis=0)
    h_b = -xlog2x(pb) - xlog2x(1 - pb)
    mi = np.log2(3.0) + h_b - h_joint
    k = int(np.argmax(mi))
    return float(mi[k]), float(tt.ravel()[k]), float(pp.ravel()[k])


def trine_povm_optimum(cfg: OptimizerConfig | None = None) -> MiSearchResult:
    """Heuristic best 3-outcome POVM on Bob for the trine state, Alice fixed
    computational."""
    rho = trine_state()
    fixed = Povm.from_basis(ProjectiveBasis.computational(3))
    return maximize_mi_povm(rho, 3, 3, cfg, fixed_a=fixed)


def biorthogonal_state(
    p: np.ndarray,
    basis_a: np.ndarray | None = None,
    basis_b: np.ndarray | None = None,
) -> DensityMatrix:
    """sum_ij p_ij |a_i><a_i| x |b_j><b_j| over orthonormal local bases;
    measuring those bases recovers exactly the classical table p."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2:
        raise DimensionMismatchError(f"p must be a 2d table, got shape {p.shape}")
    if p.min() < 0 or abs(p.sum() - 1.0) > 1e-9:
        raise InvalidStateError("p must be a joint distribution")
    da, db = p.shape
    ua = np.eye(da, dtype=np.complex128) if basis_a is None else np.asarray(basis_a)
    ub = np.eye(db, dtype=np.complex128) if basis_b is None else np.asarray(basis_b)
    ProjectiveBasis(ua)
    ProjectiveBasis(ub)
    m = np.zeros((da * db, da * db), dtype=np.complex128)
    for i in range(da):
        pa = np.outer(ua[:, i], ua[:, i].conj())
        for j in range(db):
            if p[i, j] > 0:
                pb = np.outer(ub[:, j], ub[:, j].conj())
                m += p[i, j] * np.kron(pa, pb)
    return DensityMatrix(m, da, db)

"""Correlation measures for bipartite states.

The classical side of every quantity here is the mutual information of the
outcome record of one local measurement per party, with no communication.
Optimized quantities (mi over bases, Holevo-type classical correlation) are
heuristic: reported values are exact evaluations of actual measurements, so
they are always lower bounds on the true suprema, and the derived
nonclassicality / discord figures are upper estimates.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import asdict, dataclass
from itertools import product
from math import isqrt

import numpy as np

from .linalg import (
    HERM_TOL,
    PSD_TOL,
    DensityMatrix,
    DimensionMismatchError,
    InvalidStateError,
    UnsupportedDimensionError,
    _log2_floored,
    _qr_with_phases,
    adjoint,
    as_rng,
    fourier_matrix,
    hermitian_eigen,
    marginal_mats,
    random_unitary,
    swap_sides,
    von_neumann_entropy,
    xlog2x,
)
from .optimize import OptimizerConfig, _rank_one_search

MAX_OPT_DIM = 16
ZERO_PROB = 1e-12
DEGENERACY_GAP = 1e-8

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

# eigenbases of sigma_x and sigma_y, as column matrices
XBASIS = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
YBASIS = np.array([[1, 1], [1j, -1j]], dtype=np.complex128) / np.sqrt(2)


def _table_mi(table: np.ndarray) -> np.ndarray:
    """Mutual information in bits of unvalidated tables (..., n_a, n_b), one
    value per leading index; negative round-off entries count as zero and
    the rest of each table is renormalized to sum to one."""
    t = np.maximum(table, 0.0)
    t = t / t.sum(axis=(-2, -1), keepdims=True)
    return (xlog2x(t).sum(axis=(-2, -1)) - xlog2x(t.sum(axis=-1)).sum(axis=-1)
            - xlog2x(t.sum(axis=-2)).sum(axis=-1))


def _r4(rho: DensityMatrix) -> np.ndarray:
    """rho as a tensor r4[a, b, A, B] = <a b| rho |A B>."""
    return rho.mat.reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)


def _rank_one_effects(rows: np.ndarray) -> np.ndarray:
    """Effects |k_s><k_s| of the rank-one measurement with rows <k_s|."""
    return np.einsum("...sa,...sb->...sab", rows.conj(), rows)


def _block_matrix(r4: np.ndarray) -> np.ndarray:
    """r4 (..., da, db, da, db) as the matrix (A a, b B) that
    _conditional_blocks takes, leading axes kept.  It is a copy of
    da^2 db^2 entries, so a search builds it once, not per evaluation."""
    da, db = r4.shape[-4:-2]
    # (a, b, A, B) -> (A, a, b, B); two swapaxes cost less than np.moveaxis
    return r4.swapaxes(-4, -2).swapaxes(-3, -2).reshape(r4.shape[:-4] + (da * da, db * db))


def _gradient_matrix(r4: np.ndarray) -> np.ndarray:
    """r4 (..., da, db, da, db) as the matrix (B b, a A) that _rows_gradient
    takes, leading axes kept; a copy, built once per search like
    _block_matrix."""
    da, db = r4.shape[-4:-2]
    # (a, b, A, B) -> (B, b, a, A)
    return r4.swapaxes(-4, -1).swapaxes(-2, -1).reshape(r4.shape[:-4] + (db * db, da * da))


def _conditional_blocks(r_mat: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """Unnormalized states of B after outcome i of Alice's effects:
    m_i = Tr_A[rho (M_i (x) 1)], stacked (..., n_out, dim_b, dim_b): one
    matmul of the effects, flattened over (A, a), on the state's
    _block_matrix r_mat.  A stack of states (..., da^2, db^2) broadcasts
    with the effects' leading axes, one state per effect stack."""
    flat = effects.reshape(effects.shape[:-2] + (-1,))
    blocks = flat @ r_mat
    db = isqrt(r_mat.shape[-1])  # r_mat's columns run over (b, B)
    return blocks.reshape(blocks.shape[:-1] + (db, db))


def _block_table(blocks: np.ndarray, effects_b: np.ndarray) -> np.ndarray:
    """Unvalidated outcome tables p[..., i, s] = Tr[N_s m_i] of conditional
    blocks m_i against Bob's effects N_s: one matmul over the flattened
    (b, B), the leading axes of both stacks broadcasting."""
    flat_t = effects_b.swapaxes(-2, -1).reshape(effects_b.shape[:-2] + (-1,))
    return (blocks.reshape(blocks.shape[:-2] + (-1,)) @ flat_t.swapaxes(-2, -1)).real


def _outcome_table(rho: DensityMatrix, effects_a: np.ndarray, effects_b: np.ndarray) -> np.ndarray:
    """Unvalidated outcome tables p[..., i, s] = Tr[N_s m_i], m_i being the
    conditional blocks of Alice's effects M_i and N_s Bob's effects; leading
    axes of the effect stacks are kept.  One side at a time: O(d^5), no
    Kronecker product."""
    return _block_table(_conditional_blocks(_block_matrix(_r4(rho)), effects_a), effects_b)


def _rows_gradient(r_adj: np.ndarray, ls: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """2 Z_i^T <k_i| for Alice's rows <k_i| and blocks L_i on B, flattened
    row-major to (..., n, db * db), with Z_i = Tr_B[rho (1 (x) L_i)]: the
    gradient in the rows of sum_i Tr[L_i m_i] over the conditional blocks
    m_i, for fixed L_i.  The back-contraction of _conditional_blocks, one
    matmul on the state's _gradient_matrix r_adj."""
    # z[i, a, A] = sum_bB L_i[B, b] r4[a, b, A, B]
    da = rows.shape[-1]
    z = (ls @ r_adj).reshape(ls.shape[:-1] + (da, da))
    return 2.0 * np.einsum("...iAa,...iA->...ia", z, rows)


def _mi_value_grad(r_mat: np.ndarray, r_adj: np.ndarray, rows_a: np.ndarray,
                   rows_b: np.ndarray):
    """Record mi of the rank-one measurements with rows <k_i| and <l_s| on
    the state with _block_matrix r_mat and _gradient_matrix r_adj, and its
    gradients with respect to both row matrices.
    Leading axes of the row stacks broadcast: (..., n, d) rows give (...,)
    values.  One side at a time, O(d^5): no product rows.

    The table is p_is = Tr[N_s m_i], with m_i Alice's conditional blocks
    and N_s = |l_s><l_s|.  With g_is = dI/dp_is = log2 p_is - log2 p_i. -
    log2 p_.s - 1/ln 2, Bob's row s has gradient 2 <l_s| K_s for
    K_s = sum_i g_is m_i, and Alice's rows that of sum_i Tr[L_i m_i] for
    L_i = sum_s g_is N_s (_rows_gradient).  Zero entries contribute
    exactly zero to the value, as in _table_mi.
    """
    blocks = _conditional_blocks(r_mat, _rank_one_effects(rows_a))
    effects_b = _rank_one_effects(rows_b)
    t = np.maximum(_block_table(blocks, effects_b), 0.0)
    ta, tb = t.sum(axis=-1), t.sum(axis=-2)
    lt, la, lb = _log2_floored(t), _log2_floored(ta), _log2_floored(tb)
    value = (t * lt).sum(axis=(-2, -1)) - (ta * la).sum(axis=-1) - (tb * lb).sum(axis=-1)
    g = lt - la[..., :, np.newaxis] - lb[..., np.newaxis, :] - 1.0 / np.log(2.0)
    # L_i and K_s, each one matmul over the flattened blocks
    ls = g @ effects_b.reshape(effects_b.shape[:-2] + (-1,))
    ks = g.swapaxes(-2, -1) @ blocks.reshape(blocks.shape[:-2] + (-1,))
    grad_b = 2.0 * (rows_b[..., np.newaxis, :] @ ks.reshape(ks.shape[:-1] + blocks.shape[-2:]))
    return value, _rows_gradient(r_adj, ls, rows_a), grad_b[..., 0, :]


@dataclass(frozen=True)
class ProjectiveBasis:
    """Orthonormal basis given as the columns of a unitary matrix."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.array(self.vectors, dtype=np.complex128)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DimensionMismatchError(f"basis must be a square matrix, got {v.shape}")
        gram = v.conj().T @ v
        if np.max(np.abs(gram - np.eye(v.shape[0]))) > 1e-9:
            raise InvalidStateError("basis columns are not orthonormal")
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @classmethod
    def computational(cls, d: int) -> "ProjectiveBasis":
        return cls(np.eye(d))

    @classmethod
    def fourier(cls, d: int) -> "ProjectiveBasis":
        return cls(fourier_matrix(d))


@dataclass(frozen=True)
class Povm:
    """Measurement with effects stacked in an (n_out, d, d) array.

    rows holds <k_s| for rank-one measurements (one row per outcome) and is
    None otherwise.  Given rows alone, the effects |k_s><k_s| are built
    from them, positive by construction.  Given effects, each must be
    Hermitian to within HERM_TOL and positive semidefinite; given both,
    rows must be (n_out, d) and give the effects to within the identity-sum
    tolerance.
    """

    effects: np.ndarray | None = None
    rows: np.ndarray | None = None

    def __post_init__(self):
        r = None if self.rows is None else np.array(self.rows, dtype=np.complex128)
        if self.effects is None:
            if r is None or r.ndim != 2:
                raise DimensionMismatchError(f"need effects or (n_out, d) rows, got {self.rows}")
            e = _rank_one_effects(r)
        else:
            e = np.array(self.effects, dtype=np.complex128)
            if e.ndim != 3 or e.shape[1] != e.shape[2]:
                raise ValueError(f"effects must be (n, d, d), got {e.shape}")
            # eigvalsh reads one triangle, so Hermiticity is checked first
            defect = np.abs(e - e.conj().swapaxes(1, 2)).max(initial=0.0)
            if defect > HERM_TOL:
                raise InvalidStateError(f"effect not Hermitian: max |E - E^dag| = {defect:.3e}")
            low = np.linalg.eigvalsh(e)[:, 0].min(initial=0.0)
            if low < -1e-10:
                raise InvalidStateError(f"effect has negative eigenvalue {low:.3e}")
            if r is not None:
                if r.shape != e.shape[:2]:
                    raise DimensionMismatchError(f"rows must be {e.shape[:2]}, got {r.shape}")
                gap = np.abs(_rank_one_effects(r) - e).max()
                if gap > 1e-9:
                    raise InvalidStateError(f"rows differ from the effects by {gap:.3e}")
        defect = np.max(np.abs(e.sum(axis=0) - np.eye(e.shape[1])))
        if defect > 1e-9:
            raise InvalidStateError(f"effects sum differs from identity by {defect:.3e}")
        for name, a in (("effects", e), ("rows", r)):
            if a is not None:
                a.flags.writeable = False
                object.__setattr__(self, name, a)

    @property
    def n_outcomes(self) -> int:
        return self.effects.shape[0]

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    @classmethod
    def from_basis(cls, basis: "ProjectiveBasis | np.ndarray") -> "Povm":
        u = basis.vectors if isinstance(basis, ProjectiveBasis) else np.asarray(basis)
        return cls(rows=u.conj().T)

    @classmethod
    def from_isometry(cls, w: np.ndarray) -> "Povm":
        """Rank-one POVM from an n_out x d matrix with orthonormal columns;
        row s is <k_s|.  The effects sum to W^H W, so the identity-sum check
        of construction is the orthonormality check."""
        return cls(rows=w)

    @classmethod
    def random_rank_one(cls, d: int, n_out: int, rng=None) -> "Povm":
        rng = as_rng(rng)
        if n_out < d:
            raise ValueError(f"need n_out >= {d}, got {n_out}")
        z = rng.standard_normal((n_out, d)) + 1j * rng.standard_normal((n_out, d))
        return cls.from_isometry(_qr_with_phases(z))


def _as_povm(meas) -> Povm:
    if isinstance(meas, Povm):
        return meas
    if isinstance(meas, ProjectiveBasis):
        return Povm.from_basis(meas)
    return Povm.from_basis(ProjectiveBasis(np.asarray(meas)))


def _checked_tables(table) -> np.ndarray:
    """Outcome tables (..., n_a, n_b) checked as joint distributions: a NaN
    entry, an entry below -PSD_TOL or a table sum off one by more than 1e-9
    raises, and the round-off negatives that pass are clipped to zero."""
    t = np.array(table, dtype=float)
    low = t.min()
    # written so that NaN fails it
    if not low >= -PSD_TOL:
        raise InvalidStateError(f"negative or NaN joint probability {low:.3e}")
    sums = t.sum(axis=(-2, -1)).ravel()
    worst = sums[np.argmax(np.abs(sums - 1.0))]
    if abs(worst - 1.0) > 1e-9:
        raise InvalidStateError(f"joint table sums to {worst:.12f}")
    return np.clip(t, 0.0, None)


@dataclass(frozen=True)
class JointDistribution:
    """Outcome table p[i, s] = Tr[(M_i (x) N_s) rho]."""

    table: np.ndarray

    def __post_init__(self):
        if np.ndim(self.table) != 2:
            raise DimensionMismatchError(
                f"joint table must be 2-D, got shape {np.shape(self.table)}")
        t = _checked_tables(self.table)
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    @property
    def marginal_a(self) -> np.ndarray:
        return self.table.sum(axis=1)

    @property
    def marginal_b(self) -> np.ndarray:
        return self.table.sum(axis=0)


def _check_meas_dims(rho: DensityMatrix, dim_a: int, dim_b: int) -> None:
    if dim_a != rho.dim_a or dim_b != rho.dim_b:
        raise DimensionMismatchError(
            f"measurement dims ({dim_a}, {dim_b}) do not match state dims "
            f"({rho.dim_a}, {rho.dim_b})"
        )


def joint_distribution(rho: DensityMatrix, meas_a, meas_b) -> JointDistribution:
    """Joint outcome distribution of independent local measurements."""
    pa, pb = _as_povm(meas_a), _as_povm(meas_b)
    _check_meas_dims(rho, pa.dim, pb.dim)
    return JointDistribution(_outcome_table(rho, pa.effects, pb.effects))


def classical_mutual_info(dist) -> float:
    """Mutual information in bits of a joint outcome table; a raw array is
    validated as a JointDistribution first."""
    if not isinstance(dist, JointDistribution):
        dist = JointDistribution(dist)
    return float(_table_mi(dist.table))


def quantum_mutual_info(rho: DensityMatrix) -> float:
    """S(A) + S(B) - S(AB) in bits."""
    ma, mb = marginal_mats(rho)
    return von_neumann_entropy(ma) + von_neumann_entropy(mb) - von_neumann_entropy(rho.mat)


@dataclass(frozen=True)
class MiSearchResult:
    """Best local-measurement mutual information found by a heuristic search.

    value is an exact evaluation of the returned measurements, hence a
    lower bound on the true optimum.
    """

    value: float
    meas_a: Povm
    meas_b: Povm
    converged: bool
    n_starts: int
    n_converged: int


def _check_opt_dims(rho: DensityMatrix) -> None:
    if not (2 <= rho.dim_a <= MAX_OPT_DIM and 2 <= rho.dim_b <= MAX_OPT_DIM):
        raise UnsupportedDimensionError(
            f"optimization supports 2 <= dim <= {MAX_OPT_DIM} per side, "
            f"got ({rho.dim_a}, {rho.dim_b})"
        )


def _projective_seed_pairs(rho: DensityMatrix) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rows U^H of the structured basis pairs: computational, Fourier,
    marginal eigenbases and the two mixed pairs, plus the sigma_y
    eigenbases on two qubits."""
    da, db = rho.dim_a, rho.dim_b
    ma, mb = marginal_mats(rho)
    va, vb = adjoint(hermitian_eigen(ma)[1]), adjoint(hermitian_eigen(mb)[1])
    fa, fb = adjoint(fourier_matrix(da)), adjoint(fourier_matrix(db))
    ia, ib = np.eye(da), np.eye(db)
    pairs = [(ia, ib), (fa, fb), (va, vb), (fa, ib), (ia, fb)]
    if da == 2 and db == 2:
        pairs.append((adjoint(YBASIS), adjoint(YBASIS)))
    return pairs


def _mi_kernel(rho: DensityMatrix, fixed: tuple[Povm | None, Povm | None]):
    """_mi_value_grad on the free parties' rows alone (fixed[k] is None),
    each fixed party's rows bound in: returns the value and the free
    parties' rows gradients.  rho's two contraction matrices are built once,
    here."""
    r4 = _r4(rho)
    r_mat, r_adj = _block_matrix(r4), _gradient_matrix(r4)

    def kernel(_owner, *free_rows):
        free = iter(free_rows)
        rows = [next(free) if f is None else f.rows for f in fixed]
        value, *grads = _mi_value_grad(r_mat, r_adj, *rows)
        return value, *(g for f, g in zip(fixed, grads) if f is None)

    return kernel


def _mi_search(rho: DensityMatrix, fixed: tuple[Povm | None, Povm | None],
               n_outs: tuple[int, int], seed_pairs, cfg: OptimizerConfig) -> MiSearchResult:
    """Record-mi search over the free parties (fixed[k] is None), party k
    a rank-one POVM with n_outs[k] outcomes, from the free halves of the
    seed pairs: pairs that differ only on a fixed party are one start,
    which the search runs once.  optimize._rank_one_search runs it on the
    (n_outs[k], d_k) shapes of the free parties and returns their winning
    rows, wrapped here as POVMs.  Each fixed POVM comes back as it was
    given; with both parties fixed there is nothing to search, and the pair
    is evaluated once."""
    free = [k for k, f in enumerate(fixed) if f is None]
    if not free:
        return MiSearchResult(float(_mi_kernel(rho, fixed)(None)[0]), *fixed, True, 1, 1)
    shapes = tuple((n_outs[k], (rho.dim_a, rho.dim_b)[k]) for k in free)
    seeds = [[pair[k] for k in free] for pair in seed_pairs]
    [(res, found)] = _rank_one_search(_mi_kernel(rho, fixed), shapes, [seeds], cfg)
    found = iter(found)
    meas_a, meas_b = (Povm.from_isometry(next(found)) if f is None else f for f in fixed)
    return MiSearchResult(-res.value, meas_a, meas_b, res.converged, res.n_starts, res.n_converged)


def _seed_rows(u, d: int) -> np.ndarray:
    """Rows U^H of a caller's seed basis U, which must be d x d."""
    u = np.asarray(u)
    if u.shape != (d, d):
        raise DimensionMismatchError(f"seed basis must be {d} x {d}, got shape {u.shape}")
    return np.conj(u).T


def maximize_mi_projective(
    rho: DensityMatrix,
    cfg: OptimizerConfig | None = None,
    extra_seeds: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> MiSearchResult:
    """Search local projective bases for maximal record mutual information.

    Multi-start L-BFGS on both bases' rows U^H themselves, retracted by the
    polar map, with the analytic gradient of record mi projected onto the
    tangent space.  Structured starts (computational, Fourier, marginal
    eigenbases, mixed pairs, any extra_seeds, given as basis unitaries) are
    always refined alongside cfg.restarts random starts, and the best exact
    evaluation wins.  Deterministic given (rho,
    cfg.seed, cfg.restarts); monotone in restarts.
    """
    cfg = cfg or OptimizerConfig()
    _check_opt_dims(rho)
    da, db = rho.dim_a, rho.dim_b
    seeds = _projective_seed_pairs(rho) + [(_seed_rows(ua, da), _seed_rows(ub, db))
                                           for ua, ub in extra_seeds or []]
    return _mi_search(rho, (None, None), (da, db), seeds, cfg)


def _embed_basis(rows: np.ndarray, n_out: int) -> np.ndarray:
    """Rows of a projective basis as an n_out-outcome POVM (extra outcomes
    never fire)."""
    d = rows.shape[0]
    w = np.zeros((n_out, d), dtype=np.complex128)
    w[:d, :] = rows
    return w


def _povm_seeds(rows: np.ndarray, n_out: int) -> list[np.ndarray]:
    """Starts of an n_out-outcome POVM search from a basis's rows: the rows
    embedded, the discrete Fourier frame (the first d columns of the
    n_out-point DFT, an equiangular tight frame), and the frame times the
    rows."""
    frame = fourier_matrix(n_out)[:, :rows.shape[-1]]
    return [_embed_basis(rows, n_out), frame, frame @ rows]


def maximize_mi_povm(
    rho: DensityMatrix,
    n_out_a: int,
    n_out_b: int,
    cfg: OptimizerConfig | None = None,
    fixed_a: Povm | None = None,
    fixed_b: Povm | None = None,
) -> MiSearchResult:
    """Search rank-one POVMs with fixed outcome counts for maximal record
    mutual information.

    Each free side is searched on its n_out x d rows, the polar factor of a
    complex matrix, so completeness holds exactly by construction.
    Structured starts embed the projective-search result (the value can
    only improve on it) and discrete Fourier frames; fixed_a / fixed_b pin
    a side to a given rank-one POVM of the state's dimension on that side,
    whose outcome count must equal that side's n_out (ValueError
    otherwise).  With both sides fixed the pair is evaluated once, one
    start and no random restarts.
    """
    return _mi_povm_search(rho, n_out_a, n_out_b, cfg or OptimizerConfig(), fixed_a, fixed_b)


def _mi_povm_search(rho: DensityMatrix, n_out_a: int, n_out_b: int, cfg: OptimizerConfig,
                    fixed_a: Povm | None = None, fixed_b: Povm | None = None,
                    proj: MiSearchResult | None = None) -> MiSearchResult:
    """maximize_mi_povm, seeded from proj when the caller already holds
    maximize_mi_projective(rho, cfg).  Otherwise the projective search runs
    here over the free sides only, a fixed side staying fixed."""
    _check_opt_dims(rho)
    fixed, n_outs, dims = (fixed_a, fixed_b), (n_out_a, n_out_b), (rho.dim_a, rho.dim_b)
    for party, f, n_out, d in zip("ab", fixed, n_outs, dims):
        if f is None and n_out < d:
            raise ValueError(f"n_out_{party} must be >= {d}, got {n_out}")
        if f is not None and f.rows is None:
            raise ValueError("fixed measurements must be rank-one (have rows)")
    _check_meas_dims(rho, *(d if f is None else f.dim for f, d in zip(fixed, dims)))
    for party, f, n_out in zip("ab", fixed, n_outs):
        if f is not None and f.n_outcomes != n_out:
            raise ValueError(f"fixed_{party} has {f.n_outcomes} outcomes, but n_out_{party} "
                             f"is {n_out}")

    if proj is None and None in fixed:
        proj = _mi_search(rho, fixed, dims, _projective_seed_pairs(rho), cfg)
    # a fixed party has one placeholder half, which _mi_search drops; with
    # both parties fixed there is no basis to seed from, and one empty start
    bases = (None, None) if proj is None else (proj.meas_a, proj.meas_b)
    halves = [[None] if f is not None else _povm_seeds(basis.rows, n_out)
              for f, basis, n_out in zip(fixed, bases, n_outs)]
    return _mi_search(rho, fixed, n_outs, list(product(*halves)), cfg)


def conditional_states_b(rho: DensityMatrix, meas_a) -> list[tuple[float, np.ndarray]]:
    """Outcome probabilities and Bob's post-measurement states for a
    measurement on Alice.

    Outcomes with probability below 1e-12 get a maximally mixed placeholder
    and contribute nothing to averaged quantities.
    """
    pa = _as_povm(meas_a)
    if pa.dim != rho.dim_a:
        raise DimensionMismatchError(
            f"measurement dim {pa.dim} does not match dim_a {rho.dim_a}"
        )
    out = []
    for m in _conditional_blocks(_block_matrix(_r4(rho)), pa.effects):
        p = float(m.trace().real)
        if p > ZERO_PROB:
            out.append((p, m / p))
        else:
            out.append((max(p, 0.0), np.eye(rho.dim_b) / rho.dim_b))
    return out


@dataclass(frozen=True)
class HolevoSearchResult:
    """Best S(B) - sum_i p_i S(B|i) found over Alice-side measurements."""

    value: float
    meas_a: Povm
    converged: bool
    n_starts: int
    n_converged: int


def _holevo_value_grad(r_mat: np.ndarray, r_adj: np.ndarray, rows: np.ndarray):
    """-sum_i p_i S(rho_B|i) for the rank-one effects with rows <k_i|, and its
    gradient with respect to the rows; stacked rows (..., n, d) give (...,)
    values.  r_mat and r_adj are a state's _block_matrix and
    _gradient_matrix, or stacks of them with one state per row stack.  No
    branch is normalized:
    sum_i p_i S(m_i / p_i) = -sum xlog2x(eigs of m_i) + sum xlog2x(p_i).

    On each unnormalized conditional block m_i the derivative is
    L_i = log2 m_i - log2(p_i) 1 (the entropy of p_i m_i / p_i gives
    -log2 m_i, the p_i log p_i term the rest).  With
    Z_i = Tr_B[rho (1 (x) L_i)], row i's gradient is 2 Z_i^T <k_i|
    (_rows_gradient).
    """
    cond = _conditional_blocks(r_mat, _rank_one_effects(rows))
    probs = np.maximum(np.einsum("...ibb->...i", cond).real, 0.0)
    vals, vecs = np.linalg.eigh(cond)
    vals = np.maximum(vals, 0.0)
    lv, lp = _log2_floored(vals), _log2_floored(probs)
    value = (vals * lv).sum(axis=(-2, -1)) - (probs * lp).sum(axis=-1)
    logm = (vecs * (lv - lp[..., np.newaxis])[..., np.newaxis, :]) @ adjoint(vecs)
    return value, _rows_gradient(r_adj, logm.reshape(logm.shape[:-2] + (-1,)), rows)


def classical_correlation_a(
    rho: DensityMatrix,
    cfg: OptimizerConfig | None = None,
    projective_only: bool = True,
    n_out: int | None = None,
    extra_seeds: list[np.ndarray] | None = None,
) -> HolevoSearchResult:
    """Maximize S(B) - sum_i p_i S(rho_B|i) over measurements on Alice.

    Projective search runs over Alice's bases; with projective_only=False a
    rank-one POVM with n_out outcomes (default dim_a**2) is optimized
    instead.  A projective search has dim_a outcomes, and any other n_out
    with projective_only=True raises ValueError.  Heuristic lower bound,
    exact at the returned measurement.  The two searches are not ordered:
    the POVM search is not seeded from the projective winner, and at the
    default stop it can end below it, by up to about 1e-10 bits on 2 x 8
    states.  extra_seeds takes basis unitaries to refine from, e.g. the
    mi-optimal Alice basis.  full_report runs this search on rho and on its
    swap in one lockstep (_holevo_searches), with results == these calls.
    """
    return _holevo_searches([rho], cfg or OptimizerConfig(), projective_only, n_out,
                            [[_seed_rows(u, rho.dim_a) for u in extra_seeds or []]])[0]


def _holevo_searches(states: list[DensityMatrix], cfg: OptimizerConfig, projective_only: bool,
                     n_out: int | None, extra_rows: list[list[np.ndarray]]
                     ) -> list[HolevoSearchResult]:
    """classical_correlation_a of each state, state k seeded also from the
    basis rows U^H in extra_rows[k].  States of equal dimensions search the
    same (n_out, dim_a) shape and run as the problems of one
    optimize._rank_one_search, each row evaluated on its own state (the
    group's contraction matrices are built once and indexed by the owner
    argument); states of other dimensions form groups of their own.  A row's
    path depends on its row alone, so each result is == the one-state call,
    and each winner's rows are wrapped here as a POVM."""
    groups = defaultdict(list)
    for k, rho in enumerate(states):
        _check_opt_dims(rho)
        groups[rho.dim_a, rho.dim_b].append(k)
    results = [None] * len(states)
    for (da, _), group in groups.items():
        n = (da if projective_only else da * da) if n_out is None else n_out
        if n < da or projective_only and n != da:
            raise ValueError(f"n_out must be >= {da}, and {da} in a projective search, got {n}")
        problem_seeds = []
        for k in group:
            _, va = hermitian_eigen(marginal_mats(states[k])[0])
            seeds = [np.eye(da), adjoint(va), *extra_rows[k]]
            if not projective_only:
                seeds = [_embed_basis(u, n) for u in seeds]
                seeds.insert(2, fourier_matrix(n)[:, :da])  # before any extra rows
            problem_seeds.append([(seed,) for seed in seeds])
        r4s = np.stack([_r4(states[k]) for k in group])
        r_mats, r_adjs = _block_matrix(r4s), _gradient_matrix(r4s)
        found = _rank_one_search(
            lambda owner, rows: _holevo_value_grad(r_mats[owner], r_adjs[owner], rows),
            ((n, da),), problem_seeds, cfg)
        for k, (res, (rows,)) in zip(group, found):
            # res.value is the minimized -(conditional-entropy defect)
            s_b = von_neumann_entropy(marginal_mats(states[k])[1])
            results[k] = HolevoSearchResult(s_b - res.value, Povm.from_isometry(rows),
                                            res.converged, res.n_starts, res.n_converged)
    return results


def _clamp_discord(raw: float) -> float:
    """Clamp round-off below zero; anything beyond it is an optimizer bug,
    since the classical part is an exact evaluation."""
    if raw < -1e-9:
        raise InvalidStateError(f"discord {raw:.3e} below round-off floor; optimizer bug")
    return max(raw, 0.0)


@dataclass(frozen=True)
class DiscordResult:
    value: float
    classical_correlation: float
    meas: Povm
    converged: bool


def discord_a(
    rho: DensityMatrix,
    cfg: OptimizerConfig | None = None,
    projective_only: bool = True,
    extra_seeds: list[np.ndarray] | None = None,
) -> DiscordResult:
    """Quantum discord with the measurement on Alice: S(A:B) minus the
    classical correlation.  Upper estimate (the classical part is a lower
    bound); tiny negative round-off is clamped to zero."""
    smut = quantum_mutual_info(rho)
    cc = classical_correlation_a(rho, cfg, projective_only, extra_seeds=extra_seeds)
    return DiscordResult(
        value=_clamp_discord(smut - cc.value),
        classical_correlation=cc.value,
        meas=cc.meas_a,
        converged=cc.converged,
    )


def discord_b(
    rho: DensityMatrix,
    cfg: OptimizerConfig | None = None,
    projective_only: bool = True,
    extra_seeds: list[np.ndarray] | None = None,
) -> DiscordResult:
    """Discord with the measurement on Bob (delegates to the swapped state)."""
    return discord_a(swap_sides(rho), cfg, projective_only, extra_seeds=extra_seeds)


@dataclass(frozen=True)
class EigenbasisMi:
    """Record mutual information of the marginal-eigenbasis measurement."""

    value: float
    degenerate_a: bool
    degenerate_b: bool
    basis_a: np.ndarray
    basis_b: np.ndarray


def _degenerate(vals: np.ndarray) -> bool:
    return bool(vals.size > 1 and np.min(np.diff(vals)) < DEGENERACY_GAP)


def i_eigenbasis(rho: DensityMatrix) -> EigenbasisMi:
    """Measure both sides in their canonical marginal eigenbases.

    The value is only canonical when both marginals are nondegenerate; the
    degeneracy flags warn that other eigenbasis choices give different
    values (see i_eigenbasis_scan).
    """
    ma, mb = marginal_mats(rho)
    wa, va = hermitian_eigen(ma)
    wb, vb = hermitian_eigen(mb)
    value = float(_table_mi(_outcome_table(rho, _rank_one_effects(va.conj().T),
                                           _rank_one_effects(vb.conj().T))))
    return EigenbasisMi(value, _degenerate(wa), _degenerate(wb), va, vb)


def _random_eigenbasis(vals: np.ndarray, vecs: np.ndarray, rng) -> np.ndarray:
    out = vecs.copy()
    start = 0
    for k in range(1, len(vals) + 1):
        if k == len(vals) or vals[k] - vals[k - 1] >= DEGENERACY_GAP:
            size = k - start
            if size > 1:
                out[:, start:k] = out[:, start:k] @ random_unitary(size, rng)
            start = k
    return out


def i_eigenbasis_scan(rho: DensityMatrix, samples: int = 100, seed: int = 0) -> np.ndarray:
    """Sample the eigenbasis-measurement mi over random basis choices inside
    degenerate eigenspaces; exhibits the range the canonical pick hides."""
    ma, mb = marginal_mats(rho)
    wa, va = hermitian_eigen(ma)
    wb, vb = hermitian_eigen(mb)
    rng = as_rng(seed)
    out = np.empty(samples)
    for k in range(samples):
        ua = _random_eigenbasis(wa, va, rng)
        ub = _random_eigenbasis(wb, vb, rng)
        out[k] = _table_mi(_outcome_table(rho, _rank_one_effects(ua.conj().T),
                                          _rank_one_effects(ub.conj().T)))
    return out


def measurement_induced_disturbance(rho: DensityMatrix) -> float:
    """S(A:B) minus the eigenbasis-measurement mi; an upper bound on the
    nonclassicality whenever that difference is meaningful (nondegenerate
    marginals)."""
    return quantum_mutual_info(rho) - i_eigenbasis(rho).value


@dataclass(frozen=True)
class CorrelationReport:
    """One-stop summary of the correlation content of a bipartite state.

    All information quantities are in bits.  mi_projective and the
    classical_corr_* values are heuristic lower bounds, so nonclassicality
    and discord_* are upper estimates; heuristic=True records that reading.
    """

    entropy_a: float
    entropy_b: float
    entropy_ab: float
    quantum_mi: float
    mi_projective: float
    nonclassicality: float
    classical_corr_a: float
    discord_a: float
    classical_corr_b: float
    discord_b: float
    eigenbasis_mi: float
    disturbance: float
    degenerate_a: bool
    degenerate_b: bool
    mi_povm: float | None
    povm_outcomes_a: int | None
    povm_outcomes_b: int | None
    heuristic: bool
    restarts: int
    converged: bool
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def full_report(
    rho: DensityMatrix,
    cfg: OptimizerConfig | None = None,
    povm_outcomes: tuple[int, int] | None = None,
) -> CorrelationReport:
    """Compute the whole correlation summary for one state.

    The classical-correlation searches are seeded with the mi-optimal
    bases, which pins the chain eigenbasis_mi <= mi_projective <=
    classical_corr at the evaluated points, so disturbance >=
    nonclassicality >= discord holds up to float round-off.  So the
    record-mi search runs first, and then the two Holevo searches, on rho
    and on its swap, as one lockstep when dim_a == dim_b and as two
    otherwise (_holevo_searches); either way each equals its
    classical_correlation_a call bit for bit.
    """
    cfg = cfg or OptimizerConfig()
    ma, mb = marginal_mats(rho)
    s_a = von_neumann_entropy(ma)
    s_b = von_neumann_entropy(mb)
    s_ab = von_neumann_entropy(rho.mat)
    smut = s_a + s_b - s_ab

    proj = maximize_mi_projective(rho, cfg)
    eig = i_eigenbasis(rho)
    cc_a, cc_b = _holevo_searches([rho, swap_sides(rho)], cfg, True, None,
                                  [[proj.meas_a.rows], [proj.meas_b.rows]])

    n_out_a, n_out_b = povm_outcomes or (None, None)
    mi_povm = None
    if povm_outcomes is not None:
        mi_povm = _mi_povm_search(rho, n_out_a, n_out_b, cfg, proj=proj).value

    return CorrelationReport(
        entropy_a=s_a,
        entropy_b=s_b,
        entropy_ab=s_ab,
        quantum_mi=smut,
        mi_projective=proj.value,
        nonclassicality=smut - proj.value,
        classical_corr_a=cc_a.value,
        discord_a=_clamp_discord(smut - cc_a.value),
        classical_corr_b=cc_b.value,
        discord_b=_clamp_discord(smut - cc_b.value),
        eigenbasis_mi=eig.value,
        disturbance=smut - eig.value,
        degenerate_a=eig.degenerate_a,
        degenerate_b=eig.degenerate_b,
        mi_povm=mi_povm,
        povm_outcomes_a=n_out_a,
        povm_outcomes_b=n_out_b,
        heuristic=True,
        restarts=cfg.restarts,
        converged=proj.converged and cc_a.converged and cc_b.converged,
        seed=cfg.seed,
    )

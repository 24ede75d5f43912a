"""Correlation measures for bipartite states.

The classical side of every quantity here is the mutual information of the
outcome record of one local measurement per party, with no communication.
Optimized quantities (mi over bases, Holevo-type classical correlation) are
heuristic: reported values are exact evaluations of actual measurements, so
they are always lower bounds on the true suprema, and the derived
nonclassicality / discord figures are upper estimates.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .linalg import (
    DensityMatrix,
    DimensionMismatchError,
    InvalidStateError,
    UnsupportedDimensionError,
    as_rng,
    fourier_matrix,
    hermitian_eigen,
    marginal_mats,
    random_unitary,
    swap_sides,
    von_neumann_entropy,
    xlog2x,
)
from .optimize import (
    OptimizerConfig,
    isometry_from_params,
    isometry_from_params_vjp,
    multistart_minimize,
    n_basis_params,
    n_isometry_params,
    params_from_isometry,
    params_from_unitary,
    unitary_from_params,
    unitary_from_params_vjp,
)

MAX_OPT_DIM = 16
ZERO_PROB = 1e-12
# floor for the logarithms in gradients: the smallest normal float
LOG_FLOOR = np.finfo(float).tiny
DEGENERACY_GAP = 1e-8

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

# eigenbases of sigma_x and sigma_y, as column matrices
XBASIS = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
YBASIS = np.array([[1, 1], [1j, -1j]], dtype=np.complex128) / np.sqrt(2)


def _table_mi(table: np.ndarray) -> float:
    """Mutual information in bits of an unvalidated table; negative round-off
    entries count as zero."""
    t = np.maximum(table, 0.0)
    return float(xlog2x(t).sum() - xlog2x(t.sum(axis=1)).sum() - xlog2x(t.sum(axis=0)).sum())


def _r4(rho: DensityMatrix) -> np.ndarray:
    """rho as a tensor r4[a, b, A, B] = <a b| rho |A B>."""
    return rho.mat.reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)


def _rank_one_effects(rows: np.ndarray) -> np.ndarray:
    """Effects |k_s><k_s| of the rank-one measurement with rows <k_s|."""
    return np.einsum("sa,sb->sab", rows.conj(), rows)


def _conditional_blocks(r4: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """Unnormalized states of B after outcome i of Alice's effects:
    m_i = Tr_A[rho (M_i (x) 1)], stacked (n_out, dim_b, dim_b)."""
    return np.einsum("abAB,iAa->ibB", r4, effects)


def _outcome_table(rho: DensityMatrix, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """p[i, s] = <k_s| m_i |k_s> for the rank-one measurements with rows <k_i|
    and <k_s|, m_i being the conditional blocks of Alice's effects.  One side
    at a time: O(d^5), no Kronecker product."""
    blocks = _conditional_blocks(_r4(rho), _rank_one_effects(rows_a))
    return np.einsum("sb,ibB,sB->is", rows_b, blocks, rows_b.conj()).real


def _log2_floored(x: np.ndarray) -> np.ndarray:
    """log2 with zero and round-off-negative entries raised to LOG_FLOOR.
    Such an entry's log only multiplies a derivative that vanishes with it,
    or a zero in a value sum, so it adds exactly nothing."""
    return np.log2(np.maximum(x, LOG_FLOOR))


def _mi_value_grad(rho_mat: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray):
    """Record mi of the rank-one measurements with rows <k_i| and <k_s|, and
    its gradients with respect to both row matrices.

    With p_is = x_is rho x_is^H for x_is = <k_i| (x) <k_s|, the gradient of
    I(p) in x_is is 2 g_is x_is rho, where g_is = dI/dp_is =
    log2 p_is - log2 p_i. - log2 p_.s - 1/ln 2.  Zero entries contribute
    exactly zero to the value, as in _table_mi.
    """
    na, da = rows_a.shape
    nb, db = rows_b.shape
    x = (rows_a[:, np.newaxis, :, np.newaxis] * rows_b[np.newaxis, :, np.newaxis, :]).reshape(
        na * nb, da * db
    )
    xr = x @ rho_mat
    t = np.maximum(np.einsum("kb,kb->k", xr, x.conj()).real, 0.0).reshape(na, nb)
    ta, tb = t.sum(axis=1), t.sum(axis=0)
    lt, la, lb = _log2_floored(t), _log2_floored(ta), _log2_floored(tb)
    value = float(np.sum(t * lt) - ta @ la - tb @ lb)
    g = lt - la[:, np.newaxis] - lb[np.newaxis, :] - 1.0 / np.log(2.0)
    gx = (2.0 * g.reshape(-1, 1) * xr).reshape(na, nb, da, db)
    grad_a = np.einsum("isab,sb->ia", gx, rows_b.conj())
    grad_b = np.einsum("isab,ia->sb", gx, rows_a.conj())
    return value, grad_a, grad_b


@dataclass(frozen=True)
class ProjectiveBasis:
    """Orthonormal basis given as the columns of a unitary matrix."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.array(self.vectors, dtype=np.complex128)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"basis must be a square matrix, got {v.shape}")
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
    None otherwise.
    """

    effects: np.ndarray
    rows: np.ndarray | None = None

    def __post_init__(self):
        e = np.array(self.effects, dtype=np.complex128)
        if e.ndim != 3 or e.shape[1] != e.shape[2]:
            raise ValueError(f"effects must be (n, d, d), got {e.shape}")
        low = np.linalg.eigvalsh(e)[:, 0].min(initial=0.0)
        if low < -1e-10:
            raise InvalidStateError(f"effect has negative eigenvalue {low:.3e}")
        defect = np.max(np.abs(e.sum(axis=0) - np.eye(e.shape[1])))
        if defect > 1e-9:
            raise InvalidStateError(f"effects sum differs from identity by {defect:.3e}")
        e.flags.writeable = False
        object.__setattr__(self, "effects", e)
        if self.rows is not None:
            r = np.array(self.rows, dtype=np.complex128)
            r.flags.writeable = False
            object.__setattr__(self, "rows", r)

    @property
    def n_outcomes(self) -> int:
        return self.effects.shape[0]

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    @classmethod
    def from_basis(cls, basis: "ProjectiveBasis | np.ndarray") -> "Povm":
        u = basis.vectors if isinstance(basis, ProjectiveBasis) else np.asarray(basis)
        rows = u.conj().T
        return cls(_rank_one_effects(rows), rows)

    @classmethod
    def from_isometry(cls, w: np.ndarray) -> "Povm":
        """Rank-one POVM from an n_out x d matrix with orthonormal columns;
        row s is <k_s|."""
        w = np.asarray(w, dtype=np.complex128)
        defect = np.max(np.abs(w.conj().T @ w - np.eye(w.shape[1])))
        if defect > 1e-9:
            raise InvalidStateError(f"columns not orthonormal (defect {defect:.3e})")
        return cls(_rank_one_effects(w), w)

    @classmethod
    def random_rank_one(cls, d: int, n_out: int, rng=None) -> "Povm":
        rng = as_rng(rng)
        if n_out < d:
            raise ValueError(f"need n_out >= {d}, got {n_out}")
        z = rng.standard_normal((n_out, d)) + 1j * rng.standard_normal((n_out, d))
        q, r = np.linalg.qr(z)
        ph = np.diag(r) / np.abs(np.diag(r))
        return cls.from_isometry(q * ph[np.newaxis, :])


def _as_povm(meas) -> Povm:
    if isinstance(meas, Povm):
        return meas
    if isinstance(meas, ProjectiveBasis):
        return Povm.from_basis(meas)
    return Povm.from_basis(ProjectiveBasis(np.asarray(meas)))


@dataclass(frozen=True)
class JointDistribution:
    """Outcome table p[i, s] = Tr[(M_i (x) N_s) rho]."""

    table: np.ndarray

    def __post_init__(self):
        t = np.array(self.table, dtype=float)
        if t.min() < -ZERO_PROB:
            raise InvalidStateError(f"negative joint probability {t.min():.3e}")
        if abs(t.sum() - 1.0) > 1e-9:
            raise InvalidStateError(f"joint table sums to {t.sum():.12f}")
        t = np.clip(t, 0.0, None)
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    @property
    def marginal_a(self) -> np.ndarray:
        return self.table.sum(axis=1)

    @property
    def marginal_b(self) -> np.ndarray:
        return self.table.sum(axis=0)


def joint_distribution(rho: DensityMatrix, meas_a, meas_b) -> JointDistribution:
    """Joint outcome distribution of independent local measurements."""
    pa, pb = _as_povm(meas_a), _as_povm(meas_b)
    if pa.dim != rho.dim_a or pb.dim != rho.dim_b:
        raise DimensionMismatchError(
            f"measurement dims ({pa.dim}, {pb.dim}) do not match state dims "
            f"({rho.dim_a}, {rho.dim_b})"
        )
    if pa.rows is not None and pb.rows is not None:
        table = _outcome_table(rho, pa.rows, pb.rows)
    else:
        table = np.einsum("iax,sby,xyab->is", pa.effects, pb.effects, _r4(rho)).real
    return JointDistribution(table)


def classical_mutual_info(dist) -> float:
    """Mutual information in bits of a joint outcome table; a raw array is
    validated as a JointDistribution first."""
    if not isinstance(dist, JointDistribution):
        dist = JointDistribution(dist)
    return _table_mi(dist.table)


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


def _check_opt_dims(rho: DensityMatrix) -> None:
    if not (2 <= rho.dim_a <= MAX_OPT_DIM and 2 <= rho.dim_b <= MAX_OPT_DIM):
        raise UnsupportedDimensionError(
            f"optimization supports 2 <= dim <= {MAX_OPT_DIM} per side, "
            f"got ({rho.dim_a}, {rho.dim_b})"
        )


def _projective_seed_pairs(rho: DensityMatrix) -> list[tuple[np.ndarray, np.ndarray]]:
    da, db = rho.dim_a, rho.dim_b
    ma, mb = marginal_mats(rho)
    _, va = hermitian_eigen(ma)
    _, vb = hermitian_eigen(mb)
    fa, fb = fourier_matrix(da), fourier_matrix(db)
    ia, ib = np.eye(da), np.eye(db)
    pairs = [(ia, ib), (fa, fb), (va, vb), (fa, ib), (ia, fb)]
    if da == 2 and db == 2:
        pairs.append((YBASIS, YBASIS))
    return pairs


def _basis_chart(d: int):
    """Rows chart of a projective basis: Givens angles to U^H, with the
    pullback of a rows gradient (whose adjoint is the gradient in U)."""

    def chart(x):
        u, pull = unitary_from_params_vjp(x, d)
        return u.conj().T, lambda grad_rows: pull(grad_rows.conj().T)

    return chart


def _isometry_chart(n_out: int, d: int):
    return lambda x: isometry_from_params_vjp(x, n_out, d)


def _fixed_chart(rows: np.ndarray):
    return lambda x: (rows, lambda grad_rows: np.empty(0))


def _neg_mi_objective(rho_mat: np.ndarray, chart_a, chart_b, n_params_a: int):
    """-(record mi) and its gradient on the parameters of both sides' charts;
    the first n_params_a parameters belong to Alice."""

    def objective(x):
        rows_a, pull_a = chart_a(x[:n_params_a])
        rows_b, pull_b = chart_b(x[n_params_a:])
        value, grad_a, grad_b = _mi_value_grad(rho_mat, rows_a, rows_b)
        return -value, -np.concatenate([pull_a(grad_a), pull_b(grad_b)])

    return objective


def maximize_mi_projective(
    rho: DensityMatrix,
    cfg: OptimizerConfig | None = None,
    extra_seeds: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> MiSearchResult:
    """Search local projective bases for maximal record mutual information.

    Multi-start L-BFGS over a Givens-angle chart of both bases, with the
    analytic gradient of record mi pulled back through the chart.
    Structured starts (computational, Fourier, marginal eigenbases, mixed
    pairs, any extra_seeds) are always refined alongside cfg.restarts random
    starts, and the best exact evaluation wins.  Deterministic given (rho,
    cfg.seed, cfg.restarts); monotone in restarts.
    """
    cfg = cfg or OptimizerConfig()
    _check_opt_dims(rho)
    da, db = rho.dim_a, rho.dim_b
    na, nb = n_basis_params(da), n_basis_params(db)
    objective = _neg_mi_objective(rho.mat, _basis_chart(da), _basis_chart(db), na)

    pairs = _projective_seed_pairs(rho)
    if extra_seeds:
        pairs = pairs + [(np.asarray(a), np.asarray(b)) for a, b in extra_seeds]
    seeds = [
        np.concatenate([params_from_unitary(ua), params_from_unitary(ub)]) for ua, ub in pairs
    ]

    def random_start(rng):
        return np.concatenate(
            [
                params_from_unitary(random_unitary(da, rng)),
                params_from_unitary(random_unitary(db, rng)),
            ]
        )

    res = multistart_minimize(objective, seeds, cfg.restarts, na + nb, random_start, cfg, jac=True)
    ua = unitary_from_params(res.params[:na], da)
    ub = unitary_from_params(res.params[na:], db)
    return MiSearchResult(
        value=-res.value,
        meas_a=Povm.from_basis(ProjectiveBasis(ua)),
        meas_b=Povm.from_basis(ProjectiveBasis(ub)),
        converged=res.converged,
        n_starts=res.n_starts,
    )


def _fourier_frame(n_out: int, d: int) -> np.ndarray:
    """First d columns of the n_out-point DFT matrix: an equiangular tight
    frame, the canonical symmetric rank-one POVM seed."""
    k = np.arange(n_out)
    return np.exp(2j * np.pi * np.outer(k, np.arange(d)) / n_out) / np.sqrt(n_out)


def _embed_basis(u: np.ndarray, n_out: int) -> np.ndarray:
    """Projective basis as an n_out-outcome POVM (extra outcomes never fire)."""
    d = u.shape[0]
    w = np.zeros((n_out, d), dtype=np.complex128)
    w[:d, :] = u.conj().T
    return w


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

    Each free side is parameterized by an orthonormalized n_out x d complex
    matrix, so completeness holds exactly by construction.  Structured
    starts embed the projective-search result (the value can only improve
    on it) and discrete Fourier frames; fixed_a / fixed_b pin one side to a
    given rank-one POVM.
    """
    cfg = cfg or OptimizerConfig()
    _check_opt_dims(rho)
    da, db = rho.dim_a, rho.dim_b
    free_a, free_b = fixed_a is None, fixed_b is None
    if free_a and n_out_a < da:
        raise ValueError(f"n_out_a must be >= {da}, got {n_out_a}")
    if free_b and n_out_b < db:
        raise ValueError(f"n_out_b must be >= {db}, got {n_out_b}")
    if (not free_a and fixed_a.rows is None) or (not free_b and fixed_b.rows is None):
        raise ValueError("fixed measurements must be rank-one (have rows)")

    proj = maximize_mi_projective(rho, cfg)
    ua = proj.meas_a.rows.conj().T
    ub = proj.meas_b.rows.conj().T

    pa = n_isometry_params(n_out_a, da) if free_a else 0
    pb = n_isometry_params(n_out_b, db) if free_b else 0

    chart_a = _isometry_chart(n_out_a, da) if free_a else _fixed_chart(fixed_a.rows)
    chart_b = _isometry_chart(n_out_b, db) if free_b else _fixed_chart(fixed_b.rows)
    objective = _neg_mi_objective(rho.mat, chart_a, chart_b, pa)

    def side_seeds(u, d, n_out):
        frame = _fourier_frame(n_out, d)
        return [_embed_basis(u, n_out), frame, frame @ u.conj().T]

    seeds_a = (
        [params_from_isometry(w) for w in side_seeds(ua, da, n_out_a)]
        if free_a
        else [np.empty(0)]
    )
    seeds_b = (
        [params_from_isometry(w) for w in side_seeds(ub, db, n_out_b)]
        if free_b
        else [np.empty(0)]
    )
    seeds = [np.concatenate([sa, sb]) for sa in seeds_a for sb in seeds_b]

    def random_start(rng):
        return rng.standard_normal(pa + pb)

    res = multistart_minimize(objective, seeds, cfg.restarts, pa + pb, random_start, cfg, jac=True)
    ra, rb = chart_a(res.params[:pa])[0], chart_b(res.params[pa:])[0]
    return MiSearchResult(
        value=-res.value,
        meas_a=Povm.from_isometry(ra) if free_a else fixed_a,
        meas_b=Povm.from_isometry(rb) if free_b else fixed_b,
        converged=res.converged,
        n_starts=res.n_starts,
    )


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
    for m in _conditional_blocks(_r4(rho), pa.effects):
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


def _neg_avg_conditional_entropy(r4: np.ndarray, effects: np.ndarray) -> float:
    """-sum_i p_i S(rho_B|i), computed without normalizing each branch:
    sum_i p_i S(m_i / p_i) = -sum xlog2x(eigs of m_i) + sum xlog2x(p_i).
    The searches use _holevo_value_grad; this plain value path is what its
    value is tested against."""
    cond = _conditional_blocks(r4, effects)
    probs = np.clip(np.einsum("ibb->i", cond).real, 0.0, None)
    vals = np.clip(np.linalg.eigvalsh(cond), 0.0, None)
    return float(xlog2x(vals).sum() - xlog2x(probs).sum())


def _holevo_value_grad(r4: np.ndarray, rows: np.ndarray):
    """_neg_avg_conditional_entropy for the rank-one effects with rows <k_i|,
    and its gradient with respect to the rows.

    On each unnormalized conditional block m_i the derivative is
    L_i = log2 m_i - log2(p_i) 1 (the entropy of p_i m_i / p_i gives
    -log2 m_i, the p_i log p_i term the rest).  With
    Z_i = Tr_B[rho (1 (x) L_i)], row i's gradient is 2 Z_i^T <k_i|.
    """
    cond = _conditional_blocks(r4, _rank_one_effects(rows))
    probs = np.maximum(np.einsum("ibb->i", cond).real, 0.0)
    vals, vecs = np.linalg.eigh(cond)
    vals = np.maximum(vals, 0.0)
    lv, lp = _log2_floored(vals), _log2_floored(probs)
    value = float(np.sum(vals * lv) - probs @ lp)
    logm = (vecs * (lv - lp[:, np.newaxis])[:, np.newaxis, :]) @ vecs.conj().transpose(0, 2, 1)
    z = np.einsum("abAB,iBb->iaA", r4, logm)
    return value, 2.0 * np.einsum("iAa,iA->ia", z, rows)


def _neg_holevo_objective(r4: np.ndarray, chart):
    """-(conditional-entropy defect) and its gradient on a chart of Alice's
    measurement rows."""

    def objective(x):
        rows, pull = chart(x)
        value, grad_rows = _holevo_value_grad(r4, rows)
        return -value, -pull(grad_rows)

    return objective


def classical_correlation_a(
    rho: DensityMatrix,
    cfg: OptimizerConfig | None = None,
    projective_only: bool = True,
    n_out: int | None = None,
    extra_seeds: list[np.ndarray] | None = None,
) -> HolevoSearchResult:
    """Maximize S(B) - sum_i p_i S(rho_B|i) over measurements on Alice.

    Projective search runs over basis angles; with projective_only=False a
    rank-one POVM with n_out outcomes (default dim_a**2) is optimized
    instead.  Heuristic lower bound, exact at the returned measurement.
    extra_seeds takes basis unitaries to refine from, e.g. the mi-optimal
    Alice basis.
    """
    cfg = cfg or OptimizerConfig()
    _check_opt_dims(rho)
    da = rho.dim_a
    r4 = _r4(rho)
    ma, mb = marginal_mats(rho)
    s_b = von_neumann_entropy(mb)
    _, va = hermitian_eigen(ma)

    if projective_only:
        npar = n_basis_params(da)
        neg_value = _neg_holevo_objective(r4, _basis_chart(da))

        seeds = [np.zeros(npar), params_from_unitary(va)]
        if extra_seeds:
            seeds += [params_from_unitary(np.asarray(u)) for u in extra_seeds]

        def random_start(rng):
            return params_from_unitary(random_unitary(da, rng))

        res = multistart_minimize(neg_value, seeds, cfg.restarts, npar, random_start, cfg, jac=True)
        meas = Povm.from_basis(ProjectiveBasis(unitary_from_params(res.params, da)))
    else:
        n_out = n_out or da * da
        if n_out < da:
            raise ValueError(f"n_out must be >= {da}, got {n_out}")
        npar = n_isometry_params(n_out, da)
        neg_value = _neg_holevo_objective(r4, _isometry_chart(n_out, da))

        seeds = [
            params_from_isometry(_embed_basis(np.eye(da), n_out)),
            params_from_isometry(_embed_basis(va, n_out)),
            params_from_isometry(_fourier_frame(n_out, da)),
        ]
        if extra_seeds:
            seeds += [
                params_from_isometry(_embed_basis(np.asarray(u), n_out)) for u in extra_seeds
            ]

        def random_start(rng):
            return rng.standard_normal(npar)

        res = multistart_minimize(neg_value, seeds, cfg.restarts, npar, random_start, cfg, jac=True)
        meas = Povm.from_isometry(isometry_from_params(res.params, n_out, da))

    # res.value is the minimized -(conditional-entropy defect)
    return HolevoSearchResult(
        value=s_b - res.value,
        meas_a=meas,
        converged=res.converged,
        n_starts=res.n_starts,
    )


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
    value = _table_mi(_outcome_table(rho, va.conj().T, vb.conj().T))
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
        out[k] = _table_mi(_outcome_table(rho, ua.conj().T, ub.conj().T))
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
    nonclassicality >= discord holds up to float round-off.
    """
    cfg = cfg or OptimizerConfig()
    ma, mb = marginal_mats(rho)
    s_a = von_neumann_entropy(ma)
    s_b = von_neumann_entropy(mb)
    s_ab = von_neumann_entropy(rho.mat)
    smut = s_a + s_b - s_ab

    proj = maximize_mi_projective(rho, cfg)
    ua = proj.meas_a.rows.conj().T
    ub = proj.meas_b.rows.conj().T

    eig = i_eigenbasis(rho)

    cc_a = classical_correlation_a(rho, cfg, extra_seeds=[ua])
    cc_b = classical_correlation_a(swap_sides(rho), cfg, extra_seeds=[ub])

    n_out_a, n_out_b = povm_outcomes or (None, None)
    mi_povm = None
    if povm_outcomes is not None:
        mi_povm = maximize_mi_povm(rho, n_out_a, n_out_b, cfg).value

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

"""Correlation measures for bipartite states.

The classical side of every quantity here is the mutual information of the
outcome record of one local measurement per party, with no communication.
Optimized quantities (mi over bases, Holevo-type classical correlation) are
heuristic: reported values are exact evaluations of actual measurements, so
they are always lower bounds on the true suprema, and the derived
nonclassicality / discord figures are upper estimates.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass
from functools import partial
from itertools import accumulate

import numpy as np

from .linalg import (
    PSD_TOL,
    DensityMatrix,
    DimensionMismatchError,
    InvalidStateError,
    UnsupportedDimensionError,
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


def _conditional_blocks(r4: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """Unnormalized states of B after outcome i of Alice's effects:
    m_i = Tr_A[rho (M_i (x) 1)], stacked (..., n_out, dim_b, dim_b): one
    matmul of the effects, flattened over (A, a), on r4 as a matrix."""
    da, db = r4.shape[:2]
    flat = effects.reshape(effects.shape[:-2] + (da * da,))
    blocks = flat @ r4.transpose(2, 0, 1, 3).reshape(da * da, db * db)
    return blocks.reshape(blocks.shape[:-1] + (db, db))


def _outcome_table(rho: DensityMatrix, effects_a: np.ndarray, effects_b: np.ndarray) -> np.ndarray:
    """Unvalidated outcome tables p[..., i, s] = Tr[N_s m_i], m_i being the
    conditional blocks of Alice's effects M_i and N_s Bob's effects; leading
    axes of Alice's effect stack are kept.  One side at a time: O(d^5), no
    Kronecker product."""
    blocks = _conditional_blocks(_r4(rho), effects_a)
    return np.einsum("sBb,...ibB->...is", effects_b, blocks).real


def _log2_floored(x: np.ndarray) -> np.ndarray:
    """log2 with zero and round-off-negative entries raised to LOG_FLOOR.
    Such an entry's log only multiplies a derivative that vanishes with it,
    or a zero in a value sum, so it adds exactly nothing."""
    return np.log2(np.maximum(x, LOG_FLOOR))


def _mi_value_grad(rho_mat: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray):
    """Record mi of the rank-one measurements with rows <k_i| and <k_s|, and
    its gradients with respect to both row matrices.  Leading axes of the
    row stacks broadcast: (..., n, d) rows give (...,) values.

    With p_is = x_is rho x_is^H for x_is = <k_i| (x) <k_s|, the gradient of
    I(p) in x_is is 2 g_is x_is rho, where g_is = dI/dp_is =
    log2 p_is - log2 p_i. - log2 p_.s - 1/ln 2.  Zero entries contribute
    exactly zero to the value, as in _table_mi.
    """
    na, da = rows_a.shape[-2:]
    nb, db = rows_b.shape[-2:]
    x = rows_a[..., :, np.newaxis, :, np.newaxis] * rows_b[..., np.newaxis, :, np.newaxis, :]
    batch = x.shape[:-4]
    x = x.reshape(batch + (na * nb, da * db))
    xr = x @ rho_mat
    t = np.maximum(np.einsum("...kb,...kb->...k", xr, x.conj()).real, 0.0).reshape(batch + (na, nb))
    ta, tb = t.sum(axis=-1), t.sum(axis=-2)
    lt, la, lb = _log2_floored(t), _log2_floored(ta), _log2_floored(tb)
    value = (t * lt).sum(axis=(-2, -1)) - (ta * la).sum(axis=-1) - (tb * lb).sum(axis=-1)
    g = lt - la[..., :, np.newaxis] - lb[..., np.newaxis, :] - 1.0 / np.log(2.0)
    gx = (2.0 * g.reshape(batch + (-1, 1)) * xr).reshape(batch + (na, nb, da, db))
    grad_a = np.einsum("...isab,...sb->...ia", gx, rows_b.conj())
    grad_b = np.einsum("...isab,...ia->...sb", gx, rows_a.conj())
    return value, grad_a, grad_b


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
    from them, positive by construction; given both, rows must be
    (n_out, d) and give the effects to within the identity-sum tolerance.
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
        return cls.from_isometry(_qr_with_phases(z)[0])


def _as_povm(meas) -> Povm:
    if isinstance(meas, Povm):
        return meas
    if isinstance(meas, ProjectiveBasis):
        return Povm.from_basis(meas)
    return Povm.from_basis(ProjectiveBasis(np.asarray(meas)))


def _checked_tables(table) -> np.ndarray:
    """Outcome tables (..., n_a, n_b) checked as joint distributions: an
    entry below -PSD_TOL or a table sum off one by more than 1e-9 raises,
    and the round-off negatives that pass are clipped to zero."""
    t = np.array(table, dtype=float)
    if t.min() < -PSD_TOL:
        raise InvalidStateError(f"negative joint probability {t.min():.3e}")
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


@dataclass(frozen=True)
class _Side:
    """One party's measurement in a search.

    chart maps stacked parameters (..., n_params) to stacked measurement
    rows <k_s| and returns them with the pullback of a rows gradient to the
    parameters; encode maps a seed (a basis unitary for a Givens side, an
    n_out x d isometry for a QR side) to parameters; random_start draws a
    start from an rng; povm decodes final parameters.
    """

    n_params: int
    chart: Callable
    encode: Callable
    random_start: Callable
    povm: Callable


def _basis_side(d: int) -> _Side:
    """Projective basis on the Givens chart: angles to rows U^H, whose
    gradient's adjoint is the gradient in U."""

    def chart(x):
        u, pull = unitary_from_params_vjp(x, d)
        return adjoint(u), lambda grad_rows: pull(adjoint(grad_rows))

    return _Side(
        n_basis_params(d), chart, params_from_unitary,
        lambda rng: params_from_unitary(random_unitary(d, rng)),
        lambda x: Povm.from_basis(ProjectiveBasis(unitary_from_params(x, d))),
    )


def _isometry_side(n_out: int, d: int) -> _Side:
    """Rank-one POVM with n_out outcomes on the QR chart of an n_out x d
    complex matrix, so completeness holds exactly by construction."""
    n = n_isometry_params(n_out, d)
    return _Side(
        n, lambda x: isometry_from_params_vjp(x, n_out, d), params_from_isometry,
        lambda rng: rng.standard_normal(n),
        lambda x: Povm.from_isometry(isometry_from_params(x, n_out, d)),
    )


def _fixed_side(povm: Povm) -> _Side:
    """A given rank-one POVM: no parameters, and any seed encodes to none."""

    def chart(x):
        return povm.rows, lambda grad_rows: np.empty(x.shape)

    def no_params(_):
        return np.empty(0)

    return _Side(0, chart, no_params, no_params, lambda x: povm)


def _param_slices(sides: tuple[_Side, ...]) -> list[slice]:
    """Each side's slice of the parameter vector, sides concatenated in order."""
    cuts = list(accumulate((side.n_params for side in sides), initial=0))
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _objective(kernel: Callable, sides: tuple[_Side, ...]):
    """-kernel and its gradient on the parameters of the sides' charts.
    kernel takes one row stack per side and returns the value and one rows
    gradient per side.  Stacked points (S, n) give values (S,) and
    gradients (S, n)."""
    parts = list(zip(sides, _param_slices(sides)))

    def objective(x):
        charts = [side.chart(x[..., part]) for side, part in parts]
        value, *grads = kernel(*(rows for rows, _ in charts))
        # with every side fixed the rows carry no batch axis, nor does value
        return (-np.broadcast_to(value, x.shape[:-1]),
                -np.concatenate([pull(g) for (_, pull), g in zip(charts, grads)], axis=-1))

    return objective


def _search(kernel: Callable, sides: tuple[_Side, ...], seeds, cfg: OptimizerConfig):
    """Multi-start L-BFGS maximizing kernel over the sides' measurements,
    from the seeds (one entry per side each) and cfg.restarts random
    starts.  Returns the SearchResult, whose value is the minimized
    -kernel, and the best start's measurement on each side."""
    res = multistart_minimize(
        _objective(kernel, sides),
        [np.concatenate([side.encode(s) for side, s in zip(sides, seed)]) for seed in seeds],
        cfg.restarts,
        lambda rng: np.concatenate([side.random_start(rng) for side in sides]),
        cfg,
    )
    return res, [side.povm(res.params[part]) for side, part in zip(sides, _param_slices(sides))]


def _mi_result(res, meas: list[Povm]) -> MiSearchResult:
    """The MiSearchResult of a two-sided _search's output."""
    return MiSearchResult(-res.value, *meas, res.converged, res.n_starts, res.n_converged)


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
    seeds = _projective_seed_pairs(rho) + list(extra_seeds or [])
    sides = (_basis_side(rho.dim_a), _basis_side(rho.dim_b))
    return _mi_result(*_search(partial(_mi_value_grad, rho.mat), sides, seeds, cfg))


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
    on it) and discrete Fourier frames; fixed_a / fixed_b pin a side to a
    given rank-one POVM.
    """
    return _mi_povm_search(rho, n_out_a, n_out_b, cfg or OptimizerConfig(), fixed_a, fixed_b)


def _mi_povm_search(rho: DensityMatrix, n_out_a: int, n_out_b: int, cfg: OptimizerConfig,
                    fixed_a: Povm | None = None, fixed_b: Povm | None = None,
                    proj: MiSearchResult | None = None) -> MiSearchResult:
    """maximize_mi_povm, seeded from proj when the caller already holds
    maximize_mi_projective(rho, cfg).  Otherwise the projective search runs
    here over the free sides only, a fixed side staying fixed."""
    _check_opt_dims(rho)
    da, db = rho.dim_a, rho.dim_b
    free_a, free_b = fixed_a is None, fixed_b is None
    if free_a and n_out_a < da:
        raise ValueError(f"n_out_a must be >= {da}, got {n_out_a}")
    if free_b and n_out_b < db:
        raise ValueError(f"n_out_b must be >= {db}, got {n_out_b}")
    if (not free_a and fixed_a.rows is None) or (not free_b and fixed_b.rows is None):
        raise ValueError("fixed measurements must be rank-one (have rows)")

    kernel = partial(_mi_value_grad, rho.mat)
    # a fixed side seeds itself; with both sides fixed there is nothing to seed
    meas_a, meas_b = fixed_a, fixed_b
    if proj is not None:
        meas_a, meas_b = proj.meas_a, proj.meas_b
    elif free_a or free_b:
        sides = tuple(_basis_side(d) if fixed is None else _fixed_side(fixed)
                      for fixed, d in ((fixed_a, da), (fixed_b, db)))
        seeds = _projective_seed_pairs(rho)
        if free_a != free_b:
            # a fixed half encodes to no parameters, so pairs that differ only
            # there would rerun the same start: keep each free-side basis once
            free = 0 if free_a else 1
            seeds = [pair for i, pair in enumerate(seeds)
                     if not any(np.array_equal(pair[free], seen[free]) for seen in seeds[:i])]
        _, (meas_a, meas_b) = _search(kernel, sides, seeds, cfg)

    def side(fixed, meas, n_out, d):
        if fixed is not None:
            return _fixed_side(fixed), [None]
        u = meas.rows.conj().T
        frame = _fourier_frame(n_out, d)
        return _isometry_side(n_out, d), [_embed_basis(u, n_out), frame, frame @ u.conj().T]

    side_a, seeds_a = side(fixed_a, meas_a, n_out_a, da)
    side_b, seeds_b = side(fixed_b, meas_b, n_out_b, db)
    seeds = [(a, b) for a in seeds_a for b in seeds_b]
    return _mi_result(*_search(kernel, (side_a, side_b), seeds, cfg))


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
    n_converged: int


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
    and its gradient with respect to the rows; stacked rows (..., n, d) give
    (...,) values.

    On each unnormalized conditional block m_i the derivative is
    L_i = log2 m_i - log2(p_i) 1 (the entropy of p_i m_i / p_i gives
    -log2 m_i, the p_i log p_i term the rest).  With
    Z_i = Tr_B[rho (1 (x) L_i)], row i's gradient is 2 Z_i^T <k_i|.
    """
    cond = _conditional_blocks(r4, _rank_one_effects(rows))
    probs = np.maximum(np.einsum("...ibb->...i", cond).real, 0.0)
    vals, vecs = np.linalg.eigh(cond)
    vals = np.maximum(vals, 0.0)
    lv, lp = _log2_floored(vals), _log2_floored(probs)
    value = (vals * lv).sum(axis=(-2, -1)) - (probs * lp).sum(axis=-1)
    logm = (vecs * (lv - lp[..., np.newaxis])[..., np.newaxis, :]) @ adjoint(vecs)
    # z[i, a, A] = sum_bB L_i[B, b] r4[a, b, A, B]: one matmul, as in _conditional_blocks
    da, db = r4.shape[:2]
    r_adj = r4.transpose(3, 1, 0, 2).reshape(db * db, da * da)
    z = (logm.reshape(logm.shape[:-2] + (db * db,)) @ r_adj).reshape(logm.shape[:-2] + (da, da))
    return value, 2.0 * np.einsum("...iAa,...iA->...ia", z, rows)


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
    _, va = hermitian_eigen(marginal_mats(rho)[0])
    seeds = [np.eye(da), va] + [np.asarray(u) for u in extra_seeds or []]
    if projective_only:
        side = _basis_side(da)
    else:
        n_out = n_out or da * da
        if n_out < da:
            raise ValueError(f"n_out must be >= {da}, got {n_out}")
        seeds = [_embed_basis(u, n_out) for u in seeds]
        seeds.insert(2, _fourier_frame(n_out, da))  # before any extra_seeds
        side = _isometry_side(n_out, da)
    res, (meas,) = _search(partial(_holevo_value_grad, _r4(rho)), (side,),
                           [(seed,) for seed in seeds], cfg)
    # res.value is the minimized -(conditional-entropy defect)
    return HolevoSearchResult(von_neumann_entropy(marginal_mats(rho)[1]) - res.value, meas,
                              res.converged, res.n_starts, res.n_converged)


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

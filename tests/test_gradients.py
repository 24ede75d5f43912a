"""Analytic gradients of the search objectives, checked against central
finite differences, stacked evaluation against one point at a time, the
lockstep L-BFGS, and the searches on inputs with zero probabilities."""
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from qcorr.linalg import (
    DensityMatrix,
    as_rng,
    random_density_matrix,
    random_unitary,
    swap_sides,
    xlog2x,
)
from qcorr.measures import (
    Povm,
    ProjectiveBasis,
    _block_matrix,
    _conditional_blocks,
    _embed_basis,
    _gradient_matrix,
    _holevo_value_grad,
    _mi_kernel,
    _mi_value_grad,
    _outcome_table,
    _r4,
    _rank_one_effects,
    _table_mi,
    classical_correlation_a,
    full_report,
    maximize_mi_povm,
    maximize_mi_projective,
)
from qcorr.optimize import (
    OptimizerConfig,
    _lockstep_lbfgs,
    _multistart,
    _rows_objective,
    _side_slices,
    multistart_minimize,
    n_isometry_params,
    params_from_isometry,
    params_from_unitary,
)
from qcorr.states import trine_state

LIGHT = OptimizerConfig(restarts=2, seed=0)
SHAPES = [(2, 3), (3, 2)]


def central_differences(objective, x, h=1e-6):
    out = np.empty_like(x)
    for k in range(len(x)):
        step = np.zeros_like(x)
        step[k] = h
        out[k] = (objective(x + step)[0] - objective(x - step)[0]) / (2 * h)
    return out


def complex_matrix(params, n_out, d):
    return (params[: n_out * d] + 1j * params[n_out * d:]).reshape(n_out, d)


def assert_gradient_matches(objective, points):
    """At the retracted points: each point's gradient against central
    differences, its tangency on every side, and the stacked
    evaluation of all points against the evaluation of each point alone."""
    _, _, points = objective(np.atleast_2d(points))
    values, grads, again = objective(points)
    assert values.shape == points.shape[:1] and grads.shape == again.shape == points.shape
    assert np.abs(again - points).max() <= 1e-12
    for x, value, grad in zip(points, values, grads):
        alone_value, alone_grad, _ = objective(x)
        assert abs(value - alone_value) <= 1e-12
        assert np.abs(grad - alone_grad).max() <= 1e-12
        fd = central_differences(objective, x)
        assert np.linalg.norm(alone_grad - fd) <= 1e-6 * np.linalg.norm(fd), (alone_grad, fd)
        for shape, part in zip(objective.shapes, _side_slices(objective.shapes)):
            w = complex_matrix(x[part], *shape)
            xi = complex_matrix(grad[part], *shape)
            sym = w.conj().T @ xi + xi.conj().T @ w
            assert np.abs(sym).max() <= 1e-12 * max(1.0, np.abs(xi).max())


def mi_objective(rho, *shapes, fixed=(None, None)):
    """The record-mi objective on the free sides' (n_out, d) shapes, the
    fixed POVMs bound into the kernel."""
    objective = _rows_objective(_mi_kernel(rho, fixed), shapes)
    objective.shapes = shapes
    return objective


def mats(r4):
    """The two contraction matrices the kernels take."""
    return _block_matrix(r4), _gradient_matrix(r4)


def holevo_objective(r4, shape):
    r_mat, r_adj = mats(r4)
    objective = _rows_objective(lambda _owner, rows: _holevo_value_grad(r_mat, r_adj, rows),
                                (shape,))
    objective.shapes = (shape,)
    return objective


def _neg_avg_conditional_entropy(r4: np.ndarray, effects: np.ndarray) -> float:
    """-sum_i p_i S(rho_B|i), computed without normalizing each branch:
    sum_i p_i S(m_i / p_i) = -sum xlog2x(eigs of m_i) + sum xlog2x(p_i).
    The plain value path that the Holevo kernel's value is tested against."""
    cond = _conditional_blocks(_block_matrix(r4), effects)
    probs = np.clip(np.einsum("ibb->i", cond).real, 0.0, None)
    vals = np.clip(np.linalg.eigvalsh(cond), 0.0, None)
    return float(xlog2x(vals).sum() - xlog2x(probs).sum())


def random_params(d, rng):
    return rng.uniform(0, 2 * np.pi, n_isometry_params(d, d))


@pytest.mark.parametrize("da,db", SHAPES + [(4, 5)])
def test_mi_kernel_value_matches_table_paths(da, db):
    rng = as_rng([1, da, db])
    rho = random_density_matrix(da, db, rng=rng)
    r4 = _r4(rho)
    ua, ub = random_unitary(da, rng), random_unitary(db, rng)
    value = _mi_value_grad(*mats(r4), ua.conj().T, ub.conj().T)[0]
    reference = _table_mi(_outcome_table(rho, _rank_one_effects(ua.conj().T),
                                           _rank_one_effects(ub.conj().T)))
    assert value == pytest.approx(reference, abs=1e-12)
    ra = Povm.random_rank_one(da, da + 2, rng).rows
    rb = Povm.random_rank_one(db, db + 1, rng).rows
    value = _mi_value_grad(*mats(r4), ra, rb)[0]
    table = _outcome_table(rho, _rank_one_effects(ra), _rank_one_effects(rb))
    assert value == pytest.approx(_table_mi(table), abs=1e-12)

    # stacked rows with leading axes: Alice's (2, 3) stack against Bob's (3,)
    # stack and against one row matrix, and one Alice row matrix against
    # Bob's stack; every entry equals its evaluation alone
    stack_a = np.array([[Povm.random_rank_one(da, da + 2, rng).rows for _ in range(3)]
                        for _ in range(2)])
    stack_b = np.array([Povm.random_rank_one(db, db + 1, rng).rows for _ in range(3)])
    for rows_a, rows_b, lead in ((stack_a, stack_b, (2, 3)), (stack_a, rb, (2, 3)),
                                 (ra, stack_b, (3,))):
        value, grad_a, grad_b = _mi_value_grad(*mats(r4), rows_a, rows_b)
        assert value.shape == lead
        assert grad_a.shape == lead + ra.shape and grad_b.shape == lead + rb.shape
        tables = _outcome_table(rho, _rank_one_effects(rows_a), _rank_one_effects(rows_b))
        assert np.abs(value - _table_mi(tables)).max() <= 1e-12
        for k in np.ndindex(lead):
            one_a = rows_a[k] if rows_a.ndim > 2 else rows_a
            one_b = rows_b[k[-1]] if rows_b.ndim > 2 else rows_b
            alone = _mi_value_grad(*mats(r4), one_a, one_b)
            for stacked, single in zip((value[k], grad_a[k], grad_b[k]), alone):
                assert np.abs(stacked - single).max() <= 1e-12


@pytest.mark.parametrize("da,db", SHAPES)
def test_holevo_kernel_value_matches_conditional_entropy_path(da, db):
    rng = as_rng([2, da, db])
    rho = random_density_matrix(da, db, rng=rng)
    r4 = rho.mat.reshape(da, db, da, db)
    for rows in (random_unitary(da, rng).conj().T, Povm.random_rank_one(da, da + 2, rng).rows):
        value = _holevo_value_grad(*mats(r4), rows)[0]
        reference = _neg_avg_conditional_entropy(r4, _rank_one_effects(rows))
        assert value == pytest.approx(reference, abs=1e-12)


@pytest.mark.parametrize("da,db", SHAPES)
def test_projective_mi_gradient(da, db):
    rng = as_rng([3, da, db])
    rho = random_density_matrix(da, db, rng=rng)
    objective = mi_objective(rho, (da, da), (db, db))
    assert_gradient_matches(objective, [
        np.concatenate([random_params(da, rng), random_params(db, rng)]),
        np.concatenate([params_from_unitary(np.eye(da)), params_from_unitary(np.eye(db))]),
        np.concatenate([random_params(da, rng), random_params(db, rng)]),
    ])


@pytest.mark.parametrize("da,db", SHAPES + [(4, 5)])
def test_povm_mi_gradient_free_and_fixed_sides(da, db):
    rng = as_rng([4, da, db])
    rho = random_density_matrix(da, db, rng=rng)
    na, nb = da + 2, db + 1
    pa, pb = n_isometry_params(na, da), n_isometry_params(nb, db)
    both = mi_objective(rho, (na, da), (nb, db))
    seed = np.concatenate([
        params_from_isometry(_embed_basis(np.eye(da), na)),
        params_from_isometry(_embed_basis(np.eye(db), nb)),
    ])
    assert_gradient_matches(both, [rng.standard_normal(pa + pb), seed])
    fixed_a = Povm.from_basis(ProjectiveBasis(random_unitary(da, rng)))
    fixed_b = Povm.random_rank_one(db, nb, rng)
    assert_gradient_matches(mi_objective(rho, (nb, db), fixed=(fixed_a, None)),
                            rng.standard_normal((2, pb)))
    assert_gradient_matches(mi_objective(rho, (na, da), fixed=(None, fixed_b)),
                            rng.standard_normal((2, pa)))


@pytest.mark.parametrize("da,db", SHAPES)
def test_holevo_gradient_projective_and_povm(da, db):
    rng = as_rng([5, da, db])
    rho = random_density_matrix(da, db, rng=rng)
    r4 = rho.mat.reshape(da, db, da, db)
    projective = holevo_objective(r4, (da, da))
    assert_gradient_matches(projective, [random_params(da, rng), params_from_unitary(np.eye(da))])
    n_out = da * da
    povm = holevo_objective(r4, (n_out, da))
    assert_gradient_matches(povm, rng.standard_normal((2, n_isometry_params(n_out, da))))


def test_multistart_uses_a_supplied_gradient():
    def quadratic_with_gradient(x):  # stacked points (S, 3)
        return np.sum((x - 0.7) ** 2, axis=1), 2 * (x - 0.7), x

    cfg = OptimizerConfig(restarts=2, seed=0)
    res = multistart_minimize(quadratic_with_gradient, [np.zeros(3)], cfg.restarts,
                              lambda rng: rng.uniform(-2, 2, 3), cfg)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.converged and res.n_starts == 3
    assert res.status == (0, 0, 0) and res.n_converged == 3
    assert len(res.nfev) == 3 and all(nfev > nit >= 1 for nfev, nit in zip(res.nfev, res.nit))


def test_lockstep_stops_on_relative_decrease():
    def offset_bowl(x):  # stacked points (S, 4)
        return 1e12 + np.sum((x - 0.7) ** 2, axis=1), 2 * (x - 0.7), x

    res = multistart_minimize(offset_bowl, [np.zeros(4)], 0, None, OptimizerConfig())
    # the first step lowers the value by 1.8, a relative 1.8e-12, while the
    # largest gradient entry is still 0.4
    assert res.status == (0,) and res.nit == (1,)
    assert res.value - 1e12 == pytest.approx(0.16, abs=1e-3)


@pytest.mark.parametrize("d", [2, 3])
def test_lockstep_start_is_the_same_alone_and_in_a_batch(d):
    rho = random_density_matrix(d, d, rng=as_rng([10, d]))
    cfg = OptimizerConfig(seed=0)
    cases = [
        (mi_objective(rho, (d, d), (d, d)),
         [np.concatenate([params_from_unitary(random_unitary(d, as_rng([d, k])))
                          for _ in range(2)]) for k in range(5)]),
        (holevo_objective(_r4(rho), (d + 1, d)),
         as_rng([11, d]).standard_normal((5, n_isometry_params(d + 1, d)))),
    ]
    for objective, starts in cases:
        x, f, nfev, _, _ = _lockstep_lbfgs(objective, np.array(starts), cfg)
        assert len(set(nfev)) > 1  # starts leave the batch at different rounds
        for k, x0 in enumerate(starts):
            x_alone, f_alone, _, _, _ = _lockstep_lbfgs(objective, x0[np.newaxis], cfg)
            assert abs(f_alone[0] - f[k]) <= 1e-12
            assert np.abs(x_alone[0] - x[k]).max() <= 1e-12

    # two problems with 4 d^2 parameters each in one lockstep, the d x d
    # record-mi search and a 2d-outcome Holevo search, each row evaluated by
    # its own problem's objective: every row's x, f, nfev, nit and status is
    # == its run without the other problem
    problems = [cases[0][0], holevo_objective(_r4(rho), (2 * d, d))]
    starts = [np.array(cases[0][1]), as_rng([12, d]).standard_normal((4, 4 * d * d))]

    def both(x, owner):
        out = (np.empty(len(x)), np.empty_like(x), np.empty_like(x))
        for k, objective in enumerate(problems):
            mine = owner == k
            if mine.any():
                for whole, part in zip(out, objective(x[mine])):
                    whole[mine] = part
        return out

    owner = np.repeat([0, 1], [len(s) for s in starts])
    together = _lockstep_lbfgs(lambda x, live: both(x, owner[live]), np.concatenate(starts), cfg)
    for k, (objective, x0) in enumerate(zip(problems, starts)):
        alone = _lockstep_lbfgs(objective, x0, cfg)
        for got, want in zip(together, alone):
            assert np.array_equal(got[owner == k], want)

    # the same through the driver, random starts included
    def random_start(rng):
        return rng.standard_normal(4 * d * d)

    results = _multistart(both, [(x0, 2, random_start) for x0 in starts], cfg)
    for res, objective, x0 in zip(results, problems, starts):
        alone = multistart_minimize(objective, x0, 2, random_start, cfg)
        assert res.value == alone.value and np.array_equal(res.params, alone.params)
        assert (res.converged, res.n_starts, res.nfev, res.nit, res.status) == (
            alone.converged, alone.n_starts, alone.nfev, alone.nit, alone.status)


@pytest.mark.parametrize("d", [3, 4])
def test_searches_stop_stationary(d):
    """At least 90% of the starts of every search stop with status 0."""
    cfg = OptimizerConfig(restarts=8, seed=0)
    for k in range(3):
        rho = random_density_matrix(d, d, rng=100 + k)
        proj = maximize_mi_projective(rho, cfg)
        ua, ub = proj.meas_a.rows.conj().T, proj.meas_b.rows.conj().T
        searches = [
            proj,
            classical_correlation_a(rho, cfg, extra_seeds=[ua]),
            classical_correlation_a(swap_sides(rho), cfg, extra_seeds=[ub]),
            classical_correlation_a(rho, cfg, projective_only=False),
            maximize_mi_povm(rho, d + 1, d + 1, cfg),
        ]
        for res in searches:
            assert res.n_converged >= 0.9 * res.n_starts, (k, res.n_converged, res.n_starts)


def _pure(vec, da, db):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return DensityMatrix(np.outer(vec, vec.conj()), da, db)


ZERO_PROBABILITY_STATES = {
    "singlet": _pure([0, 1, -1, 0], 2, 2),
    "product": _pure(np.kron([1, 0], [1, 1]), 2, 2),
    "rank1_3x3": random_density_matrix(3, 3, rank=1, rng=as_rng(7)),
    "trine": trine_state(),
}


@pytest.mark.parametrize("name", sorted(ZERO_PROBABILITY_STATES))
def test_searches_stay_finite_and_silent_with_zero_probabilities(name):
    rho = ZERO_PROBABILITY_STATES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [
            maximize_mi_projective(rho, LIGHT).value,
            classical_correlation_a(rho, LIGHT).value,
            classical_correlation_a(rho, LIGHT, projective_only=False).value,
            maximize_mi_povm(rho, rho.dim_a + 1, rho.dim_b + 1, LIGHT).value,
        ]
    assert np.all(np.isfinite(values)), values


def _two_qubit_holevo_oracle(rho: DensityMatrix) -> float:
    """max over Alice's Bloch directions n of S(B) - sum_pm p_pm S(B|pm),
    from a dense (theta, phi) grid polished by Nelder-Mead.  Written from the
    Bloch picture alone: Bob's branches are (rho_B +- n.T) / 2 with
    T_k = Tr_A[(sigma_k (x) 1) rho]."""
    r4 = rho.mat.reshape(2, 2, 2, 2)
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    rho_b = np.einsum("abaB->bB", r4)
    t = np.einsum("kAa,abAB->kbB", paulis, r4)

    def h(p):
        p = np.clip(p, 1e-300, 1.0)
        return -p * np.log2(p)

    def entropy_2x2(m):  # m has shape (2, 2, ...)
        tr = (m[0, 0] + m[1, 1]).real
        rad = np.sqrt(((m[0, 0] - m[1, 1]).real / 2) ** 2 + np.abs(m[0, 1]) ** 2)
        return h(tr / 2 + rad) + h(tr / 2 - rad) - h(tr)

    def value(theta, phi):
        n = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
        nt = np.tensordot(t, n, axes=(0, 0))
        branches = entropy_2x2((rho_b[..., np.newaxis] + nt) / 2) + entropy_2x2(
            (rho_b[..., np.newaxis] - nt) / 2)
        return entropy_2x2(rho_b[..., np.newaxis])[0] - branches

    thetas = np.linspace(0, np.pi, 361)
    phis = np.linspace(0, 2 * np.pi, 721)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    grid = value(tt.ravel(), pp.ravel())
    k = int(np.argmax(grid))
    res = minimize(lambda v: -value(np.array([v[0]]), np.array([v[1]]))[0],
                   [tt.ravel()[k], pp.ravel()[k]], method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-15, "maxiter": 2000})
    return max(float(grid[k]), -float(res.fun))


@pytest.mark.parametrize("k", range(6))
def test_projective_classical_correlation_matches_bloch_grid_oracle(k):
    rho = random_density_matrix(2, 2, rng=as_rng([808, k]))
    oracle = _two_qubit_holevo_oracle(rho)
    got = classical_correlation_a(rho, OptimizerConfig(restarts=4, seed=0)).value
    assert abs(got - oracle) <= 1e-6, (got, oracle)


def test_full_report_is_deterministic_and_monotone_in_restarts():
    rho = random_density_matrix(3, 3, rng=as_rng(9))
    first = full_report(rho, LIGHT).to_dict()
    assert full_report(rho, LIGHT).to_dict() == first
    more = OptimizerConfig(restarts=5, seed=0)
    assert maximize_mi_projective(rho, more).value >= first["mi_projective"]
    assert classical_correlation_a(rho, more).value >= classical_correlation_a(rho, LIGHT).value

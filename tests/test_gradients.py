"""Analytic gradients of the search objectives, checked against central
finite differences, and the searches on inputs with zero probabilities."""
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from qcorr.linalg import DensityMatrix, as_rng, random_density_matrix, random_unitary
from qcorr.measures import (
    Povm,
    ProjectiveBasis,
    _basis_chart,
    _embed_basis,
    _fixed_chart,
    _holevo_value_grad,
    _isometry_chart,
    _mi_value_grad,
    _neg_avg_conditional_entropy,
    _neg_holevo_objective,
    _neg_mi_objective,
    _outcome_table,
    _rank_one_effects,
    _table_mi,
    classical_correlation_a,
    full_report,
    maximize_mi_povm,
    maximize_mi_projective,
)
from qcorr.optimize import (
    OptimizerConfig,
    multistart_minimize,
    n_basis_params,
    n_isometry_params,
    params_from_isometry,
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


def assert_gradient_matches(objective, x):
    _, grad = objective(x)
    fd = central_differences(objective, x)
    assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd), (grad, fd)


def random_angles(d, rng):
    return rng.uniform(0, 2 * np.pi, n_basis_params(d))


@pytest.mark.parametrize("da,db", SHAPES)
def test_mi_kernel_value_matches_table_paths(da, db):
    rng = as_rng([1, da, db])
    rho = random_density_matrix(da, db, rng=rng)
    ua, ub = random_unitary(da, rng), random_unitary(db, rng)
    value = _mi_value_grad(rho.mat, ua.conj().T, ub.conj().T)[0]
    reference = _table_mi(_outcome_table(rho, ua.conj().T, ub.conj().T))
    assert value == pytest.approx(reference, abs=1e-12)
    ra = Povm.random_rank_one(da, da + 2, rng).rows
    rb = Povm.random_rank_one(db, db + 1, rng).rows
    value = _mi_value_grad(rho.mat, ra, rb)[0]
    assert value == pytest.approx(_table_mi(_outcome_table(rho, ra, rb)), abs=1e-12)


@pytest.mark.parametrize("da,db", SHAPES)
def test_holevo_kernel_value_matches_conditional_entropy_path(da, db):
    rng = as_rng([2, da, db])
    rho = random_density_matrix(da, db, rng=rng)
    r4 = rho.mat.reshape(da, db, da, db)
    for rows in (random_unitary(da, rng).conj().T, Povm.random_rank_one(da, da + 2, rng).rows):
        value = _holevo_value_grad(r4, rows)[0]
        reference = _neg_avg_conditional_entropy(r4, _rank_one_effects(rows))
        assert value == pytest.approx(reference, abs=1e-12)


@pytest.mark.parametrize("da,db", SHAPES)
def test_projective_mi_gradient(da, db):
    rng = as_rng([3, da, db])
    rho = random_density_matrix(da, db, rng=rng)
    objective = _neg_mi_objective(rho.mat, _basis_chart(da), _basis_chart(db), n_basis_params(da))
    assert_gradient_matches(objective, np.concatenate([random_angles(da, rng), random_angles(db, rng)]))
    # identity seed: every theta is zero, where the phi directions are flat
    assert_gradient_matches(objective, np.zeros(n_basis_params(da) + n_basis_params(db)))


@pytest.mark.parametrize("da,db", SHAPES)
def test_povm_mi_gradient_free_and_fixed_sides(da, db):
    rng = as_rng([4, da, db])
    rho = random_density_matrix(da, db, rng=rng)
    na, nb = da + 2, db + 1
    pa, pb = n_isometry_params(na, da), n_isometry_params(nb, db)
    both = _neg_mi_objective(rho.mat, _isometry_chart(na, da), _isometry_chart(nb, db), pa)
    assert_gradient_matches(both, rng.standard_normal(pa + pb))
    seed = np.concatenate([
        params_from_isometry(_embed_basis(np.eye(da), na)),
        params_from_isometry(_embed_basis(np.eye(db), nb)),
    ])
    assert_gradient_matches(both, seed)
    fixed_a = _fixed_chart(Povm.from_basis(ProjectiveBasis(random_unitary(da, rng))).rows)
    fixed_b = _fixed_chart(Povm.random_rank_one(db, nb, rng).rows)
    assert_gradient_matches(_neg_mi_objective(rho.mat, fixed_a, _isometry_chart(nb, db), 0),
                            rng.standard_normal(pb))
    assert_gradient_matches(_neg_mi_objective(rho.mat, _isometry_chart(na, da), fixed_b, pa),
                            rng.standard_normal(pa))


@pytest.mark.parametrize("da,db", SHAPES)
def test_holevo_gradient_projective_and_povm(da, db):
    rng = as_rng([5, da, db])
    rho = random_density_matrix(da, db, rng=rng)
    r4 = rho.mat.reshape(da, db, da, db)
    projective = _neg_holevo_objective(r4, _basis_chart(da))
    assert_gradient_matches(projective, random_angles(da, rng))
    assert_gradient_matches(projective, np.zeros(n_basis_params(da)))
    n_out = da * da
    povm = _neg_holevo_objective(r4, _isometry_chart(n_out, da))
    assert_gradient_matches(povm, rng.standard_normal(n_isometry_params(n_out, da)))


def test_multistart_uses_a_supplied_gradient():
    def quadratic_with_gradient(x):
        return float(np.sum((x - 0.7) ** 2)), 2 * (x - 0.7)

    cfg = OptimizerConfig(restarts=2, seed=0)
    res = multistart_minimize(quadratic_with_gradient, [np.zeros(3)], cfg.restarts, 3,
                              lambda rng: rng.uniform(-2, 2, 3), cfg, jac=True)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.converged and res.n_starts == 3


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

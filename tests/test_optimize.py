import numpy as np
import pytest

from qcorr.linalg import as_rng, fourier_matrix, random_unitary
from qcorr.optimize import (
    OptimizerConfig,
    isometry_from_params,
    multistart_minimize,
    n_basis_params,
    n_isometry_params,
    pair_order,
    params_from_isometry,
    params_from_unitary,
    unitary_from_params,
)


def projectors_match(u, v, atol=1e-9):
    # bases are compared modulo column phases
    for k in range(u.shape[1]):
        pu = np.outer(u[:, k], u[:, k].conj())
        pv = np.outer(v[:, k], v[:, k].conj())
        if np.abs(pu - pv).max() > atol:
            return False
    return True


def test_pair_order_and_param_counts():
    assert pair_order(3) == [(0, 1), (0, 2), (1, 2)]
    assert n_basis_params(2) == 2
    assert n_basis_params(4) == 12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_unitary_from_params_is_unitary(d):
    rng = as_rng([d, 0])
    params = rng.uniform(0, 2 * np.pi, n_basis_params(d))
    u = unitary_from_params(params, d)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(d), atol=1e-11)


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_basis_chart_roundtrip_covers_haar_bases(d):
    for seed in range(3):
        u = random_unitary(d, as_rng([d, seed]))
        back = unitary_from_params(params_from_unitary(u), d)
        assert projectors_match(u, back)


def test_basis_chart_roundtrip_on_structured_bases():
    for d in (2, 3, 5):
        eye = np.eye(d, dtype=complex)
        assert projectors_match(unitary_from_params(params_from_unitary(eye), d), eye)
        f = fourier_matrix(d)
        assert projectors_match(unitary_from_params(params_from_unitary(f), d), f)


def test_isometry_chart_roundtrip():
    rng = as_rng(12)
    w = np.linalg.qr(rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))[0]
    back = isometry_from_params(params_from_isometry(w), 5, 3)
    np.testing.assert_allclose(back, w, atol=1e-10)
    assert n_isometry_params(5, 3) == 30


def test_isometry_from_params_is_isometry():
    rng = as_rng(13)
    w = isometry_from_params(rng.standard_normal(n_isometry_params(4, 2)), 4, 2)
    np.testing.assert_allclose(w.conj().T @ w, np.eye(2), atol=1e-11)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=-1)


def quadratic(x):
    return float(np.sum((x - 0.7) ** 2))


def test_multistart_finds_quadratic_minimum():
    cfg = OptimizerConfig(restarts=4, max_iters=300, seed=0)
    res = multistart_minimize(
        quadratic,
        start_points=[np.zeros(3)],
        n_random=cfg.restarts,
        n_params=3,
        random_start=lambda rng: rng.uniform(-2, 2, 3),
        cfg=cfg,
    )
    assert res.value == pytest.approx(0.0, abs=1e-8)
    np.testing.assert_allclose(res.params, 0.7, atol=1e-3)
    assert res.n_starts == 5


def test_multistart_is_deterministic_and_monotone_in_restarts():
    def bumpy(x):
        return float(np.sum(x**2) + 0.3 * np.sum(np.cos(5 * x)))

    def run(restarts):
        cfg = OptimizerConfig(restarts=restarts, max_iters=200, seed=1)
        return multistart_minimize(
            bumpy, [np.ones(2)], cfg.restarts, 2, lambda rng: rng.uniform(-3, 3, 2), cfg
        ).value

    assert run(6) == run(6)
    assert run(12) <= run(3) + 1e-12


def test_multistart_never_beats_an_exact_seed_downward():
    cfg = OptimizerConfig(restarts=3, max_iters=150, seed=2)
    res = multistart_minimize(
        quadratic, [np.full(3, 0.7)], cfg.restarts, 3, lambda rng: rng.uniform(-2, 2, 3), cfg
    )
    assert res.value <= quadratic(np.full(3, 0.7)) + 1e-15

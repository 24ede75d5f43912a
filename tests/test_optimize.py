import numpy as np
import pytest

from qcorr.linalg import as_rng, fourier_matrix, random_unitary
from qcorr.optimize import (
    HISTORY,
    OptimizerConfig,
    _empty_memory,
    _lbfgs_direction,
    _push_pairs,
    isometry_from_params,
    multistart_minimize,
    n_isometry_params,
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


def test_param_counts():
    assert n_isometry_params(2, 2) == 8
    assert n_isometry_params(4, 4) == 32


@pytest.mark.parametrize("d", [2, 3, 5])
def test_unitary_from_params_is_unitary(d):
    rng = as_rng([d, 0])
    params = rng.uniform(0, 2 * np.pi, n_isometry_params(d, d))
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


@pytest.mark.parametrize("field", [
    {"max_iters": 0}, {"tolerance": 0.0}, {"tolerance": float("inf")}, {"seed": -1},
    {"restarts": 2.5}, {"restarts": 2.0}, {"max_iters": 2.5}, {"seed": 1.5},
    {"restarts": True}, {"max_iters": True}, {"seed": False},
    {"tolerance": True}, {"tolerance": "1e-7"},
], ids=["max-iters-0", "tolerance-0", "tolerance-inf", "seed-negative",
        "restarts-float", "restarts-integral-float", "max-iters-float", "seed-float",
        "restarts-bool", "max-iters-bool", "seed-bool", "tolerance-bool", "tolerance-string"])
def test_optimizer_config_rejects_a_zero_budget_or_tolerance(field):
    with pytest.raises(ValueError):
        OptimizerConfig(**field)


def test_optimizer_config_accepts_numpy_integers():
    cfg = OptimizerConfig(restarts=np.int64(2), max_iters=np.int32(5), seed=np.uint8(3))
    assert (cfg.restarts, cfg.max_iters, cfg.seed) == (2, 5, 3)


@pytest.mark.parametrize("tol", [1, 1e-9, np.float32(1e-6), np.float64(1e-7), np.int64(2)])
def test_optimizer_config_accepts_real_tolerances(tol):
    assert OptimizerConfig(tolerance=tol).tolerance == tol


def quadratic(x):  # stacked points (S, n)
    return np.sum((x - 0.7) ** 2, axis=-1), 2 * (x - 0.7), x


def test_multistart_finds_quadratic_minimum():
    cfg = OptimizerConfig(restarts=4, max_iters=300, seed=0)
    res = multistart_minimize(
        quadratic,
        start_points=[np.zeros(3)],
        n_random=cfg.restarts,
        random_start=lambda rng: rng.uniform(-2, 2, 3),
        cfg=cfg,
    )
    assert res.value == pytest.approx(0.0, abs=1e-8)
    np.testing.assert_allclose(res.params, 0.7, atol=1e-3)
    assert res.n_starts == 5
    assert len(res.nfev) == len(res.nit) == 5 and res.status == (0,) * 5 and res.n_converged == 5


def test_multistart_runs_each_distinct_structured_start_once():
    cfg = OptimizerConfig(restarts=2, seed=0)
    res = multistart_minimize(quadratic, [np.zeros(3), np.ones(3), np.zeros(3)], cfg.restarts,
                              lambda rng: rng.uniform(-2, 2, 3), cfg)
    assert res.n_starts == 4 and len(res.nfev) == 4


def test_multistart_is_deterministic_and_monotone_in_restarts():
    def bumpy(x):  # stacked points (S, 2)
        return np.sum(x**2 + 0.3 * np.cos(5 * x), axis=-1), 2 * x - 1.5 * np.sin(5 * x), x

    def run(restarts):
        cfg = OptimizerConfig(restarts=restarts, max_iters=200, seed=1)
        return multistart_minimize(
            bumpy, [np.ones(2)], cfg.restarts, lambda rng: rng.uniform(-3, 3, 2), cfg
        ).value

    assert run(6) == run(6)
    assert run(12) <= run(3) + 1e-12


def test_multistart_never_beats_an_exact_seed_downward():
    cfg = OptimizerConfig(restarts=3, max_iters=150, seed=2)
    res = multistart_minimize(
        quadratic, [np.full(3, 0.7)], cfg.restarts, lambda rng: rng.uniform(-2, 2, 3), cfg
    )
    assert res.value <= quadratic(np.full(3, 0.7))[0] + 1e-15


def test_multistart_reports_failed_starts_as_unconverged():
    def nowhere_finite(x):  # stacked points (S, 2)
        return np.full(len(x), np.nan), np.full(x.shape, np.nan), x

    cfg = OptimizerConfig(restarts=1, seed=0)
    res = multistart_minimize(nowhere_finite, [np.zeros(2)], cfg.restarts,
                              lambda rng: rng.uniform(-1, 1, 2), cfg)
    assert np.isnan(res.value)
    assert res.status == (2, 2) and not res.converged and res.n_converged == 0
    with pytest.raises(ValueError):
        multistart_minimize(quadratic, [], 0, None, cfg)


def two_loop_direction(g, s_pairs, y_pairs):
    """-H g by the L-BFGS two-loop recursion, pairs oldest first."""
    q, alphas = g.copy(), []
    for s, y in zip(s_pairs[::-1], y_pairs[::-1]):
        alphas.append(s @ q / (s @ y))
        q -= alphas[-1] * y
    r = (s_pairs[-1] @ y_pairs[-1]) / (y_pairs[-1] @ y_pairs[-1]) * q if len(s_pairs) else q
    for s, y, alpha in zip(s_pairs, y_pairs, alphas[::-1]):
        r += s * (alpha - y @ r / (s @ y))
    return -r


def push(memory, row, s, y):
    """_push_pairs on one row of a memory, in place."""
    _push_pairs(*(a[row:row + 1] for a in memory), s[np.newaxis], y[np.newaxis],
                np.array([s @ y]), np.array([y @ y]))


def test_compact_direction_matches_two_loop_recursion():
    rng = as_rng(14)
    n = 7
    a = rng.standard_normal((n, n))
    hessian = a @ a.T + np.eye(n)
    # the last row's history has wrapped: only its newest HISTORY pairs count
    counts = [0, 1, 4, HISTORY, HISTORY + 3]
    memory = _empty_memory(len(counts), n)
    pairs = []
    g = rng.standard_normal((len(counts), n))
    for row, k in enumerate(counts):
        s_pairs = rng.standard_normal((k, n))
        y_pairs = s_pairs @ hessian
        for s, y in zip(s_pairs, y_pairs):
            push(memory, row, s, y)
        pairs.append((s_pairs[-HISTORY:], y_pairs[-HISTORY:]))
    got = _lbfgs_direction(g, *memory)
    for row, (s_pairs, y_pairs) in enumerate(pairs):
        want = two_loop_direction(g[row], s_pairs, y_pairs)
        np.testing.assert_allclose(got[row], want, atol=1e-12 * np.abs(want).max())


def fresh_factors(hist, k):
    """R^-1, diag(S^T Y), Y^T Y and gamma of one row's stored history
    (2 HISTORY, n) holding k pairs, computed anew: R is the upper triangle
    of S^T Y with an identity on the HISTORY - k unused slots."""
    s, y = hist[:HISTORY], hist[HISTORY:]
    sy = s @ y.T
    r = np.triu(sy) + np.diag(np.arange(HISTORY) < HISTORY - k)
    gamma = sy[-1, -1] / (y[-1] @ y[-1]) if k else 1.0
    return np.linalg.inv(r), np.diag(sy), y @ y.T, gamma


def test_kept_factors_equal_a_fresh_computation():
    # pairs along a quadratic, x moving by random steps: after every update
    # each row's R^-1, D, Y^T Y and gamma equal their computation from the
    # stored pairs, through 3 HISTORY pairs and, on row 1, a descent-loss
    # reset halfway
    rng = as_rng(15)
    n, rows = 16, 3
    a = rng.standard_normal((n, n))
    hessian = a @ a.T / n + np.eye(n)
    memory = _empty_memory(rows, n)
    counts = np.zeros(rows, dtype=int)
    for step in range(3 * HISTORY):
        if step == 3 * HISTORY // 2:
            hist, rinv, d_sy, yy, gamma = memory
            hist[1], rinv[1], d_sy[1], yy[1], gamma[1] = (b[0] for b in _empty_memory(1, n))
            counts[1] = 0
        for row in range(rows):
            s = rng.standard_normal(n)
            push(memory, row, s, hessian @ s)
        counts += 1
        for row in range(rows):
            hist, *kept = (a[row] for a in memory)
            for got, want in zip(kept, fresh_factors(hist, min(counts[row], HISTORY))):
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=1e-12 * max(np.abs(want).max(), 1.0))

import numpy as np
import pytest

from qcorr import dqc1
from qcorr.dqc1 import (
    Dqc1Model,
    build_explicit_state,
    dqc1_max_record_mi,
    dqc1_max_record_mi_numeric,
    dqc1_nonclassicality,
    dqc1_quantum_mi,
    dqc1_record_mi,
    dqc1_scan,
    exact_normalized_trace,
    trace_estimate,
)
from qcorr.linalg import InvalidStateError, UnsupportedDimensionError, partial_trace
from qcorr.measures import (
    ProjectiveBasis,
    classical_mutual_info,
    joint_distribution,
    quantum_mutual_info,
)
from qcorr.optimize import OptimizerConfig


def test_model_validation():
    with pytest.raises(InvalidStateError):
        Dqc1Model(n=0, alpha=0.5, phases=np.zeros(1))
    with pytest.raises(InvalidStateError):
        Dqc1Model(n=1, alpha=1.5, phases=np.zeros(2))
    with pytest.raises(InvalidStateError):
        Dqc1Model(n=2, alpha=0.5, phases=np.zeros(3))


def test_constructors():
    uni = Dqc1Model.uniform(3, 0.5)
    np.testing.assert_allclose(uni.phases, 2 * np.pi * np.arange(8) / 8, atol=0)
    haar = Dqc1Model.haar(2, 0.5, seed=4)
    again = Dqc1Model.haar(2, 0.5, seed=4)
    np.testing.assert_allclose(haar.phases, again.phases, atol=0)
    target = np.array([0.3, -1.2, 2.0, 0.0])
    model = Dqc1Model.from_unitary(0.9, np.diag(np.exp(1j * target)))
    np.testing.assert_allclose(model.phases, np.sort(target), atol=1e-12)
    with pytest.raises(InvalidStateError):
        Dqc1Model.from_unitary(0.5, np.diag([1.0, 2.0]))
    with pytest.raises(InvalidStateError):
        Dqc1Model.from_unitary(0.5, np.eye(3, dtype=complex))
    with pytest.raises(UnsupportedDimensionError, match="capped at n=11"):
        Dqc1Model.haar(12, 0.5)


def test_exact_normalized_trace():
    assert exact_normalized_trace(Dqc1Model.uniform(4, 0.5)) == pytest.approx(0.0, abs=1e-12)
    flat = Dqc1Model(n=2, alpha=0.3, phases=np.full(4, 0.7))
    assert exact_normalized_trace(flat) == pytest.approx(np.exp(0.7j), abs=1e-12)


def test_explicit_state_marginals():
    model = Dqc1Model.haar(3, 0.6, seed=1)
    rho = build_explicit_state(model)
    assert (rho.dim_a, rho.dim_b) == (2, 8)
    np.testing.assert_allclose(partial_trace(rho, "B").mat, np.eye(8) / 8, atol=1e-12)
    beta = 0.6 * exact_normalized_trace(model)
    control = partial_trace(rho, "A").mat
    np.testing.assert_allclose(control, [[0.5, np.conj(beta) / 2], [beta / 2, 0.5]], atol=1e-12)
    with pytest.raises(UnsupportedDimensionError, match="capped at n=6"):
        build_explicit_state(Dqc1Model.uniform(7, 0.5))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quantum_mi_matches_explicit_state(n):
    for model in (Dqc1Model.uniform(n, 0.7), Dqc1Model.haar(n, 0.4, seed=n)):
        rho = build_explicit_state(model)
        assert dqc1_quantum_mi(model) == pytest.approx(quantum_mutual_info(rho), abs=1e-10)


def test_record_mi_matches_measured_explicit_state():
    model = Dqc1Model.haar(2, 0.8, seed=6)
    rho = build_explicit_state(model)
    for phi in (0.0, 0.3, 1.7):
        u = np.array([[1, 1], [np.exp(1j * phi), -np.exp(1j * phi)]], dtype=complex) / np.sqrt(2)
        jd = joint_distribution(rho, ProjectiveBasis(u), ProjectiveBasis.computational(4))
        assert dqc1_record_mi(model, phi) == pytest.approx(classical_mutual_info(jd), abs=1e-10)


@pytest.mark.parametrize(
    "n, phase_model, alpha",
    [
        (2, "haar", 0.9),
        (3, "uniform", 0.6),
        (3, "uniform", 1.0),
        (3, "haar", 0.6),
        pytest.param(
            3, "haar", 1.0,
            marks=pytest.mark.xfail(
                strict=True,
                reason="every start of the numeric search ends 1.43e-8 bits short; "
                "more restarts, a tighter gradient tolerance or more iterations "
                "do not close the gap",
            ),
        ),
        (4, "haar", 0.9),
    ],
)
def test_max_record_mi_dominates_samples_and_numeric_search(n, phase_model, alpha):
    if phase_model == "uniform":
        model = Dqc1Model.uniform(n, alpha)
    else:
        model = Dqc1Model.haar(n, alpha, seed=2)
    best = dqc1_max_record_mi(model)
    for phi in np.linspace(0, 2 * np.pi, 50):
        assert best >= dqc1_record_mi(model, phi) - 1e-12
    cfg = OptimizerConfig(restarts=8, max_iters=400, seed=0)
    numeric = dqc1_max_record_mi_numeric(model, cfg)
    assert numeric.value <= best + 1e-12
    assert abs(numeric.value - best) <= 1e-9


def test_record_mi_has_period_pi():
    for model in (Dqc1Model.uniform(3, 0.8), Dqc1Model.haar(4, 0.5, seed=3)):
        for phi in (0.0, 0.4, 1.3, 2.9, 5.0):
            shifted = dqc1_record_mi(model, phi + np.pi)
            assert shifted == pytest.approx(dqc1_record_mi(model, phi), abs=1e-14)


@pytest.mark.parametrize("grid", [8, 9, 720, 721])
def test_max_record_mi_never_below_full_grid(grid):
    phis = 2 * np.pi * np.arange(grid) / grid
    for n in range(1, 7):
        for alpha in (0.0, 0.37, 1.0):
            for model in (Dqc1Model.uniform(n, alpha), Dqc1Model.haar(n, alpha, seed=n)):
                best = dqc1_max_record_mi(model, grid)
                assert all(best >= dqc1_record_mi(model, phi) - 1e-12 for phi in phis)


def test_nonclassicality_zero_without_polarization():
    assert dqc1_nonclassicality(Dqc1Model.uniform(5, 0.0)) == 0.0
    assert dqc1_nonclassicality(Dqc1Model.haar(3, 0.0, seed=9)) == 0.0


def test_scan_rows_and_determinism():
    pts = dqc1_scan(4, 11, "uniform", seed=0)
    assert len(pts) == 11
    assert pts[0].alpha == 0.0 and pts[-1].alpha == 1.0
    assert pts[0].nonclassicality == 0.0
    qs = [p.nonclassicality for p in pts]
    assert all(b > a for a, b in zip(qs, qs[1:]))
    h1 = dqc1_scan(3, 5, "haar", seed=7)
    h2 = dqc1_scan(3, 5, "haar", seed=7)
    assert h1 == h2
    h3 = dqc1_scan(3, 5, "haar", seed=8)
    assert h1 != h3
    with pytest.raises(ValueError):
        dqc1_scan(3, 5, "bogus")
    with pytest.raises(ValueError):
        dqc1_scan(3, 0)


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("phase_model", ["uniform", "haar"])
def test_scan_rows_equal_single_polarization_search(n, phase_model):
    for p in dqc1_scan(n, 9, phase_model, seed=3):
        if phase_model == "uniform":
            model = Dqc1Model.uniform(n, p.alpha)
        else:
            model = Dqc1Model.haar(n, p.alpha, seed=3)
        assert p.max_record_mi == dqc1_max_record_mi(model)


@pytest.mark.parametrize("budget", [1, 2 * 2**4])
@pytest.mark.parametrize("phase_model", ["uniform", "haar"])
def test_scan_rows_do_not_depend_on_the_polish_block(monkeypatch, phase_model, budget):
    whole = dqc1_scan(4, 9, phase_model, seed=3)
    # budget 1 polishes one polarization at a time, 2 * 2**4 two at a time
    monkeypatch.setattr(dqc1, "_POLISH_BLOCK_FLOATS", budget)
    assert dqc1_scan(4, 9, phase_model, seed=3) == whole


def test_trace_estimate_statistics():
    model = Dqc1Model.haar(4, 0.8, seed=3)
    truth = exact_normalized_trace(model)
    est = trace_estimate(model, shots=200_000, seed=0)
    assert est.shots == 200_000
    assert est.standard_error > 0
    assert abs(est.estimate - truth) < 5 * est.standard_error
    again = trace_estimate(model, shots=200_000, seed=0)
    assert est.estimate == again.estimate
    with pytest.raises(ValueError):
        trace_estimate(Dqc1Model.uniform(2, 0.0), 100)
    with pytest.raises(ValueError):
        trace_estimate(model, 0)

import numpy as np
import pytest

from qcorr.linalg import (
    DensityMatrix,
    DimensionMismatchError,
    InvalidStateError,
    fourier_matrix,
    partial_trace,
    random_density_matrix,
    random_unitary,
    von_neumann_entropy,
)
from qcorr.measures import (
    ProjectiveBasis,
    joint_distribution,
    maximize_mi_projective,
    quantum_mutual_info,
)
from qcorr.optimize import OptimizerConfig
from qcorr.states import (
    bell_diagonal_analytics,
    bell_diagonal_probs,
    bell_diagonal_state,
    biorthogonal_state,
    classical_quantum_state,
    correlation_tensor_state,
    locking_demo,
    locking_state,
    sigma_locking_state,
    trine_bloch_vectors,
    trine_projective_grid,
    trine_state,
    werner_analytics,
    werner_state,
)

LIGHT = OptimizerConfig(restarts=4, max_iters=250, seed=0)


def _column_projectors(u):
    return [np.outer(u[:, i], u[:, i].conj()) for i in range(u.shape[1])]


def test_bell_diagonal_probs_and_state_spectrum():
    probs = bell_diagonal_probs([0.3, 0.2, 0.1])
    np.testing.assert_allclose(probs, [0.1, 0.25, 0.3, 0.35], atol=1e-12)
    rho = bell_diagonal_state([0.3, 0.2, 0.1])
    np.testing.assert_allclose(np.linalg.eigvalsh(rho.mat), np.sort(probs), atol=1e-12)
    with pytest.raises(InvalidStateError):
        bell_diagonal_probs([1.0, 1.0, 1.0])


def test_bell_diagonal_analytics_match_direct_computation():
    fam = bell_diagonal_analytics([0.3, 0.2, 0.1])
    rho = bell_diagonal_state([0.3, 0.2, 0.1])
    assert fam.quantum_mi == pytest.approx(quantum_mutual_info(rho), abs=1e-12)
    assert fam.quantum_mi == pytest.approx(0.1166169017709866, abs=1e-12)
    assert fam.mi_projective == pytest.approx(0.06593194462450902, abs=1e-12)
    assert fam.nonclassicality == pytest.approx(fam.quantum_mi - fam.mi_projective, abs=1e-14)
    res = maximize_mi_projective(rho, LIGHT)
    assert res.value == pytest.approx(fam.mi_projective, abs=1e-6)


def test_correlation_tensor_state_diagonal_matches_bell_family():
    w = np.diag([0.3, 0.2, 0.1])
    rho = correlation_tensor_state(w)
    np.testing.assert_allclose(rho.mat, bell_diagonal_state([0.3, 0.2, 0.1]).mat, atol=1e-12)


def test_werner_state_edges_and_validation():
    singlet_like = werner_state(2, 1.0)
    assert quantum_mutual_info(singlet_like) == pytest.approx(2.0, abs=1e-12)
    werner_state(3, -1.0)  # symmetric edge is admissible
    with pytest.raises(InvalidStateError):
        werner_state(3, 1.2)


def test_werner_analytics_match_numeric_mutual_info():
    for d, alpha in [(2, 0.5), (3, 0.7), (10, 0.3)]:
        fam = werner_analytics(d, alpha)
        rho = werner_state(d, alpha)
        assert fam.quantum_mi == pytest.approx(quantum_mutual_info(rho), abs=1e-12)
    assert werner_analytics(2, 0.5).nonclassicality == pytest.approx(0.12581458369391152, abs=1e-12)
    assert werner_analytics(3, 0.7).mi_projective == pytest.approx(0.1567679098776527, abs=1e-12)


def test_werner_analytics_exact_zero_at_alpha_zero_and_one_at_one():
    for d in (2, 3, 10):
        fam = werner_analytics(d, 0.0)
        assert fam.quantum_mi == 0.0 and fam.mi_projective == 0.0 and fam.nonclassicality == 0.0
        assert werner_analytics(d, 1.0).nonclassicality == pytest.approx(1.0, abs=1e-9)


def test_werner_standard_basis_table_has_two_value_structure():
    d, alpha = 3, 0.6
    rho = werner_state(d, alpha)
    basis = ProjectiveBasis.computational(d)
    table = joint_distribution(rho, basis, basis).table
    diag = np.diag(table)
    off = table[~np.eye(d, dtype=bool)]
    np.testing.assert_allclose(diag, (1 - alpha) / (d * d - d * alpha), atol=1e-12)
    np.testing.assert_allclose(off, 1 / (d * d - d * alpha), atol=1e-12)


def test_werner_two_level_case_is_bell_diagonal():
    alpha = 0.6
    ap = alpha / (2 - alpha)
    np.testing.assert_allclose(
        werner_state(2, alpha).mat, bell_diagonal_state([-ap, -ap, -ap]).mat, atol=1e-12
    )


def test_locking_state_marginals_and_mutual_info():
    for d in (2, 3):
        rho = locking_state(d)
        assert (rho.dim_a, rho.dim_b) == (2 * d, d)
        assert von_neumann_entropy(partial_trace(rho, "A")) == pytest.approx(
            1 + np.log2(d), abs=1e-9
        )
        assert von_neumann_entropy(partial_trace(rho, "B")) == pytest.approx(
            np.log2(d), abs=1e-9
        )
        assert quantum_mutual_info(rho) == pytest.approx(np.log2(d), abs=1e-9)


def test_locking_state_rejects_biased_second_basis():
    with pytest.raises(InvalidStateError):
        locking_state(2, u1=np.eye(2, dtype=complex))


def test_locking_demo_fourier_variant_unlocks_half_the_bits():
    report = locking_demo(2, LIGHT)
    assert report.quantum_mi == pytest.approx(1.0, abs=1e-9)
    assert report.mi_no_comm == pytest.approx(0.5, abs=5e-3)
    assert report.mi_after_one_bit == pytest.approx(1.0, abs=1e-9)
    assert report.comm_cost == 1.0
    assert report.unlock_gain == pytest.approx(0.5, abs=5e-3)
    as_dict = report.to_dict()
    assert as_dict["variant"] == "locking" and as_dict["dim"] == 2


def test_locking_demo_sigma_variant_has_nothing_locked():
    report = locking_demo(2, LIGHT, variant="sigma")
    assert report.mi_no_comm == pytest.approx(1.0, abs=1e-9)
    assert report.mi_after_one_bit == pytest.approx(1.0, abs=1e-9)
    assert report.unlock_gain == pytest.approx(0.0, abs=1e-9)


def test_sigma_locking_state_shape():
    rho = sigma_locking_state(3)
    assert (rho.dim_a, rho.dim_b) == (6, 3)
    assert quantum_mutual_info(rho) == pytest.approx(np.log2(3), abs=1e-9)


def test_classical_quantum_state_construction():
    sigma0 = np.diag([1.0, 0.0]).astype(complex)
    sigma1 = np.eye(2, dtype=complex) / 2
    rho = classical_quantum_state([0.25, 0.75], [sigma0, sigma1])
    assert isinstance(rho, DensityMatrix)
    np.testing.assert_allclose(
        np.diag(partial_trace(rho, "A").mat).real, [0.25, 0.75], atol=1e-12
    )
    with pytest.raises(InvalidStateError):
        classical_quantum_state([0.5, 0.6], [sigma0, sigma1])


def test_classical_quantum_state_rejects_skew_basis_and_mixed_shapes():
    halves = [np.eye(2) / 2, np.diag([1.0, 0.0])]
    with pytest.raises(InvalidStateError):
        classical_quantum_state([0.5, 0.5], halves, basis=[[1, np.sqrt(0.5)], [0, np.sqrt(0.5)]])
    with pytest.raises(DimensionMismatchError):
        classical_quantum_state([0.5, 0.5], [np.eye(2) / 2, np.eye(3) / 3])
    with pytest.raises(DimensionMismatchError):
        classical_quantum_state([0.5, 0.5], [np.eye(2) / 2] * 2, basis=np.ones((2, 3)))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_block_state_builders_match_explicit_kron_sums(d):
    rng = np.random.default_rng(d)
    label = _column_projectors(np.eye(2 * d))
    phases = [np.diag(np.exp(2j * np.pi * rng.random(d))) for _ in range(2)]
    u1 = phases[0] @ fourier_matrix(d) @ phases[1]  # unbiased, not the Fourier basis
    for u, rho in [
        (fourier_matrix(d), locking_state(d)),
        (u1, locking_state(d, u1)),
        (np.roll(np.eye(d), 1, axis=0), sigma_locking_state(d)),
    ]:
        bob = _column_projectors(np.eye(d)) + _column_projectors(u)
        want = sum(np.kron(pa, pb) / (2 * d) for pa, pb in zip(label, bob))
        np.testing.assert_allclose(rho.mat, want, rtol=0, atol=1e-15)

    ua, ub = random_unitary(d, rng), random_unitary(d + 1, rng)
    table = rng.random((d, d + 1))
    table /= table.sum()
    want = sum(
        table[i, j] * np.kron(pa, pb)
        for i, pa in enumerate(_column_projectors(ua))
        for j, pb in enumerate(_column_projectors(ub))
    )
    np.testing.assert_allclose(biorthogonal_state(table, ua, ub).mat, want, rtol=0, atol=1e-15)

    probs = rng.random(d)
    probs /= probs.sum()
    conds = [random_density_matrix(d + 1, 1, rng=rng).mat for _ in range(d)]
    basis = random_unitary(d, rng)
    want = sum(q * np.kron(pa, c) for q, pa, c in zip(probs, _column_projectors(basis), conds))
    rho = classical_quantum_state(probs, conds, basis)
    np.testing.assert_allclose(rho.mat, want, rtol=0, atol=1e-15)


def test_trine_bloch_vectors_are_coplanar_at_120_degrees():
    vecs = trine_bloch_vectors()
    assert vecs.shape == (3, 3)
    np.testing.assert_allclose(np.linalg.norm(vecs, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(vecs[:, 1], 0.0, atol=1e-12)  # x-z plane
    for i in range(3):
        assert vecs[i] @ vecs[(i + 1) % 3] == pytest.approx(-0.5, abs=1e-12)


def test_trine_state_marginal_is_maximally_mixed_on_the_label():
    rho = trine_state()
    assert (rho.dim_a, rho.dim_b) == (3, 2)
    beta = 2 * np.pi * np.arange(3) / 3
    kets = [np.array([np.cos(b / 2), np.sin(b / 2)]) for b in beta]
    want = sum(np.kron(pa, np.outer(k, k)) / 3 for pa, k in zip(_column_projectors(np.eye(3)), kets))
    np.testing.assert_allclose(rho.mat, want, rtol=0, atol=1e-15)
    np.testing.assert_allclose(partial_trace(rho, "A").mat, np.eye(3) / 3, atol=1e-12)
    np.testing.assert_allclose(partial_trace(rho, "B").mat, np.eye(2) / 2, atol=1e-12)


def test_trine_projective_grid_hits_frozen_optimum():
    value, theta, phi = trine_projective_grid(10_000)
    assert value == pytest.approx(0.4591479170272448, abs=1e-9)
    coarse, _, _ = trine_projective_grid(400)
    assert coarse <= value + 1e-12


def test_biorthogonal_state_is_purely_classical():
    table = np.array([[0.5, 0.0], [0.25, 0.25]])
    rho = biorthogonal_state(table)
    assert quantum_mutual_info(rho) == pytest.approx(0.31127812445913294, abs=1e-12)
    res = maximize_mi_projective(rho, LIGHT)
    assert res.value == pytest.approx(0.31127812445913294, abs=1e-9)
    measured = joint_distribution(rho, ProjectiveBasis.computational(2), ProjectiveBasis.computational(2))
    np.testing.assert_allclose(measured.table, table, atol=1e-12)
    with pytest.raises(InvalidStateError):
        biorthogonal_state(np.array([[0.9, 0.2], [0.0, 0.0]]))


@pytest.mark.parametrize("call,error", [
    (lambda: correlation_tensor_state(np.eye(2)), DimensionMismatchError),
    (lambda: werner_state(1, 0.5), DimensionMismatchError),
    (lambda: werner_analytics(3, 1.5), InvalidStateError),
    (lambda: locking_state(1), DimensionMismatchError),
    (lambda: sigma_locking_state(1), DimensionMismatchError),
    (lambda: locking_state(3, u1=2 * np.eye(3)), InvalidStateError),
    (lambda: locking_demo(2, variant="x"), ValueError),
    (lambda: classical_quantum_state([0.5, 0.5], [np.eye(2) / 2]), DimensionMismatchError),
    (lambda: biorthogonal_state(np.ones(4) / 4), DimensionMismatchError),
    (lambda: classical_quantum_state([0.5, 0.5], [np.eye(2) / 2] * 2, basis=np.eye(3)),
     DimensionMismatchError),
    (lambda: werner_analytics(1, 0.5), DimensionMismatchError),
    (lambda: locking_state(2, u1=np.eye(3)), DimensionMismatchError),
], ids=["tensor-2x2", "werner-d1", "werner-alpha", "locking-d1", "sigma-d1", "locking-u1",
        "demo-variant", "cq-count", "biorthogonal-1d", "cq-basis-shape", "werner-analytics-d1",
        "locking-u1-shape"])
def test_input_checks_raise_their_documented_errors(call, error):
    with pytest.raises(error):
        call()

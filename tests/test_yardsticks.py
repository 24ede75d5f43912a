"""Exact yardsticks for the measurement search: families with known optima,
rotated by local unitaries.

Record mutual information and the Holevo-type classical correlation are
invariant under U_A (x) U_B, so the closed forms stay exact, while the
rotation takes the structured seeds (identity, Fourier, marginal
eigenbases) off the optimum: the search itself has to find it.  The state
with dimension index d and case k is rotated by random_unitary(d_A, s) (x)
random_unitary(d_B, s + 1000) with s = 10 d + k.

DQC1 states on a control qubit and an n-qubit register are rotated by
random_unitary(2, s) (x) random_unitary(2^n, s + 1000) with s = 7, 8 and 9;
their record MI has the closed form dqc1_max_record_mi.

Rank-2 states on a qubit and d_B levels need no rotation: their Holevo-type
classical correlation with the measurement on B has a closed form for every
d_B (Koashi & Winter), which no structured seed reaches by itself.
"""
import numpy as np
import pytest

from qcorr.dqc1 import Dqc1Model, build_explicit_state, dqc1_max_record_mi
from qcorr.linalg import (
    DensityMatrix,
    as_rng,
    marginal_mats,
    random_density_matrix,
    random_unitary,
    swap_sides,
    von_neumann_entropy,
)
from qcorr.measures import classical_correlation_a, maximize_mi_projective
from qcorr.optimize import OptimizerConfig
from qcorr.states import bell_diagonal_state, locking_state, werner_analytics, werner_state

CFG = OptimizerConfig(restarts=8, seed=0)


def rotated(rho, d, k):
    s = 10 * d + k
    u = np.kron(random_unitary(rho.dim_a, s), random_unitary(rho.dim_b, s + 1000))
    return DensityMatrix(u @ rho.mat @ u.conj().T, rho.dim_a, rho.dim_b)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_rotated_locking_state_reaches_half_log_d(d, k):
    # Alice's register is classical, so the optimum is Bob's accessible
    # information about a value sent in the computational or the Fourier
    # basis: (1/2) log2 d (DiVincenzo et al., PRL 92, 067902, 2004)
    value = maximize_mi_projective(rotated(locking_state(d), d, k), CFG).value
    assert value <= 0.5 * np.log2(d) + 1e-12
    assert 0.5 * np.log2(d) - value <= 2e-10


@pytest.mark.parametrize("k,alpha", [(0, 0.7), (1, -0.6)])
@pytest.mark.parametrize("d", [3, 4, 6])
def test_rotated_werner_state_reaches_matched_basis_value(d, k, alpha):
    value = maximize_mi_projective(rotated(werner_state(d, alpha), d, k), CFG).value
    assert abs(value - werner_analytics(d, alpha).mi_projective) <= 1e-10


DQC1_MODELS = {
    "haar-0.6": lambda n: Dqc1Model.haar(n, 0.6, seed=2),
    "haar-0.9": lambda n: Dqc1Model.haar(n, 0.9, seed=2),
    "uniform-1.0": lambda n: Dqc1Model.uniform(n, 1.0),
}


# the largest shortfall over the nine states of a size is 2.1e-9 at 2x4 and
# 3.8e-9 at 2x8, where the search stops on its relative-decrease test; the
# tolerance leaves room for round-off in that stop, not for a worse search
@pytest.mark.parametrize("s", [7, 8, 9])
@pytest.mark.parametrize("model", DQC1_MODELS)
@pytest.mark.parametrize("n,tol", [(2, 3e-9), (3, 5e-9)], ids=["2x4", "2x8"])
def test_rotated_dqc1_state_reaches_the_closed_form(n, tol, model, s):
    dqc1_model = DQC1_MODELS[model](n)
    rho = build_explicit_state(dqc1_model)
    u = np.kron(random_unitary(2, s), random_unitary(2**n, s + 1000))
    rotated_rho = DensityMatrix(u @ rho.mat @ u.conj().T, 2, 2**n)
    exact = dqc1_max_record_mi(dqc1_model)
    value = maximize_mi_projective(rotated_rho, CFG).value
    assert value <= exact + 1e-12
    assert exact - value <= tol


def sample_correlation_vector(rng):
    # rejection sample r vectors whose Bell-basis weights stay nonnegative
    while True:
        r = rng.uniform(-1, 1, 3)
        lam = np.array([1 - r[0] - r[1] - r[2], 1 - r[0] + r[1] + r[2],
                        1 + r[0] - r[1] + r[2], 1 + r[0] + r[1] - r[2]])
        if lam.min() >= 0:
            return r


@pytest.mark.parametrize("k", range(6))
def test_rotated_bell_diagonal_classical_correlation_matches_luo(k):
    r = sample_correlation_vector(as_rng(k))
    # Luo, PRA 77, 042303 (2008): the best measurement is along the axis of
    # the largest |r_j|
    c = np.abs(r).max()
    exact = 0.5 * ((1 - c) * np.log2(1 - c) + (1 + c) * np.log2(1 + c))
    value = classical_correlation_a(rotated(bell_diagonal_state(r), 2, k), CFG).value
    assert abs(value - exact) <= 1e-10


SIGMA_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def binary_entropy(p):
    return -sum(x * np.log2(x) for x in (p, 1 - p) if x > 0)


def formation_entropy(concurrence):
    # Wootters, PRL 80, 2245 (1998): E = h((1 + sqrt(1 - C^2)) / 2)
    return binary_entropy((1 + np.sqrt(max(1 - concurrence ** 2, 0.0))) / 2)


def purification_columns(rho):
    """V[(a, c), b] = <a b c|Psi> for a purification |Psi> of a rank-2 state
    on a qubit A and d_B levels, with C a qubit: V V^H = rho_AC."""
    vals, vecs = np.linalg.eigh(rho.mat)
    psi = vecs[:, -2:] * np.sqrt(np.clip(vals[-2:], 0, None))  # psi[(a, b), c]
    return psi.reshape(2, rho.dim_b, 2).transpose(0, 2, 1).reshape(4, rho.dim_b)


def koashi_winter_classical_correlation(rho):
    """J(A|B) with any measurement on B, from Koashi & Winter (PRA 69,
    022309, 2004): S(A) - E_f(rho_AC) for a purification on ABC.  Wootters'
    lambda_i are the singular values of tau = V^H (sigma_y (x) sigma_y) V^*
    for any V with V V^H = rho_AC, here the purification's own columns:
    square roots of the eigenvalues of rho_AC rho~_AC would turn rho_AC's
    round-off null eigenvalues (1e-17) into 3e-9 in the concurrence."""
    v = purification_columns(rho)
    lam = np.linalg.svd(v.conj().T @ SIGMA_YY @ v.conj(), compute_uv=False)
    lam = np.pad(lam, (0, 4))[:4]
    concurrence = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
    return von_neumann_entropy(marginal_mats(rho)[0]) - formation_entropy(concurrence), concurrence


KW_STATES = [(d_b, r) for d_b in (2, 3, 4) for r in range(3)]


@pytest.mark.parametrize("d_b,r", KW_STATES)
def test_holevo_searches_reach_the_koashi_winter_value(d_b, r):
    rho = random_density_matrix(2, d_b, rank=2, rng=200 + 10 * d_b + r)
    exact, _ = koashi_winter_classical_correlation(rho)
    swapped = swap_sides(rho)  # the searches measure the first party, here B
    for projective_only in (True, False):
        value = classical_correlation_a(swapped, CFG, projective_only=projective_only).value
        assert abs(value - exact) <= 2e-10, (projective_only, value - exact)


@pytest.mark.parametrize("r", range(3))
def test_koashi_winter_concurrence_matches_the_winners_decomposition(r):
    # B's outcome s steers AC into chi_s = <k_s|_B |Psi>, a decomposition of
    # rho_AC whose concurrences sum to sum_s |chi_s^T (sigma_y (x)
    # sigma_y) chi_s|; at the optimum that sum is Wootters' C, and the
    # branch entropies E(C_s) give back the search value
    rho = random_density_matrix(2, 2, rank=2, rng=220 + r)
    exact, concurrence = koashi_winter_classical_correlation(rho)
    res = classical_correlation_a(swap_sides(rho), CFG)
    chi = res.meas_a.rows @ purification_columns(rho).T  # chi[s, (a, c)]
    probs = np.einsum("sk,sk->s", chi.conj(), chi).real
    branch = np.abs(np.einsum("sk,kl,sl->s", chi, SIGMA_YY, chi))
    assert abs(branch.sum() - concurrence) <= 1e-12
    entropy_a = von_neumann_entropy(marginal_mats(rho)[0])
    induced = entropy_a - sum(p * formation_entropy(c / p) for p, c in zip(probs, branch))
    assert abs(induced - res.value) <= 1e-12
    assert abs(res.value - exact) <= 2e-10

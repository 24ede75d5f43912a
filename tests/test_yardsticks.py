"""Exact yardsticks for the measurement search: families with known optima,
rotated by local unitaries.

Record mutual information and the Holevo-type classical correlation are
invariant under U_A (x) U_B, so the closed forms stay exact, while the
rotation takes the structured seeds (identity, Fourier, marginal
eigenbases) off the optimum: the search itself has to find it.  The state
with dimension index d and case k is rotated by random_unitary(d_A, s) (x)
random_unitary(d_B, s + 1000) with s = 10 d + k.
"""
import numpy as np
import pytest

from qcorr.linalg import DensityMatrix, as_rng, random_unitary
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

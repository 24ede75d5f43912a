import json

import numpy as np
import pytest

from qcorr.linalg import (
    DensityMatrix,
    DimensionMismatchError,
    InvalidStateError,
    as_rng,
    binary_entropy,
    fourier_matrix,
    hermitian_eigen,
    load_state,
    marginal_mats,
    partial_trace,
    purity,
    random_density_matrix,
    random_unitary,
    save_state,
    shannon_entropy,
    swap_sides,
    tensor_product,
    von_neumann_entropy,
    xlog2x,
)
from qcorr.measures import quantum_mutual_info

SINGLET = np.array(
    [[0, 0, 0, 0], [0, 0.5, -0.5, 0], [0, -0.5, 0.5, 0], [0, 0, 0, 0]],
    dtype=complex,
)


def test_density_matrix_accepts_valid_state():
    rho = DensityMatrix(SINGLET, 2, 2)
    assert rho.dim == 4
    assert not rho.mat.flags.writeable


def test_density_matrix_rejects_non_hermitian():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 0.3
    with pytest.raises(InvalidStateError):
        DensityMatrix(m, 2, 2)


def test_density_matrix_rejects_wrong_trace():
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.eye(4, dtype=complex), 2, 2)


def test_density_matrix_rejects_negative_eigenvalue():
    m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(InvalidStateError):
        DensityMatrix(m, 2, 2)


def test_density_matrix_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        DensityMatrix(np.eye(4, dtype=complex) / 4, 2, 3)


def test_partial_trace_of_product_state_recovers_factors():
    rng = as_rng(11)
    a = random_density_matrix(2, 1, rng=rng)
    b = random_density_matrix(3, 1, rng=rng)
    joint = DensityMatrix(tensor_product(a.mat, b.mat), 2, 3)
    np.testing.assert_allclose(partial_trace(joint, "A").mat, a.mat, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, "B").mat, b.mat, atol=1e-12)


def test_partial_trace_of_singlet_is_maximally_mixed():
    rho = DensityMatrix(SINGLET, 2, 2)
    for side in ("A", "B"):
        np.testing.assert_allclose(partial_trace(rho, side).mat, np.eye(2) / 2, atol=1e-12)


def test_swap_sides_exchanges_marginals():
    rho = random_density_matrix(2, 3, rng=as_rng(5))
    swapped = swap_sides(rho)
    assert (swapped.dim_a, swapped.dim_b) == (3, 2)
    np.testing.assert_allclose(
        partial_trace(swapped, "A").mat, partial_trace(rho, "B").mat, atol=1e-12
    )
    np.testing.assert_allclose(swap_sides(swapped).mat, rho.mat, atol=1e-12)


def test_hermitian_eigen_reconstructs_and_orders():
    rng = as_rng(3)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    m = (g + g.conj().T) / 2
    vals, vecs = hermitian_eigen(m)
    assert np.all(np.diff(vals) >= 0)
    np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.conj().T, m, atol=1e-10)


def test_hermitian_eigen_phase_convention_is_deterministic():
    m = np.array([[1.0, 1j], [-1j, 1.0]])
    _, vecs = hermitian_eigen(m)
    pivots = np.abs(vecs).argmax(axis=0)
    for k, row in enumerate(pivots):
        entry = vecs[row, k]
        assert entry.real > 0 and abs(entry.imag) < 1e-12


def test_shannon_entropy_known_values():
    assert shannon_entropy(np.ones(8) / 8) == pytest.approx(3.0, abs=1e-12)
    assert shannon_entropy([0.25, 0.75]) == pytest.approx(0.8112781244591328, abs=1e-12)
    assert shannon_entropy([1.0, 0.0]) == 0.0


def test_shannon_entropy_rejects_clearly_negative_input():
    with pytest.raises(InvalidStateError):
        shannon_entropy([1.1, -0.1])
    with pytest.raises(InvalidStateError):
        shannon_entropy([np.nan, 0.5, 0.5])


def test_shannon_entropy_rejects_entries_above_one():
    with pytest.raises(InvalidStateError):
        shannon_entropy([np.inf, 0.5])
    with pytest.raises(InvalidStateError):
        shannon_entropy([2.0])
    # round-off above one is clipped, as below zero
    assert shannon_entropy([1.0 + 1e-13, -1e-13]) == 0.0


def test_binary_entropy_endpoints():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_binary_entropy_takes_arrays_and_rejects_non_probabilities():
    p = np.array([[0.0, 0.25], [0.5, 1.0]])
    h = binary_entropy(p)
    assert h.shape == (2, 2)
    assert h.tolist() == [[binary_entropy(float(x)) for x in row] for row in p]
    with pytest.raises(InvalidStateError):
        binary_entropy(np.array([0.5, 1.1]))
    with pytest.raises(InvalidStateError):
        binary_entropy(np.array([0.5, np.nan]))


def _masked_xlog2x(x):
    """The masked x log2 x formula, as a reference for the kernel."""
    x = np.asarray(x, dtype=float)
    pos = x > 0.0
    with np.errstate(invalid="ignore"):  # -inf * log2(1.0)
        return np.where(pos, x * np.log2(np.where(pos, x, 1.0)), 0.0)


def test_xlog2x_equals_the_masked_formula_bitwise():
    special = np.array([0.0, -0.0, 1.0, 0.5, 2.0, -0.25, -3.0, np.nan, np.inf, -np.inf])
    wide = np.random.default_rng(0).uniform(-0.5, 1.5, (360, 256))
    for x in (special, np.float64(0.3), np.array(0.0), np.array(-2.0), wide):
        got, want = xlog2x(x), _masked_xlog2x(x)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_von_neumann_entropy_pure_and_mixed():
    pure = DensityMatrix(np.diag([1.0, 0, 0, 0]).astype(complex), 2, 2)
    assert von_neumann_entropy(pure) == 0.0
    mixed = DensityMatrix(np.eye(4, dtype=complex) / 4, 2, 2)
    assert von_neumann_entropy(mixed) == pytest.approx(2.0, abs=1e-12)
    assert von_neumann_entropy(np.diag([0.25, 0.75])) == pytest.approx(
        0.8112781244591328, abs=1e-12
    )


@pytest.mark.parametrize("rank", [None, 1])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 5)])
def test_kept_spectrum_gives_the_raw_matrix_entropies_bitwise(dims, rank):
    # a state's entropy reads the spectrum its validation took, a raw matrix's
    # takes eigvalsh again: both must give the same floats
    rho = random_density_matrix(*dims, rank=rank, rng=as_rng(list(dims)))
    assert rho.spectrum.tobytes() == np.linalg.eigvalsh(rho.mat).tobytes()
    assert not rho.spectrum.flags.writeable
    assert von_neumann_entropy(rho) == von_neumann_entropy(rho.mat)
    marginals = marginal_mats(rho)
    for side, raw in zip("AB", marginals):
        reduced = partial_trace(rho, side)
        assert reduced.mat.tobytes() == raw.tobytes()
        assert von_neumann_entropy(reduced) == von_neumann_entropy(raw)
    s_a, s_b = (von_neumann_entropy(m) for m in marginals)
    assert quantum_mutual_info(rho) == s_a + s_b - von_neumann_entropy(rho.mat)
    # an entropy that clamps a round-off negative eigenvalue clamps a copy
    assert rho.spectrum.tobytes() == np.linalg.eigvalsh(rho.mat).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (1, 1), (1, 0)])
def test_entropy_of_a_raw_matrix_with_a_non_finite_entry_raises(entry, bad):
    # eigvalsh reads the lower triangle, where such an entry gives a NaN
    # spectrum (or, for a NaN on the diagonal, one that sums to zero); no
    # DensityMatrix is built to catch it first
    m = np.eye(2, dtype=complex) / 2
    m[entry] = bad
    with pytest.raises(InvalidStateError):
        von_neumann_entropy(m)


def test_purity_values():
    assert purity(np.diag([1.0, 0.0])) == pytest.approx(1.0, abs=1e-14)
    assert purity(np.eye(3) / 3) == pytest.approx(1 / 3, abs=1e-14)


def test_fourier_matrix_is_unitary_with_expected_entries():
    for d in (2, 3, 5):
        f = fourier_matrix(d)
        np.testing.assert_allclose(f @ f.conj().T, np.eye(d), atol=1e-12)
        np.testing.assert_allclose(f[1, 1], np.exp(2j * np.pi / d) / np.sqrt(d), atol=1e-12)
    np.testing.assert_allclose(fourier_matrix(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-12)


def test_random_unitary_is_unitary_and_seeded():
    u = random_unitary(6, as_rng(9))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(6), atol=1e-11)
    again = random_unitary(6, as_rng(9))
    np.testing.assert_allclose(u, again, atol=0)
    other = random_unitary(6, as_rng(10))
    assert np.abs(u - other).max() > 1e-3


def test_random_density_matrix_rank_control():
    rho = random_density_matrix(3, 2, rng=as_rng(1))
    assert (rho.dim_a, rho.dim_b) == (3, 2)
    pure = random_density_matrix(2, 2, rank=1, rng=as_rng(2))
    assert purity(pure) == pytest.approx(1.0, abs=1e-10)
    low = random_density_matrix(2, 2, rank=2, rng=as_rng(3))
    vals = np.linalg.eigvalsh(low.mat)
    assert np.sum(vals > 1e-10) == 2


def test_save_load_roundtrip_is_exact(tmp_path):
    rho = random_density_matrix(2, 3, rng=as_rng(4))
    path = tmp_path / "state.json"
    save_state(rho, path)
    back = load_state(path)
    assert (back.dim_a, back.dim_b) == (2, 3)
    np.testing.assert_allclose(back.mat, rho.mat, atol=0)


def test_load_state_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all {")
    with pytest.raises(ValueError):
        load_state(bad)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"dimA": 2, "matrix": []}))
    with pytest.raises(ValueError):
        load_state(missing)
    # a dimension that is not a JSON integer is malformed, not truncated or cast
    mat = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    for dims in [(2.7, 2), (2, 2.5), (True, 4), ("2", 2), (2, None)]:
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps({"dimA": dims[0], "dimB": dims[1], "matrix": mat}))
        with pytest.raises(ValueError, match="malformed state file"):
            load_state(odd)


def test_load_state_revalidates_invariants(tmp_path):
    path = tmp_path / "nonpsd.json"
    mat = [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]
    path.write_text(json.dumps({"dimA": 2, "dimB": 1, "matrix": mat}))
    with pytest.raises(InvalidStateError):
        load_state(path)


def test_as_rng_accepts_ints_lists_and_generators():
    a = as_rng(7).random(3)
    b = as_rng(7).random(3)
    np.testing.assert_allclose(a, b, atol=0)
    c = as_rng([7, 1]).random(3)
    assert np.abs(a - c).max() > 1e-6
    gen = as_rng(0)
    assert as_rng(gen) is gen


SINGLET_STATE = DensityMatrix(SINGLET, 2, 2)


@pytest.mark.parametrize("call,error", [
    (lambda: DensityMatrix(np.full((4, 4), np.nan), 2, 2), InvalidStateError),
    (lambda: DensityMatrix(np.eye(1), 0, 1), DimensionMismatchError),
    (lambda: partial_trace(SINGLET_STATE, "C"), ValueError),
    (lambda: hermitian_eigen(np.array([[1.0, 1.0], [0.0, 1.0]])), InvalidStateError),
    (lambda: random_density_matrix(2, 2, rank=0), DimensionMismatchError),
    (lambda: von_neumann_entropy(np.diag([1.2, -0.2])), InvalidStateError),
    (lambda: von_neumann_entropy(np.diag([0.5, 0.2])), InvalidStateError),
], ids=["non-finite", "zero-dimension", "keep-C", "non-hermitian", "rank-0", "negative-eigenvalue",
        "trace"])
def test_input_checks_raise_their_documented_errors(call, error):
    with pytest.raises(error):
        call()

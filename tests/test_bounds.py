import numpy as np
import pytest

from qcorr.bounds import (
    entropic_sum,
    entropic_sum_bound,
    mub_family,
    mub_information_report,
    mub_total_bound,
    purity_total_bound,
    state_independent_bound,
    two_mub_bound,
)
from qcorr.linalg import (
    DensityMatrix,
    DimensionMismatchError,
    UnsupportedDimensionError,
    as_rng,
    random_density_matrix,
)
from qcorr.measures import Povm, ProjectiveBasis, classical_mutual_info, joint_distribution

BELL = DensityMatrix(
    np.array([[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]], dtype=complex),
    2,
    2,
)


@pytest.mark.parametrize("d,count", [(2, 2), (2, 3), (3, 4), (5, 6)])
def test_mub_family_is_pairwise_unbiased(d, count):
    fam = mub_family(d, count)
    assert fam.count == count and fam.dim == d
    for i in range(count):
        for j in range(i + 1, count):
            overlap = np.abs(fam.bases[i].vectors.conj().T @ fam.bases[j].vectors) ** 2
            np.testing.assert_allclose(overlap, 1 / d, atol=1e-12)


@pytest.mark.parametrize("d", [1, 4, 6, 9, 15])
def test_mub_family_rejects_unsupported_dimensions(d):
    with pytest.raises(UnsupportedDimensionError):
        mub_family(d, 2)


def test_mub_family_rejects_oversized_requests():
    with pytest.raises(UnsupportedDimensionError):
        mub_family(2, 4)
    with pytest.raises(UnsupportedDimensionError):
        mub_family(3, 5)


def test_two_mub_bound_values():
    assert two_mub_bound(2) == pytest.approx(1.0, abs=1e-15)
    assert two_mub_bound(3) == pytest.approx(np.log2(3), abs=1e-15)


@pytest.mark.parametrize(
    "d,count,k,refined",
    [(2, 3, 1, 1.0), (3, 4, 2, 4 * np.log2(1.5)), (5, 6, 3, 6 * np.log2(5 / 3))],
)
def test_mub_total_bound_frozen_values(d, count, k, refined):
    got_refined, got_half, got_k = mub_total_bound(d, count)
    assert got_k == k
    assert got_refined == pytest.approx(refined, abs=1e-12)
    assert got_half == pytest.approx(0.5 * count * np.log2(d), abs=1e-12)


def test_purity_total_bound_endpoints():
    assert purity_total_bound(np.eye(2) / 2, 2, 3) == pytest.approx(1.0, abs=1e-12)
    assert purity_total_bound(np.eye(3) / 3, 3, 4) == pytest.approx(4 * np.log2(1.5), abs=1e-12)
    # pure marginals still leave nonnegative room
    assert purity_total_bound(np.diag([1.0, 0.0]), 2, 3) == pytest.approx(0.23202265374700426, abs=1e-9)
    assert purity_total_bound(np.diag([1.0, 0.0, 0.0]), 3, 4) > 0
    with pytest.raises(UnsupportedDimensionError):
        purity_total_bound(np.eye(2) / 2, 2, 2)


def test_single_system_bounds_reject_a_state_of_the_wrong_dimension():
    with pytest.raises(DimensionMismatchError):
        purity_total_bound(np.eye(3) / 3, 2, 3)
    with pytest.raises(DimensionMismatchError):
        purity_total_bound(random_density_matrix(2, 2, rng=as_rng(3)), 2, 3)
    with pytest.raises(DimensionMismatchError):
        entropic_sum(np.eye(3) / 3, mub_family(2, 3))


def test_state_independent_bound_values():
    value, cap = state_independent_bound(3)
    assert value == pytest.approx(4 * np.log2(1.5), abs=1e-15)
    assert cap == 3.0
    value2, cap2 = state_independent_bound(2)
    assert value2 == pytest.approx(1.0, abs=1e-12)
    assert cap2 == 2.0
    with pytest.raises(UnsupportedDimensionError):
        state_independent_bound(4)


@pytest.mark.parametrize("d,count,floor", [(2, 2, 1.0), (2, 3, 2.0), (3, 4, 4.0)])
def test_entropic_sum_bound_frozen_values(d, count, floor):
    assert entropic_sum_bound(d, count) == pytest.approx(floor, abs=1e-12)


@pytest.mark.parametrize("bound", [mub_total_bound, entropic_sum_bound])
@pytest.mark.parametrize("d,count", [(3, 0), (3, -1), (0, 1), (-2, 3)])
def test_unbiased_basis_bounds_reject_a_count_or_dimension_below_one(bound, d, count):
    with pytest.raises(ValueError, match="at least one"):
        bound(d, count)


@pytest.mark.parametrize("bound", [mub_total_bound, entropic_sum_bound])
@pytest.mark.parametrize("d,count,match", [
    (2, 4, "more than d \\+ 1"),
    (2, 7, "more than d \\+ 1"),
    (3, 5, "more than d \\+ 1"),
    (3, 2.5, "integer"),
    (2.0, 2, "integer"),
])
def test_unbiased_basis_bounds_reject_impossible_basis_counts(bound, d, count, match):
    # no dimension has more than d + 1 pairwise unbiased bases
    with pytest.raises(ValueError, match=match):
        bound(d, count)


def test_entropic_sum_saturates_on_extreme_states():
    fam = mub_family(2, 3)
    assert entropic_sum(np.eye(2) / 2, fam) == pytest.approx(3.0, abs=1e-12)
    assert entropic_sum(np.diag([1.0, 0.0]), fam) == pytest.approx(2.0, abs=1e-12)
    fam3 = mub_family(3, 4)
    assert entropic_sum(np.eye(3) / 3, fam3) == pytest.approx(4 * np.log2(3), abs=1e-12)
    assert entropic_sum(np.diag([1.0, 0.0, 0.0]), fam3) >= 4.0 - 1e-9


def test_entropic_sum_accepts_a_pure_state_whose_trace_exceeds_one_by_round_off():
    # DensityMatrix accepts a trace off by up to 1e-10, so a probability can
    # exceed one by that much
    rho = DensityMatrix(np.diag([1 + 5e-11, 0.0]), 2, 1)
    assert entropic_sum(rho, mub_family(2, 3)) == pytest.approx(2.0, abs=1e-9)


def test_report_on_bell_state_saturates_the_pair_bound():
    fam = mub_family(2, 2)
    bob = Povm.from_basis(ProjectiveBasis.computational(2))
    rep = mub_information_report(BELL, fam, bob)
    assert rep.max_pair_sum == pytest.approx(1.0, abs=1e-9)
    assert rep.satisfied["two_basis"]
    assert set(rep.bounds) == {"two_basis", "total_refined", "total_half"}


def test_report_full_set_carries_every_bound_and_rows():
    fam = mub_family(3, 4)
    bob = Povm.from_basis(ProjectiveBasis.fourier(3))
    rho = random_density_matrix(3, 3, rng=as_rng(17))
    rep = mub_information_report(rho, fam, bob)
    assert set(rep.bounds) == {
        "two_basis", "total_refined", "total_half", "purity", "state_independent", "strict_cap",
    }
    assert all(rep.satisfied.values())
    assert rep.i_total == pytest.approx(sum(rep.i_values), abs=1e-12)
    rows = rep.rows()
    assert len(rows) == 6
    pair_row = next(r for r in rows if r["bound"] == "two_basis")
    assert pair_row["observed"] == pytest.approx(rep.max_pair_sum, abs=0)


def test_report_rejects_mismatched_dimensions():
    fam = mub_family(3, 2)
    bob = Povm.from_basis(ProjectiveBasis.computational(2))
    with pytest.raises(DimensionMismatchError):
        mub_information_report(BELL, fam, bob)


def test_report_rejects_bob_measurement_of_wrong_dimension():
    fam = mub_family(2, 3)
    bob = Povm.from_basis(ProjectiveBasis.computational(3))
    with pytest.raises(DimensionMismatchError):
        mub_information_report(BELL, fam, bob)


def _per_basis_i_values(rho, fam, bob):
    return tuple(classical_mutual_info(joint_distribution(rho, basis, bob)) for basis in fam.bases)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_stacked_report_equals_per_basis_tables(d):
    fam = mub_family(d, 3 if d == 2 else d + 1)
    assert fam.rows.shape == (fam.count, d, d)
    assert not fam.rows.flags.writeable
    for seed in range(20):
        rng = as_rng([d, seed, 1])
        rho = random_density_matrix(d, d, rng=rng)
        bob = Povm.random_rank_one(d, int(rng.integers(d, d * d + 1)), rng)
        assert mub_information_report(rho, fam, bob).i_values == _per_basis_i_values(rho, fam, bob)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_report_with_noisy_bob_povm_equals_per_basis_tables(d):
    fam = mub_family(d, 3 if d == 2 else d + 1)
    eps = 0.2
    effects = np.array([(1 - eps) * np.diag(np.eye(d)[k]) + eps * np.eye(d) / d for k in range(d)])
    bob = Povm(effects)
    assert bob.rows is None
    for seed in range(5):
        rho = random_density_matrix(d, d, rng=as_rng([d, seed, 2]))
        rep = mub_information_report(rho, fam, bob)
        assert rep.i_values == _per_basis_i_values(rho, fam, bob)
        assert all(rep.satisfied.values())


def test_random_campaign_never_violates_bounds():
    for d in (2, 3, 5):
        fam = mub_family(d, 3 if d == 2 else d + 1)
        for seed in range(10):
            rng = as_rng([d, seed])
            rho = random_density_matrix(d, d, rng=rng)
            bob = Povm.random_rank_one(d, int(rng.integers(d, d * d + 1)), rng)
            rep = mub_information_report(rho, fam, bob)
            assert all(rep.satisfied.values()), (d, seed, rep.satisfied)

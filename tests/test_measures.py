import numpy as np
import pytest

from qcorr.linalg import (
    DensityMatrix,
    DimensionMismatchError,
    InvalidStateError,
    UnsupportedDimensionError,
    as_rng,
    random_density_matrix,
    swap_sides,
    tensor_product,
    von_neumann_entropy,
)
from qcorr.measures import (
    JointDistribution,
    Povm,
    ProjectiveBasis,
    _checked_tables,
    _holevo_searches,
    classical_correlation_a,
    classical_mutual_info,
    conditional_states_b,
    discord_a,
    discord_b,
    full_report,
    i_eigenbasis,
    i_eigenbasis_scan,
    joint_distribution,
    maximize_mi_povm,
    maximize_mi_projective,
    measurement_induced_disturbance,
    quantum_mutual_info,
)
from qcorr import measures, optimize
from qcorr.optimize import OptimizerConfig, _multistart
from qcorr.states import (
    bell_diagonal_state,
    classical_quantum_state,
    trine_povm_optimum,
    werner_state,
)

LIGHT = OptimizerConfig(restarts=3, max_iters=200, seed=0)

SINGLET = DensityMatrix(
    np.array([[0, 0, 0, 0], [0, 0.5, -0.5, 0], [0, -0.5, 0.5, 0], [0, 0, 0, 0]], dtype=complex),
    2,
    2,
)


def test_projective_basis_constructors_and_validation():
    assert ProjectiveBasis.computational(3).dim == 3
    assert ProjectiveBasis.fourier(4).dim == 4
    with pytest.raises(InvalidStateError):
        ProjectiveBasis(np.ones((2, 2), dtype=complex))


def test_povm_from_basis_sums_to_identity():
    povm = Povm.from_basis(ProjectiveBasis.fourier(3))
    np.testing.assert_allclose(povm.effects.sum(axis=0), np.eye(3), atol=1e-12)
    assert povm.n_outcomes == 3
    assert povm.rows is not None


def test_povm_rejects_bad_effect_sets():
    proj = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(InvalidStateError):
        Povm(np.stack([proj, proj]))  # sums to diag(2, 0)
    neg = np.stack([np.diag([1.5, 1.0]).astype(complex), np.diag([-0.5, 0.0]).astype(complex)])
    with pytest.raises(InvalidStateError):
        Povm(neg)
    with pytest.raises(InvalidStateError):
        Povm.from_isometry(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))  # W^H W = diag(1, 2)


def test_povm_rejects_rows_that_disagree_with_effects():
    halves = np.stack([np.eye(2) / 2] * 2)
    with pytest.raises(InvalidStateError):
        Povm(halves, rows=np.eye(2))  # rows give |0><0| and |1><1|, not 1/2 each
    with pytest.raises(DimensionMismatchError):
        Povm(halves, rows=np.eye(3)[:2])  # (2, 3) rows for d = 2
    with pytest.raises(DimensionMismatchError):
        Povm(halves, rows=np.eye(2)[0])
    fourier = Povm.from_basis(ProjectiveBasis.fourier(3))
    assert Povm(fourier.effects, rows=fourier.rows * np.exp(0.3j)).rows is not None


def test_povm_from_rows_alone_builds_the_rank_one_effects():
    w = Povm.random_rank_one(3, 5, rng=4).rows
    np.testing.assert_array_equal(Povm(rows=w).effects, np.einsum("sa,sb->sab", w.conj(), w))
    with pytest.raises(InvalidStateError):
        Povm(rows=np.ones((2, 2)))  # effects sum to [[2, 2], [2, 2]]
    with pytest.raises(DimensionMismatchError):
        Povm(rows=np.eye(2)[0])
    with pytest.raises(DimensionMismatchError):
        Povm()


def test_povm_random_rank_one_is_valid_and_seeded():
    povm = Povm.random_rank_one(3, 7, as_rng(4))
    np.testing.assert_allclose(povm.effects.sum(axis=0), np.eye(3), atol=1e-10)
    again = Povm.random_rank_one(3, 7, as_rng(4))
    np.testing.assert_allclose(povm.effects, again.effects, atol=0)


def test_joint_distribution_validation_and_marginals():
    table = np.array([[0.5, 0.0], [0.25, 0.25]])
    jd = JointDistribution(table)
    np.testing.assert_allclose(jd.marginal_a, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(jd.marginal_b, [0.75, 0.25], atol=1e-12)
    with pytest.raises(InvalidStateError):
        JointDistribution(np.array([[0.9, -0.1], [0.1, 0.1]]))
    with pytest.raises(InvalidStateError):
        JointDistribution(np.array([[0.4, 0.4], [0.4, 0.4]]))
    with pytest.raises(InvalidStateError):
        classical_mutual_info([[np.nan, 0.5], [0.25, 0.25]])
    for not_2d in (np.array([0.5, 0.5]), np.full((2, 2, 2), 0.125)):
        with pytest.raises(DimensionMismatchError):
            classical_mutual_info(not_2d)


def test_stacked_table_checks_match_joint_distribution_per_table():
    good = np.array([[0.5, -5e-11], [0.25, 0.25 + 5e-11]])
    checked = _checked_tables(np.stack([good, good.T]))
    assert np.array_equal(checked[0], JointDistribution(good).table)
    assert np.array_equal(checked[1], JointDistribution(good.T).table)
    negative = np.array([[0.5, -2e-10], [0.25, 0.25 + 2e-10]])
    off_sum = np.array([[0.5, 0.0], [0.25, 0.25 + 2e-9]])
    not_a_number = np.array([[np.nan, 0.5], [0.25, 0.25]])
    for bad in (negative, off_sum, not_a_number):
        with pytest.raises(InvalidStateError):
            JointDistribution(bad)
        with pytest.raises(InvalidStateError):
            _checked_tables(np.stack([good, bad]))


def test_joint_distribution_of_singlet_in_matched_bases():
    for basis in (ProjectiveBasis.computational(2), ProjectiveBasis.fourier(2)):
        jd = joint_distribution(SINGLET, basis, basis)
        np.testing.assert_allclose(np.sort(jd.table.ravel()), [0, 0, 0.5, 0.5], atol=1e-12)
        assert classical_mutual_info(jd) == pytest.approx(1.0, abs=1e-12)


def test_joint_distribution_general_effects_match_rank_one_path():
    rho = random_density_matrix(3, 2, rng=as_rng(8))
    basis = ProjectiveBasis.fourier(3)
    rank_one = Povm.from_basis(basis)
    u = basis.vectors
    # the same measurement with the rows stripped: the table reads only the
    # effects, so the rows must not change it
    general = Povm(np.stack([np.outer(u[:, k], u[:, k].conj()) for k in range(3)]))
    assert general.rows is None
    bob = Povm.random_rank_one(2, 3, as_rng(9))
    t1 = joint_distribution(rho, rank_one, bob).table
    t2 = joint_distribution(rho, general, bob).table
    np.testing.assert_allclose(t1, t2, atol=1e-12)


def _noisy_povm(d: int, n_out: int, rng) -> Povm:
    """A random rank-one POVM mixed with the trivial one: full-rank effects."""
    effects = Povm.random_rank_one(d, n_out, rng).effects
    return Povm(0.7 * effects + 0.3 * np.eye(d) / n_out)


@pytest.mark.parametrize("da,db", [(2, 3), (3, 2), (5, 5)])
def test_joint_distribution_matches_kron_oracle(da, db):
    """table[i, s] = Tr[(M_i (x) N_s) rho] with the product built by np.kron,
    for rank-one and noisy POVMs on either side."""
    rng = as_rng([12, da, db])
    rho = random_density_matrix(da, db, rng=rng)
    alice = [Povm.random_rank_one(da, da + 1, rng), _noisy_povm(da, da + 2, rng)]
    bob = [Povm.random_rank_one(db, db + 2, rng), _noisy_povm(db, db + 1, rng)]
    assert alice[1].rows is None and bob[1].rows is None
    for pa in alice:
        for pb in bob:
            oracle = np.array([[np.trace(np.kron(m, n) @ rho.mat).real for n in pb.effects]
                               for m in pa.effects])
            table = joint_distribution(rho, pa, pb).table
            np.testing.assert_allclose(table, oracle, rtol=0, atol=1e-14)


def test_classical_mutual_info_oracles():
    assert classical_mutual_info(np.outer([0.5, 0.5], [0.2, 0.8])) == pytest.approx(0.0, abs=1e-12)
    assert classical_mutual_info(np.eye(3) / 3) == pytest.approx(np.log2(3), abs=1e-12)
    hand = np.array([[0.5, 0.0], [0.25, 0.25]])
    assert classical_mutual_info(hand) == pytest.approx(0.31127812445913294, abs=1e-12)


def test_classical_mutual_info_validates_raw_tables():
    # unchecked, these gave -2.0 bits and 1.04 bits (above log2 2)
    for bad in (np.full((2, 2), 0.5), np.diag([0.3, 0.3]), np.array([[0.7, -0.1], [0.2, 0.2]])):
        with pytest.raises(InvalidStateError):
            classical_mutual_info(bad)


def test_state_a_hair_outside_psd_gives_valid_tables_and_mi():
    # accepted by DensityMatrix (eigenvalue -5e-11 is within PSD_TOL)
    rho = DensityMatrix(np.diag([0.5 + 5e-11, 0.5, 0.0, -5e-11]), 2, 2)
    jd = joint_distribution(rho, np.eye(2), np.eye(2))
    assert classical_mutual_info(jd) >= 0.0
    assert i_eigenbasis(rho).value >= 0.0
    report = full_report(rho, OptimizerConfig(restarts=1))
    assert report.eigenbasis_mi >= 0.0
    assert min(report.entropy_a, report.entropy_b, report.entropy_ab) >= 0.0
    assert report.mi_projective <= report.quantum_mi + 1e-12


def test_entropies_accept_a_pure_state_whose_trace_exceeds_one_by_round_off():
    # DensityMatrix accepts a trace off by up to 1e-10, as from a pure state
    # saved to about 11 digits; its top eigenvalues then exceed one
    rho = DensityMatrix(np.diag([1 + 5e-11, 0, 0, 0]), 2, 2)
    assert von_neumann_entropy(rho.mat) == pytest.approx(0.0, abs=1e-9)
    assert quantum_mutual_info(rho) == pytest.approx(0.0, abs=1e-9)
    cfg = OptimizerConfig(restarts=1, seed=0)
    assert classical_correlation_a(rho, cfg).value == pytest.approx(0.0, abs=1e-9)


def test_quantum_mutual_info_oracles():
    assert quantum_mutual_info(SINGLET) == pytest.approx(2.0, abs=1e-12)
    a = random_density_matrix(2, 1, rng=as_rng(1))
    b = random_density_matrix(3, 1, rng=as_rng(2))
    prod = DensityMatrix(tensor_product(a.mat, b.mat), 2, 3)
    assert quantum_mutual_info(prod) == pytest.approx(0.0, abs=1e-12)


def test_maximize_mi_projective_hits_two_qubit_closed_form():
    rho = bell_diagonal_state([0.9, 0.0, 0.0])
    res = maximize_mi_projective(rho, LIGHT)
    h = -0.95 * np.log2(0.95) - 0.05 * np.log2(0.05)
    assert res.value == pytest.approx(1 - h, abs=1e-9)
    assert res.meas_a.n_outcomes == 2


def test_maximize_mi_projective_rejects_large_dimensions():
    big = random_density_matrix(17, 2, rng=as_rng(0))
    with pytest.raises(UnsupportedDimensionError):
        maximize_mi_projective(big, LIGHT)


def test_maximize_mi_povm_never_below_projective():
    rho = random_density_matrix(2, 2, rng=as_rng(21))
    proj = maximize_mi_projective(rho, LIGHT)
    povm = maximize_mi_povm(rho, 4, 4, LIGHT)
    assert povm.value >= proj.value - 1e-9
    assert povm.meas_a.n_outcomes == 4


def test_maximize_mi_povm_with_both_sides_fixed_evaluates_them(monkeypatch):
    rho = random_density_matrix(3, 2, rng=as_rng(22))
    fixed_a, fixed_b = Povm.random_rank_one(3, 4, rng=1), Povm.random_rank_one(2, 3, rng=2)
    calls = []

    def counted(*args):
        calls.append(args)
        return _multistart(*args)

    monkeypatch.setattr(optimize, "_multistart", counted)
    res = maximize_mi_povm(rho, 4, 3, LIGHT, fixed_a=fixed_a, fixed_b=fixed_b)
    assert not calls  # no search at all: there is no free side
    expected = classical_mutual_info(joint_distribution(rho, fixed_a, fixed_b))
    assert res.value == pytest.approx(expected, abs=1e-12)
    assert res.meas_a is fixed_a and res.meas_b is fixed_b and res.converged
    # one evaluation of the fixed pair, not 1 + restarts copies of it
    assert res.n_starts == res.n_converged == 1


def test_maximize_mi_povm_with_bob_fixed_searches_alice_alone(monkeypatch):
    rho = random_density_matrix(3, 2, rng=as_rng(23))
    fixed_b = Povm.random_rank_one(2, 3, rng=3)
    values = []

    def recorded(*args):
        [res] = _multistart(*args)
        values.append(-res.value)
        return [res]

    monkeypatch.setattr(optimize, "_multistart", recorded)
    res = maximize_mi_povm(rho, 4, 3, LIGHT, fixed_b=fixed_b)
    assert res.meas_b is fixed_b and res.meas_a.rows.shape == (4, 3)
    expected = classical_mutual_info(joint_distribution(rho, res.meas_a, fixed_b))
    assert res.value == pytest.approx(expected, abs=1e-12)
    # the seeding search over Alice's bases, then the POVM search seeded by it
    assert len(values) == 2 and res.value == values[1] >= values[0]


def test_one_sided_seeding_search_runs_each_free_basis_once(monkeypatch):
    starts = []

    def counted(*args):
        [res] = _multistart(*args)
        starts.append(res.n_starts)
        return [res]

    monkeypatch.setattr(optimize, "_multistart", counted)
    trine_povm_optimum(OptimizerConfig(restarts=8, seed=0))
    # Alice is fixed, so the seed pairs give Bob I, F, v_B, I, F: three distinct
    # bases plus eight random starts.  Bob's best basis is then the identity,
    # so his POVM seeds (embedded basis, Fourier frame, frame times basis)
    # repeat the frame: two distinct seeds plus eight random starts
    assert starts == [11, 10]


def test_seed_pairs_repeated_on_maximally_mixed_marginals_run_once():
    # the marginal eigenbases are the identity, so each search runs one
    # structured start fewer: five of six seed pairs at 2x2, four of five at
    # 3x3, and one of the Holevo search's two seeds, plus eight random starts
    cfg = OptimizerConfig(restarts=8, seed=0)
    for rho, n_projective in ((bell_diagonal_state([-1, -1, -1]), 13), (werner_state(3, 0.55), 12)):
        assert maximize_mi_projective(rho, cfg).n_starts == n_projective
        assert classical_correlation_a(rho, cfg).n_starts == 9


def test_conditional_states_b_recovers_cq_branches():
    sigma0 = np.diag([1.0, 0.0]).astype(complex)
    sigma1 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    rho = classical_quantum_state([0.3, 0.7], [sigma0, sigma1])
    branches = conditional_states_b(rho, ProjectiveBasis.computational(2))
    probs = [p for p, _ in branches]
    np.testing.assert_allclose(probs, [0.3, 0.7], atol=1e-12)
    np.testing.assert_allclose(branches[0][1], sigma0, atol=1e-12)
    np.testing.assert_allclose(branches[1][1], sigma1, atol=1e-12)


def test_classical_correlation_a_on_cq_state_equals_holevo_value():
    sigma0 = np.diag([1.0, 0.0]).astype(complex)
    sigma1 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    rho = classical_quantum_state([0.5, 0.5], [sigma0, sigma1])
    res = classical_correlation_a(rho, LIGHT)
    # ensemble Holevo quantity: S(avg) - avg S, with pure branches
    avg = 0.5 * sigma0 + 0.5 * sigma1
    vals = np.linalg.eigvalsh(avg)
    chi = float(-np.sum(vals * np.log2(vals)))
    assert res.value == pytest.approx(chi, abs=1e-6)


def test_discord_vanishes_on_cq_states_and_matches_luo_form():
    sigma0 = np.diag([1.0, 0.0]).astype(complex)
    sigma1 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    cq = classical_quantum_state([0.4, 0.6], [sigma0, sigma1])
    assert discord_a(cq, LIGHT).value <= 1e-9
    bell = bell_diagonal_state([0.3, 0.2, 0.1])
    res = discord_a(bell, LIGHT)
    assert res.value == pytest.approx(0.05068495714647758, abs=1e-7)
    assert res.classical_correlation == pytest.approx(0.06593194462450902, abs=1e-7)


def test_discord_b_mirrors_discord_a_on_symmetric_states():
    bell = bell_diagonal_state([0.3, 0.2, 0.1])
    a = discord_a(bell, LIGHT).value
    b = discord_b(bell, LIGHT).value
    assert a == pytest.approx(b, abs=1e-6)


def test_i_eigenbasis_flags_degeneracy_and_stays_below_search():
    res = i_eigenbasis(SINGLET)
    assert res.degenerate_a and res.degenerate_b
    rho = random_density_matrix(2, 3, rng=as_rng(31))
    plain = i_eigenbasis(rho)
    assert not plain.degenerate_a and not plain.degenerate_b
    best = maximize_mi_projective(rho, LIGHT)
    assert plain.value <= best.value + 1e-9


def test_i_eigenbasis_scan_exposes_degenerate_spread():
    scan = i_eigenbasis_scan(SINGLET, samples=40, seed=0)
    assert scan.shape == (40,)
    assert np.all(scan <= 1.0 + 1e-9)  # capped by the marginal entropies
    assert scan.max() - scan.min() > 0.05
    again = i_eigenbasis_scan(SINGLET, samples=40, seed=0)
    np.testing.assert_allclose(scan, again, atol=0)
    rho = random_density_matrix(2, 2, rng=as_rng(60))
    flat = i_eigenbasis_scan(rho, samples=10, seed=1)
    np.testing.assert_allclose(flat, i_eigenbasis(rho).value, atol=1e-9)


def test_measurement_induced_disturbance_nonnegative():
    for seed in range(4):
        rho = random_density_matrix(2, 2, rng=as_rng([41, seed]))
        assert measurement_induced_disturbance(rho) >= -1e-9


def test_full_report_orders_the_measure_chain():
    rho = random_density_matrix(3, 2, rng=as_rng(55))
    rep = full_report(rho, LIGHT)
    assert rep.eigenbasis_mi <= rep.mi_projective + 1e-9
    assert rep.mi_projective <= rep.classical_corr_a + 1e-9
    assert rep.mi_projective <= rep.classical_corr_b + 1e-9
    assert rep.nonclassicality >= -1e-12
    assert rep.discord_a >= -1e-12
    assert rep.disturbance >= rep.nonclassicality - 1e-9
    assert rep.heuristic
    d = rep.to_dict()
    assert d["quantum_mi"] == pytest.approx(quantum_mutual_info(rho), abs=1e-12)
    assert d["povm_outcomes_a"] is None


def test_full_report_with_povm_search():
    rho = random_density_matrix(2, 2, rng=as_rng(56))
    rep = full_report(rho, LIGHT, povm_outcomes=(4, 4))
    assert rep.mi_povm is not None
    assert rep.mi_povm >= rep.mi_projective - 1e-9
    assert rep.to_dict()["povm_outcomes_a"] == 4


def test_full_report_runs_the_projective_search_once_with_povm(monkeypatch):
    import qcorr.measures as measures

    rho = random_density_matrix(3, 3, rng=as_rng(57))
    expected = maximize_mi_povm(rho, 4, 4, LIGHT).value
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return maximize_mi_projective(*args, **kwargs)

    monkeypatch.setattr(measures, "maximize_mi_projective", counted)
    rep = full_report(rho, LIGHT, povm_outcomes=(4, 4))
    assert len(calls) == 1
    assert rep.mi_povm == expected


HOLEVO_PAIR_STATES = {
    "2x2": lambda: random_density_matrix(2, 2, rng=as_rng(60)),
    "3x3": lambda: random_density_matrix(3, 3, rng=as_rng(61)),
    "4x4": lambda: random_density_matrix(4, 4, rng=as_rng(62)),
    "bell": lambda: bell_diagonal_state([0.35, -0.2, 0.05]),
    # U (x) U* invariant: the conditional entropy is flat, and every start
    # stops at its first evaluation
    "werner": lambda: werner_state(3, 0.55),
    # unequal dimensions: the two searches differ in parameter count and
    # run as two groups
    "2x4": lambda: random_density_matrix(2, 4, rng=as_rng(63)),
}


@pytest.mark.parametrize("name", HOLEVO_PAIR_STATES)
def test_holevo_pair_in_one_lockstep_equals_two_single_searches(name, monkeypatch):
    cfg = OptimizerConfig(restarts=8, seed=0)
    rho = HOLEVO_PAIR_STATES[name]()
    proj = maximize_mi_projective(rho, cfg)
    ua, ub = proj.meas_a.rows.conj().T, proj.meas_b.rows.conj().T
    singles = [classical_correlation_a(rho, cfg, extra_seeds=[ua]),
               classical_correlation_a(swap_sides(rho), cfg, extra_seeds=[ub])]
    locksteps = []

    def counted(*args):
        locksteps.append(args)
        return _multistart(*args)

    monkeypatch.setattr(optimize, "_multistart", counted)
    pair = _holevo_searches([rho, swap_sides(rho)], cfg, True, None, [[ua], [ub]])
    assert len(locksteps) == (1 if rho.dim_a == rho.dim_b else 2)
    for got, want in zip(pair, singles):
        assert got.value == want.value
        assert np.array_equal(got.meas_a.rows, want.meas_a.rows)
        assert (got.n_starts, got.n_converged, got.converged) == (
            want.n_starts, want.n_converged, want.converged)


BELL_PAIR = bell_diagonal_state([-1, -1, -1])
MIXED_EFFECTS = Povm(effects=np.stack([np.eye(2) / 2, np.eye(2) / 2]))


@pytest.mark.parametrize("call,error", [
    (lambda: Povm(effects=np.ones((2, 2))), ValueError),
    # eigvalsh alone would read these as PSD effects that sum to the identity
    (lambda: Povm(effects=[[[1, 0.4], [0, 0]], [[0, -0.4], [0, 1]]]), InvalidStateError),
    (lambda: Povm.random_rank_one(3, 2), ValueError),
    (lambda: maximize_mi_povm(BELL_PAIR, 1, 3), ValueError),
    (lambda: maximize_mi_povm(BELL_PAIR, 3, 1), ValueError),
    (lambda: maximize_mi_povm(BELL_PAIR, 3, 3, fixed_a=MIXED_EFFECTS), ValueError),
    (lambda: maximize_mi_povm(BELL_PAIR, 99, 3, fixed_a=Povm.random_rank_one(2, 4, rng=0)),
     ValueError),
    (lambda: maximize_mi_povm(BELL_PAIR, 3, 3, fixed_b=Povm.random_rank_one(2, 4, rng=0)),
     ValueError),
    (lambda: classical_correlation_a(BELL_PAIR, projective_only=False, n_out=1), ValueError),
    (lambda: classical_correlation_a(BELL_PAIR, projective_only=False, n_out=0), ValueError),
    (lambda: classical_correlation_a(BELL_PAIR, n_out=7), ValueError),
    (lambda: conditional_states_b(BELL_PAIR, ProjectiveBasis.computational(3)),
     DimensionMismatchError),
    (lambda: maximize_mi_povm(BELL_PAIR, 3, 3, fixed_a=Povm.random_rank_one(3, 3, rng=0)),
     DimensionMismatchError),
    (lambda: maximize_mi_povm(BELL_PAIR, 3, 3, fixed_b=Povm.random_rank_one(3, 4, rng=0)),
     DimensionMismatchError),
    (lambda: maximize_mi_projective(BELL_PAIR, extra_seeds=[(np.eye(2), np.eye(3))]),
     DimensionMismatchError),
    (lambda: classical_correlation_a(BELL_PAIR, extra_seeds=[np.eye(3)]), DimensionMismatchError),
    (lambda: classical_correlation_a(BELL_PAIR, projective_only=False, extra_seeds=[np.eye(3)]),
     DimensionMismatchError),
], ids=["effects-2d", "non-hermitian-effects", "too-few-rank-one-outcomes", "povm-a-outcomes",
        "povm-b-outcomes", "fixed-without-rows", "fixed-a-outcomes", "fixed-b-outcomes", "holevo-povm-outcomes",
        "holevo-povm-zero-outcomes", "holevo-projective-outcomes",
        "conditional-dimension", "fixed-a-dimension", "fixed-b-dimension",
        "projective-seed-shape", "holevo-seed-shape", "holevo-povm-seed-shape"])
def test_input_checks_raise_their_documented_errors(call, error):
    with pytest.raises(error):
        call()


def test_conditional_states_b_gives_a_placeholder_for_an_outcome_that_never_fires():
    rho = DensityMatrix(tensor_product(np.diag([1.0, 0.0]), np.diag([0.25, 0.75])), 2, 2)
    (p0, state0), (p1, state1) = conditional_states_b(rho, ProjectiveBasis.computational(2))
    assert p0 == pytest.approx(1.0) and p1 == 0.0
    np.testing.assert_allclose(state0, np.diag([0.25, 0.75]), atol=1e-15)
    np.testing.assert_array_equal(state1, np.eye(2) / 2)

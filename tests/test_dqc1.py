import warnings

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
from qcorr.linalg import (
    InvalidStateError,
    UnsupportedDimensionError,
    as_rng,
    partial_trace,
    random_unitary,
)
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


def _assert_haar_phases_match_eigvals(n, seed):
    want = np.sort(np.angle(np.linalg.eigvals(random_unitary(2**n, as_rng(seed)))))
    got = Dqc1Model.haar(n, 0.5, seed=seed).phases
    assert np.all(np.diff(got) >= 0)
    # distances on the circle: a phase near +-pi may wrap
    dist = np.abs(np.angle(np.exp(1j * (got[:, None] - want[None, :]))))
    assert dist.min(axis=1).max() < 1e-12
    assert dist.min(axis=0).max() < 1e-12


# 4242 is the benchmark's held-out seed
@pytest.mark.parametrize("seed", [0, 1, 2, 4242])
def test_haar_phases_match_a_general_eigendecomposition(seed):
    for n in range(1, 10):
        _assert_haar_phases_match_eigvals(n, seed)


def test_haar_phases_of_an_ill_conditioned_draw():
    # the phases come from the Ginibre matrix Z's R factor without Q, so
    # their error grows with cond(Z); seed 351 has the largest cond(Z) at
    # n = 4 among seeds 0-2999
    assert np.linalg.cond(dqc1._haar_ginibre(16, as_rng(351))) > 2e3
    _assert_haar_phases_match_eigvals(4, 351)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_haar_draw_takes_the_stream_of_random_unitary(n):
    drawn, reference = as_rng(17), as_rng(17)
    Dqc1Model.haar(n, 0.5, drawn)
    random_unitary(2**n, reference)
    assert np.array_equal(drawn.standard_normal(8), reference.standard_normal(8))


def test_from_unitary_takes_the_eigenvalue_minus_one():
    model = Dqc1Model.from_unitary(0.5, np.diag([1, -1, 1j, -1j]))
    np.testing.assert_allclose(model.phases, [-np.pi / 2, 0.0, np.pi / 2, np.pi], atol=1e-15)


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
        (3, "haar", 1.0),
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


def test_max_record_mi_rejects_an_empty_grid():
    model = Dqc1Model.uniform(2, 0.5)
    for grid in (0, -3):
        with pytest.raises(ValueError, match="grid="):
            dqc1_max_record_mi(model, grid)
        with pytest.raises(ValueError, match="grid="):
            dqc1_nonclassicality(model, grid)


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
        assert p.quantum_mi == dqc1_quantum_mi(model)


@pytest.mark.parametrize("budget", [1, 2 * 2**4])
@pytest.mark.parametrize("phase_model", ["uniform", "haar"])
def test_scan_rows_do_not_depend_on_the_polish_block(monkeypatch, phase_model, budget):
    whole = dqc1_scan(4, 9, phase_model, seed=3)
    # budget 1 polishes one polarization at a time, 2 * 2**4 two at a time
    monkeypatch.setattr(dqc1, "_POLISH_BLOCK_FLOATS", budget)
    assert dqc1_scan(4, 9, phase_model, seed=3) == whole


def _full_grid_max_record_mi(model, alphas, grid=720):
    """The scan's search with the grid argmax taken by direct evaluation of
    every grid point at every polarization, as the package did before the
    spectral argmax: the reference for the spectral one."""
    alphas = np.asarray(alphas, dtype=float)
    betas = alphas * exact_normalized_trace(model)
    phis = 2 * np.pi * np.arange(grid // 2 if grid % 2 == 0 else grid) / grid
    trig = (np.cos(model.phases), np.sin(model.phases))
    table = dqc1._cos_table(trig, phis)
    best, centre = np.empty_like(alphas), np.empty_like(alphas)
    for i, (alpha, beta) in enumerate(zip(alphas, betas)):
        values = dqc1._record_mi_curve(alpha, beta, phis, table)
        k = int(np.argmax(values))
        best[i], centre[i] = values[k], phis[k]
    return np.maximum(best, dqc1._polish(trig, alphas, betas, centre, 2 * np.pi / grid))


def _golden_section_polish(trig, alphas, betas, centre, best, step):
    """The polish as the package ran it before the Newton iteration: golden
    section within one grid step of each centre, in lockstep rounds whose
    count depends only on the step, to a bracket of _POLISH_XTOL, keeping
    the best value seen.  The reference for `dqc1._polish`."""

    def curve(phi):
        return dqc1._record_mi_curve(alphas[:, None], betas, phi, dqc1._cos_table(trig, phi))

    shrink = (np.sqrt(5) - 1) / 2
    rounds = int(np.ceil(np.log(dqc1._POLISH_XTOL / (2 * step)) / np.log(shrink)))
    lo, hi = centre - step, centre + step
    inner_lo, inner_hi = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    f_lo, f_hi = curve(inner_lo), curve(inner_hi)
    best = np.maximum(best, np.maximum(f_lo, f_hi))
    for _ in range(rounds):
        # keep [lo, inner_hi] where the lower inner point is better
        left = f_lo > f_hi
        lo = np.where(left, lo, inner_lo)
        hi = np.where(left, inner_hi, hi)
        probe = np.where(left, hi - shrink * (hi - lo), lo + shrink * (hi - lo))
        f_probe = curve(probe)
        best = np.maximum(best, f_probe)
        inner_lo, inner_hi = np.where(left, probe, inner_hi), np.where(left, inner_lo, probe)
        f_lo, f_hi = np.where(left, f_probe, f_hi), np.where(left, f_lo, f_probe)
    return best


@pytest.mark.parametrize("grid", [8, 9, 720, 721])
def test_polish_matches_the_golden_section_reference(grid):
    alphas = np.concatenate([np.linspace(0.0, 1.0, 21), [0.999, 0.9995, 0.99999]])
    phis = 2 * np.pi * np.arange(grid // 2 if grid % 2 == 0 else grid) / grid
    step = 2 * np.pi / grid
    for n in (1, 2, 3, 4, 6, 8):
        models = [Dqc1Model.uniform(n, 0.0)] + [Dqc1Model.haar(n, 0.0, seed) for seed in (0, 1, 4242)]
        for model in models:
            betas = alphas * exact_normalized_trace(model)
            trig = (np.cos(model.phases), np.sin(model.phases))
            table = dqc1._cos_table(trig, phis)
            values = np.array([dqc1._record_mi_curve(a, b, phis, table)
                               for a, b in zip(alphas, betas)])
            cells = np.argmax(values, axis=-1)
            seed, centre = values[np.arange(alphas.size), cells], phis[cells]
            got = dqc1._polish(trig, alphas, betas, centre, step)
            want = _golden_section_polish(trig, alphas, betas, centre, seed, step)
            assert np.all(got >= seed)
            assert np.abs(got - want).max() <= 1e-12


def test_record_mi_slope_matches_finite_differences():
    model = Dqc1Model.haar(4, 0.0, seed=1)
    alphas = np.array([0.3, 0.7, 0.95])
    betas = alphas * exact_normalized_trace(model)
    phi, h = np.array([1.1, 0.3, 2.5]), 1e-4
    trig = (np.cos(model.phases), np.sin(model.phases))

    def curve(x):
        return dqc1._record_mi_curve(alphas[:, None], betas, x, dqc1._cos_table(trig, x))

    value, slope, curv = dqc1._record_mi_jet(alphas, betas, phi, trig)
    assert value.tolist() == curve(phi).tolist()
    np.testing.assert_allclose(slope, (curve(phi + h) - curve(phi - h)) / (2 * h),
                               rtol=1e-6, atol=1e-12)
    np.testing.assert_allclose(curv, (curve(phi + h) - 2 * curve(phi) + curve(phi - h)) / h**2,
                               rtol=1e-4, atol=1e-9)


@pytest.mark.parametrize("phase_model, seed, most", [("uniform", 0, 2), ("haar", 4242, 8)])
def test_polish_takes_few_slope_evaluations_per_row(monkeypatch, phase_model, seed, most):
    counts = {}
    inner = dqc1._record_mi_jet

    def counted(alphas, *args):
        # a scan's polarizations are distinct, so each names its row
        for alpha in alphas.tolist():
            counts[alpha] = counts.get(alpha, 0) + 1
        return inner(alphas, *args)

    monkeypatch.setattr(dqc1, "_record_mi_jet", counted)
    pts = dqc1_scan(8, 100, phase_model, seed)
    assert sorted(counts) == [p.alpha for p in pts]
    # near alpha = 1 outcome probabilities approach 0 and 1, where the
    # curvature grows without bound and the iteration may bisect longer
    assert max(count for alpha, count in counts.items() if alpha < 0.999) <= most
    if phase_model == "uniform":
        assert max(counts.values()) <= most


def test_scan_takes_the_register_trig_once(monkeypatch):
    trigs = []
    inner = dqc1._cos_table

    def recorded(trig, phis):
        trigs.append(trig)
        return inner(trig, phis)

    monkeypatch.setattr(dqc1, "_cos_table", recorded)
    dqc1_scan(6, 21, "haar", seed=1)
    # the alpha = 1 row's direct argmax and every polish round build tables
    assert len(trigs) > 2
    assert all(t[0] is trigs[0][0] and t[1] is trigs[0][1] for t in trigs)


def test_moments_stop_at_the_highest_cutoff_a_scan_needs():
    np.testing.assert_array_equal(dqc1._cutoff(np.array([0.0, 0.5, 0.99])), [0, 20, 158])
    assert np.all(dqc1._tail_bound(np.array([0.5, 0.99]), np.array([18, 156])).diagonal()
                  > dqc1._TAIL_TOL)
    model = Dqc1Model.haar(6, 0.0, seed=7)
    alphas = np.linspace(0.0, 0.99, 12)
    betas = alphas * exact_normalized_trace(model)
    phis = 2 * np.pi * np.arange(360) / 720
    full = dqc1._moments(model.phases)
    short = dqc1._moments(model.phases, int(dqc1._cutoff(alphas).max()))
    assert short.size == 158 // 2 + 1
    np.testing.assert_array_equal(short, full[:short.size])
    cut = dqc1._cutoff(alphas)
    np.testing.assert_array_equal(dqc1._spectral_argmax(short, alphas, betas, cut, phis, 720),
                                  dqc1._spectral_argmax(full, alphas, betas, cut, phis, 720))


def test_scan_finds_each_cutoff_once(monkeypatch):
    calls = []
    inner = dqc1._cutoff

    def recorded(alphas):
        calls.append(np.size(alphas))
        return inner(alphas)

    monkeypatch.setattr(dqc1, "_cutoff", recorded)
    dqc1_scan(6, 21, "haar", seed=1)
    assert calls == [21]
    calls.clear()
    dqc1_max_record_mi(Dqc1Model.haar(4, 0.5, seed=1))
    assert calls == [1]


@pytest.mark.parametrize("n", range(1, 11))
def test_moments_of_uniform_phases_are_exact(n):
    # t_m = 1 where 2**n divides m, and 0 otherwise
    m = np.arange(0, dqc1._TERMS + 1, 2)
    got = dqc1._moments(Dqc1Model.uniform(n, 0.0).phases)
    assert np.abs(got - (m % 2**n == 0)).max() <= 1e-12


def _exponential_moments(phases, terms=dqc1._TERMS):
    """t_m as the mean of exp(i m theta_s), one exponential per harmonic and
    level, as the package took them before the powers of exp(2i theta_s).
    Its own argument m theta_s rounds by up to about 2e-13 at m = 512."""
    m = np.arange(0, terms + 1, 2)
    return np.exp(1j * np.multiply.outer(m, phases)).mean(axis=-1)


@pytest.mark.parametrize("n", [8, 11])
def test_moments_of_haar_phases_match_the_exponentials(n):
    phases = Dqc1Model.haar(n, 0.0, seed=2).phases
    assert np.abs(dqc1._moments(phases) - _exponential_moments(phases)).max() <= 1e-12


@pytest.mark.parametrize("budget", [1, 2 * 2**6 * 3, 2 * 2**6 * 100])
def test_moments_carry_the_power_across_blocks(monkeypatch, budget):
    phases = Dqc1Model.haar(6, 0.0, seed=3).phases
    whole = dqc1._moments(phases)
    # budget 1 takes one harmonic per block, the others 3 and 100, with a
    # shorter last block
    monkeypatch.setattr(dqc1, "_POLISH_BLOCK_FLOATS", budget)
    blocked = dqc1._moments(phases)
    np.testing.assert_array_equal(blocked, whole)
    np.testing.assert_array_equal(dqc1._moments(phases, 40), whole[:21])
    assert np.abs(blocked - _exponential_moments(phases)).max() <= 1e-12


def test_series_length_is_the_least_multiple_of_the_psi_grid_above_the_terms():
    # an even grid has grid / 2 points in psi = 2 phi, an odd one grid
    for grid, length in ((1, 257), (2, 257), (3, 258), (8, 260), (9, 261),
                         (720, 360), (721, 721)):
        assert dqc1._series_length(grid) == length


def _full_grid_cutoff(alphas):
    """`dqc1._cutoff` as the package found it before the coarse-to-fine
    search, from the tail bound at every even harmonic up to 512: the
    reference for the search."""
    m = np.arange(0, dqc1._TERMS + 1, 2)
    return m[np.argmax(dqc1._tail_bound(alphas, m) <= dqc1._TAIL_TOL, axis=-1)]


def test_cutoff_matches_the_full_grid_reference():
    cut = _spectral_cutoff()
    for alphas in (np.linspace(0.0, 1.0, 100001), np.linspace(0.999, 1.0, 20001),
                   np.array([np.nextafter(cut, 0.0), cut, np.nextafter(cut, 1.0), cut + 1e-9])):
        np.testing.assert_array_equal(dqc1._cutoff(alphas), _full_grid_cutoff(alphas))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = dqc1._cutoff(np.array([0.0, 1.0]))
    np.testing.assert_array_equal(ends, [0, 0])


def _spectral_cutoff():
    """The polarization above which the tail bound exceeds the tolerance."""
    lo, hi = 0.5, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if dqc1._tail_bound(mid) <= dqc1._TAIL_TOL else (lo, mid)
    return lo


@pytest.mark.parametrize("alpha", [0.3, 0.9, 0.99])
def test_kernel_coefficients_match_an_fft_of_the_kernel(alpha):
    size = 4096
    x = 2 * np.pi * np.arange(size) / size
    kernel = dqc1.binary_entropy((1 + alpha * np.cos(x)) / 2)
    # the cosine coefficients of a real even function: twice the real part
    # of the FFT above m = 0
    fft = np.fft.rfft(kernel).real / size
    fft[1:] *= 2
    m = np.arange(fft.size)
    closed = dqc1._kernel_coefficients(np.array([alpha]), m)[0]
    assert np.abs(closed - fft).max() <= 1e-15
    assert np.all(closed[1::2] == 0.0)


@pytest.mark.parametrize("alpha", [0.3, 0.9, 0.99])
@pytest.mark.parametrize("terms", [0, 2, 8, 32, 128, 512])
def test_tail_bound_covers_the_dropped_harmonics(alpha, terms):
    m = np.arange(terms + 1, 8192)
    tail = np.abs(dqc1._kernel_coefficients(np.array([alpha]), m)).sum()
    assert dqc1._tail_bound(alpha, terms) >= tail
    # the bound is geometric, not loose by orders of magnitude
    assert dqc1._tail_bound(alpha, terms) <= tail / (1 - alpha**2)


def test_coefficients_and_bound_raise_no_warning_at_the_ends():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = dqc1._kernel_coefficients(np.array([0.0, 0.5, 1.0]), np.array([0, 1, 2, 3]))
        bound = dqc1._tail_bound(np.array([0.0, 0.5, 1.0]))
    # h(1/2) = 1 bit and nothing else at alpha = 0; odd harmonics vanish
    np.testing.assert_array_equal(g[0], [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(g[:, 1::2], 0.0)
    assert bound[0] == 0.0 and 0.0 < bound[1] < 1e-100 and bound[2] == np.inf


def test_polarizations_near_one_take_the_direct_route(monkeypatch):
    cut = _spectral_cutoff()
    assert 0.999 < cut < 0.9995
    routes = []

    def route(name):
        inner = getattr(dqc1, name)

        def recorded(*args):
            routes.append(name)
            return inner(*args)

        monkeypatch.setattr(dqc1, name, recorded)

    route("_spectral_argmax")
    route("_direct_argmax")
    for alpha, want in ((1.0, "_direct_argmax"), (cut + 1e-9, "_direct_argmax"),
                        (cut, "_spectral_argmax"), (0.5, "_spectral_argmax")):
        routes.clear()
        model = Dqc1Model.haar(5, alpha, seed=1)
        assert dqc1_max_record_mi(model) == _full_grid_max_record_mi(model, [alpha])[0]
        assert routes == [want]


@pytest.mark.parametrize("n", [4, 8, 10])
@pytest.mark.parametrize("phase_model", ["uniform", "haar"])
def test_spectral_scan_matches_the_full_grid_reference(n, phase_model):
    base = Dqc1Model.uniform(n, 0.0) if phase_model == "uniform" else Dqc1Model.haar(n, 0.0, 5)
    # the scan's polarizations (dqc1_scan draws its Haar phases itself, a
    # second second-long draw at n = 10), and those either side of the cutoff
    cut = _spectral_cutoff()
    alphas = np.concatenate([np.linspace(0.0, 1.0, 21 if n == 10 else 100),
                             [0.999, cut, cut + 1e-9]])
    got = dqc1._max_record_mi(base, alphas, 720, exact_normalized_trace(base))
    assert np.abs(got - _full_grid_max_record_mi(base, alphas)).max() <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 4242])
def test_spectral_haar_scan_is_bitwise_the_full_grid_search(seed):
    pts = dqc1_scan(8, 100, "haar", seed=seed)
    want = _full_grid_max_record_mi(Dqc1Model.haar(8, 0.0, seed), [p.alpha for p in pts])
    assert [p.max_record_mi for p in pts] == want.tolist()


# grids 1 and 2 have one point in psi = 2 phi, and 3 gathers its FFT
# output out of order
@pytest.mark.parametrize("grid", [1, 2, 3, 8, 9, 720, 721])
def test_spectral_argmax_is_within_round_off_of_the_grid_maximum(grid):
    cut = _spectral_cutoff()
    alphas = np.concatenate([np.linspace(0.0, cut, 30), [0.999]])
    phis = 2 * np.pi * np.arange(grid // 2 if grid % 2 == 0 else grid) / grid
    for model in (Dqc1Model.uniform(6, 0.0), Dqc1Model.haar(6, 0.0, seed=7)):
        trace = exact_normalized_trace(model)
        moments = dqc1._moments(model.phases)
        cells = dqc1._spectral_argmax(moments, alphas, alphas * trace, dqc1._cutoff(alphas),
                                      phis, grid)
        table = dqc1._cos_table((np.cos(model.phases), np.sin(model.phases)), phis)
        for i, alpha in enumerate(alphas):
            values = dqc1._record_mi_curve(alpha, alpha * trace, phis, table)
            assert values[cells[i]] >= values.max() - 2 * dqc1._TAIL_TOL
            # a row's cell does not depend on the rows batched with it
            alone = dqc1._spectral_argmax(moments, alphas[i:i + 1], alphas[i:i + 1] * trace,
                                          dqc1._cutoff(alphas[i:i + 1]), phis, grid)
            assert alone[0] == cells[i]


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


@pytest.mark.parametrize("call", [
    lambda: trace_estimate(Dqc1Model.haar(3, 0.5, seed=1), 3.9),
    lambda: trace_estimate(Dqc1Model.haar(3, 0.5, seed=1), True),
    lambda: Dqc1Model.uniform(2.0, 0.5),
    lambda: Dqc1Model.uniform(True, 0.5),
    # checked before 2**n is built, which would overflow
    lambda: Dqc1Model.uniform(1e6, 0.5),
    lambda: Dqc1Model.haar(2.0, 0.5),
    lambda: Dqc1Model(True, 0.5, np.zeros(2)),
    lambda: Dqc1Model(2.0, 0.5, np.zeros(4)),
    lambda: dqc1_max_record_mi(Dqc1Model.uniform(3, 0.5), grid=True),
    lambda: dqc1_max_record_mi(Dqc1Model.uniform(3, 0.5), grid=8.0),
    lambda: dqc1_nonclassicality(Dqc1Model.uniform(3, 0.5), grid=8.0),
    lambda: dqc1_scan(3, True),
    lambda: dqc1_scan(3, 3.0),
    lambda: dqc1_scan(3.0, 3),
    lambda: dqc1_scan(1e6, 3),
], ids=["shots-float", "shots-bool", "uniform-n-float", "uniform-n-bool", "uniform-n-huge",
        "haar-n-float", "model-n-bool", "model-n-float", "grid-bool", "grid-float",
        "nonclassicality-grid-float", "steps-bool", "steps-float", "scan-n-float",
        "scan-n-huge"])
def test_integer_arguments_reject_bools_and_floats(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_integer_arguments_accept_numpy_integers():
    three = np.int64(3)
    np.testing.assert_array_equal(Dqc1Model.uniform(three, 0.5).phases,
                                  Dqc1Model.uniform(3, 0.5).phases)
    model = Dqc1Model.haar(np.int32(3), 0.5, seed=1)
    np.testing.assert_array_equal(model.phases, Dqc1Model.haar(3, 0.5, seed=1).phases)
    assert Dqc1Model(three, 0.5, model.phases).n == 3
    assert trace_estimate(model, np.int64(1000)) == trace_estimate(model, 1000)
    assert dqc1_max_record_mi(model, grid=np.int64(720)) == dqc1_max_record_mi(model)
    assert dqc1_scan(three, np.int64(5)) == dqc1_scan(3, 5)


@pytest.mark.parametrize("call,error", [
    (lambda: Dqc1Model(1, 0.5, [0.0, np.inf]), InvalidStateError),
    (lambda: dqc1_scan(dqc1.MAX_SCAN_N + 1, 3), UnsupportedDimensionError),
    (lambda: Dqc1Model.from_unitary(0.5, 1.0), InvalidStateError),
    (lambda: Dqc1Model.from_unitary(0.5, np.zeros((0, 0))), InvalidStateError),
], ids=["infinite-phase", "scan-above-cap", "scalar-unitary", "empty-unitary"])
def test_input_checks_raise_their_documented_errors(call, error):
    with pytest.raises(error):
        call()

"""The one-clean-qubit circuit as a bipartite correlation source.

A control qubit with polarization alpha is Hadamard-rotated and drives a
controlled unitary on an n-qubit work register in the maximally mixed
state.  With the unitary diagonalized, everything about the final state is
a function of alpha and the eigenphase list, so the quantum mutual
information and the best record information have closed forms: the optimal
local measurements are an equatorial basis on the control and the
eigenbasis on the register, leaving a single azimuth to scan.  The gap
between the two curves is the nonclassical share of the correlations,
which stays positive for every alpha > 0 even though the control ends the
circuit unentangled.

The record-information curve has period pi in the azimuth (phi -> phi + pi
flips the sign of every binary-entropy argument's offset, and h((1+x)/2)
is even in x), so an even azimuth grid is evaluated on its first half
only; an odd grid has no coinciding folded points and is kept whole.  One
private kernel maximizes the curve for a whole array of polarizations: the
cosine table and the normalized trace are built once, the grid argmax runs
one polarization at a time, and the best grid points are polished in
lockstep golden-section blocks of bounded size, whose round count depends
only on the grid.
The polish keeps the best value it has seen, so no maximum is below the
best grid value, and a scan row equals the single-polarization call
bitwise.  The cosine table is built by angle addition, cos phi cos theta +
sin phi sin theta, so a table costs products, not a cosine per cell.

A Haar draw's eigenphases come from its Cayley transform: for a unitary u
with no eigenvalue -1, i (1 + u)^-1 (1 - u) is Hermitian with eigenvalues
tan(theta / 2), so one linear solve and one Hermitian eigvalsh give the
phases as 2 arctan, several times faster than a general eigvals of u.  A
Haar draw has the eigenvalue -1 with probability zero.  A caller's unitary
may well have it (where 1 + u is singular), so `Dqc1Model.from_unitary`
keeps the general eigvals.

All entropies are in bits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityMatrix,
    InvalidStateError,
    UnsupportedDimensionError,
    as_rng,
    binary_entropy,
)
from .measures import MiSearchResult, maximize_mi_projective
from .optimize import OptimizerConfig

MAX_EXPLICIT_N = 6
MAX_HAAR_N = 11
# a scan holds a (grid / 2) x 2**n float table and temporaries: with 101 steps
# n = 15 peaks at 0.48 GB in 33 s (2-core machine, one BLAS thread), and each
# qubit doubles both, so n = 16 needs about 1 GB
MAX_SCAN_N = 16
# azimuth grid points over 2 pi, and the final bracket width of the polish
_GRID = 720
_POLISH_XTOL = 1e-12
# polarizations are polished in blocks of at most this many (block x 2**n)
# floats per array, so the polish's memory does not grow with the scan length
_POLISH_BLOCK_FLOATS = 2**20


@dataclass(frozen=True)
class Dqc1Model:
    """Control polarization and work-register eigenphases.

    The register has 2**n levels; `phases` lists the eigenphases of the
    controlled unitary in radians, one per level.
    """

    n: int
    alpha: float
    phases: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise InvalidStateError(f"need at least one register qubit, got n={self.n}")
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidStateError(f"polarization must lie in [0, 1], got {self.alpha}")
        phases = np.asarray(self.phases, dtype=float)
        if phases.shape != (2**self.n,):
            raise InvalidStateError(
                f"expected {2**self.n} phases for n={self.n}, got shape {phases.shape}"
            )
        if not np.all(np.isfinite(phases)):
            raise InvalidStateError("phases must be finite")
        phases.setflags(write=False)
        object.__setattr__(self, "phases", phases)

    @classmethod
    def uniform(cls, n: int, alpha: float) -> "Dqc1Model":
        """Eigenphases on the uniform grid 2 pi s / 2**n."""
        size = 2**n
        return cls(n=n, alpha=alpha, phases=2 * np.pi * np.arange(size) / size)

    @classmethod
    def haar(cls, n: int, alpha: float, seed=0) -> "Dqc1Model":
        """Eigenphases of a Haar-random unitary on the register."""
        if n > MAX_HAAR_N:
            raise UnsupportedDimensionError(
                f"haar phases need an eigendecomposition of a {2**n} level unitary; "
                f"capped at n={MAX_HAAR_N}"
            )
        from .linalg import random_unitary

        return cls(n=n, alpha=alpha, phases=_cayley_phases(random_unitary(2**n, as_rng(seed))))

    @classmethod
    def from_unitary(cls, alpha: float, u: np.ndarray) -> "Dqc1Model":
        """Eigenphases of a given unitary, from a general eigendecomposition:
        unlike a Haar draw, a caller's unitary may have the eigenvalue -1."""
        u = np.asarray(u, dtype=np.complex128)
        dim = u.shape[0]
        if u.shape != (dim, dim) or np.linalg.norm(u @ u.conj().T - np.eye(dim)) > 1e-9:
            raise InvalidStateError("expected a square unitary matrix")
        n = int(round(np.log2(dim)))
        if 2**n != dim:
            raise InvalidStateError(f"unitary dimension {dim} is not a power of two")
        return cls(n=n, alpha=alpha, phases=np.sort(np.angle(np.linalg.eigvals(u))))


def _cayley_phases(u: np.ndarray) -> np.ndarray:
    """Ascending eigenphases in (-pi, pi) of a unitary u without the
    eigenvalue -1, as 2 arctan of the eigenvalues tan(theta / 2) of the
    Hermitian Cayley transform i (1 + u)^-1 (1 - u).  Overwrites u.

    The solve leaves the transform a Hermitian defect that grows with its
    norm, which grows as an eigenphase nears pi; eigvalsh of one triangle
    would carry that defect into every eigenvalue, so the Hermitian part is
    taken (doubled, then halved exactly in the eigenvalues)."""
    diag = np.diag_indices(u.shape[0])
    x = np.negative(u)
    x[diag] += 1.0
    u[diag] += 1.0
    x = np.linalg.solve(u, x)
    # i (x - x^H) is twice the Hermitian part of i x
    x -= x.conj().T
    x *= 1j
    return 2.0 * np.arctan(0.5 * np.linalg.eigvalsh(x))


def exact_normalized_trace(model: Dqc1Model) -> complex:
    """2**-n times the trace of the controlled unitary."""
    return complex(np.mean(np.exp(1j * model.phases)))


def build_explicit_state(model: Dqc1Model) -> DensityMatrix:
    """Assemble the full control + register density matrix (n <= 6)."""
    if model.n > MAX_EXPLICIT_N:
        raise UnsupportedDimensionError(
            f"explicit state has dimension {2**(model.n + 1)}; capped at n={MAX_EXPLICIT_N}"
        )
    size = 2**model.n
    off = 0.5 * model.alpha * np.exp(1j * model.phases) / size
    big = np.zeros((2, size, 2, size), dtype=np.complex128)
    idx = np.arange(size)
    big[0, idx, 0, idx] = 0.5 / size
    big[1, idx, 1, idx] = 0.5 / size
    big[1, idx, 0, idx] = off
    big[0, idx, 1, idx] = off.conj()
    return DensityMatrix(big.reshape(2 * size, 2 * size), 2, size)


def _quantum_mi(alphas, trace: complex) -> np.ndarray:
    """Quantum mutual information at each polarization in alphas, for a
    register whose normalized trace is `trace`: one binary_entropy call on
    both terms."""
    h = binary_entropy((1 + np.stack([alphas * abs(trace), alphas])) / 2)
    return h[0] - h[1]


def dqc1_quantum_mi(model: Dqc1Model) -> float:
    """Mutual information between control and register, in closed form.

    The register marginal is maximally mixed and the joint spectrum is
    2**n copies of the control spectrum, so only two binary entropies
    survive.
    """
    return float(_quantum_mi(model.alpha, exact_normalized_trace(model)))


def _cos_table(phases: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """cos(theta_s - phi_k), one row per azimuth phi_k, as
    cos phi_k cos theta_s + sin phi_k sin theta_s: one cosine and one sine
    per row and per column, and two products and a sum per cell."""
    table = np.multiply.outer(np.cos(phis), np.cos(phases))
    table += np.multiply.outer(np.sin(phis), np.sin(phases))
    return table


def _record_mi_curve(alpha, beta, phis: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Record information at each azimuth in phis, given the polarization
    alpha, beta = alpha times the normalized trace, and the matching rows of
    `_cos_table`; alpha and beta broadcast against phis."""
    along = beta.real * np.cos(phis) + beta.imag * np.sin(phis)
    first = binary_entropy((1 + along) / 2)
    # 0.5 + (alpha / 2) c equals (1 + alpha c) / 2 bitwise: halving is exact
    p = table * (0.5 * alpha)
    p += 0.5
    return first - binary_entropy(p).mean(axis=-1)


def _max_record_mi(model: Dqc1Model, alphas: np.ndarray, grid: int,
                   trace: complex) -> np.ndarray:
    """Best record information over the azimuth at each polarization in
    alphas, for the eigenphases of `model` (its own alpha is not used) and
    their normalized trace.

    The grid argmax runs one polarization at a time; the polish runs in
    blocks of polarizations (see `_polish`).
    """
    if grid < 1:
        raise ValueError(f"grid needs at least one azimuth point, got grid={grid}")
    alphas = np.asarray(alphas, dtype=float)
    betas = alphas * trace
    phis = 2 * np.pi * np.arange(grid // 2 if grid % 2 == 0 else grid) / grid
    table = _cos_table(model.phases, phis)
    best = np.empty_like(alphas)
    centre = np.empty_like(alphas)
    for i, (alpha, beta) in enumerate(zip(alphas, betas)):
        values = _record_mi_curve(alpha, beta, phis, table)
        k = int(np.argmax(values))
        best[i], centre[i] = values[k], phis[k]
    block = max(1, _POLISH_BLOCK_FLOATS // model.phases.size)
    for lo in range(0, alphas.size, block):
        part = slice(lo, lo + block)
        best[part] = _polish(model.phases, alphas[part], betas[part], centre[part], best[part],
                             2 * np.pi / grid)
    return best


def _polish(phases, alphas, betas, centre, best, step):
    """Golden-section search within one grid step of each centre, keeping
    the best value seen (at least `best`).

    Every bracket shrinks in the same round, one (alphas, 2**n) evaluation
    each; the round count depends on the step alone, so an alpha's result
    does not depend on the batch it is in.
    """

    def curve(phi):
        return _record_mi_curve(alphas[:, None], betas, phi, _cos_table(phases, phi))

    shrink = (np.sqrt(5) - 1) / 2
    rounds = int(np.ceil(np.log(_POLISH_XTOL / (2 * step)) / np.log(shrink)))
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


def dqc1_record_mi(model: Dqc1Model, phi: float) -> float:
    """Record information when the control is read out along the
    equatorial direction phi and the register in its eigenbasis."""
    phis = np.array([phi], dtype=float)
    beta = model.alpha * exact_normalized_trace(model)
    return float(_record_mi_curve(model.alpha, beta, phis, _cos_table(model.phases, phis))[0])


def dqc1_max_record_mi(model: Dqc1Model, grid: int = _GRID) -> float:
    """Best record information over the control azimuth.

    The curve has period pi, so an even grid evaluates only its points
    below pi, which are all of its points modulo pi; an odd grid's points
    do not fold onto each other and are all kept.  The best grid point is
    polished by golden section within one grid step on either side to a
    bracket of 1e-12 rad, and the best value seen is returned, so the
    result is never below the best grid value.  `dqc1_scan` runs the same
    search for all its polarizations in one batch, with bitwise equal
    results.  A grid below one point raises ValueError.
    """
    return float(_max_record_mi(model, np.array([model.alpha]), grid,
                                exact_normalized_trace(model))[0])


def dqc1_nonclassicality(model: Dqc1Model, grid: int = _GRID) -> float:
    """Share of the mutual information no record can capture."""
    return dqc1_quantum_mi(model) - dqc1_max_record_mi(model, grid)


def dqc1_max_record_mi_numeric(
    model: Dqc1Model, cfg: OptimizerConfig | None = None
) -> MiSearchResult:
    """Cross-check of the closed form: run the generic measurement search
    on the explicitly built state.  Register dimension caps this at n = 4."""
    return maximize_mi_projective(build_explicit_state(model), cfg)


@dataclass(frozen=True)
class Dqc1Point:
    alpha: float
    quantum_mi: float
    max_record_mi: float
    nonclassicality: float


def dqc1_scan(
    n: int, alpha_steps: int, phase_model: str = "uniform", seed=0
) -> list[Dqc1Point]:
    """Sweep the polarization from 0 to 1 at fixed phases.

    phase_model picks the eigenphase list: "uniform" for the evenly spaced
    grid, "haar" for a seeded Haar-random unitary (drawn once, shared by
    every point).  Registers above MAX_SCAN_N qubits raise
    UnsupportedDimensionError before any phase array is built.
    """
    if n > MAX_SCAN_N:
        raise UnsupportedDimensionError(
            f"a scan holds {_GRID // 2} x 2**n floats; capped at n={MAX_SCAN_N}, got n={n}")
    if alpha_steps < 1:
        raise ValueError(f"need at least one polarization step, got {alpha_steps}")
    if phase_model == "uniform":
        base = Dqc1Model.uniform(n, 0.0)
    elif phase_model == "haar":
        base = Dqc1Model.haar(n, 0.0, seed)
    else:
        raise ValueError(f"unknown phase model {phase_model!r}")
    alphas = np.linspace(0.0, 1.0, alpha_steps)
    trace = exact_normalized_trace(base)
    return [
        Dqc1Point(alpha=alpha, quantum_mi=smut, max_record_mi=best, nonclassicality=smut - best)
        for alpha, smut, best in zip(alphas.tolist(), _quantum_mi(alphas, trace).tolist(),
                                     _max_record_mi(base, alphas, _GRID, trace).tolist())
    ]


@dataclass(frozen=True)
class TraceEstimate:
    estimate: complex
    shots: int
    standard_error: float


def trace_estimate(model: Dqc1Model, shots: int, seed=0) -> TraceEstimate:
    """Shot-noise simulation of the normalized-trace readout.

    Draws `shots` outcomes for each equatorial observable on the control
    and inverts the polarization factor.  The reported standard error
    combines both quadratures from the observed means.
    """
    if model.alpha == 0.0:
        raise ValueError("a depolarized control carries no trace signal")
    if shots < 1:
        raise ValueError(f"need at least one shot, got {shots}")
    beta = model.alpha * exact_normalized_trace(model)
    rng = as_rng(seed)
    mean_x = 2.0 * rng.binomial(shots, (1 + beta.real) / 2) / shots - 1.0
    mean_y = 2.0 * rng.binomial(shots, (1 + beta.imag) / 2) / shots - 1.0
    err = np.sqrt((1 - mean_x**2) + (1 - mean_y**2)) / (model.alpha * np.sqrt(shots))
    return TraceEstimate(
        estimate=complex(mean_x, mean_y) / model.alpha,
        shots=shots,
        standard_error=float(err),
    )

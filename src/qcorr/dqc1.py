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

All entropies are in bits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, InvalidStateError, as_rng, binary_entropy, xlog2x
from .measures import MiSearchResult, maximize_mi_projective
from .optimize import OptimizerConfig

MAX_EXPLICIT_N = 6
MAX_HAAR_N = 11


def _h2(p: np.ndarray) -> np.ndarray:
    # vectorized binary entropy, safe at the endpoints (+ 0.0 turns -0.0 into 0.0)
    p = np.clip(p, 0.0, 1.0)
    return -xlog2x(p) - xlog2x(1.0 - p) + 0.0


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
            raise InvalidStateError(
                f"haar phases need an eigendecomposition of a {2**n} level unitary; "
                f"capped at n={MAX_HAAR_N}"
            )
        from .linalg import random_unitary

        u = random_unitary(2**n, as_rng(seed))
        return cls(n=n, alpha=alpha, phases=np.sort(np.angle(np.linalg.eigvals(u))))

    @classmethod
    def from_unitary(cls, alpha: float, u: np.ndarray) -> "Dqc1Model":
        u = np.asarray(u, dtype=np.complex128)
        dim = u.shape[0]
        if u.shape != (dim, dim) or np.linalg.norm(u @ u.conj().T - np.eye(dim)) > 1e-9:
            raise InvalidStateError("expected a square unitary matrix")
        n = int(round(np.log2(dim)))
        if 2**n != dim:
            raise InvalidStateError(f"unitary dimension {dim} is not a power of two")
        return cls(n=n, alpha=alpha, phases=np.sort(np.angle(np.linalg.eigvals(u))))


def exact_normalized_trace(model: Dqc1Model) -> complex:
    """2**-n times the trace of the controlled unitary."""
    return complex(np.mean(np.exp(1j * model.phases)))


def build_explicit_state(model: Dqc1Model) -> DensityMatrix:
    """Assemble the full control + register density matrix (n <= 6)."""
    if model.n > MAX_EXPLICIT_N:
        raise InvalidStateError(
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


def dqc1_quantum_mi(model: Dqc1Model) -> float:
    """Mutual information between control and register, in closed form.

    The register marginal is maximally mixed and the joint spectrum is
    2**n copies of the control spectrum, so only two binary entropies
    survive.
    """
    beta = model.alpha * abs(exact_normalized_trace(model))
    return binary_entropy((1 + beta) / 2) - binary_entropy((1 + model.alpha) / 2)


def _record_mi_curve(model: Dqc1Model, phis: np.ndarray) -> np.ndarray:
    beta = model.alpha * exact_normalized_trace(model)
    along = beta.real * np.cos(phis) + beta.imag * np.sin(phis)
    first = _h2((1 + along) / 2)
    delta = model.alpha * np.cos(model.phases[:, None] - phis[None, :])
    return first - _h2((1 + delta) / 2).mean(axis=0)


def dqc1_record_mi(model: Dqc1Model, phi: float) -> float:
    """Record information when the control is read out along the
    equatorial direction phi and the register in its eigenbasis."""
    return float(_record_mi_curve(model, np.array([phi]))[0])


def dqc1_max_record_mi(model: Dqc1Model, grid: int = 720) -> float:
    """Best record information over the control azimuth.

    Scans a phase grid and polishes the best point with a bounded scalar
    search; the result is never below the best grid value.
    """
    from scipy.optimize import minimize_scalar

    phis = 2 * np.pi * np.arange(grid) / grid
    values = _record_mi_curve(model, phis)
    best = int(np.argmax(values))
    step = 2 * np.pi / grid
    res = minimize_scalar(
        lambda phi: -dqc1_record_mi(model, phi),
        bounds=(phis[best] - step, phis[best] + step),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(max(values[best], -res.fun))


def dqc1_nonclassicality(model: Dqc1Model, grid: int = 720) -> float:
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
    every point).
    """
    if phase_model == "uniform":
        phases = Dqc1Model.uniform(n, 0.0).phases
    elif phase_model == "haar":
        phases = Dqc1Model.haar(n, 0.0, seed).phases
    else:
        raise ValueError(f"unknown phase model {phase_model!r}")
    points = []
    for alpha in np.linspace(0.0, 1.0, alpha_steps):
        model = Dqc1Model(n=n, alpha=float(alpha), phases=phases)
        smut = dqc1_quantum_mi(model)
        best = dqc1_max_record_mi(model)
        points.append(
            Dqc1Point(
                alpha=float(alpha),
                quantum_mi=smut,
                max_record_mi=best,
                nonclassicality=smut - best,
            )
        )
    return points


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

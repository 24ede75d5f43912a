"""Core linear algebra for bipartite density matrices.

Conventions: composite indices are row-major, i.e. the joint index of
(a, b) is a * dim_b + b, matching numpy.kron.  All entropies are in bits.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
EIG_CLAMP = 1e-10
PROB_CLAMP = 1e-12


class InvalidStateError(ValueError):
    """Matrix fails a density-matrix invariant (hermiticity, trace or positivity)."""


class DimensionMismatchError(ValueError):
    """Array shapes are inconsistent with the declared subsystem dimensions."""


class UnsupportedDimensionError(ValueError):
    """Dimension outside the range an operation supports."""


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce an int seed (or None) into a numpy Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the row-major composite index convention."""
    return np.kron(np.asarray(a), np.asarray(b))


@dataclass(frozen=True)
class DensityMatrix:
    """Validated bipartite density matrix on C^(dim_a) x C^(dim_b).

    Construction checks hermiticity, unit trace and positivity; instances
    are immutable afterwards (the underlying array is marked read-only).
    """

    mat: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self):
        m = np.array(self.mat, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
        if self.dim_a < 1 or self.dim_b < 1:
            raise DimensionMismatchError("subsystem dimensions must be positive")
        if m.shape[0] != self.dim_a * self.dim_b:
            raise DimensionMismatchError(
                f"matrix of size {m.shape[0]} does not factor as {self.dim_a} x {self.dim_b}"
            )
        if not np.all(np.isfinite(m)):
            raise InvalidStateError("matrix contains non-finite entries")
        herm_defect = np.max(np.abs(m - m.conj().T))
        if herm_defect > HERM_TOL:
            raise InvalidStateError(f"not Hermitian: max |m - m^dag| = {herm_defect:.3e}")
        trace_defect = abs(m.trace() - 1.0)
        if trace_defect > TRACE_TOL:
            raise InvalidStateError(f"trace differs from 1 by {trace_defect:.3e}")
        low = np.linalg.eigvalsh(m)[0]
        if low < -PSD_TOL:
            raise InvalidStateError(f"negative eigenvalue {low:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b


def marginal_mats(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Reduced matrices (Tr_B rho, Tr_A rho), without validation."""
    r = rho.mat.reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)
    return np.einsum("ijkj->ik", r), np.einsum("ijil->jl", r)


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Trace out one side; keep is "A" or "B".  The result is a single-system
    state represented with a trivial second factor."""
    if keep not in ("A", "B"):
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    red = marginal_mats(rho)["AB".index(keep)]
    return DensityMatrix(red, red.shape[0], 1)


def swap_sides(rho: DensityMatrix) -> DensityMatrix:
    """Exchange the A and B factors."""
    r = rho.mat.reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)
    m = r.transpose(1, 0, 3, 2).reshape(rho.dim, rho.dim)
    return DensityMatrix(m, rho.dim_b, rho.dim_a)


def hermitian_eigen(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with a deterministic phase
    convention.

    Eigenvalues come back ascending.  Each eigenvector is rephased so that
    its largest-magnitude component is real and positive, which makes the
    returned basis reproducible across calls.
    """
    m = np.asarray(m, dtype=np.complex128)
    defect = np.max(np.abs(m - m.conj().T))
    if defect > HERM_TOL:
        raise InvalidStateError(f"not Hermitian: max |m - m^dag| = {defect:.3e}")
    vals, vecs = np.linalg.eigh(m)
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        pivot = col[np.argmax(np.abs(col))]
        if abs(pivot) > 0:
            vecs[:, k] = col * (pivot.conjugate() / abs(pivot))
    return vals, vecs


def _clean_probs(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    low = p.min() if p.size else 0.0
    if low < -PROB_CLAMP:
        raise InvalidStateError(f"probability {low:.3e} below clamp threshold")
    return np.clip(p, 0.0, None)


def xlog2x(x) -> np.ndarray:
    """Elementwise x log2 x, taken as 0 wherever x <= 0."""
    x = np.asarray(x, dtype=float)
    pos = x > 0.0
    return np.where(pos, x * np.log2(np.where(pos, x, 1.0)), 0.0)


def shannon_entropy(p: np.ndarray) -> float:
    """Shannon entropy in bits; zero entries are skipped."""
    return float(-np.sum(xlog2x(_clean_probs(np.ravel(p)))) + 0.0)


def binary_entropy(p: float) -> float:
    """Entropy in bits of the distribution {p, 1 - p}."""
    return shannon_entropy(np.array([p, 1.0 - p]))


def _eigvals_of(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    m = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=np.complex128)
    vals = np.linalg.eigvalsh(m)
    if vals[0] < -EIG_CLAMP:
        raise InvalidStateError(f"negative eigenvalue {vals[0]:.3e}")
    if abs(vals.sum() - 1.0) > 1e-9:
        raise InvalidStateError(f"trace {vals.sum():.12f} differs from 1")
    return np.clip(vals, 0.0, None)


def von_neumann_entropy(rho: DensityMatrix | np.ndarray) -> float:
    """Von Neumann entropy in bits.  Eigenvalues in [-1e-10, 0) are clamped
    to zero; anything more negative raises."""
    return shannon_entropy(_eigvals_of(rho))


def purity(rho: DensityMatrix | np.ndarray) -> float:
    """Tr(rho^2), in [1/dim, 1] for valid states."""
    m = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho)
    return float(np.vdot(m, m).real)


def fourier_matrix(d: int) -> np.ndarray:
    """Unitary discrete Fourier transform on d levels."""
    k = np.arange(d)
    return np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)


def random_unitary(dim: int, rng: int | np.random.Generator | None = None) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R factor's diagonal phases are divided out, which is what makes the
    distribution exactly Haar rather than merely unitary.
    """
    rng = as_rng(rng)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases[np.newaxis, :]


def random_density_matrix(
    dim_a: int,
    dim_b: int,
    rank: int | None = None,
    rng: int | np.random.Generator | None = None,
) -> DensityMatrix:
    """Random mixed state: normalized G G^dag with G complex Gaussian of
    shape (dim_a * dim_b, rank)."""
    rng = as_rng(rng)
    n = dim_a * dim_b
    if rank is None:
        rank = n
    if not 1 <= rank <= n:
        raise DimensionMismatchError(f"rank must lie in [1, {n}], got {rank}")
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = g @ g.conj().T
    m /= m.trace().real
    m = 0.5 * (m + m.conj().T)
    return DensityMatrix(m, dim_a, dim_b)


def save_state(rho: DensityMatrix, path) -> None:
    """Write a state as JSON: {"dimA", "dimB", "matrix"} with each complex
    entry as an [re, im] pair, 17 significant digits (round-trip exact)."""
    rows = []
    for row in rho.mat:
        cells = ",".join(f"[{c.real:.17g},{c.imag:.17g}]" for c in row)
        rows.append(f"[{cells}]")
    body = '{"dimA": %d, "dimB": %d, "matrix": [%s]}' % (rho.dim_a, rho.dim_b, ",".join(rows))
    with open(path, "w") as fh:
        fh.write(body + "\n")


def load_state(path) -> DensityMatrix:
    """Read a state written by save_state; validates all invariants."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        dim_a = int(doc["dimA"])
        dim_b = int(doc["dimB"])
        raw = doc["matrix"]
        m = np.array([[complex(re, im) for re, im in row] for row in raw], dtype=np.complex128)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state file: {exc}") from exc
    return DensityMatrix(m, dim_a, dim_b)

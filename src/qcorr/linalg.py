"""Core linear algebra for bipartite density matrices.

Conventions: composite indices are row-major, i.e. the joint index of
(a, b) is a * dim_b + b, matching numpy.kron.  All entropies are in bits.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
EIG_CLAMP = 1e-10
PROB_CLAMP = 1e-12
# floor for the logarithms of every entropy and gradient kernel: the
# smallest normal float
LOG_FLOOR = np.finfo(float).tiny


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


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return a.conj().swapaxes(-1, -2)


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the row-major composite index convention."""
    return np.kron(np.asarray(a), np.asarray(b))


@dataclass(frozen=True)
class DensityMatrix:
    """Validated bipartite density matrix on C^(dim_a) x C^(dim_b).

    Construction checks hermiticity, unit trace and positivity; instances
    are immutable afterwards (the underlying array is marked read-only).
    spectrum keeps the ascending eigvalsh of mat that the positivity check
    takes, read-only, so that von_neumann_entropy of the state reads it
    rather than taking a second eigendecomposition.
    """

    mat: np.ndarray
    dim_a: int
    dim_b: int
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

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
        vals = np.linalg.eigvalsh(m)
        if vals[0] < -PSD_TOL:
            raise InvalidStateError(f"negative eigenvalue {vals[0]:.3e}")
        for name, a in (("mat", m), ("spectrum", vals)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b


# einsum subscripts of Tr_B and Tr_A on rho's (a, b, a', b') view
_KEEP = {"A": "ijkj->ik", "B": "ijil->jl"}


def _reduced(rho: DensityMatrix, keep: str) -> np.ndarray:
    r = rho.mat.reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)
    return np.einsum(_KEEP[keep], r)


def marginal_mats(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Reduced matrices (Tr_B rho, Tr_A rho), without validation."""
    return _reduced(rho, "A"), _reduced(rho, "B")


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Trace out one side; keep is "A" or "B".  The result is a single-system
    state represented with a trivial second factor.  Only the kept side is
    contracted, with the same einsum as marginal_mats, and the reduced
    state's spectrum is that of its own validation, so an entropy taken
    afterwards needs no further eigendecomposition."""
    if keep not in ("A", "B"):
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    red = _reduced(rho, keep)
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


def _clean_probs(p) -> np.ndarray:
    """p as a float array of probabilities: every entry must lie in
    [-PROB_CLAMP, 1 + PROB_CLAMP] and NaN raises.  Round-off outside [0, 1]
    is clipped, and in-range input is returned unclipped.  The sum is not
    checked, because bounds.entropic_sum passes a stack of several bases'
    distributions."""
    p = np.asarray(p, dtype=float)
    if p.size:
        low, high = p.min(), p.max()
        # written so that NaN fails it
        if not (low >= -PROB_CLAMP and high <= 1.0 + PROB_CLAMP):
            raise InvalidStateError(
                f"probabilities span [{low:.3e}, {high:.3e}], outside [0, 1] or NaN")
        if low < 0.0 or high > 1.0:
            p = np.clip(p, 0.0, 1.0)
    return p


def _log2_floored(x: np.ndarray) -> np.ndarray:
    """log2 with zero, negative and NaN entries raised to LOG_FLOOR, as a
    new array.  Such an entry's log only multiplies a derivative that
    vanishes with it, or a zero in a value sum, so it adds exactly nothing."""
    out = np.fmax(x, LOG_FLOOR, out=np.empty(np.shape(x)))
    return np.log2(out, out=out)


def xlog2x(x) -> np.ndarray:
    """Elementwise x log2 x, taken as 0 wherever x <= 0 or x is NaN.

    Computed as max(x, 0) log2(max(x, LOG_FLOOR)) with no masks, so below
    the smallest normal float the logarithm is floored: a subnormal x
    (under 2.3e-308) is off by less than 1e-305.
    """
    x = np.fmax(np.asarray(x, dtype=float), 0.0)
    out = _log2_floored(x)
    out *= x
    # 0 times a negative log is -0.0; adding 0.0 makes it 0.0
    out += 0.0
    return out


def _entropy_bits(p: np.ndarray) -> float:
    """-sum p log2 p of probabilities already checked to lie in [0, 1]."""
    return float(-np.sum(xlog2x(p)) + 0.0)


def shannon_entropy(p: np.ndarray) -> float:
    """Shannon entropy in bits; zero entries are skipped."""
    return _entropy_bits(_clean_probs(np.ravel(p)))


def binary_entropy(p: float | np.ndarray) -> float | np.ndarray:
    """Entropy in bits of the distribution {p, 1 - p}, elementwise over an
    array of p (a float for scalar p).  Round-off outside [0, 1] up to
    PROB_CLAMP is clipped; anything further out, or NaN, raises."""
    p = _clean_probs(p)
    # xlog2x without its clamp, which p in [0, 1] does not need
    q = 1.0 - p
    h = _log2_floored(p)
    h *= p
    lq = _log2_floored(q)
    lq *= q
    # -(a + b) equals -a - b bitwise; adding 0.0 turns -0.0 into 0.0
    h += lq
    np.negative(h, out=h)
    h += 0.0
    return float(h) if h.ndim == 0 else h


def _eigvals_of(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """The ascending spectrum as probabilities, every entry in [0, 1]: a
    DensityMatrix's kept spectrum, or eigvalsh of a raw matrix (which reads
    its lower triangle).  A spectrum below -EIG_CLAMP, off one in sum by
    more than 1e-9, or NaN raises."""
    if isinstance(rho, DensityMatrix):
        vals = rho.spectrum
    else:
        vals = np.linalg.eigvalsh(np.asarray(rho, dtype=np.complex128))
    if vals[0] < -EIG_CLAMP:
        raise InvalidStateError(f"negative eigenvalue {vals[0]:.3e}")
    total = vals.sum()
    # written so that NaN fails it: eigvalsh of a matrix with a NaN or an
    # infinite entry gives NaN eigenvalues
    if not abs(total - 1.0) <= 1e-9:
        raise InvalidStateError(f"trace {total:.12f} differs from 1")
    # a trace off by up to TRACE_TOL can put the top eigenvalue above one
    if vals[0] < 0.0 or vals[-1] > 1.0:
        vals = np.clip(vals, 0.0, None)
        vals /= vals.sum()
    return vals


def von_neumann_entropy(rho: DensityMatrix | np.ndarray) -> float:
    """Von Neumann entropy in bits.  A DensityMatrix's entropy reads the
    spectrum kept by its validation; a raw matrix takes eigvalsh of its lower
    triangle.  Eigenvalues in [-1e-10, 0) are clamped to zero, and the
    spectrum is renormalized to sum to one whenever it leaves [0, 1];
    anything more negative, or a NaN spectrum, raises."""
    return _entropy_bits(_eigvals_of(rho))


def purity(rho: DensityMatrix | np.ndarray) -> float:
    """Tr(rho^2), in [1/dim, 1] for valid states."""
    m = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho)
    return float(np.vdot(m, m).real)


def fourier_matrix(d: int) -> np.ndarray:
    """Unitary discrete Fourier transform on d levels."""
    k = np.arange(d)
    return np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)


def _qr_with_phases(z: np.ndarray):
    """Q factor of a matrix, or a stack of them, with the phases ph of R's
    diagonal folded in: Q diag(ph), the Q of the factorization whose R has a
    positive real diagonal.  A zero diagonal entry gets phase 1."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(diag)
    ph = np.divide(diag, mag, out=np.ones_like(diag), where=mag > 0)
    return q * ph[..., np.newaxis, :]


def random_unitary(dim: int, rng: int | np.random.Generator | None = None) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R factor's diagonal phases are divided out, which is what makes the
    distribution exactly Haar rather than merely unitary.
    """
    rng = as_rng(rng)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    return _qr_with_phases(z)


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
        dim_a, dim_b = doc["dimA"], doc["dimB"]
        # JSON integers only: int() would truncate 2.7 and take true or "2"
        if type(dim_a) is not int or type(dim_b) is not int:
            raise ValueError(f"dimA and dimB must be integers, got {dim_a!r} and {dim_b!r}")
        raw = doc["matrix"]
        m = np.array([[complex(re, im) for re, im in row] for row in raw], dtype=np.complex128)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state file: {exc}") from exc
    return DensityMatrix(m, dim_a, dim_b)

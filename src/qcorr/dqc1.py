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
private kernel maximizes the curve for a whole array of polarizations.

The best grid azimuth comes from the curve's Fourier series.  The curve
is h((1 + Re(beta e^{-i phi}))/2) - mean_s g(theta_s - phi), with beta the
polarization times the normalized trace and g(x) = h((1 + alpha cos x)/2)
= sum_m G_m cos(m x) over even m, and G_m has a closed form that decays as
rho**m, rho = alpha / (1 + sqrt(1 - alpha**2)) (see
`_kernel_coefficients`).  So the mean is sum_m G_m Re(t_m e^{-i m phi}),
where t_m is the normalized trace of U**m, the quantity a one-clean-qubit
circuit estimates: the moments are taken once per scan, and each
polarization's curve on the grid is one FFT, whatever 2**n is.  The
moments are the means of the powers of w = exp(2i theta_s), each power
the one before it times w, so a scan takes one exponential per level, not
one per level and harmonic.  As only even m enter, the series is summed in
psi = 2 phi, with coefficients j = m / 2, by an FFT whose length is the
least multiple of the grid's point count in psi (grid / 2 for an even
grid, grid for an odd one) above 256: 360 points at grid 720, half the
length a series in phi needs.  Each polarization's series stops at the
least even m, at most 512, where a geometric bound on the dropped
harmonics (`_tail_bound`) is at most 1e-14 (m = 20 at alpha = 0.5,
m = 158 at alpha = 0.99), and the moments go only as far as the scan's
highest such m.  That m, the polarization's cutoff, is found once per scan
and coarse-to-fine: the bound decreases in m, so it is taken at every 32nd
harmonic first and then only at the 16 even harmonics of the first
bracket where it holds.  A polarization takes this spectral route only
where some m up to 512 qualifies; the rest, alpha = 1 and alpha above
about 0.9992, where rho -> 1 and G_m falls only as m**-3, evaluate the
curve directly on the grid.  Either way, one exact evaluation at the
chosen grid point seeds the polish, so a row is the direct search's
whenever both pick the same point.

The best grid points are polished, in blocks of bounded size, by a
safeguarded Newton iteration on the curve's exact slope and curvature
(rtsafe: a Newton step where it stays inside the bracket and shrinks fast
enough, a bisection otherwise), which needs a few evaluations per
polarization where a fixed-round search needed 51.  A polarization stops
on its own step, and later rounds evaluate only the polarizations still
moving.  The polish keeps the best value it has seen, so no maximum is
below the exact value at its grid point, and no row's arithmetic depends
on the other rows: a scan row equals the single-polarization call
bitwise.  One kernel, `_record_mi_jet`, gives the curve's value, slope and
curvature together, so the seed evaluation at the grid point is the
polish's first round and each later round is one call.  The register's
cos theta and sin theta are taken once per scan, and the tables
cos(theta - phi) and sin(theta - phi) are built from them by angle
addition, cos phi cos theta + sin phi sin theta and cos phi sin theta -
sin phi cos theta, so a table costs products, not a cosine per cell.

A Haar draw's eigenphases come from its Cayley transform: for a unitary u
with no eigenvalue -1, i (1 - u) (1 + u)^-1 is Hermitian with eigenvalues
tan(theta / 2), so one linear solve and one Hermitian eigvalsh give the
phases as 2 arctan, several times faster than a general eigvals of u.  The
draw is u = Q D for the QR factorization Z = Q R of a complex Ginibre
matrix and D = diag(r_kk / |r_kk|) (Mezzadri 2007), so u = Z B^-1 with
B = D^-1 R, and (1 - u) (1 + u)^-1 = (B - Z) (B + Z)^-1: the transform
needs R alone, and neither Q nor u is formed.  A Haar draw has the
eigenvalue -1 with probability zero.  A caller's unitary may well have it
(where 1 + u is singular), so `Dqc1Model.from_unitary` keeps the general
eigvals.

All entropies are in bits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityMatrix,
    InvalidStateError,
    UnsupportedDimensionError,
    _diagonal_phases,
    _haar_ginibre,
    as_rng,
    binary_entropy,
)
from .measures import MiSearchResult, maximize_mi_projective
from .optimize import OptimizerConfig, _require_integer

MAX_EXPLICIT_N = 6
MAX_HAAR_N = 11
# a scan holds the 2**n phases, their cos and sin, and arrays of at most
# _POLISH_BLOCK_FLOATS floats: with 101 steps n = 16 peaks at 73 MB in
# 1.0-1.1 s, n = 17 at 75 MB in 2.0-2.2 s and n = 18 at 78 MB in 4.1-4.5 s
# (2-core machine, one BLAS thread), where the alpha = 1 row takes 2.6-2.9 s,
# the polish 1.3-1.6 s and the moments 0.1 s; the time doubles with each qubit
MAX_SCAN_N = 18
# azimuth grid points over 2 pi, and the step of the polish below which a
# polarization stops (rad)
_GRID = 720
_POLISH_XTOL = 1e-12
# polarizations are polished in blocks of at most this many (block x 2**n)
# floats per array, so the polish's memory does not grow with the scan length;
# the spectral curves and a direct curve are blocked the same way, and the
# moments' powers of exp(2i theta) fill one block of this many floats in turn
_POLISH_BLOCK_FLOATS = 2**20
# the highest harmonic of the spectral argmax, and the bound on the harmonics
# it drops (bits) below which a polarization takes it; `_cutoff` searches the
# harmonics up to _TERMS in brackets of _BRACKET
_TERMS = 512
_TAIL_TOL = 1e-14
_BRACKET = 32


@dataclass(frozen=True)
class Dqc1Model:
    """Control polarization and work-register eigenphases.

    The register has 2**n levels; `phases` lists the eigenphases of the
    controlled unitary in radians, one per level.  n must be an integer
    (Python or numpy, not bool), or ValueError is raised before 2**n is
    built.
    """

    n: int
    alpha: float
    phases: np.ndarray

    def __post_init__(self):
        _require_integer("n", self.n)
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
        _require_integer("n", n)
        size = 2**n
        return cls(n=n, alpha=alpha, phases=2 * np.pi * np.arange(size) / size)

    @classmethod
    def haar(cls, n: int, alpha: float, seed=0) -> "Dqc1Model":
        """Eigenphases of a Haar-random unitary on the register: those of
        `random_unitary(2**n, seed)`, which the draw takes from the
        generator exactly as that call does, but found from the R factor of
        its Ginibre matrix Z alone (see `_haar_phases`)."""
        _require_integer("n", n)
        if n > MAX_HAAR_N:
            raise UnsupportedDimensionError(
                f"haar phases need an eigendecomposition of a {2**n} level unitary; "
                f"capped at n={MAX_HAAR_N}"
            )
        return cls(n=n, alpha=alpha, phases=_haar_phases(2**n, as_rng(seed)))

    @classmethod
    def from_unitary(cls, alpha: float, u: np.ndarray) -> "Dqc1Model":
        """Eigenphases of a given unitary, from a general eigendecomposition:
        unlike a Haar draw, a caller's unitary may have the eigenvalue -1."""
        u = np.asarray(u, dtype=np.complex128)
        dim = u.shape[0] if u.ndim else 0
        if not dim or u.shape != (dim, dim) or np.linalg.norm(u @ u.conj().T - np.eye(dim)) > 1e-9:
            raise InvalidStateError("expected a square unitary matrix")
        n = int(round(np.log2(dim)))
        if 2**n != dim:
            raise InvalidStateError(f"unitary dimension {dim} is not a power of two")
        return cls(n=n, alpha=alpha, phases=np.sort(np.angle(np.linalg.eigvals(u))))


def _haar_phases(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Ascending eigenphases in (-pi, pi) of the Haar unitary u = Q D that
    `random_unitary` draws from Z = Q R, as 2 arctan of the eigenvalues
    tan(theta / 2) of the Hermitian Cayley transform i (1 - u) (1 + u)^-1.
    With B = D^-1 R, u = Z B^-1, so the transform is i (B - Z) (B + Z)^-1:
    one QR that keeps R alone and one right division, with no Q and no u.
    B is scaled, and B + Z summed, in place, and Z is dropped before the
    division.

    The division leaves the transform a Hermitian defect that grows with its
    norm, which grows as an eigenphase nears pi; eigvalsh of one triangle
    would carry that defect into every eigenvalue, so the Hermitian part is
    taken (doubled, then halved exactly in the eigenvalues)."""
    z = _haar_ginibre(dim, rng)
    b = np.linalg.qr(z, mode="r")
    # each row k of R times conj(r_kk / |r_kk|)
    b *= _diagonal_phases(b).conj()[:, np.newaxis]
    x = b - z
    b += z
    del z
    # x (B + Z) = B - Z, solved as (B + Z)^T x^T = (B - Z)^T
    x = np.linalg.solve(b.T, x.T).T
    del b
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


def _cos_table(trig, phis: np.ndarray) -> np.ndarray:
    """cos(theta_s - phi_k), one row per azimuth phi_k, as
    cos phi_k cos theta_s + sin phi_k sin theta_s, from the register's
    trig = (cos theta_s, sin theta_s): one cosine and one sine per row,
    and two products and a sum per cell."""
    table = np.multiply.outer(np.cos(phis), trig[0])
    table += np.multiply.outer(np.sin(phis), trig[1])
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


def _kernel_coefficients(alphas, m) -> np.ndarray:
    """Coefficients G_m of the cosine series h((1 + alpha cos x) / 2) =
    sum_m G_m cos(m x), one row per polarization in alphas and one column
    per harmonic in m (integers >= 0).

    With c = sqrt(1 - alpha**2) and rho = alpha / (1 + c), the series of
    log(1 +- alpha cos x) give
        ln 2 G_0 = ln(4 / (1 + c)) - (1 - c),
        ln 2 G_m = -2 rho**m (1 + m c) / (m (m**2 - 1))   for even m >= 2,
    and G_m = 0 for odd m, as h((1 + y) / 2) is even in y.  The even form
    is 2 rho**m / m - alpha (rho**(m-1) / (m-1) + rho**(m+1) / (m+1))
    with its cancellation worked out.
    """
    alphas = np.asarray(alphas, dtype=float)[..., None]
    m = np.asarray(m)
    c = np.sqrt(1 - alphas**2)
    # 2 stands in for m = 0 and 1, whose coefficients are set below
    k = np.maximum(m, 2)
    g = -2 * (alphas / (1 + c))**k * (1 + k * c) / (k * (k * k - 1.0))
    g = np.where(m % 2 == 1, 0.0, g)
    g = np.where(m == 0, np.log(4 / (1 + c)) - (1 - c), g)
    return g / np.log(2)


def _tail_bound(alphas, terms=_TERMS) -> np.ndarray:
    """Bound on sum_{m > terms} |G_m| at each polarization in alphas and
    each even harmonic in terms (shape alphas.shape + terms.shape):
    |G_m| rho**-m decreases in m, so the dropped harmonics sum to at most
    |G_{terms+2}| / (1 - rho**2), with 1 - rho**2 = 2c / (1 + c).  As
    |t_m| <= 1, it bounds the error of the truncated series of
    mean_s g(theta_s - phi) at every phi.  Infinite at alpha = 1, where
    rho = 1."""
    alphas = np.asarray(alphas, dtype=float)
    terms = np.asarray(terms)
    return _tail_cells(alphas, terms.reshape(-1)).reshape(alphas.shape + terms.shape)


def _tail_cells(alphas, terms) -> np.ndarray:
    """`_tail_bound` cell by cell: the last axis of terms holds the even
    harmonics, either one row shared by every polarization in alphas or
    one row per polarization (shape alphas.shape + (k,))."""
    c = np.sqrt(1 - alphas**2)[..., None]
    dropped = -_kernel_coefficients(alphas, terms + 2)
    with np.errstate(divide="ignore"):
        return dropped * (1 + c) / (2 * c)


def _cutoff(alphas) -> np.ndarray:
    """Least even harmonic m <= _TERMS at each polarization in alphas
    whose `_tail_bound` is at most _TAIL_TOL (0 where none is), found
    coarse-to-fine: the bound decreases in m, so the first of the coarse
    points 0, _BRACKET, ..., _TERMS where it qualifies ends a bracket
    that holds the answer, and the bracket's _BRACKET / 2 even harmonics
    are searched next.  Where no coarse point qualifies, or where m = 0
    does, the bracket is clipped to 0."""
    alphas = np.asarray(alphas, dtype=float)
    coarse = np.arange(0, _TERMS + 1, _BRACKET)
    top = coarse[np.argmax(_tail_cells(alphas, coarse) <= _TAIL_TOL, axis=-1)]
    fine = np.maximum(top[..., None] + np.arange(2 - _BRACKET, 1, 2), 0)
    first = np.argmax(_tail_cells(alphas, fine) <= _TAIL_TOL, axis=-1)
    return np.take_along_axis(fine, first[..., None], axis=-1)[..., 0]


def _moments(phases: np.ndarray, terms: int = _TERMS) -> np.ndarray:
    """Normalized traces t_m = 2**-n sum_s exp(i m theta_s) of U**m, for
    the even harmonics m = 2j up to terms, as the means of the powers w**j
    of w = exp(2i theta_s): one exponential per level, and each power the
    one before it times w.  The powers fill a block of at most
    _POLISH_BLOCK_FLOATS floats row by row, the first row of a block from
    the last row of the one before, so each t_m is the mean of its own row
    and takes the same j products whatever block it is in or however far
    the moments go."""
    count = terms // 2
    rows = max(1, min(count, _POLISH_BLOCK_FLOATS // (2 * phases.size)))
    w = np.exp(2j * phases)
    moments = np.empty(count + 1, dtype=np.complex128)
    moments[0] = 1.0
    block = np.empty((rows, phases.size), dtype=np.complex128)
    # w**0, read by the first row through block[-1]
    block[-1] = 1.0
    for lo in range(1, count + 1, rows):
        part = block[:count + 1 - lo]
        for i in range(part.shape[0]):
            np.multiply(block[i - 1], w, out=block[i])
        moments[lo:lo + part.shape[0]] = part.mean(axis=-1)
    return moments


def _fold(grid: int) -> int:
    """Points of the grid in psi = 2 phi: the azimuths 2 pi k / grid double
    onto the grid / 2 points 2 pi k / (grid / 2) of an even grid, and onto
    all grid points of an odd one."""
    return grid // 2 if grid % 2 == 0 else grid


def _series_length(grid: int) -> int:
    """The least multiple of `_fold(grid)` above _TERMS / 2: an FFT of
    this length evaluates every coefficient j = m / 2 up to _TERMS / 2 on
    the grid in psi = 2 phi without aliasing."""
    fold = _fold(grid)
    return -(-(_TERMS // 2 + 1) // fold) * fold


def _spectral_argmax(moments, alphas, betas, cutoffs, phis: np.ndarray, grid: int) -> np.ndarray:
    """Index in phis, the first points 2 pi k / grid of the grid, of the
    largest record information at each polarization, with the kernel's mean
    summed from its series over the even harmonics up to the polarization's
    `_cutoff`, given in cutoffs, whose `_moments` t_m are among those given.

    Only even harmonics m = 2j enter, so the mean is
    sum_j G_2j Re(t_2j e^{-i j psi}) in psi = 2 phi: one FFT per row, of
    `_series_length(grid)` points, whose output l = (2k mod grid) G / grid
    times length / G, with G = `_fold(grid)`, is the azimuth 2 pi k / grid.
    No row's arithmetic depends on the others or on how many moments are
    given."""
    from numpy import fft  # numpy loads it lazily; importing qcorr does not

    m = 2 * np.arange(moments.size)
    length, fold = _series_length(grid), _fold(grid)
    series = np.zeros((alphas.size, length), dtype=np.complex128)
    series[:, :m.size] = np.where(m <= cutoffs[:, None],
                                  _kernel_coefficients(alphas, m) * moments, 0.0)
    cells = 2 * np.arange(phis.size) % grid * fold // grid * (length // fold)
    mean = fft.fft(series).real[:, cells]
    along = np.multiply.outer(betas.real, np.cos(phis))
    along += np.multiply.outer(betas.imag, np.sin(phis))
    return np.argmax(binary_entropy((1 + along) / 2) - mean, axis=-1)


def _direct_argmax(trig, alpha, beta, phis: np.ndarray) -> int:
    """Index in phis of the largest record information at one polarization,
    evaluated directly, in blocks of azimuths of at most
    _POLISH_BLOCK_FLOATS table entries."""
    rows = max(1, _POLISH_BLOCK_FLOATS // trig[0].size)
    return int(np.argmax(np.concatenate([
        _record_mi_curve(alpha, beta, phis[lo:lo + rows], _cos_table(trig, phis[lo:lo + rows]))
        for lo in range(0, phis.size, rows)])))


def _max_record_mi(model: Dqc1Model, alphas: np.ndarray, grid: int,
                   trace: complex) -> np.ndarray:
    """Best record information over the azimuth at each polarization in
    alphas, for the eigenphases of `model` (its own alpha is not used) and
    their normalized trace.

    Each polarization's best grid point comes from `_spectral_argmax` where
    `_tail_bound` is at most _TAIL_TOL, and from `_direct_argmax`
    otherwise, and `_polish` starts there.  Every polarization's `_cutoff`
    is found once, here: it ends the polarization's own series, and the
    highest spectral one ends the moments.  The register's cos theta_s and
    sin theta_s are taken once, here, too.  Polarizations run in blocks of
    at most _POLISH_BLOCK_FLOATS floats per array, each row as wide as the
    wider of a register row (2**n floats) and a spectral row (the complex
    `_series_length` points in psi = 2 phi: 2 x 360 floats at grid 720),
    so that no array grows with the scan length.
    """
    _require_integer("grid", grid)
    if grid < 1:
        raise ValueError(f"grid needs at least one azimuth point, got grid={grid}")
    alphas = np.asarray(alphas, dtype=float)
    betas = alphas * trace
    phis = 2 * np.pi * np.arange(_fold(grid)) / grid
    trig = (np.cos(model.phases), np.sin(model.phases))
    spectral = _tail_bound(alphas) <= _TAIL_TOL
    cut = _cutoff(alphas)
    # the moments go only as far as the highest cutoff among the scan's rows
    moments = _moments(model.phases, cut[spectral].max()) if spectral.any() else None
    best = np.empty_like(alphas)
    width = max(model.phases.size, 2 * _series_length(grid))
    block = max(1, _POLISH_BLOCK_FLOATS // width)
    for lo in range(0, alphas.size, block):
        part = slice(lo, lo + block)
        a, b, c, s = alphas[part], betas[part], cut[part], spectral[part]
        cell = np.empty(a.shape, dtype=np.intp)
        if s.any():
            cell[s] = _spectral_argmax(moments, a[s], b[s], c[s], phis, grid)
        for i in np.flatnonzero(~s):
            cell[i] = _direct_argmax(trig, a[i], b[i], phis)
        best[part] = _polish(trig, a, b, phis[cell], 2 * np.pi / grid)
    return best


def _record_mi_jet(alphas, betas, phis, trig):
    """Value and first and second derivatives in phi of `_record_mi_curve`,
    one polarization and azimuth per row, from one `_cos_table`.  The
    derivatives follow from h'(p) = log2((1 - p) / p) and
    h''(p) = -1 / (ln 2 p (1 - p)): the control's offset Re(beta e^{-i phi})
    moves as Im(beta e^{-i phi}), and the register's
    p_s = (1 + alpha cos(theta_s - phi)) / 2 as (alpha / 2) sin(theta_s - phi).
    Where some p is 0 or 1 the slope is infinite or NaN, and numpy warns;
    the caller silences that."""
    half = 0.5 * alphas[:, None]
    shift = _cos_table(trig, phis)
    value = _record_mi_curve(alphas[:, None], betas, phis, shift)
    cos_phi, sin_phi = np.cos(phis), np.sin(phis)
    along = betas.real * cos_phi + betas.imag * sin_phi
    across = betas.imag * cos_phi - betas.real * sin_phi
    lift = np.log2(1 - along) - np.log2(1 + along)
    slope = lift * across / 2
    curv = -across**2 / (np.log(2) * (1 + along) * (1 - along)) - lift * along / 2
    # the register, in place over a few (rows, 2**n) arrays: the table
    # becomes shift = p_s - 1/2, and move = dp_s/dphi is built by angle
    # addition in a freed buffer; the register term enters the curve with a
    # minus sign
    shift *= half
    up, down = 0.5 + shift, 0.5 - shift
    lift = np.log2(down)
    down *= up
    down *= np.log(2)
    lift -= np.log2(up, out=up)
    move = np.multiply.outer(cos_phi, trig[1], out=up)
    move -= np.multiply.outer(sin_phi, trig[0])
    move *= half
    # d/dphi h(p_s) = h'(p_s) move, d2/dphi2 h(p_s) = h''(p_s) move**2 - h'(p_s) shift
    shift *= lift
    lift *= move
    slope -= lift.mean(axis=-1)
    move *= move
    move /= down
    move += shift
    curv += move.mean(axis=-1)
    return value, slope, curv


def _polish(trig, alphas, betas, centre, step):
    """Safeguarded Newton iteration on the slope of the record-information
    curve within one grid step of each centre (rtsafe, Numerical Recipes
    sec. 9.4), keeping the best value seen, the first being the value at
    the centre.  Each round makes one `_record_mi_jet` call on the rows
    still moving.

    The bracket is [centre, centre + step] where the slope at the centre is
    >= 0, [centre - step, centre] otherwise, and shrinks on the slope's
    sign.  A Newton step is taken where the curvature is negative, the step
    stays inside the bracket and it is at most half the step before last;
    otherwise the bracket is bisected.  A row stops once its step falls
    below _POLISH_XTOL, once |slope| times the bracket width is at most
    1e-16 (flat to round-off), or where the slope is not finite.  Stopped
    rows freeze and later rounds evaluate only the live ones, so a row's
    arithmetic does not depend on the batch it is in.
    """
    rows = np.arange(alphas.size)
    phi = np.asarray(centre, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        best, grad, curv = _record_mi_jet(alphas, betas, phi, trig)
        rising = grad >= 0
        # rise and fall are the bracket's ends where the slope is >= 0 and < 0
        rise = np.where(rising, phi, phi - step)
        fall = np.where(rising, phi + step, phi)
        last = before = np.full(best.shape, float(step))
        while True:
            width = np.abs(fall - rise)
            newton = phi - grad / curv
            take = ((curv < 0) & (newton > np.minimum(rise, fall)) & (newton < np.maximum(rise, fall))
                    & (np.abs(2 * grad) <= np.abs(before * curv)))
            target = np.where(take, newton, (rise + fall) / 2)
            before, last = last, np.abs(target - phi)
            live = np.isfinite(grad) & (np.abs(grad) * width > 1e-16) & (last >= _POLISH_XTOL)
            if not live.any():
                return best
            rows, phi, rise, fall, before, last = (
                x[live] for x in (rows, target, rise, fall, before, last))
            value, grad, curv = _record_mi_jet(alphas[rows], betas[rows], phi, trig)
            best[rows] = np.maximum(best[rows], value)
            rising = grad >= 0
            rise = np.where(rising, phi, rise)
            fall = np.where(rising, fall, phi)


def dqc1_record_mi(model: Dqc1Model, phi: float) -> float:
    """Record information when the control is read out along the
    equatorial direction phi and the register in its eigenbasis."""
    phis = np.array([phi], dtype=float)
    beta = model.alpha * exact_normalized_trace(model)
    trig = (np.cos(model.phases), np.sin(model.phases))
    return float(_record_mi_curve(model.alpha, beta, phis, _cos_table(trig, phis))[0])


def dqc1_max_record_mi(model: Dqc1Model, grid: int = _GRID) -> float:
    """Best record information over the control azimuth.

    The curve has period pi, so an even grid evaluates only its points
    below pi, which are all of its points modulo pi; an odd grid's points
    do not fold onto each other and are all kept.  The best grid point,
    found from the curve's Fourier series to within 2e-14 bits where that
    series converges fast and by direct evaluation elsewhere (see the
    module docstring), is polished by a safeguarded Newton iteration on the
    curve's slope within one grid step on either side, until its step
    falls below 1e-12 rad, and the best value seen is returned, so the
    result is never below the exact value at that grid point.  `dqc1_scan`
    runs the same search for all its polarizations in one batch, with
    bitwise equal results.  A grid below one point, or one that is not an
    integer (Python or numpy, not bool), raises ValueError.
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
    UnsupportedDimensionError before any phase array is built, and an n or
    alpha_steps that is not an integer (Python or numpy, not bool) raises
    ValueError.
    """
    _require_integer("n", n)
    _require_integer("alpha_steps", alpha_steps)
    if n > MAX_SCAN_N:
        raise UnsupportedDimensionError(
            f"a scan's time doubles with each register qubit (n=18: 4.5 s and 78 MB at 101 steps); "
            f"capped at n={MAX_SCAN_N}, got n={n}")
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
    combines both quadratures from the observed means.  shots must be an
    integer (Python or numpy, not bool).
    """
    _require_integer("shots", shots)
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

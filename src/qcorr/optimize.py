"""Parameter charts for measurement bases and POVMs, their reverse-mode
derivatives, and a seeded multi-start L-BFGS driver.

A projective basis on d levels is a point of the flag manifold U(d) modulo
per-column phases, which has dimension d*(d-1).  The chart used here is a
product of two-level rotations, one (theta, phi) pair per index pair, in a
fixed elimination order.  Givens QR inverts the chart exactly, so any
target basis can be used as a start point.

Gradients with respect to a complex matrix Z follow one convention: for a
real function f, grad = df/dRe(Z) + i df/dIm(Z), so that
df = Re sum(conj(grad) * dZ).  The *_vjp functions return the chart's
output together with a function that maps such a gradient on the output to
the gradient on the real parameters.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from .linalg import as_rng


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings shared by all measurement optimizers.

    restarts counts the random start points; structured seeds (identity,
    Fourier, marginal eigenbases, caller-supplied) are always included on
    top.  Each start runs L-BFGS-B: max_iters caps its iterations
    (scipy's maxiter) and tolerance is its gradient test (gtol, on the
    largest gradient entry); the relative-decrease test keeps scipy's
    default (ftol about 2.2e-9).  method selects nothing: it
    accepts only its historical default, so that existing configurations
    still construct.  Results are deterministic functions of (problem,
    seed, restarts) and monotone in restarts.
    """

    restarts: int = 32
    max_iters: int = 400
    tolerance: float = 1e-7
    seed: int = 0
    method: str = "simplex"

    def __post_init__(self):
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.method != "simplex":
            raise ValueError(f"unsupported method {self.method!r}")


def pair_order(d: int) -> list[tuple[int, int]]:
    """Index pairs in Givens elimination order (column by column)."""
    return [(c, r) for c in range(d - 1) for r in range(c + 1, d)]


def n_basis_params(d: int) -> int:
    return d * (d - 1)


@lru_cache(maxsize=None)
def _chart_index(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch, row and column indices of the four block entries (i, i),
    (j, j), (i, j), (j, i) of every pair's rotation, each (K, 4)."""
    pairs = np.array(pair_order(d), dtype=np.intp).reshape(-1, 2)
    i, j = pairs[:, :1], pairs[:, 1:]
    index = (
        np.arange(len(pairs))[:, np.newaxis],
        np.hstack([i, j, i, j]),
        np.hstack([i, j, j, i]),
    )
    for a in index:
        a.flags.writeable = False
    return index


def _block_entries(c: np.ndarray, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Entries (i, i), (j, j), (i, j), (j, i) of the blocks
    [[c, -s e], [s conj(e), c]], one row per pair."""
    out = np.empty((len(c), 4), dtype=np.complex128)
    out[:, 0] = out[:, 1] = c
    se = s * e
    out[:, 2] = -se
    out[:, 3] = se.conj()
    return out


def _givens_prefixes(c: np.ndarray, s: np.ndarray, e: np.ndarray, d: int) -> np.ndarray:
    """Prefix products P_k = G_1 ... G_k of the chart's two-level rotations,
    stacked as a (K+1, d, d) array: P_0 is the identity, P_K the basis.

    G_k is the identity except on pair k = (i, j), where its block is
    [[c, -s e], [s conj(e), c]] with c, s = cos, sin(theta), e = exp(i phi).
    """
    out = np.empty((len(c) + 1, d, d), dtype=np.complex128)
    out[:] = np.eye(d)
    out[1:][_chart_index(d)] = _block_entries(c, s, e)
    for k in range(2, len(out)):
        out[k] = out[k - 1] @ out[k]
    return out


def _chart_trig(params: np.ndarray):
    theta, phi = params[0::2], params[1::2]
    return np.cos(theta), np.sin(theta), np.exp(1j * phi)


def unitary_from_params(params: np.ndarray, d: int) -> np.ndarray:
    """Build a basis unitary from d*(d-1) angles (theta, phi per pair)."""
    return _givens_prefixes(*_chart_trig(np.asarray(params, dtype=float)), d)[-1]


def unitary_from_params_vjp(params: np.ndarray, d: int):
    """unitary_from_params plus its reverse-mode derivative.

    For U = G_1 ... G_K, the derivative in pair k's angles only sees the
    block entries of P_{k-1}^H grad U^H P_k, since the suffix
    G_{k+1} ... G_K equals P_k^H U.  All K products come out of one batched
    matmul on the stored prefixes, and fancy indexing reads off the blocks.
    """
    c, s, e = _chart_trig(np.asarray(params, dtype=float))
    prefixes = _givens_prefixes(c, s, e, d)
    u = prefixes[-1]

    def vjp(grad_u: np.ndarray) -> np.ndarray:
        m = prefixes[:-1].conj().transpose(0, 2, 1) @ (grad_u @ u.conj().T) @ prefixes[1:]
        b = m[_chart_index(d)].conj()
        # Re sum(b * d entries): d/dtheta entries are (-s, -s, -c e, c conj(e)),
        # d/dphi entries (0, 0, -i s e, -i s conj(e))
        eb_ij, eb_ji = e * b[:, 2], e.conj() * b[:, 3]
        out = np.empty(2 * len(c))
        out[0::2] = c * (eb_ji - eb_ij).real - s * (b[:, 0] + b[:, 1]).real
        out[1::2] = s * (eb_ij + eb_ji).imag
        return out

    return u, vjp


def params_from_unitary(v: np.ndarray) -> np.ndarray:
    """Invert the chart by Givens QR.  The reconstruction equals v up to
    per-column phases, i.e. it is the same measurement basis."""
    w = np.array(v, dtype=np.complex128)
    d = w.shape[0]
    params = np.zeros(n_basis_params(d))
    k = 0
    for c, r in pair_order(d):
        a = w[c, c]
        b = w[r, c]
        if abs(b) < 1e-300:
            theta, phi = 0.0, 0.0
        elif abs(a) < 1e-300:
            theta, phi = np.pi / 2, float(-np.angle(b))
        else:
            theta = float(np.arctan2(abs(b), abs(a)))
            phi = float(np.angle(a) - np.angle(b))
        params[k] = theta
        params[k + 1] = phi
        k += 2
        ct, st = np.cos(theta), np.sin(theta)
        row_c = w[c, :].copy()
        row_r = w[r, :].copy()
        w[c, :] = ct * row_c + st * np.exp(1j * phi) * row_r
        w[r, :] = -st * np.exp(-1j * phi) * row_c + ct * row_r
    return params


def n_isometry_params(n_out: int, d: int) -> int:
    return 2 * n_out * d


def _isometry_qr(params: np.ndarray, n_out: int, d: int):
    z = params[: n_out * d] + 1j * params[n_out * d :]
    m = z.reshape(n_out, d)
    q, r = np.linalg.qr(m)
    ph = np.diag(r).copy()
    mag = np.abs(ph)
    ph = np.where(mag > 0, ph / np.where(mag > 0, mag, 1.0), 1.0)
    return q * ph[np.newaxis, :], r, ph


def isometry_from_params(params: np.ndarray, n_out: int, d: int) -> np.ndarray:
    """Map 2*n_out*d reals to an n_out x d matrix with orthonormal columns.

    QR of the unconstrained complex matrix, with the R diagonal's phases
    folded back in so that an already-isometric input is reproduced exactly.
    """
    return _isometry_qr(params, n_out, d)[0]


def isometry_from_params_vjp(params: np.ndarray, n_out: int, d: int):
    """isometry_from_params plus its reverse-mode derivative.

    The output W and R' = diag(conj(phase)) R are the QR factors of the
    parameter matrix A with a positive real R' diagonal.  With B = W^H grad_W
    and C = B - B^H, the pullback is
    grad_A = (grad_W - W (B - tril(C, -1) - diag(C) / 2)) R'^{-H}.
    """
    w, r, ph = _isometry_qr(params, n_out, d)

    def vjp(grad_w: np.ndarray) -> np.ndarray:
        b = w.conj().T @ grad_w
        c = b - b.conj().T
        x = grad_w - w @ (b - np.tril(c, -1) - 0.5 * np.diag(np.diag(c)))
        grad_a = np.linalg.solve(ph.conj()[:, np.newaxis] * r, x.conj().T).conj().T
        return np.concatenate([grad_a.real.ravel(), grad_a.imag.ravel()])

    return w, vjp


def params_from_isometry(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.complex128)
    return np.concatenate([w.real.ravel(), w.imag.ravel()])


@dataclass(frozen=True)
class SearchResult:
    value: float
    params: np.ndarray
    converged: bool
    n_starts: int


def multistart_minimize(objective, start_points, n_random: int, n_params: int,
                        random_start, cfg: OptimizerConfig, jac: bool = False) -> SearchResult:
    """L-BFGS-B from every structured start plus n_random seeded random
    starts; returns the best point found.

    With jac=True the objective returns (value, gradient), as in
    scipy.optimize.minimize; otherwise it returns the value and scipy takes
    the gradient by finite differences.  random_start(rng) must produce a
    parameter vector.  The random stream for restart k is derived from
    (cfg.seed, k), so results do not depend on evaluation order and are
    monotone in the number of restarts.
    """
    best_f = np.inf
    best_x = None
    best_ok = False
    starts = [np.asarray(s, dtype=float) for s in start_points]
    for k in range(n_random):
        rng = as_rng([cfg.seed, k])
        starts.append(np.asarray(random_start(rng), dtype=float))
    for x0 in starts:
        res = minimize(
            objective,
            x0,
            method="L-BFGS-B",
            jac=jac,
            options={"maxiter": cfg.max_iters, "gtol": cfg.tolerance},
        )
        if res.fun < best_f:
            best_f = float(res.fun)
            best_x = np.asarray(res.x, dtype=float)
            best_ok = bool(res.success)
    if best_x is None:
        best_x = np.zeros(n_params)
        value = objective(best_x)
        best_f = float(value[0] if jac else value)
        best_ok = True
    return SearchResult(value=best_f, params=best_x, converged=best_ok, n_starts=len(starts))

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
the gradient on the real parameters.  Charts and pullbacks broadcast over
leading axes, so params of shape (S, n) give S stacked outputs.

multistart_minimize runs every start of a search in lockstep.  The starts
are stacked into one (S, n) array and each round evaluates the objective
once, on the rows still running.  Each start is its own L-BFGS: the
compact representation with the last HISTORY curvature pairs, a
backtracking Armijo line search of at most MAX_TRIALS trials, and stopping
tests on its own row alone, with scipy's status codes:

* 0: the largest gradient entry is at most cfg.tolerance, or an accepted
  step lowered the value by a relative FTOL or less;
* 1: cfg.max_iters steps were accepted;
* 2: the line search failed.

Since no start's path depends on another's, results are deterministic and
monotone in the number of restarts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import _qr_with_phases, adjoint, as_rng

# Lockstep L-BFGS: curvature pairs kept per start, the relative-decrease
# stopping test (scipy L-BFGS-B's default factr * machine epsilon), the
# Armijo sufficient-decrease constant and the line-search trial cap.
# The masks lay out the compact representation's (HISTORY, HISTORY) blocks.
HISTORY = 10
FTOL = 2.2e-9
ARMIJO = 1e-4
MAX_TRIALS = 20
EPS = np.finfo(float).eps
_SLOTS = np.arange(HISTORY)
_UPPER = np.triu(np.ones((HISTORY, HISTORY)))
_EYE = np.eye(HISTORY)


def __getattr__(name):
    # perfbench/tracing.py still wraps qcorr.optimize.minimize, which nothing
    # here calls; scipy is imported on that first access only, so importing
    # qcorr loads numpy alone.  Goes away with ROADMAP item 1's tracer rewrite.
    if name == "minimize":
        from scipy.optimize import minimize

        globals()["minimize"] = minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings shared by all measurement optimizers.

    restarts counts the random start points; structured seeds (identity,
    Fourier, marginal eigenbases, caller-supplied) are always included on
    top.  Each start runs L-BFGS: max_iters caps its accepted steps (status
    1) and tolerance is its gradient test (status 0 once the largest
    gradient entry is at most tolerance).  A start also stops with status 0
    when a step lowers the value by a relative FTOL = 2.2e-9 or less, a
    fixed test (about scipy's default ftol) rather than an option.  Results
    are deterministic functions of (problem, seed, restarts) and monotone in
    restarts.
    """

    restarts: int = 32
    max_iters: int = 400
    tolerance: float = 1e-7
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


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
    [[c, -s e], [s conj(e), c]], stacked on a last axis of length 4."""
    out = np.empty(c.shape + (4,), dtype=np.complex128)
    out[..., 0] = out[..., 1] = c
    se = s * e
    out[..., 2] = -se
    out[..., 3] = se.conj()
    return out


def _givens_prefixes(c: np.ndarray, s: np.ndarray, e: np.ndarray, d: int) -> np.ndarray:
    """Prefix products P_k = G_1 ... G_k of the chart's two-level rotations,
    stacked as a (..., K+1, d, d) array: P_0 is the identity, P_K the basis.

    G_k is the identity except on pair k = (i, j), where its block is
    [[c, -s e], [s conj(e), c]] with c, s = cos, sin(theta), e = exp(i phi).
    """
    batch, n_pairs = c.shape[:-1], c.shape[-1]
    out = np.empty((math.prod(batch), n_pairs + 1, d, d), dtype=np.complex128)
    out[...] = np.eye(d)
    entries = _block_entries(c, s, e).reshape(len(out), n_pairs, 4)
    out[:, 1:][(slice(None), *_chart_index(d))] = entries
    for k in range(2, n_pairs + 1):
        out[:, k] = out[:, k - 1] @ out[:, k]
    return out.reshape(batch + out.shape[1:])


def _chart_trig(params: np.ndarray):
    theta, phi = params[..., 0::2], params[..., 1::2]
    return np.cos(theta), np.sin(theta), np.exp(1j * phi)


def unitary_from_params(params: np.ndarray, d: int) -> np.ndarray:
    """Build a basis unitary from d*(d-1) angles (theta, phi per pair)."""
    return _givens_prefixes(*_chart_trig(np.asarray(params, dtype=float)), d)[..., -1, :, :]


def unitary_from_params_vjp(params: np.ndarray, d: int):
    """unitary_from_params plus its reverse-mode derivative.

    For U = G_1 ... G_K, the derivative in pair k's angles only sees the
    block entries of P_{k-1}^H grad U^H P_k, since the suffix
    G_{k+1} ... G_K equals P_k^H U.  All K products come out of one batched
    matmul on the stored prefixes, and fancy indexing reads off the blocks.
    """
    c, s, e = _chart_trig(np.asarray(params, dtype=float))
    prefixes = _givens_prefixes(c, s, e, d)
    u = prefixes[..., -1, :, :]

    def vjp(grad_u: np.ndarray) -> np.ndarray:
        m = (adjoint(prefixes[..., :-1, :, :]) @ (grad_u @ adjoint(u))[..., np.newaxis, :, :]
             @ prefixes[..., 1:, :, :])
        b = m[(Ellipsis, *_chart_index(d))].conj()
        # Re sum(b * d entries): d/dtheta entries are (-s, -s, -c e, c conj(e)),
        # d/dphi entries (0, 0, -i s e, -i s conj(e))
        eb_ij, eb_ji = e * b[..., 2], e.conj() * b[..., 3]
        out = np.empty(c.shape[:-1] + (2 * c.shape[-1],))
        out[..., 0::2] = c * (eb_ji - eb_ij).real - s * (b[..., 0] + b[..., 1]).real
        out[..., 1::2] = s * (eb_ij + eb_ji).imag
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
    z = params[..., : n_out * d] + 1j * params[..., n_out * d :]
    return _qr_with_phases(z.reshape(z.shape[:-1] + (n_out, d)))


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
        b = adjoint(w) @ grad_w
        c = b - adjoint(b)
        x = grad_w - w @ (b - np.tril(c, -1) - 0.5 * c * np.eye(d))
        grad_a = adjoint(np.linalg.solve(ph.conj()[..., np.newaxis] * r, adjoint(x)))
        flat = grad_a.reshape(grad_a.shape[:-2] + (-1,))
        return np.concatenate([flat.real, flat.imag], axis=-1)

    return w, vjp


def params_from_isometry(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.complex128)
    return np.concatenate([w.real.ravel(), w.imag.ravel()])


@dataclass(frozen=True)
class SearchResult:
    """Best point of a multi-start search, with per-start records in start
    order: nfev counts objective evaluations, nit accepted steps, and status
    is scipy's code (0 converged, 1 stopped at max_iters, 2 line search
    failed).  converged is the best start's status == 0."""

    value: float
    params: np.ndarray
    converged: bool
    n_starts: int
    nfev: tuple[int, ...]
    nit: tuple[int, ...]
    status: tuple[int, ...]

    @property
    def n_converged(self) -> int:
        """Number of starts that stopped with status 0."""
        return self.status.count(0)


def _lbfgs_direction(g: np.ndarray, s: np.ndarray, y: np.ndarray, n_pairs: np.ndarray):
    """-H g for each row's L-BFGS inverse Hessian H, from the compact
    representation of Byrd, Nocedal & Schnabel (Math. Prog. 63, 1994):

        H = gamma I + [S  gamma Y] [[R^-T (D + gamma Y^T Y) R^-1, -R^-T],
                                    [-R^-1,                       0]] [S  gamma Y]^T

    with R the upper triangle of S^T Y, D its diagonal and gamma = s.y / y.y
    of the newest pair.  s and y are (rows, HISTORY, n) and hold each row's
    n_pairs pairs in the last slots, oldest first, with zeros before them;
    an identity on the unused part of R's diagonal makes those slots add
    nothing.  A row without pairs gets -g.
    """
    yt, gc = y.swapaxes(1, 2), g[:, :, np.newaxis]
    sy, yy = s @ yt, y @ yt
    unused = _SLOTS < HISTORY - n_pairs[:, np.newaxis]
    r = sy * _UPPER + unused[:, np.newaxis, :] * _EYE
    gamma = np.divide(sy[:, -1, -1], yy[:, -1, -1], out=np.ones(len(g)), where=n_pairs > 0)
    gamma = gamma[:, np.newaxis, np.newaxis]
    u = np.linalg.solve(r, s @ gc)
    v = np.diagonal(sy, axis1=1, axis2=2)[:, :, np.newaxis] * u + gamma * (yy @ u - y @ gc)
    w = np.linalg.solve(r.swapaxes(1, 2), v)
    return -(gamma * gc + s.swapaxes(1, 2) @ w - gamma * (yt @ u))[:, :, 0]


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("kn,kn->k", a, b)


def _lockstep_lbfgs(objective, x0: np.ndarray, cfg: OptimizerConfig):
    """Run L-BFGS from every row of x0 at once.

    Each round evaluates the objective once, on the stacked trial points of
    the rows still running; it returns values (S,) and gradients (S, n).
    Every row has its own curvature history (a pair is kept only when
    s.y > eps |y|^2), its own backtracking Armijo line search (at most
    MAX_TRIALS trials, each cut to the minimizer of a quadratic fit, kept
    within [0.1, 0.5] of the last trial) and its own stopping test, so a
    row's path does not depend on the other rows.  Returns the final points,
    values, and per-row evaluation counts, accepted steps and statuses.
    """
    x = np.array(x0, dtype=float)
    n_rows, n = x.shape
    x_out, f_out = np.empty_like(x), np.empty(n_rows)
    nfev, nit, status = (np.empty(n_rows, dtype=int) for _ in range(3))

    # state of the rows still running; retired rows are copied out and dropped
    live = np.arange(n_rows)
    f, g = objective(x)
    f, g = np.array(f, dtype=float), np.array(g, dtype=float)
    s_hist = np.zeros((n_rows, HISTORY, n))
    y_hist = np.zeros((n_rows, HISTORY, n))
    n_pairs = np.zeros(n_rows, dtype=int)
    evals = np.ones(n_rows, dtype=int)
    steps = np.zeros(n_rows, dtype=int)
    trials = np.zeros(n_rows, dtype=int)
    p = -g
    slope = -_row_dot(g, g)
    # the first step of a fresh history has length 1, as in L-BFGS-B
    t = np.minimum(1.0, 1.0 / np.sqrt(np.maximum(-slope, EPS)))
    stop = np.where(np.abs(g).max(axis=1, initial=0.0) <= cfg.tolerance, 0, -1)

    while True:
        done = stop >= 0
        if done.any():
            rows = live[done]
            x_out[rows], f_out[rows], status[rows] = x[done], f[done], stop[done]
            nfev[rows], nit[rows] = evals[done], steps[done]
            keep = ~done
            live, x, f, g, p, slope, t, stop = (
                a[keep] for a in (live, x, f, g, p, slope, t, stop))
            s_hist, y_hist, n_pairs, evals, steps, trials = (
                a[keep] for a in (s_hist, y_hist, n_pairs, evals, steps, trials))
            if not live.size:
                return x_out, f_out, nfev, nit, status

        xt = x + t[:, np.newaxis] * p
        ft, gt = objective(xt)
        evals += 1
        ok = ft <= f + ARMIJO * t * slope

        sk, yk = xt - x, gt - g
        pair = ok & (_row_dot(sk, yk) > EPS * _row_dot(yk, yk))
        if pair.any():
            s_hist[pair] = np.concatenate([s_hist[pair, 1:], sk[pair, np.newaxis]], axis=1)
            y_hist[pair] = np.concatenate([y_hist[pair, 1:], yk[pair, np.newaxis]], axis=1)
            n_pairs = np.minimum(n_pairs + pair, HISTORY)
        decrease = (f - ft) / np.maximum(np.maximum(np.abs(f), np.abs(ft)), 1.0)
        # a rejected trial shrinks the step to the minimizer of the quadratic
        # through f, the slope and the trial value
        curvature = ft - f - slope * t
        fit = np.divide(-slope * t * t, 2.0 * curvature, out=0.1 * t, where=curvature > 0)
        shrunk = np.clip(fit, 0.1 * t, 0.5 * t)

        x = np.where(ok[:, np.newaxis], xt, x)
        f = np.where(ok, ft, f)
        g = np.where(ok[:, np.newaxis], gt, g)
        steps += ok
        trials = np.where(ok, 0, trials + 1)
        small = (decrease <= FTOL) | (np.abs(g).max(axis=1, initial=0.0) <= cfg.tolerance)
        stop = np.where(ok, np.where(small, 0, np.where(steps >= cfg.max_iters, 1, -1)),
                        np.where(trials >= MAX_TRIALS, 2, -1))

        d = _lbfgs_direction(g, s_hist, y_hist, n_pairs)
        dg = _row_dot(d, g)
        # round-off can cost a long history its descent property: restart it
        lost = ~(dg < 0)
        if lost.any():
            s_hist[lost] = y_hist[lost] = 0.0
            n_pairs = np.where(lost, 0, n_pairs)
            d[lost] = -g[lost]
            dg[lost] = -_row_dot(g[lost], g[lost])
        fresh = np.minimum(1.0, 1.0 / np.sqrt(np.maximum(-dg, EPS)))
        p = np.where(ok[:, np.newaxis], d, p)
        slope = np.where(ok, dg, slope)
        t = np.where(ok, np.where(n_pairs > 0, 1.0, fresh), shrunk)


def multistart_minimize(objective, start_points, n_random: int, random_start,
                        cfg: OptimizerConfig) -> SearchResult:
    """L-BFGS from every structured start plus n_random seeded random
    starts, all in lockstep (see the module docstring); returns the best
    start, NaN values ranking last, with every start's record.

    The objective is batched: given stacked points (S, n) it returns values
    (S,) and gradients (S, n).  random_start(rng) must produce a parameter
    vector.  The random stream for restart k is derived from (cfg.seed, k),
    so results do not depend on evaluation order and are monotone in the
    number of restarts.
    """
    starts = [np.asarray(s, dtype=float) for s in start_points]
    for k in range(n_random):
        rng = as_rng([cfg.seed, k])
        starts.append(np.asarray(random_start(rng), dtype=float))
    if not starts:
        raise ValueError("multistart_minimize needs at least one start")
    x, f, nfev, nit, status = _lockstep_lbfgs(objective, np.stack(starts), cfg)
    best = int(np.argmin(np.where(np.isnan(f), np.inf, f)))
    return SearchResult(value=float(f[best]), params=x[best], converged=bool(status[best] == 0),
                        n_starts=len(starts), nfev=tuple(nfev.tolist()), nit=tuple(nit.tolist()),
                        status=tuple(status.tolist()))

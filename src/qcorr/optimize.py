"""Searches on the manifold of rank-one measurements: the polar retraction,
the tangent projection, a seeded multi-start L-BFGS minimizer, and the one
search over local rank-one measurements that every optimized quantity in
qcorr runs on it (_rank_one_search).

A rank-one measurement with n_out outcomes on d levels is the n_out x d
matrix W whose rows are its measurement rows <k_s|; completeness is
W^H W = 1, so the measurements are the isometries (the complex Stiefel
manifold).  A projective basis with columns U is the case n_out = d, with
W = U^H.  The searches run on W itself.  Their 2*n_out*d real parameters
hold the real and imaginary parts of a complex matrix Z, and
isometry_from_params maps them to the polar factor of Z, the nearest
isometry, so a point on the manifold comes back unchanged, to round-off,
and any measurement can be a start.

Gradients with respect to a complex matrix follow one convention: for a
real function f, grad = df/dRe + i df/dIm, so that
df = Re sum(conj(grad) * dZ), and params_from_isometry flattens such a
gradient to the real parameters' gradient.  At an isometry W the gradient
of f after the polar map is the rows gradient G projected onto the tangent
space, G - W sym(W^H G) with sym(B) = (B + B^H) / 2 (Edelman, Arias &
Smith, SIAM J. Matrix Anal. Appl. 20, 303, 1998): the polar map's
differential at a point of the manifold is that projection (Absil &
Malick, SIAM J. Optim. 22, 135, 2012); isometry_from_params_vjp returns
the polar factor with that pullback.  Both broadcast over leading axes, so
params of shape (S, n) give S stacked outputs.

multistart_minimize runs every start of a search in lockstep.  The starts
are stacked into one (S, n) array and each round evaluates the objective
once, on the rows still running.  The objective returns values, gradients
and the points it evaluated them at: a search on the manifold returns its
trial points retracted, with the tangent gradients there, and an accepted
step moves a start to its retracted point, so every start stays on the
manifold with no vector transport; an unconstrained objective returns its
input.  One lockstep can also carry the starts of several problems with
the same parameter count (_multistart): the objective then receives, with
the points, the index of the problem each one belongs to, so that one
kernel call can evaluate every problem's rows on its own data.  Each start
is its own L-BFGS: the compact representation with the last HISTORY
curvature pairs, a backtracking Armijo line search of at most MAX_TRIALS
trials, and stopping tests on its own row alone, with scipy's status codes:

* 0: the largest entry of the (tangent) gradient is at most
  cfg.tolerance, or an accepted step lowered the value by a relative FTOL
  or less;
* 1: cfg.max_iters steps were accepted;
* 2: the line search failed.

With its pairs a start keeps R^-1 (R the upper triangle of S^T Y), the
diagonal of S^T Y, Y^T Y and gamma, and updates them by bordering only
when it gains a pair, so a round takes no solve and no product over the
whole history.

Since no start's path depends on another's, results are deterministic and
monotone in the number of restarts, and a problem's result is the same,
bit for bit, whether it runs alone or in one lockstep with other problems:
every batched operation here (matmul, the SVD of the polar map) works on
each row's own matrices.

_rank_one_search owns how a measurement search becomes parameters.  It
takes a rows kernel (the value and the rows gradients of one row matrix
per free side, see _rows_objective), the (n_out, d) shapes of the free
sides and each problem's seed rows.  A point holds each side's 2*n_out*d
parameters, real parts first, sides concatenated in order; each side
goes through its own polar map; a random start is one Gaussian draw of
every parameter; and the winner's rows per side are the polar factor of
its parameters, which the caller wraps as it needs.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .linalg import adjoint, as_rng

# Lockstep L-BFGS: curvature pairs kept per start, the relative-decrease
# stopping test (scipy L-BFGS-B's default factr * machine epsilon), the
# Armijo sufficient-decrease constant and the line-search trial cap.
HISTORY = 10
FTOL = 2.2e-9
ARMIJO = 1e-4
MAX_TRIALS = 20
EPS = np.finfo(float).eps
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
    1) and tolerance is its gradient test (status 0 once the largest entry
    of the gradient, the tangent gradient in a measurement search, is at
    most tolerance), positive and finite: an infinite tolerance would stop
    every start at its first evaluation.  A start also stops with status 0
    when a step lowers the value by a relative FTOL = 2.2e-9 or less, a
    fixed test (about scipy's default ftol) rather than an option.  Results
    are deterministic functions of (problem, seed, restarts) and monotone in
    restarts.  restarts, max_iters and seed must be integers (Python or
    numpy, not bool), and tolerance a real number (an integer or a float,
    Python or numpy, not bool).
    """

    restarts: int = 32
    max_iters: int = 400
    tolerance: float = 1e-7
    seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        tol = self.tolerance
        if isinstance(tol, bool) or not isinstance(tol, (int, float, np.integer, np.floating)):
            raise ValueError(f"tolerance must be a real number, got {tol!r}")
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 < self.tolerance < np.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def n_isometry_params(n_out: int, d: int) -> int:
    return 2 * n_out * d


def isometry_from_params(params: np.ndarray, n_out: int, d: int) -> np.ndarray:
    """Map 2*n_out*d reals to an n_out x d matrix with orthonormal columns:
    the polar factor U V^H of the complex matrix Z = U S V^H they hold
    (real parts first), the nearest such matrix to Z.  A matrix that already
    has orthonormal columns comes back unchanged, to round-off.  Stacked
    params (..., n) give stacked outputs.

    It is taken from an SVD, not as Z (Z^H Z)^(-1/2) from eigh of Z^H Z,
    which is cheaper but loses orthonormality as the square of Z's
    condition number and fails on a singular Z.
    """
    z = params[..., : n_out * d] + 1j * params[..., n_out * d :]
    u, _, vh = np.linalg.svd(z.reshape(z.shape[:-1] + (n_out, d)), full_matrices=False)
    return u @ vh


def isometry_from_params_vjp(params: np.ndarray, n_out: int, d: int):
    """The rows w = isometry_from_params(params, n_out, d) and the pullback
    of a rows gradient G at w: the parameters of its tangent part
    G - w sym(w^H G).  At params on the manifold that is the gradient of
    f(isometry_from_params(.)), since the polar map's differential there is
    this projection.  Stacks broadcast."""
    w = isometry_from_params(params, n_out, d)

    def vjp(grad_w: np.ndarray) -> np.ndarray:
        b = adjoint(w) @ grad_w
        return params_from_isometry(grad_w - w @ (0.5 * (b + adjoint(b))))

    return w, vjp


def params_from_isometry(w: np.ndarray) -> np.ndarray:
    """The 2*n_out*d reals of an n_out x d matrix, real parts first; a stack
    (..., n_out, d) gives (..., 2*n_out*d)."""
    w = np.asarray(w, dtype=np.complex128)
    flat = w.reshape(w.shape[:-2] + (-1,))
    return np.concatenate([flat.real, flat.imag], axis=-1)


def unitary_from_params(params: np.ndarray, d: int) -> np.ndarray:
    """The basis unitary U = W^H of the polar map's n_out = d case."""
    return adjoint(isometry_from_params(params, d, d))


def params_from_unitary(v: np.ndarray) -> np.ndarray:
    """Parameters of the basis with columns v: those of the rows W = v^H,
    which the polar map reproduces."""
    return params_from_isometry(adjoint(np.asarray(v)))


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


def _lbfgs_direction(g: np.ndarray, hist: np.ndarray, rinv: np.ndarray, d_sy: np.ndarray,
                     yy: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """-H g for each row's L-BFGS inverse Hessian H, from the compact
    representation of Byrd, Nocedal & Schnabel (Math. Prog. 63, 1994):

        H = gamma I + [S  gamma Y] [[R^-T (D + gamma Y^T Y) R^-1, -R^-T],
                                    [-R^-1,                       0]] [S  gamma Y]^T

    with R the upper triangle of S^T Y, D its diagonal and gamma = s.y / y.y
    of the newest pair.  hist is (rows, 2 HISTORY, n), each row's S^T over
    its Y^T, and rinv, d_sy, yy and gamma are each row's R^-1, the diagonal
    of D, Y^T Y and gamma as _push_pairs keeps them, so that a direction takes
    products alone: u = R^-1 S^T g, w = R^-T (D u + gamma (Y^T Y u - Y^T g))
    and -H g = -(gamma g + S w - gamma Y u).  A row without pairs (a zero
    history, R^-1 = I, D = Y^T Y = 0 and gamma = 1) gets -g.
    """
    gam = gamma[:, np.newaxis, np.newaxis]
    sg_yg = hist @ g[:, :, np.newaxis]
    u = rinv @ sg_yg[:, :HISTORY]
    w = rinv.swapaxes(1, 2) @ (d_sy[:, :, np.newaxis] * u + gam * (yy @ u - sg_yg[:, HISTORY:]))
    return -(gamma[:, np.newaxis] * g
             + (hist.swapaxes(1, 2) @ np.concatenate([w, -gam * u], axis=1))[:, :, 0])


def _empty_memory(rows: int, n: int):
    """The L-BFGS memory of rows without pairs, as _lbfgs_direction reads it:
    a zero history, R^-1 = I, D = 0, Y^T Y = 0 and gamma = 1."""
    return (np.zeros((rows, 2 * HISTORY, n)), np.tile(_EYE, (rows, 1, 1)),
            np.zeros((rows, HISTORY)), np.zeros((rows, HISTORY, HISTORY)), np.ones(rows))


def _push_pairs(hist: np.ndarray, rinv: np.ndarray, d_sy: np.ndarray, yy: np.ndarray,
                gamma: np.ndarray, s: np.ndarray, y: np.ndarray, sy: np.ndarray,
                y2: np.ndarray) -> None:
    """Append the curvature pair (s, y) of each row to its memory (see
    _lbfgs_direction), in place, with sy = s.y > 0 and y2 = y.y, updating
    the kept factors by bordering.  The history keeps its pairs in the last
    slots, oldest first, with zeros before them, so a pair shifts every slot
    down by one and the oldest falls off.  R is upper triangular, so the
    trailing block of R^-1 is the inverse of R's trailing block: dropping
    the oldest pair is a shift, as it is for D and Y^T Y.  The new column of
    R^-1 is -R'^-1 r / sy, with R'^-1 that shifted block and r the products
    s_i.y of the kept pairs, and Y^T Y gains the products y_i.y and y2.
    """
    c = hist @ y[:, :, np.newaxis]  # s_i.y over y_i.y, before the shift
    hist[:, :-1] = hist[:, 1:]
    hist[:, HISTORY - 1], hist[:, -1] = s, y
    rinv[:, :-1, :-1] = rinv[:, 1:, 1:]
    rinv[:, -1, :-1] = 0.0
    rinv[:, :-1, -1:] = rinv[:, :-1, :-1] @ c[:, 1:HISTORY] / -sy[:, np.newaxis, np.newaxis]
    rinv[:, -1, -1] = 1.0 / sy
    yy[:, :-1, :-1] = yy[:, 1:, 1:]
    yy[:, -1, :-1] = yy[:, :-1, -1] = c[:, HISTORY + 1:, 0]
    yy[:, -1, -1] = y2
    d_sy[:, :-1] = d_sy[:, 1:]
    d_sy[:, -1] = sy
    gamma[:] = sy / y2


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("kn,kn->k", a, b)


def _lockstep_lbfgs(objective, x0: np.ndarray, cfg: OptimizerConfig):
    """Run L-BFGS from every row of x0 at once.

    Each round makes one call objective(x, live), on the stacked trial
    points x of the rows still running, live holding their indices into
    x0 (so that the rows of several problems can share a call, each
    picking its own data); it returns values (S,), gradients (S, n) and
    the points (S, n) it evaluated them at, which an accepted step keeps
    (a retraction returns the trial points mapped onto its manifold, an
    unconstrained objective its input).
    Every row has its own curvature history (a pair is kept only when
    s.y > eps |y|^2), its own backtracking Armijo line search (at most
    MAX_TRIALS trials, each cut to the minimizer of a quadratic fit, kept
    within [0.1, 0.5] of the last trial) and its own stopping test, so a
    row's path does not depend on the other rows.  With its history a row
    keeps R^-1, D, Y^T Y and gamma of the compact representation, updated
    only when it gains a pair (_push_pairs), so a round makes no solve and
    no product over the whole history.  Every batched product here works
    on each row's own matrices, so that holds bit for bit, and rows of
    several problems can share one lockstep with results == separate runs,
    provided the objective too treats each row alone.
    Returns the final points, values, and per-row evaluation counts,
    accepted steps and statuses.
    """
    x = np.array(x0, dtype=float)
    n_rows, n = x.shape
    x_out, f_out = np.empty_like(x), np.empty(n_rows)
    nfev, nit, status = (np.empty(n_rows, dtype=int) for _ in range(3))

    # state of the rows still running; retired rows are copied out and dropped
    live = np.arange(n_rows)
    f, g, x = (np.array(a, dtype=float) for a in objective(x, live))
    hist, rinv, d_sy, yy, gamma = _empty_memory(n_rows, n)
    # every row starts at once and is evaluated once a round while it runs
    evals = 1
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
            nfev[rows], nit[rows] = evals, steps[done]
            keep = (~done).nonzero()[0]
            if not keep.size:
                return x_out, f_out, nfev, nit, status
            live, x, f, g, p, slope, t, stop, steps, trials = (
                a.take(keep, axis=0) for a in (live, x, f, g, p, slope, t, stop, steps, trials))
            hist, rinv, d_sy, yy, gamma = (
                a.take(keep, axis=0) for a in (hist, rinv, d_sy, yy, gamma))

        xt = x + t[:, np.newaxis] * p
        ft, gt, xr = objective(xt, live)
        evals += 1
        ok = ft <= f + ARMIJO * t * slope

        sk, yk = xt - x, gt - g
        sy, y2 = _row_dot(sk, yk), _row_dot(yk, yk)
        pair = ok & (sy > EPS * y2)
        if pair.any():
            # when every row gains a pair the slice gives views, which the
            # push updates in place; otherwise it updates copies, written back
            new = slice(None) if pair.all() else pair.nonzero()[0]
            kept = hist[new], rinv[new], d_sy[new], yy[new], gamma[new]
            _push_pairs(*kept, sk[new], yk[new], sy[new], y2[new])
            hist[new], rinv[new], d_sy[new], yy[new], gamma[new] = kept
        decrease = (f - ft) / np.maximum(np.maximum(np.abs(f), np.abs(ft)), 1.0)
        # a rejected trial shrinks the step to the minimizer of the quadratic
        # through f, the slope and the trial value
        curvature = ft - f - slope * t
        fit = np.divide(-slope * t * t, 2.0 * curvature, out=0.1 * t, where=curvature > 0)
        shrunk = np.minimum(np.maximum(fit, 0.1 * t), 0.5 * t)

        ok_rows = ok[:, np.newaxis]
        x = np.where(ok_rows, xr, x)
        f = np.where(ok, ft, f)
        g = np.where(ok_rows, gt, g)
        steps += ok
        trials = np.where(ok, 0, trials + 1)
        small = (decrease <= FTOL) | (np.abs(g).max(axis=1, initial=0.0) <= cfg.tolerance)
        stop = np.where(ok, np.where(small, 0, np.where(steps >= cfg.max_iters, 1, -1)),
                        np.where(trials >= MAX_TRIALS, 2, -1))

        d = _lbfgs_direction(g, hist, rinv, d_sy, yy, gamma)
        dg = _row_dot(d, g)
        # round-off can cost a long history its descent property: restart it
        lost = ~(dg < 0)
        if lost.any():
            hist[lost], rinv[lost], d_sy[lost], yy[lost], gamma[lost] = _empty_memory(
                np.count_nonzero(lost), n)
            d[lost] = -g[lost]
            dg[lost] = -_row_dot(g[lost], g[lost])
        fresh = np.minimum(1.0, 1.0 / np.sqrt(np.maximum(-dg, EPS)))
        p = np.where(ok_rows, d, p)
        slope = np.where(ok, dg, slope)
        # a row has pairs exactly when its newest slot holds s.y > 0
        t = np.where(ok, np.where(d_sy[:, -1] > 0, 1.0, fresh), shrunk)


def _starts(start_points, n_random: int, random_start, cfg: OptimizerConfig) -> list:
    """The distinct structured starts, then n_random seeded random ones; the
    random stream for restart k is derived from (cfg.seed, k)."""
    starts = []
    for s in start_points:
        s = np.asarray(s, dtype=float)
        # a repeated structured start would only rerun the same path
        if not any(np.array_equal(s, seen) for seen in starts):
            starts.append(s)
    for k in range(n_random):
        starts.append(np.asarray(random_start(as_rng([cfg.seed, k])), dtype=float))
    if not starts:
        raise ValueError("multistart_minimize needs at least one start")
    return starts


def _multistart(objective, problems, cfg: OptimizerConfig) -> list[SearchResult]:
    """multistart_minimize for several problems of one parameter count in a
    single lockstep: problems holds (start_points, n_random, random_start)
    per problem, and objective(x, owner) gets with the stacked points the
    index of the problem each belongs to.  Returns one SearchResult per
    problem, == the one a lockstep of that problem alone gives, since no
    row's path depends on another's."""
    per_problem = [_starts(*problem, cfg) for problem in problems]
    owner = np.repeat(np.arange(len(problems)), [len(starts) for starts in per_problem])
    x, f, nfev, nit, status = _lockstep_lbfgs(
        lambda points, live: objective(points, owner[live]),
        np.stack([s for starts in per_problem for s in starts]), cfg)
    results = []
    for k in range(len(problems)):
        mine = owner == k
        xk, fk, nfevk, nitk, statusk = x[mine], f[mine], nfev[mine], nit[mine], status[mine]
        best = int(np.argmin(np.where(np.isnan(fk), np.inf, fk)))
        results.append(SearchResult(
            value=float(fk[best]), params=xk[best], converged=bool(statusk[best] == 0),
            n_starts=len(fk), nfev=tuple(nfevk.tolist()), nit=tuple(nitk.tolist()),
            status=tuple(statusk.tolist())))
    return results


def multistart_minimize(objective, start_points, n_random: int, random_start,
                        cfg: OptimizerConfig) -> SearchResult:
    """L-BFGS from every distinct structured start plus n_random seeded
    random starts, all in lockstep (see the module docstring); returns the
    best start, NaN values ranking last, with every start's record.  A
    structured start equal to an earlier one is dropped, so n_starts counts
    the starts that ran.

    The objective is batched: given stacked points (S, n) it returns values
    (S,), gradients (S, n) and the points (S, n) it evaluated them at, its
    input when it is unconstrained or the input retracted onto a manifold,
    with the gradients there tangent to it.  The result's params are such a
    returned point.  random_start(rng) must produce a parameter vector.
    The random stream for restart k is derived from (cfg.seed, k), so
    results do not depend on evaluation order and are monotone in the
    number of restarts.
    """
    return _multistart(lambda x, _: objective(x), [(start_points, n_random, random_start)],
                       cfg)[0]


def _side_slices(shapes: tuple[tuple[int, int], ...]) -> list[slice]:
    """Each side's slice of a point's parameters, sides of the given
    (n_out, d) shapes concatenated in order."""
    cuts = list(accumulate((n_isometry_params(*shape) for shape in shapes), initial=0))
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _rows_objective(kernel: Callable, shapes: tuple[tuple[int, int], ...]):
    """-kernel on the parameters of rank-one measurements of the given
    (n_out, d) shapes, concatenated in order, for the batched L-BFGS.  kernel
    takes the owner argument of the lockstep (the problem index of each
    point, see _multistart; None for a lone evaluation) and one row stack per
    shape, and returns the value and one rows gradient per shape.  Stacked
    points (S, n) give values (S,), the gradients (S, n) projected onto the
    tangent spaces at the rows, and the points (S, n) of those rows, which
    lie on the manifold.  Each side goes through its own polar map and
    pullback."""
    parts = _side_slices(shapes)

    def objective(x, owner=None):
        charts = [isometry_from_params_vjp(x[..., part], *shape)
                  for shape, part in zip(shapes, parts)]
        value, *grads = kernel(owner, *(w for w, _ in charts))
        return (-value, -_joined([pull(g) for (_, pull), g in zip(charts, grads)]),
                _joined([params_from_isometry(w) for w, _ in charts]))

    return objective


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays concatenated on the last axis; a lone array comes back as
    it is, with no copy."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=-1)


def _rank_one_search(kernel: Callable, shapes: tuple[tuple[int, int], ...], problem_seeds,
                     cfg: OptimizerConfig) -> list[tuple[SearchResult, list[np.ndarray]]]:
    """Multi-start L-BFGS maximizing kernel (see _rows_objective) over
    rank-one measurements of the given (n_out, d) shapes, one problem per
    entry of problem_seeds, all in one lockstep: problem k starts from its
    seeds (one row matrix per shape each) and cfg.restarts random starts,
    and kernel is told which problem each point belongs to.  Returns per
    problem the SearchResult, whose value is the minimized -kernel, and the
    best start's rows per shape, the polar factor of its parameters."""
    parts = _side_slices(shapes)
    # the polar factor of a Gaussian matrix is Haar-distributed, so one
    # Gaussian draw starts bases and POVMs alike
    results = _multistart(
        _rows_objective(kernel, shapes),
        [([np.concatenate([params_from_isometry(w) for w in seed]) for seed in seeds],
          cfg.restarts, lambda rng: rng.standard_normal(parts[-1].stop))
         for seeds in problem_seeds],
        cfg,
    )
    return [(res, [isometry_from_params(res.params[part], *shape)
                   for shape, part in zip(shapes, parts)]) for res in results]

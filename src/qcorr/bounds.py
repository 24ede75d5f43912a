"""Mutually unbiased bases and limits on the total extractable record
information.

iValues[m] is the record mutual information when Alice measures her m-th
MUB against one fixed measurement on Bob; their sum obeys dimension- and
purity-dependent ceilings, which this module evaluates and checks.  The
two-basis ceiling applies to every pair of bases, so its flag compares the
worst pair sum (for two bases that is the total itself).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from numbers import Integral

import numpy as np

from .linalg import (
    DensityMatrix,
    DimensionMismatchError,
    UnsupportedDimensionError,
    binary_entropy,
    marginal_mats,
    purity,
    shannon_entropy,
)
from .measures import (
    XBASIS,
    YBASIS,
    Povm,
    ProjectiveBasis,
    _as_povm,
    _check_meas_dims,
    _checked_tables,
    _outcome_table,
    _table_mi,
)

BOUND_SLACK = 1e-9


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def _check_mub_dim(d: int) -> None:
    """The unbiased-basis sets and their ceilings here cover d = 2 and odd
    prime d, where a full set has d + 1 bases."""
    if not (d == 2 or (d % 2 == 1 and _is_prime(d))):
        raise UnsupportedDimensionError(
            f"unbiased-basis sets are built for d = 2 or odd prime d, got {d}"
        )


def _floor_k_term(d: int, m: int) -> tuple[int, float]:
    """k = floor(m d / (d + m - 1)) and the term
    k ((k + 1)(d + m - 1) / d - m) log2(1 + 1/k) that the floor-k forms of
    the total-information ceiling and of the entropic floor share.  A
    dimension or a count that is not an integer or is below one raises
    ValueError, and so does a count above d + 1: no dimension has more than
    d + 1 pairwise unbiased bases (Wootters & Fields, Ann. Phys. 191, 363,
    1989)."""
    if not (isinstance(d, Integral) and isinstance(m, Integral)):
        raise ValueError(f"need an integer dimension and basis count, got d={d}, count={m}")
    if d < 1 or m < 1:
        raise ValueError(f"need a dimension and a basis count of at least one, "
                         f"got d={d}, count={m}")
    if m > d + 1:
        raise ValueError(f"no dimension has more than d + 1 pairwise unbiased bases, "
                         f"got d={d}, count={m}")
    k = int(np.floor(m * d / (d + m - 1)))
    return k, k * ((k + 1) * (d + m - 1) / d - m) * np.log2(1 + 1 / k)


@dataclass(frozen=True)
class MubFamily:
    """Pairwise mutually unbiased bases on d levels.

    rows stacks each basis's measurement rows <a_mi| as a read-only
    (count, d, d) array, and effects their projectors |a_mi><a_mi| as a
    (count, d, d, d) one.  Both are built once, at construction, where each
    basis is also validated as a Povm, so that measuring the family on a
    state needs neither step again.
    """

    dim: int
    bases: tuple[ProjectiveBasis, ...]
    rows: np.ndarray = field(init=False, repr=False, compare=False)
    effects: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        povms = [Povm.from_basis(basis) for basis in self.bases]
        for name in ("rows", "effects"):
            stack = np.stack([getattr(povm, name) for povm in povms])
            stack.flags.writeable = False
            object.__setattr__(self, name, stack)

    @property
    def count(self) -> int:
        return len(self.bases)


def mub_family(d: int, count: int) -> MubFamily:
    """Construct `count` pairwise unbiased bases on d levels.

    Supported: d = 2 (up to 3 bases, the Pauli eigenbases) and odd prime d
    (up to d + 1 bases: computational plus the quadratic-phase bases).
    Other dimensions raise UnsupportedDimensionError.
    """
    _check_mub_dim(d)
    if not 1 <= count <= d + 1:
        raise UnsupportedDimensionError(
            f"d = {d} supports between 1 and {d + 1} bases, got {count}"
        )

    mats: list[np.ndarray] = [np.eye(d, dtype=np.complex128)]
    if d == 2:
        mats += [XBASIS, YBASIS]
    else:
        omega = np.exp(2j * np.pi / d)
        k = np.arange(d)
        for m in range(d):
            # basis m, column j: entries omega^(m k^2 + j k) / sqrt(d)
            phase = (m * (k**2)[:, None] + k[:, None] * k[None, :]) % d
            mats.append(omega ** phase.astype(np.complex128) / np.sqrt(d))
    mats = mats[:count]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            overlap = np.abs(mats[i].conj().T @ mats[j]) ** 2
            if np.max(np.abs(overlap - 1 / d)) > 1e-12:
                raise RuntimeError(f"bases {i},{j} for d={d} are not unbiased")
    return MubFamily(dim=d, bases=tuple(ProjectiveBasis(m) for m in mats))


def _single_system(rho_a: DensityMatrix | np.ndarray, d: int) -> np.ndarray:
    """The matrix of a single-system state, checked to be d x d."""
    m = rho_a.mat if isinstance(rho_a, DensityMatrix) else np.asarray(rho_a)
    if m.shape != (d, d):
        raise DimensionMismatchError(f"state must be {d} x {d}, got shape {m.shape}")
    return m


def two_mub_bound(dim_a: int) -> float:
    """Ceiling on the record mi extracted with two unbiased bases."""
    return float(np.log2(dim_a))


def mub_total_bound(dim_a: int, count: int) -> tuple[float, float, int]:
    """Ceilings on the total over `count` unbiased bases.

    Returns (refined, half, k): the floor-k refinement, the weaker
    count/2 * log2(d) form, and the integer k used by the refinement.  The
    refinement is the stronger of the two once count exceeds sqrt(d) + 1.
    A dimension or a count that is not an integer, is below one, or a count
    above d + 1 (more bases than any dimension has pairwise unbiased)
    raises ValueError.
    """
    d, m = dim_a, count
    k, term = _floor_k_term(d, m)
    refined = m * np.log2(d / (k + 1)) + term
    half = 0.5 * m * np.log2(d)
    return float(refined), float(half), k


def purity_total_bound(rho_a: DensityMatrix | np.ndarray, dim_a: int, count: int) -> float:
    """Purity-dependent ceiling on the total record mi over a full set of
    unbiased bases (count = 3 for d = 2, count = d + 1 for odd prime d)."""
    d = dim_a
    _check_mub_dim(d)
    if count != d + 1:
        raise UnsupportedDimensionError(
            f"purity bound needs the full set of {d + 1} bases, got count={count}"
        )
    tr2 = purity(_single_system(rho_a, d))
    if d == 2:
        radius = np.sqrt(max(0.0, (2 * tr2 - 1) / 3))
        return float(3 * binary_entropy((1 + radius) / 2) - 2)
    # at odd prime d: a purity-dependent lead on top of the state-independent ceiling
    lead = -(d - 1) * (d * tr2 - 1) * np.log2(d - 1) / (d * (d - 2))
    return float(lead + state_independent_bound(d)[0])


def state_independent_bound(dim_a: int) -> tuple[float, float]:
    """State-independent ceiling for a full unbiased-basis set, plus the
    strict cap dim_a that the total can never reach."""
    d = dim_a
    _check_mub_dim(d)
    if d == 2:
        value = d + 1 + (d / 2 + 1) * np.log2(d / (d + 2))
    else:
        value = (d + 1) * np.log2(2 * d / (d + 1))
    return float(value), float(d)


def entropic_sum_bound(dim_a: int, count: int) -> float:
    """Lower bound on the summed outcome entropies over `count` unbiased
    bases: the stronger of the floor-k form and (count/2) log2(d).  A
    dimension or a count that is not an integer, is below one, or a count
    above d + 1 (more bases than any dimension has pairwise unbiased)
    raises ValueError."""
    d, m = dim_a, count
    k, term = _floor_k_term(d, m)
    strong = m * np.log2(k + 1) - term
    return float(max(strong, 0.5 * m * np.log2(d)))


def entropic_sum(rho_a: DensityMatrix | np.ndarray, mubs: MubFamily) -> float:
    """Summed Shannon entropies of the outcome distributions of each basis
    on a single-system state; raises if the uncertainty floor is violated
    (which would indicate a numerical bug, not physics)."""
    m = _single_system(rho_a, mubs.dim)
    probs = np.einsum("cia,ab,cib->ci", mubs.rows, m, mubs.rows.conj()).real
    # the entropies of the bases' distributions sum to the entropy of their
    # stack; a trace off by up to TRACE_TOL can put a probability above one
    total = shannon_entropy(np.clip(probs, 0.0, 1.0))
    floor = entropic_sum_bound(mubs.dim, mubs.count)
    if total < floor - BOUND_SLACK:
        raise RuntimeError(
            f"entropy sum {total:.12f} below uncertainty floor {floor:.12f}"
        )
    return float(total)


@dataclass(frozen=True)
class BoundReport:
    """Total record information over a MUB family versus its ceilings.

    bounds/satisfied are keyed by: two_basis (checked against the worst
    pair sum), total_refined, total_half, purity (only for full sets),
    state_independent and strict_cap (checked against i_total).
    """

    dim_a: int
    count: int
    i_values: tuple[float, ...]
    i_total: float
    max_pair_sum: float
    bounds: dict
    satisfied: dict

    def rows(self) -> list[dict]:
        return [
            {"bound": name,
             "observed": self.max_pair_sum if name == "two_basis" else self.i_total,
             "limit": limit, "satisfied": self.satisfied[name]}
            for name, limit in self.bounds.items()
        ]


def mub_information_report(
    rho: DensityMatrix, mubs: MubFamily, bob_povm: Povm
) -> BoundReport:
    """Measure each of Alice's unbiased bases against one fixed Bob
    measurement and compare the total against every applicable ceiling.

    The outcome tables of all the bases are computed as one stack from
    mubs.effects, checked as joint distributions and turned into mi values in
    one pass; the values equal those of joint_distribution per basis.  A
    family or a Bob measurement whose dimension differs from the state's
    side raises DimensionMismatchError."""
    bob = _as_povm(bob_povm)
    _check_meas_dims(rho, mubs.dim, bob.dim)
    tables = _checked_tables(_outcome_table(rho, mubs.effects, bob.effects))
    i_values = tuple(float(v) for v in _table_mi(tables))
    i_total = float(sum(i_values))
    # a single basis is its own worst "pair"
    pair = max(map(sum, combinations(i_values, 2)), default=i_values[0])
    d = rho.dim_a
    refined, half, _ = mub_total_bound(d, mubs.count)
    bounds = {
        "two_basis": two_mub_bound(d),
        "total_refined": refined,
        "total_half": half,
    }
    if mubs.count == d + 1:
        bounds["purity"] = purity_total_bound(marginal_mats(rho)[0], d, mubs.count)
        value, cap = state_independent_bound(d)
        bounds["state_independent"] = value
        bounds["strict_cap"] = cap
    satisfied = {}
    for name, limit in bounds.items():
        observed = pair if name == "two_basis" else i_total
        satisfied[name] = bool(observed <= limit + BOUND_SLACK)
    return BoundReport(
        dim_a=d,
        count=mubs.count,
        i_values=i_values,
        i_total=i_total,
        max_pair_sum=float(pair),
        bounds=bounds,
        satisfied=satisfied,
    )

"""Micro-timings of single kernels on seeded inputs.

Each figure is the median, over several rounds, of the mean time per call
in a round of back-to-back calls, in microseconds.  They split one search
evaluation into chart, outcome table and entropy, and time the validating
constructor that every sampled state goes through.
"""
from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

from qcorr import linalg, measures, optimize

ROUND_S = 0.002
ROUNDS = 9


def per_call_us(fn) -> float:
    fn()
    t0 = perf_counter()
    fn()
    one = perf_counter() - t0
    n = max(1, int(ROUND_S / max(one, 1e-7)))
    rounds = []
    for _ in range(ROUNDS):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        rounds.append((perf_counter() - t0) / n)
    return median(rounds) * 1e6


def micro_timings(seed: int) -> dict[str, float]:
    rng = np.random.default_rng([seed, 2])
    out = {}
    for d in (2, 3, 4, 8):
        params = optimize.params_from_unitary(linalg.random_unitary(d, rng))
        out[f"optimize.unitary_from_params_us.d{d}"] = per_call_us(
            lambda p=params, d=d: optimize.unitary_from_params(p, d))
    u4 = linalg.random_unitary(4, rng)
    out["optimize.params_from_unitary_us.d4"] = per_call_us(
        lambda: optimize.params_from_unitary(u4))
    iso = rng.standard_normal(optimize.n_isometry_params(3, 2))
    out["optimize.isometry_from_params_us.3x2"] = per_call_us(
        lambda: optimize.isometry_from_params(iso, 3, 2))
    for d in (2, 3, 4):
        rho = linalg.random_density_matrix(d, d, rng=rng)
        basis_a = measures.ProjectiveBasis(linalg.random_unitary(d, rng))
        basis_b = measures.ProjectiveBasis(linalg.random_unitary(d, rng))
        out[f"measures.joint_distribution_us.basis.d{d}"] = per_call_us(
            lambda r=rho, a=basis_a, b=basis_b: measures.joint_distribution(r, a, b))
        povm_a = measures.Povm.random_rank_one(d, d * d, rng)
        povm_b = measures.Povm.random_rank_one(d, d * d, rng)
        out[f"measures.joint_distribution_us.povm.d{d}"] = per_call_us(
            lambda r=rho, a=povm_a, b=povm_b: measures.joint_distribution(r, a, b))
        if d == 3:
            table = measures.joint_distribution(rho, povm_a, povm_b)
            out["measures.classical_mutual_info_us.d3"] = per_call_us(
                lambda: measures.classical_mutual_info(table))
    for d in (2, 3, 5):
        mat = np.array(linalg.random_density_matrix(d, d, rng=rng).mat)
        out[f"linalg.density_matrix_us.d{d * d}"] = per_call_us(
            lambda m=mat, d=d: linalg.DensityMatrix(m, d, d))
    return out

"""The benchmark's three workloads.

Each workload is a fixed batch of operations generated from the workload
seed.  An operation returns plain values (floats, tuples, bytes) so that the
runner can compare the results of repeated passes exactly, and every
operation has a check that lists the problems found in its result.

Package functions are looked up through their modules at call time
(``measures.full_report`` rather than a name bound at import), so the
wrappers installed for the traced run see every call.
"""
from __future__ import annotations

import inspect
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qcorr import bounds, cli, dqc1, linalg, measures, states
from qcorr.optimize import OptimizerConfig

# Report workload: optimizer settings and pool sizes.
REPORT_CFG = OptimizerConfig(restarts=8, seed=0)
REPORT_POOL = {(2, 2): 3, (3, 3): 1, (4, 4): 1}
SMOKE_POOL = {(2, 2): 1}
# Bell-diagonal correlation vector, permuted and signed by the seed.
BELL_R = (0.35, 0.2, 0.05)

# Sample workload: the dimension pools of `qcorr campaign prop1` / `bounds`.
PROP1_DIMS = (2, 3)
BOUNDS_DIMS = (2, 3, 5)
SAMPLE_BATCH = {"prop1": 384, "bounds": 128}  # bounds: per dimension
SMOKE_SAMPLE_BATCH = {"prop1": 6, "bounds": 2}

# DQC1 workload: the scan each pass runs once per phase model.  n = 8 rather
# than 10: at n = 10 a pass took 14-20 s, two passes fit in a run and the
# batch time spread 12-30% over ten seeds.
DQC1_DIMS = 8
DQC1_STEPS = 100
SMOKE_DQC1 = (4, 6)

CHAIN_TOL = 1e-9
FAMILY_TOL = 1e-4
TRINE_TOL = 1e-6
PROP1_TOL = 1e-9


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # Maps the results of one pass (in op order) to the information share
    # and the workload's own detail figures.
    summarize: Callable[[list], dict]
    # One operation run, untimed, before anything is measured.
    warm_up: Callable[[], object]
    # Cells of the DQC1 phase grid evaluated per dqc1_max_record_mi call;
    # zero for workloads that run no DQC1 scan.
    cells_per_scan_point: int = 0


# --------------------------------------------------------------------- report

_CHAIN = ("eigenbasis_mi", "mi_projective", "classical_corr_a", "quantum_mi")
_DISTURBANCE_CHAIN = ("discord_a", "nonclassicality", "disturbance")


def _check_report(rep: dict, ref=None) -> list[str]:
    problems = []
    for chain in (_CHAIN, _DISTURBANCE_CHAIN):
        for lo, hi in zip(chain, chain[1:]):
            if rep[lo] > rep[hi] + CHAIN_TOL:
                problems.append(f"{lo}={rep[lo]!r} > {hi}={rep[hi]!r}")
    if ref is not None:
        for key in ("quantum_mi", "mi_projective", "nonclassicality"):
            if abs(rep[key] - getattr(ref, key)) > FAMILY_TOL:
                problems.append(f"{key}={rep[key]!r}, closed form {getattr(ref, key)!r}")
    return problems


def _report_op(label: str, rho, ref=None) -> Op:
    return Op(
        label=label,
        run=lambda: measures.full_report(rho, REPORT_CFG).to_dict(),
        check=lambda rep: _check_report(rep, ref),
    )


def _check_trine(value: float) -> list[str]:
    target = math.log2(3.0) - 1.0
    if abs(value - target) > TRINE_TOL:
        return [f"trine POVM value {value!r}, expected log2(3) - 1 = {target!r}"]
    return []


def report_workload(seed: int, smoke: bool = False) -> Workload:
    ops = []
    for (da, db), count in (SMOKE_POOL if smoke else REPORT_POOL).items():
        for k in range(count):
            rho = linalg.random_density_matrix(da, db, rng=[seed, da, db, k])
            ops.append(_report_op(f"report.{da}x{db}", rho))
    rng = np.random.default_rng([seed, 1])
    r = rng.permutation(BELL_R) * rng.choice([-1.0, 1.0], size=3)
    ops.append(_report_op("report.bell", states.bell_diagonal_state(r),
                          states.bell_diagonal_analytics(r)))
    alpha = float(rng.uniform(0.5, 0.6))
    ops.append(_report_op("report.werner", states.werner_state(3, alpha),
                          states.werner_analytics(3, alpha)))
    ops.append(Op("trine", lambda: states.trine_povm_optimum(REPORT_CFG).value, _check_trine))
    trine_ceiling = measures.quantum_mutual_info(states.trine_state())

    def summarize(results: list) -> dict:
        # share of the quantum MI that the searches reach, averaged within
        # each kind of input and then across kinds, so each kind weighs the same
        found = [rep["mi_projective"] + rep["classical_corr_a"] + rep["classical_corr_b"]
                 for rep in results[:-1]]
        shares = defaultdict(list)
        for op, f, rep in zip(ops, found, results):
            shares[op.label].append(f / (3.0 * rep["quantum_mi"]))
        shares["trine"].append(results[-1] / trine_ceiling)
        return {
            "info_share": float(np.mean([np.mean(v) for v in shares.values()])),
            "search_bits": sum(found) + results[-1],
        }

    return Workload("report", ops, summarize, ops[0].run)


# --------------------------------------------------------------------- sample

def _prop1_sample(seed: int, k: int) -> tuple:
    rng = linalg.as_rng([seed, k])
    d_a = int(rng.choice(PROP1_DIMS))
    d_b = int(rng.choice(PROP1_DIMS))
    rho = linalg.random_density_matrix(d_a, d_b, rng=rng)
    n_a = int(rng.integers(d_a, d_a**2 + 1))
    n_b = int(rng.integers(d_b, d_b**2 + 1))
    meas_a = measures.Povm.random_rank_one(d_a, n_a, rng)
    meas_b = measures.Povm.random_rank_one(d_b, n_b, rng)
    record = measures.classical_mutual_info(measures.joint_distribution(rho, meas_a, meas_b))
    s_a = linalg.von_neumann_entropy(linalg.partial_trace(rho, "A"))
    s_b = linalg.von_neumann_entropy(linalg.partial_trace(rho, "B"))
    return record, s_a, s_b, measures.quantum_mutual_info(rho)


def _check_prop1(values: tuple) -> list[str]:
    record, s_a, s_b, smut = values
    ceiling = min(s_a, s_b, smut)
    if record > ceiling + PROP1_TOL:
        return [f"record mi {record!r} > min(S_A, S_B, I) = {ceiling!r}"]
    return []


def _bounds_sample(seed: int, d: int, k: int, family) -> tuple:
    rng = linalg.as_rng([seed, d, k])
    rho = linalg.random_density_matrix(d, d, rng=rng)
    n_b = int(rng.integers(d, d**2 + 1))
    bob = measures.Povm.random_rank_one(d, n_b, rng)
    rep = bounds.mub_information_report(rho, family, bob)
    return rep.i_total, rep.bounds["total_refined"], tuple(sorted(rep.satisfied.items()))


def _check_bounds(values: tuple) -> list[str]:
    return [f"bound {name} violated" for name, ok in values[2] if not ok]


def sample_workload(seed: int, smoke: bool = False) -> Workload:
    batch = SMOKE_SAMPLE_BATCH if smoke else SAMPLE_BATCH
    ops = [
        Op("prop1", lambda k=k: _prop1_sample(seed, k), _check_prop1)
        for k in range(batch["prop1"])
    ]
    for d in BOUNDS_DIMS:
        family = bounds.mub_family(d, 3 if d == 2 else d + 1)
        ops += [
            Op(f"bounds.d{d}", lambda d=d, k=k, f=family: _bounds_sample(seed, d, k, f),
               _check_bounds)
            for k in range(batch["bounds"])
        ]

    def summarize(results: list) -> dict:
        found = ceiling = 0.0
        for op, values in zip(ops, results):
            found += values[0]
            ceiling += min(values[1:]) if op.label == "prop1" else values[1]
        return {"info_share": found / ceiling}

    return Workload("sample", ops, summarize, ops[0].run)


# ----------------------------------------------------------------------- dqc1

def _parse_csv(text: str) -> list[dict]:
    header, *lines = text.splitlines()
    keys = header.split(",")
    return [dict(zip(keys, line.split(","))) for line in lines]


def _check_dqc1(result: tuple) -> list[str]:
    code, text = result
    if code != 0:
        return [f"qcorr dqc1-scan exited with {code}"]
    rows = _parse_csv(text.decode())
    if not rows:
        return ["empty scan"]
    problems = []
    if rows[0]["q"] != "0.0":
        problems.append(f"first row q = {rows[0]['q']!r}, expected '0.0'")
    qs = [float(row["q"]) for row in rows]
    bad = [i for i in range(1, len(qs)) if not qs[i] > qs[i - 1]]
    if bad:
        problems.append(f"q not strictly increasing at rows {bad[:5]}")
    return problems


def _dqc1_op(phase_model: str, dims: int, steps: int, seed: int, out: Path) -> Op:
    path = out / f"dqc1-{phase_model}.csv"
    argv = [
        "dqc1-scan", "--dims", str(dims), "--alpha-steps", str(steps),
        "--phase-model", phase_model, "--seed", str(seed), "--out", str(path),
    ]

    def run() -> tuple:
        code = cli.main(argv)
        return code, path.read_bytes()

    return Op(f"dqc1.{phase_model}", run, _check_dqc1)


def dqc1_workload(seed: int, out: Path, smoke: bool = False) -> Workload:
    dims, steps = SMOKE_DQC1 if smoke else (DQC1_DIMS, DQC1_STEPS)
    ops = [_dqc1_op(model, dims, steps, seed, out) for model in ("uniform", "haar")]
    # two points at full size: the first scan's large grid allocations happen
    # here rather than in the first timed pass
    warm = _dqc1_op("uniform", dims, 2, seed, out)
    grid = inspect.signature(dqc1.dqc1_max_record_mi).parameters["grid"].default

    def summarize(results: list) -> dict:
        found = ceiling = 0.0
        for _, text in results:
            for row in _parse_csv(text.decode()):
                found += float(row["ipmax"])
                ceiling += float(row["smut"])
        return {"info_share": found / ceiling}

    return Workload("dqc1", ops, summarize, warm.run, cells_per_scan_point=2**dims * grid)


def build(name: str, seed: int, out: Path, smoke: bool = False) -> Workload:
    if name == "report":
        return report_workload(seed, smoke)
    if name == "sample":
        return sample_workload(seed, smoke)
    if name == "dqc1":
        return dqc1_workload(seed, out, smoke)
    raise ValueError(f"unknown workload {name!r}")

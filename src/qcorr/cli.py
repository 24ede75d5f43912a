"""Batch command-line surface.

Subcommands ingest state files, run the measure suites and bound
campaigns, and emit CSV or JSON for plotting and regression tests.  All
randomness is seeded (default 0), so identical command lines produce
byte-identical output.  Data goes to --out or stdout; summaries and
diagnostics go to stderr.

Exit codes: 0 success, 1 file or parse error, 2 invalid state or
usage error, 3 unsupported dimension, 4 campaign violation.  A --dims,
--samples or --alpha-steps value below 1 is a usage error, and so is a
--seed, --restarts, --iters or --tol value that OptimizerConfig rejects: a
seed below 0, restarts below 0, iters below 1 or a tolerance that is not a
positive finite number.

Every campaign kind runs through one runner: it writes the CSV, prints an
"N rows, K ok, V violations" summary to stderr and one replay line per
failing sample, and exits 4 if any sample fails.  A replay line names the
failing sample; bounds numbers its samples from 0 in each dimension, so
its lines name the dimension too: "violation in sample 3 of d = 5: replay
with --seed 0".
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bounds import mub_family, mub_information_report
from .dqc1 import dqc1_scan
from .linalg import (
    InvalidStateError,
    UnsupportedDimensionError,
    as_rng,
    load_state,
    marginal_mats,
    random_density_matrix,
    von_neumann_entropy,
)
from .measures import Povm, classical_mutual_info, full_report, joint_distribution
from .optimize import OptimizerConfig
from .states import locking_demo, trine_povm_optimum, trine_projective_grid, werner_analytics

PROP1_SLACK = 1e-9
DISCORD_SLACK = 1e-6


def _fmt(x) -> str:
    # shortest round-trip decimals keep the CSV diff-friendly
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(float(x))


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _config_from(args) -> OptimizerConfig:
    return OptimizerConfig(restarts=args.restarts, max_iters=args.iters, tolerance=args.tol,
                           seed=args.seed)


def _dims_list(text: str) -> list[int]:
    try:
        dims = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not dims:
        raise argparse.ArgumentTypeError("empty dimension list")
    if min(dims) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive dimension, got {min(dims)}")
    return dims


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _config_field(field: str, kind: type):
    """argparse type for one OptimizerConfig field: the text read as kind
    and checked by OptimizerConfig itself, so that the command line and the
    library reject the same values."""
    def parse(text: str):
        try:
            value = kind(text)
            OptimizerConfig(**{field: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected a valid value, got {text!r}: {exc}")
        return value

    return parse


def cmd_analyze(args) -> int:
    rho = load_state(args.state_file)
    report = full_report(rho, _config_from(args))
    _emit_json(report.to_dict(), args.out)
    return 0


def cmd_werner_scan(args) -> int:
    rows = []
    for d in args.dims:
        for alpha in np.linspace(0.0, 1.0, args.alpha_steps):
            fam = werner_analytics(d, float(alpha))
            rows.append([d, float(alpha), fam.quantum_mi, fam.mi_projective, fam.nonclassicality])
    _emit(_csv(["d", "alpha", "smut", "ipmax", "q"], rows), args.out)
    return 0


def cmd_dqc1_scan(args) -> int:
    points = dqc1_scan(args.dims, args.alpha_steps, args.phase_model, args.seed)
    rows = [[p.alpha, p.quantum_mi, p.max_record_mi, p.nonclassicality] for p in points]
    _emit(_csv(["alpha", "smut", "ipmax", "q"], rows), args.out)
    return 0


def _random_state(seed: int, dims: list[int], k: int):
    """Sample k's generator and state: d_A and d_B drawn from the pool, then
    the state, all from as_rng([seed, k])."""
    rng = as_rng([seed, k])
    d_a = int(rng.choice(dims))
    d_b = int(rng.choice(dims))
    return rng, random_density_matrix(d_a, d_b, rng=rng)


def _prop1_rows(args, dims):
    for k in range(args.samples):
        rng, rho = _random_state(args.seed, dims, k)
        d_a, d_b = rho.dim_a, rho.dim_b
        n_a = int(rng.integers(d_a, d_a**2 + 1))
        n_b = int(rng.integers(d_b, d_b**2 + 1))
        meas_a = Povm.random_rank_one(d_a, n_a, rng)
        meas_b = Povm.random_rank_one(d_b, n_b, rng)
        record = classical_mutual_info(joint_distribution(rho, meas_a, meas_b))
        s_a, s_b = (von_neumann_entropy(m) for m in marginal_mats(rho))
        # the same sum as quantum_mutual_info, without recomputing S_A and S_B
        smut = s_a + s_b - von_neumann_entropy(rho)
        ok = record <= min(s_a, s_b, smut) + PROP1_SLACK
        yield f"sample {k}", [k, d_a, d_b, n_a, n_b, record, s_a, s_b, smut, ok]


def _bounds_rows(args, dims):
    for d in dims:
        fam = mub_family(d, d + 1)
        for k in range(args.samples):
            rng = as_rng([args.seed, d, k])
            rho = random_density_matrix(d, d, rng=rng)
            n_b = int(rng.integers(d, d**2 + 1))
            rep = mub_information_report(rho, fam, Povm.random_rank_one(d, n_b, rng))
            b = rep.bounds
            yield f"sample {k} of d = {d}", [
                d, k, rep.i_total, rep.max_pair_sum, b["two_basis"], b["total_refined"],
                b["total_half"], b["purity"], b["state_independent"], b["strict_cap"],
                all(rep.satisfied.values()),
            ]


def _qvsdiscord_rows(args, dims):
    cfg = _config_from(args)
    for k in range(args.samples):
        _, rho = _random_state(args.seed, dims, k)
        rep = full_report(rho, cfg)
        ok = (
            rep.nonclassicality >= rep.discord_a - DISCORD_SLACK
            and rep.disturbance >= rep.nonclassicality - DISCORD_SLACK
        )
        yield f"sample {k}", [
            k, rho.dim_a, rho.dim_b, rep.quantum_mi, rep.mi_projective, rep.nonclassicality,
            rep.classical_corr_a, rep.discord_a, rep.eigenbasis_mi, rep.disturbance, ok,
        ]


# kind -> (CSV header, default dimension pool, row builder); a builder
# yields (sample name, row) pairs with the ok flag last in the row
_CAMPAIGNS = {
    "prop1": (
        ["sample", "dim_a", "dim_b", "outcomes_a", "outcomes_b",
         "record_mi", "entropy_a", "entropy_b", "quantum_mi", "ok"],
        [2, 3], _prop1_rows,
    ),
    "bounds": (
        ["d", "sample", "i_total", "max_pair_sum", "two_basis", "total_refined",
         "total_half", "purity", "state_independent", "strict_cap", "ok"],
        [2, 3, 5], _bounds_rows,
    ),
    "qvsdiscord": (
        ["sample", "dim_a", "dim_b", "quantum_mi", "record_mi", "nonclassicality",
         "classical_corr_a", "discord_a", "eigenbasis_mi", "disturbance", "ok"],
        [2, 3], _qvsdiscord_rows,
    ),
}


def cmd_campaign(args) -> int:
    header, default_dims, build = _CAMPAIGNS[args.kind]
    named = list(build(args, args.dims or default_dims))
    bad = [name for name, row in named if not row[-1]]
    _emit(_csv(header, [row for _, row in named]), args.out)
    total = len(named)
    print(
        f"{args.kind}: {total} rows, {total - len(bad)} ok, {len(bad)} violations",
        file=sys.stderr,
    )
    for name in bad:
        print(f"violation in {name}: replay with --seed {args.seed}", file=sys.stderr)
    return 4 if bad else 0


def cmd_lock_demo(args) -> int:
    report = locking_demo(args.dims, _config_from(args), variant=args.variant)
    _emit_json(report.to_dict(), args.out)
    return 0


def cmd_trine(args) -> int:
    grid_mi, theta, phi = trine_projective_grid()
    res = trine_povm_optimum(_config_from(args))
    _emit_json(
        {
            "projective_grid_mi": grid_mi,
            "projective_grid_theta": theta,
            "projective_grid_phi": phi,
            "povm_mi": res.value,
            "gap": res.value - grid_mi,
            "povm_outcomes": res.meas_b.n_outcomes,
            "converged": res.converged,
        },
        args.out,
    )
    return 0


def _add_common(p: argparse.ArgumentParser, seeded: bool = True) -> None:
    """--out, and --seed on the subcommands that draw random numbers."""
    if seeded:
        p.add_argument("--seed", type=_config_field("seed", int), default=0,
                       help="master random seed")
    p.add_argument("--out", default=None, help="write output to this file instead of stdout")


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    """Optimizer overrides, for the subcommands that run a search."""
    cfg = OptimizerConfig()
    p.add_argument("--restarts", type=_config_field("restarts", int), default=cfg.restarts,
                   help="random search restarts")
    p.add_argument("--iters", type=_config_field("max_iters", int), default=cfg.max_iters,
                   help="L-BFGS step cap per start")
    p.add_argument("--tol", type=_config_field("tolerance", float), default=cfg.tolerance,
                   help="L-BFGS gradient tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Correlation measures for bipartite quantum states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full correlation report for a state file (JSON)")
    p.add_argument("state_file")
    _add_common(p)
    _add_search_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("werner-scan", help="closed-form scan of the swap-mixture family (CSV)")
    p.add_argument("--dims", type=_dims_list, default=[2, 3, 10], help="comma-separated d list")
    p.add_argument("--alpha-steps", type=_positive_int, default=101)
    _add_common(p, seeded=False)
    p.set_defaults(func=cmd_werner_scan)

    p = sub.add_parser("dqc1-scan", help="polarization scan of the one-clean-qubit model (CSV)")
    p.add_argument("--dims", type=_positive_int, default=10, help="work-register qubit count")
    p.add_argument("--alpha-steps", type=_positive_int, default=101)
    p.add_argument("--phase-model", choices=["uniform", "haar"], default="uniform")
    _add_common(p)
    p.set_defaults(func=cmd_dqc1_scan)

    p = sub.add_parser("campaign", help="randomized property campaign (CSV + stderr summary)")
    p.add_argument("kind", choices=_CAMPAIGNS)
    p.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--dims", type=_dims_list, default=None, help="comma-separated dimension pool")
    _add_common(p)
    _add_search_flags(p)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("lock-demo", help="one-bit unlock protocol report (JSON)")
    p.add_argument("variant", nargs="?", choices=["locking", "sigma"], default="locking")
    p.add_argument("--dims", type=_positive_int, default=2, help="value-register dimension d")
    _add_common(p)
    _add_search_flags(p)
    p.set_defaults(func=cmd_lock_demo)

    p = sub.add_parser("trine", help="projective grid versus three-outcome search (JSON)")
    _add_common(p)
    _add_search_flags(p)
    p.set_defaults(func=cmd_trine)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidStateError as exc:
        print(f"invalid state: {exc}", file=sys.stderr)
        return 2
    except UnsupportedDimensionError as exc:
        print(f"unsupported dimension: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

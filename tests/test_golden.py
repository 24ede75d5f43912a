"""Golden outputs of every CLI subcommand, at --seed 0 where it takes one.

Each file in tests/golden/ holds one command line, its exit code, stdout and
stderr.  The test reruns the command in-process and compares: every
non-numeric token must match exactly, and every number must agree within
ABS_TOL (loose enough to survive another BLAS build, tight enough to catch
any real change in the numbers).

Rewrite the goldens, after a change that is meant to move the numbers, with

    PYTHONPATH=src python tests/test_golden.py --write

ABS_TOL cannot show that output is byte-identical.  To check that, render
every command of two checkouts into two directories and compare them:

    PYTHONPATH=src python tests/test_golden.py --render DIR
    diff -r DIR_A DIR_B
"""
import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

from qcorr import cli
from qcorr.linalg import random_density_matrix, save_state

GOLDEN = Path(__file__).parent / "golden"
ABS_TOL = 1e-9
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
STATE_SHAPES = [(2, 2), (3, 3), (2, 4)]
# the closed-form scan draws no random numbers and takes no --seed
UNSEEDED = {"werner-scan"}

COMMANDS = {
    **{
        f"analyze_{da}x{db}": ["analyze", f"state_{da}x{db}.json", "--restarts", "4"]
        for da, db in STATE_SHAPES
    },
    "werner_scan": ["werner-scan"],
    "dqc1_uniform": ["dqc1-scan", "--dims", "4", "--alpha-steps", "11"],
    "dqc1_haar": ["dqc1-scan", "--dims", "4", "--alpha-steps", "11", "--phase-model", "haar"],
    "campaign_prop1": ["campaign", "prop1", "--samples", "60"],
    "campaign_bounds": ["campaign", "bounds", "--samples", "20"],
    "campaign_qvsdiscord": ["campaign", "qvsdiscord", "--samples", "6", "--restarts", "2"],
    "lock_demo_locking": ["lock-demo", "locking", "--restarts", "2"],
    "lock_demo_sigma": ["lock-demo", "sigma", "--restarts", "2"],
    "trine": ["trine", "--restarts", "2"],
}


def write_states() -> None:
    for da, db in STATE_SHAPES:
        save_state(random_density_matrix(da, db, rng=0), GOLDEN / f"state_{da}x{db}.json")


def render(args: list[str]) -> str:
    """Run `qcorr <args> --seed 0` in-process, with no --seed on an UNSEEDED
    subcommand; state files resolve in GOLDEN."""
    args = args + ([] if args[0] in UNSEEDED else ["--seed", "0"])
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in args]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    command = " ".join(["qcorr", *args])
    return (
        f"$ {command}\nexit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    )


def max_number_diff(got: str, want: str) -> float:
    """Largest absolute difference between the numbers of two outputs;
    raises AssertionError if their non-numeric text differs."""
    assert NUMBER.split(got) == NUMBER.split(want), "non-numeric output differs"
    got_nums = [float(x) for x in NUMBER.findall(got)]
    want_nums = [float(x) for x in NUMBER.findall(want)]
    return max((abs(a - b) for a, b in zip(got_nums, want_nums)), default=0.0)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name):
    want = (GOLDEN / f"{name}.out").read_text()
    assert max_number_diff(render(COMMANDS[name]), want) <= ABS_TOL


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        out = GOLDEN
        out.mkdir(exist_ok=True)
        write_states()
    elif len(sys.argv) == 3 and sys.argv[1] == "--render":
        # the checked-in states stay as they are, so two checkouts render
        # the same inputs
        out = Path(sys.argv[2])
        out.mkdir(parents=True, exist_ok=True)
    else:
        sys.exit("usage: test_golden.py --write | --render DIR")
    for name, args in COMMANDS.items():
        (out / f"{name}.out").write_text(render(args))

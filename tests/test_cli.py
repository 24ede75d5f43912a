import json
import subprocess
import sys
from pathlib import Path

import pytest

from qcorr import bounds, cli
from qcorr.dqc1 import MAX_HAAR_N, MAX_SCAN_N
from qcorr.linalg import as_rng, random_density_matrix, save_state
from qcorr.states import bell_diagonal_state

FAST = ["--restarts", "3", "--iters", "150"]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qcorr", *args], capture_output=True, text=True
    )


@pytest.fixture(scope="module")
def singlet_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("states") / "singlet.json"
    save_state(bell_diagonal_state([-1.0, -1.0, -1.0]), path)
    return str(path)


def test_analyze_emits_full_json_report(singlet_file):
    proc = run_cli("analyze", singlet_file, *FAST)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["quantum_mi"] == pytest.approx(2.0, abs=1e-9)
    assert report["nonclassicality"] == pytest.approx(1.0, abs=1e-6)
    assert report["heuristic"] is True


def test_analyze_exit_codes(tmp_path, singlet_file):
    assert run_cli("analyze", str(tmp_path / "missing.json")).returncode == 1
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{never closed")
    assert run_cli("analyze", str(garbled)).returncode == 1
    nonpsd = tmp_path / "nonpsd.json"
    mat = [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]
    nonpsd.write_text(json.dumps({"dimA": 2, "dimB": 1, "matrix": mat}))
    proc = run_cli("analyze", str(nonpsd))
    assert proc.returncode == 2
    assert "invalid state" in proc.stderr
    big = tmp_path / "big.json"
    save_state(random_density_matrix(17, 2, rng=as_rng(0)), big)
    assert run_cli("analyze", str(big)).returncode == 3


def test_werner_scan_schema_and_endpoints():
    proc = run_cli("werner-scan", "--dims", "2,3", "--alpha-steps", "5")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "d,alpha,smut,ipmax,q"
    assert len(lines) == 1 + 2 * 5
    first = lines[1].split(",")
    assert first[0] == "2" and float(first[1]) == 0.0 and first[4] == "0.0"
    last_d2 = lines[5].split(",")
    assert float(last_d2[1]) == 1.0
    assert float(last_d2[4]) == pytest.approx(1.0, abs=1e-9)


def test_dqc1_scan_schema_and_reproducibility():
    args = ["dqc1-scan", "--dims", "3", "--alpha-steps", "7", "--phase-model", "haar", "--seed", "5"]
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    lines = a.stdout.strip().split("\n")
    assert lines[0] == "alpha,smut,ipmax,q"
    assert len(lines) == 8
    assert lines[1].split(",")[3] == "0.0"


@pytest.mark.parametrize("command", ["dqc1-scan", "werner-scan"])
@pytest.mark.parametrize("steps", ["0", "-3"])
def test_scans_reject_nonpositive_alpha_steps(command, steps):
    proc = run_cli(command, "--dims", "3", "--alpha-steps", steps)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--alpha-steps: expected a positive integer" in proc.stderr


@pytest.mark.parametrize("command", ["dqc1-scan", "werner-scan"])
@pytest.mark.parametrize("flag", [["--restarts", "99"], ["--iters", "5"], ["--tol", "5"]])
def test_scans_reject_search_flags(command, flag):
    # the closed-form scans run no search, so an optimizer override is an error
    proc = run_cli(command, "--dims", "3", "--alpha-steps", "2", *flag)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in proc.stderr


@pytest.mark.parametrize("flag", [["--tol", "inf"], ["--tol", "nan"], ["--tol", "0"],
                                  ["--tol", "-0.5"], ["--iters", "0"], ["--restarts", "-1"]],
                         ids=lambda flag: " ".join(flag))
def test_search_flags_out_of_range_are_usage_errors(singlet_file, flag):
    # an infinite tolerance would stop every start at its first evaluation and
    # still read converged; every out-of-range override fails in argparse
    proc = run_cli("analyze", singlet_file, *flag)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"argument {flag[0]}: expected a " in proc.stderr


@pytest.mark.parametrize("args", [
    ["analyze", str(Path(__file__).parent / "golden" / "state_2x2.json")],
    ["campaign", "prop1", "--samples", "1"],
    ["dqc1-scan", "--dims", "3", "--alpha-steps", "2", "--phase-model", "haar"],
], ids=["analyze", "prop1", "dqc1-scan"])
def test_negative_seed_is_a_usage_error(args):
    # a seed below 0 is rejected by OptimizerConfig's own check in argparse,
    # not by numpy once the first random draw is made
    proc = run_cli(*args, "--seed", "-1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "argument --seed: expected a " in proc.stderr


@pytest.mark.parametrize("phase_model", ["uniform", "haar"])
def test_dqc1_scan_caps_the_register(phase_model):
    proc = run_cli("dqc1-scan", "--dims", str(MAX_SCAN_N + 1), "--alpha-steps", "2",
                   "--phase-model", phase_model)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert f"capped at n={MAX_SCAN_N}" in proc.stderr


def test_dqc1_scan_caps_haar_phases():
    proc = run_cli("dqc1-scan", "--dims", str(MAX_HAAR_N + 1), "--alpha-steps", "2",
                   "--phase-model", "haar")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert f"capped at n={MAX_HAAR_N}" in proc.stderr


def test_commands_run_without_scipy():
    # scipy is a test dependency only: with it blocked, the package must
    # still import and run a search and a scan; numpy.fft, which only the
    # scan's spectral argmax uses, loads with the first scan, not on import
    code = """
import sys
sys.modules["scipy"] = None
from qcorr.cli import main
assert "numpy.fft" not in sys.modules
assert main(["analyze", sys.argv[1], "--restarts", "2", "--seed", "0"]) == 0
assert main(["dqc1-scan", "--dims", "3", "--alpha-steps", "3"]) == 0
print(sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod))
"""
    state = Path(__file__).parent / "golden" / "state_2x2.json"
    proc = subprocess.run([sys.executable, "-c", code, str(state)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("[]")


def test_out_flag_writes_identical_bytes(tmp_path):
    out = tmp_path / "scan.csv"
    to_file = run_cli("werner-scan", "--dims", "2", "--alpha-steps", "3", "--out", str(out))
    assert to_file.returncode == 0 and to_file.stdout == ""
    to_stdout = run_cli("werner-scan", "--dims", "2", "--alpha-steps", "3")
    assert out.read_text() == to_stdout.stdout


def test_campaign_prop1_passes_and_summarizes():
    proc = run_cli("campaign", "prop1", "--samples", "12", "--dims", "2,3")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "sample" and header[-1] == "ok"
    assert len(lines) == 13
    assert all(line.split(",")[-1] == "1" for line in lines[1:])
    assert "12 rows, 12 ok, 0 violations" in proc.stderr


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_campaign_rejects_nonpositive_samples(samples):
    proc = run_cli("campaign", "prop1", "--samples", samples)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--samples: expected a positive integer" in proc.stderr


@pytest.mark.parametrize("args", [
    ["dqc1-scan", "--alpha-steps", "2"],
    ["lock-demo"],
    ["werner-scan", "--alpha-steps", "2"],
    ["campaign", "prop1", "--samples", "1"],
    ["campaign", "bounds", "--samples", "1"],
], ids=["dqc1-scan", "lock-demo", "werner-scan", "prop1", "bounds"])
@pytest.mark.parametrize("dims", ["0", "-2"])
def test_dims_below_one_is_a_usage_error(args, dims):
    # a list entry below one is rejected like a lone value
    value = dims if args[0] in ("dqc1-scan", "lock-demo") else f"2,{dims}"
    proc = run_cli(*args, "--dims", value)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--dims: expected a positive" in proc.stderr


@pytest.mark.parametrize("kind,args,names", [
    ("prop1", ["--samples", "3", "--dims", "2"], ["sample 0", "sample 1", "sample 2"]),
    ("bounds", ["--samples", "2", "--dims", "2,3"],
     ["sample 0 of d = 2", "sample 1 of d = 2", "sample 0 of d = 3", "sample 1 of d = 3"]),
    ("qvsdiscord", ["--samples", "2", "--dims", "2", "--restarts", "1"], ["sample 0", "sample 1"]),
], ids=["prop1", "bounds", "qvsdiscord"])
def test_campaign_violations_exit_4_with_one_replay_line_per_sample(
        monkeypatch, capsys, kind, args, names):
    # slacks far below zero make every sample of every kind fail its check
    monkeypatch.setattr(cli, "PROP1_SLACK", -10.0)
    monkeypatch.setattr(cli, "DISCORD_SLACK", -10.0)
    monkeypatch.setattr(bounds, "BOUND_SLACK", -10.0)
    assert cli.main(["campaign", kind, *args, "--seed", "5"]) == 4
    out, err = capsys.readouterr()
    rows = out.strip().split("\n")[1:]
    assert len(rows) == len(names)
    assert all(row.split(",")[-1] == "0" for row in rows)
    n = len(names)
    assert err.split("\n") == [
        f"{kind}: {n} rows, 0 ok, {n} violations",
        *(f"violation in {name}: replay with --seed 5" for name in names),
        "",
    ]


def test_campaign_bounds_covers_requested_dimensions():
    proc = run_cli("campaign", "bounds", "--samples", "4", "--dims", "2,3")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0].startswith("d,sample,i_total,max_pair_sum")
    ds = {line.split(",")[0] for line in lines[1:]}
    assert ds == {"2", "3"}
    assert all(line.split(",")[-1] == "1" for line in lines[1:])


def test_campaign_qvsdiscord_orders_measures():
    proc = run_cli("campaign", "qvsdiscord", "--samples", "4", "--dims", "2", *FAST)
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    cols = lines[0].split(",")
    i_q = cols.index("nonclassicality")
    i_j = cols.index("discord_a")
    for line in lines[1:]:
        parts = line.split(",")
        assert float(parts[i_q]) >= float(parts[i_j]) - 1e-6
        assert parts[-1] == "1"


def test_lock_demo_both_variants():
    proc = run_cli("lock-demo", "--dims", "2", *FAST)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["variant"] == "locking"
    assert report["mi_no_comm"] == pytest.approx(0.5, abs=5e-3)
    assert report["mi_after_one_bit"] == pytest.approx(1.0, abs=1e-9)
    sigma = json.loads(run_cli("lock-demo", "sigma", "--dims", "2", *FAST).stdout)
    assert sigma["unlock_gain"] == pytest.approx(0.0, abs=1e-9)


def test_trine_reports_positive_gap():
    proc = run_cli("trine", "--restarts", "10", "--iters", "500")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["projective_grid_mi"] == pytest.approx(0.4591479170272448, abs=1e-9)
    assert report["gap"] > 1e-3
    assert report["povm_outcomes"] == 3


def test_usage_error_exits_nonzero():
    proc = run_cli("campaign", "made-up-kind")
    assert proc.returncode != 0

#!/usr/bin/env python3
"""qcorr benchmark.

    python3 perfbench/run.py --workload report --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop with a single caller: the operations of a
fixed batch, generated from --seed, run one after another, and the batch is
repeated until --seconds is spent (at least once).  Every result is checked.
The last line of standard output is a JSON object with the keys "correct",
"attempted", "failed" and "metrics"; --trace 0 reports the end-to-end
metrics of BENCHMARK.json and --trace 1 the per-layer ones.  A result file
with provenance (and, for --trace 1, the span file) is written to
.perfbench_out/ in the checkout.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from statistics import mean, median, quantiles
from time import perf_counter

# One BLAS thread unless the caller chose otherwise: the machine is shared
# and the figures must repeat.  Set before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import calibration  # noqa: E402  (imports numpy, so after the thread variables)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("report", "sample", "dqc1")
SETUP_PROBES = 3
IMPORT_PROBES = 3
SUBPROCESS_TIMEOUT_S = 120
PER_OP_CALIBRATION_MAX_OPS = 20  # larger batches calibrate once per pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny batch, for the smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help="import, generate the inputs, run one warm-up operation and exit")
    return p.parse_args(argv)


# ------------------------------------------------------------------ set-up

def setup(args):
    """Import the package from this checkout, build the inputs, warm up."""
    sys.path.insert(0, str(SRC))
    import qcorr

    if Path(qcorr.__file__).resolve().parent != (SRC / "qcorr").resolve():
        raise RuntimeError(f"imported qcorr from {qcorr.__file__}, not from {SRC}")
    import workloads

    wl = workloads.build(args.workload, args.seed, OUT, args.smoke)
    wl.warm_up()
    return wl


def measure_import_s() -> float:
    """Median time for a fresh interpreter to run `import qcorr.cli`."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import qcorr.cli; print(time.perf_counter() - t0)")
    times = []
    for _ in range(IMPORT_PROBES):
        res = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                             capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        times.append(float(res.stdout.strip()))
    return median(times)


def measure_setup_s(args) -> list[tuple[float, float]]:
    """Complete set-ups, each in a fresh interpreter, in (reference seconds,
    measured seconds)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    probes = []
    for _ in range(SETUP_PROBES):
        before = calibration.kernel_s()
        t0 = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=SUBPROCESS_TIMEOUT_S)
        dt = perf_counter() - t0
        after = calibration.kernel_s()
        probes.append((calibration.to_reference(dt, before, after), dt))
    return probes


# ------------------------------------------------------------------- passes

class Runner:
    """Runs passes over a workload's batch, timing and checking each op."""

    def __init__(self, wl):
        self.wl = wl
        self.reference = None
        self.summary = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.latency = defaultdict(list)
        self.pass_s = {False: [], True: []}
        # ("cal", seconds) and ("op", traced, batch position, seconds) in run order
        self.timeline: list[tuple] = []

    def run_pass(self, tracer=None) -> None:
        results, total, clean = [], 0.0, True
        per_op_cal = len(self.wl.ops) <= PER_OP_CALIBRATION_MAX_OPS
        for i, op in enumerate(self.wl.ops):
            if per_op_cal or i == 0:
                self.timeline.append(("cal", calibration.kernel_s()))
            if tracer is not None:
                tracer.op = self.attempted
            self.attempted += 1
            t0 = perf_counter()
            try:
                value = op.run()
            except Exception as exc:  # a failing operation is counted; the run goes on
                dt = perf_counter() - t0
                traceback.print_exc(file=sys.stderr)
                value, problems = None, [f"raised {type(exc).__name__}: {exc}"]
            else:
                dt = perf_counter() - t0
                problems = op.check(value)
                if self.reference is not None and value != self.reference[i]:
                    problems.append("result differs from the first pass")
            total += dt
            if tracer is None:
                self.latency[op.label].append(dt)
            self.timeline.append(("op", tracer is not None, i, dt))
            results.append(value)
            if problems:
                clean = False
                self.failed += 1
                self.problems += [f"{op.label} (op {i}): {p}" for p in problems]
        self.pass_s[tracer is not None].append(total)
        if self.reference is None:
            self.reference = results
        if self.summary is None and clean:
            self.summary = self.wl.summarize(results)

    def drive(self, seconds: float, tracer=None) -> None:
        """Repeat passes while another one fits in `seconds`.  With a tracer,
        untraced and traced passes alternate, at least one of each."""
        t_start = perf_counter()
        n = 0
        while True:
            traced = tracer is not None and n % 2 == 1
            if traced:
                tracer.install()
            try:
                self.run_pass(tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            n += 1
            if tracer is not None and not self.pass_s[True]:
                continue
            typical = median(self.pass_s[False] + self.pass_s[True])
            if perf_counter() - t_start + typical > seconds:
                break
        self.timeline.append(("cal", calibration.kernel_s()))

    def op_times(self, traced: bool, reference: bool) -> list[list[float]]:
        """Operation times per batch position, in reference seconds (scaled
        by the calibrations just before and after its unit) or as measured."""
        out = [[] for _ in self.wl.ops]
        following = [0.0] * len(self.timeline)
        cal = None
        for k in range(len(self.timeline) - 1, -1, -1):
            if self.timeline[k][0] == "cal":
                cal = self.timeline[k][1]
            following[k] = cal
        for k, event in enumerate(self.timeline):
            if event[0] == "cal":
                cal = event[1]
            elif event[1] == traced:
                dt = event[3]
                if reference:
                    dt = calibration.to_reference(dt, cal, following[k])
                out[event[2]].append(dt)
        return out

    def batch_s(self, traced: bool = False, reference: bool = True) -> float:
        """Batch time from per-operation medians: the sum, over the batch,
        of each operation's median time."""
        return sum(median(times) for times in self.op_times(traced, reference))

    def calibration_s(self) -> float:
        return median(e[1] for e in self.timeline if e[0] == "cal")


# ------------------------------------------------------------------ metrics

def end_to_end_metrics(runner, setup_probes) -> dict:
    return {
        "setup_s": median(ref for ref, _ in setup_probes),
        "solve_s": runner.batch_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "info_share": (runner.summary or {}).get("info_share", 0.0),
    }


def detail_metrics(runner) -> dict:
    """Workload-specific figures for the result file."""
    lat = runner.latency
    out = {
        "failed_frac": runner.failed / runner.attempted,
        "passes": len(runner.pass_s[False]),
        "pass_s": runner.pass_s[False],
        "op_median_s": {label: median(v) for label, v in lat.items()},
        "op_count": {label: len(v) for label, v in lat.items()},
        "solve_measured_s": runner.batch_s(reference=False),
        "calibration_s": runner.calibration_s(),
    }
    if len(runner.wl.ops) <= PER_OP_CALIBRATION_MAX_OPS:
        out["op_reference_s"] = runner.op_times(traced=False, reference=True)
        out["op_measured_s"] = runner.op_times(traced=False, reference=False)
    for key, value in (runner.summary or {}).items():
        if key != "info_share":
            out[key] = value
    if runner.wl.name == "report":
        for shape in ("2x2", "3x3", "4x4"):
            if lat.get(f"report.{shape}"):
                out[f"report_s.{shape}"] = mean(lat[f"report.{shape}"])
        out["trine_s"] = mean(lat["trine"])
    if runner.wl.name == "sample":
        ms = sorted(1e3 * t for v in lat.values() for t in v)
        cuts = quantiles(ms, n=100, method="inclusive")
        out["sample_ms.p50"], out["sample_ms.p99"] = cuts[49], cuts[98]
        out["sample_count"] = len(ms)
    return out


def layer_metrics(tracer, runner, micro: dict, import_s: float) -> dict:
    from tracing import MULTISTART_SPAN, TRINE_SPAN

    n = len(runner.pass_s[True])
    ops = runner.wl.ops
    m = {}

    def frac(num, den):
        return num / den if den else 0.0

    starts = tracer.starts
    objective_s = sum(tracer.objective_time.values())
    m["optimize.starts"] = len(starts) / n
    m["optimize.nfev"] = sum(s[0] for s in starts) / n
    m["optimize.nit"] = sum(s[1] for s in starts) / n
    m["optimize.nfev_per_start"] = frac(sum(s[0] for s in starts), len(starts))
    m["optimize.converged_frac"] = frac(sum(s[2] for s in starts), len(starts))
    m["optimize.capped_frac"] = frac(sum(s[3] for s in starts), len(starts))
    m["optimize.objective_s"] = objective_s / n
    m["optimize.search_overhead_s"] = (tracer.busy[MULTISTART_SPAN] - objective_s) / n
    for kind in ("mi", "cc", "povm"):
        m[f"optimize.eval_us.{kind}"] = 1e6 * frac(
            tracer.objective_time[kind], tracer.objective_calls[kind])
    m.update(micro)

    for fn in ("full_report", "maximize_mi_projective", "classical_correlation_a",
               "maximize_mi_povm", "i_eigenbasis"):
        m[f"measures.{fn}.busy_s"] = tracer.busy[f"measures.{fn}"] / n
        m[f"measures.{fn}.self_s"] = tracer.self_time[f"measures.{fn}"] / n
    by_op = tracer.spans_by_op("measures.full_report")
    for shape in ("2x2", "3x3", "4x4"):
        durations = [d for op, d in by_op.items()
                     if ops[op % len(ops)].label == f"report.{shape}"]
        m[f"measures.full_report_s.{shape}"] = mean(durations) if durations else 0.0
    for span, key in (
        ("measures.joint_distribution", "measures.joint_distribution"),
        ("measures.Povm.random_rank_one", "measures.random_rank_one"),
        ("measures.quantum_mutual_info", "measures.quantum_mutual_info"),
        ("linalg.random_density_matrix", "linalg.random_density_matrix"),
        ("linalg.partial_trace", "linalg.partial_trace"),
        ("linalg.von_neumann_entropy", "linalg.von_neumann_entropy"),
        ("bounds.mub_information_report", "bounds.mub_information_report"),
    ):
        m[f"{key}.calls"] = tracer.calls[span] / n
        m[f"{key}.busy_s"] = tracer.busy[span] / n

    trine = [s for s in starts if s[4]]
    m["states.trine_povm_optimum.busy_s"] = tracer.busy[TRINE_SPAN] / n
    m["states.trine.optimize.starts"] = len(trine) / n
    m["states.trine.optimize.nfev"] = sum(s[0] for s in trine) / n
    m["states.trine.optimize.nit"] = sum(s[1] for s in trine) / n

    scan_calls = tracer.calls["dqc1.dqc1_max_record_mi"]
    m["dqc1.dqc1_scan.busy_s"] = tracer.busy["dqc1.dqc1_scan"] / n
    m["dqc1.haar_setup_s"] = tracer.busy["dqc1.Dqc1Model.haar"] / n
    m["dqc1.max_record_mi.calls"] = scan_calls / n
    m["dqc1.max_record_mi_ms"] = 1e3 * frac(tracer.busy["dqc1.dqc1_max_record_mi"], scan_calls)
    m["dqc1.grid_cells"] = scan_calls / n * runner.wl.cells_per_scan_point
    m["dqc1.grid_bytes"] = 8 * m["dqc1.grid_cells"]

    m["cli.self_s"] = tracer.self_time["cli.main"] / n
    m["cli.import_s"] = import_s
    m["trace.overhead_frac"] = runner.batch_s(traced=True) / runner.batch_s() - 1
    m["trace.span_cover_frac"] = frac(
        sum(tracer.self_time.values()) + objective_s, sum(runner.pass_s[True]))
    return m


# --------------------------------------------------------------- provenance

def _git_commit():
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance() -> dict:
    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "qcorr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


# --------------------------------------------------------------------- main

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qcorr" / "__init__.py").is_file():
        print(f"perfbench: package source {SRC / 'qcorr'} not found", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        setup(args)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    wl = setup(args)
    runner = Runner(wl)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"args": vars(args), "provenance": provenance()}
    if args.trace:
        import micro
        from tracing import Tracer

        micro_us = micro.micro_timings(args.seed)
        tracer = Tracer()
        runner.drive(args.seconds, tracer)
        metrics = layer_metrics(tracer, runner, micro_us, measure_import_s())
        listed = spec["per_layer"]
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.npz"
        tracer.save(spans_path)
        record["spans_file"] = spans_path.name
        record["traced_pass_s"] = runner.pass_s[True]
    else:
        runner.drive(args.seconds)
        # after the passes: in runs that probed first, the first pass ran
        # 15-25% slower than the second
        setup_probes = measure_setup_s(args)
        record["setup_probes"] = [{"reference_s": r, "measured_s": m} for r, m in setup_probes]
        metrics = end_to_end_metrics(runner, setup_probes)
        listed = spec["end_to_end"]
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in listed},
    }
    record.update(result=result, detail=detail_metrics(runner), problems=runner.problems[:100])
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in runner.problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

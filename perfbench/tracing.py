"""Span tracer for the benchmark's traced run.

The tracer times calls into the public functions of each ``qcorr`` module by
replacing them, at every place the package binds them, with wrappers that
record a span: name, start, end, parent span and operation id.  The
wrappers are installed only around traced passes and removed afterwards;
nothing under ``src/`` changes.

Two things are counted rather than spanned, because they run hundreds of
thousands of times per pass:

* objective evaluations: the objective handed to ``multistart_minimize`` is
  wrapped at the call and its time is charged to the enclosing span as
  child time, so span self times exclude it;
* Nelder-Mead starts: scipy's ``minimize`` as seen by ``qcorr.optimize`` is
  wrapped to read ``nfev``, ``nit`` and ``status`` of every start.

Spans live in flat arrays in memory and are written out once, at the end.
"""
from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Functions at each layer boundary that get a span.  "Class.attr" wraps a
# method (DensityMatrix construction is timed through __post_init__).
SPAN_TARGETS = {
    "linalg": [
        "random_density_matrix", "partial_trace", "von_neumann_entropy", "swap_sides",
        "DensityMatrix.__post_init__",
    ],
    "optimize": ["multistart_minimize"],
    "measures": [
        "full_report", "maximize_mi_projective", "maximize_mi_povm",
        "classical_correlation_a", "i_eigenbasis", "joint_distribution",
        "classical_mutual_info", "quantum_mutual_info", "Povm.random_rank_one",
    ],
    "states": ["trine_povm_optimum"],
    "bounds": ["mub_information_report"],
    "dqc1": ["dqc1_scan", "dqc1_max_record_mi", "dqc1_quantum_mi", "Dqc1Model.haar"],
    "cli": ["main"],
}

# The innermost open span among these names decides which search an
# objective evaluation belongs to.
SEARCH_KIND = {
    "measures.maximize_mi_projective": "mi",
    "measures.classical_correlation_a": "cc",
    "measures.maximize_mi_povm": "povm",
}
TRINE_SPAN = "states.trine_povm_optimum"
NM_SPAN = "optimize.nelder_mead"
MULTISTART_SPAN = "optimize.multistart_minimize"

# scipy Nelder-Mead status codes: 1 = maxfev reached, 2 = maxiter reached.
_CAPPED_STATUS = (1, 2)


def _span_name(layer: str, target: str) -> str:
    return f"{layer}.{target.removesuffix('.__post_init__')}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # open spans: [span index, name, start, time covered by children]
        self._stack: list[list] = []
        self._open = Counter()
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.objective_calls = Counter()
        self.objective_time = defaultdict(float)
        # one row per Nelder-Mead start: (nfev, nit, success, capped, under trine)
        self.starts: list[tuple[int, int, bool, bool, bool]] = []
        self.op = -1
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _enter(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self._open[name] += 1
        start = perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        self._stack.append([idx, name, start, 0.0])

    def _exit(self) -> None:
        end = perf_counter()
        idx, name, start, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        self.calls[name] += 1
        self.self_time[name] += dur - child
        self._open[name] -= 1
        if not self._open[name]:  # busy time counts the outermost call only
            self.busy[name] += dur
        if self._stack:
            self._stack[-1][3] += dur

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return spanned

    def _search_kind(self) -> str:
        for entry in reversed(self._stack):
            kind = SEARCH_KIND.get(entry[1])
            if kind:
                return kind
        return "other"

    def _wrap_multistart(self, fn):
        spanned = self._wrap(MULTISTART_SPAN, fn)

        @functools.wraps(fn)
        def multistart(objective, *args, **kwargs):
            kind = self._search_kind()

            def timed(x):
                t0 = perf_counter()
                try:
                    return objective(x)
                finally:
                    dt = perf_counter() - t0
                    self.objective_calls[kind] += 1
                    self.objective_time[kind] += dt
                    if self._stack:
                        self._stack[-1][3] += dt

            return spanned(timed, *args, **kwargs)

        return multistart

    def _wrap_minimize(self, fn):
        spanned = self._wrap(NM_SPAN, fn)

        @functools.wraps(fn)
        def minimize(*args, **kwargs):
            res = spanned(*args, **kwargs)
            self.starts.append((
                int(res.nfev), int(res.nit), bool(res.success),
                int(res.status) in _CAPPED_STATUS, self._open[TRINE_SPAN] > 0,
            ))
            return res

        return minimize

    # --------------------------------------------------------- patching

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Replace every binding of each target inside the qcorr package."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "qcorr" or name.startswith("qcorr.")]
        optimize = importlib.import_module("qcorr.optimize")
        self._set(optimize, "minimize", self._wrap_minimize(optimize.minimize))
        for layer, targets in SPAN_TARGETS.items():
            mod = importlib.import_module(f"qcorr.{layer}")
            for target in targets:
                name = _span_name(layer, target)
                if "." in target:
                    cls_name, attr = target.split(".")
                    owner = getattr(mod, cls_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw)
                    self._set(owner, attr, wrapped)
                    continue
                orig = getattr(mod, target)
                if name == MULTISTART_SPAN:
                    wrapped = self._wrap_multistart(orig)
                else:
                    wrapped = self._wrap(name, orig)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._set(m, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------ output

    def spans_by_op(self, name: str) -> dict[int, float]:
        """Summed duration of the spans called `name`, keyed by op id."""
        nid = self._name_ids.get(name)
        out: dict[int, float] = defaultdict(float)
        if nid is None:
            return out
        for i, n in enumerate(self.span_name):
            if n == nid:
                out[self.span_op[i]] += self.span_end[i] - self.span_start[i]
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

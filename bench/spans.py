"""Span tracer that wraps overlapcert's public functions from outside.

``Tracer.install()`` replaces each traced function, under every name an
overlapcert module holds it by (``overlapcert.cli.run_protocol`` as well
as ``overlapcert.randomized.run_protocol``), with a wrapper that records
one span per call: name, start, end and parent span.  Spans stay in
memory until ``dump()``.  Per-operation totals are kept as the spans
close, so layer metrics need no second pass: a span's self time is its
duration minus the durations of its direct children, and a layer's busy
time sums only the calls made into it from outside the layer.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute, layer); the span is named "<layer>.<attribute>".
TARGETS = (
    ("overlapcert.states", "isotropic", "states"),
    ("overlapcert.states", "corner_isotropic", "states"),
    ("overlapcert.states", "max_entangled", "states"),
    ("overlapcert.states", "ghz_pure", "states"),
    ("overlapcert.states", "ghz_noisy", "states"),
    ("overlapcert.states", "sn3_unfaithful_state", "states"),
    ("overlapcert.states", "sn3_probe_state", "states"),
    ("overlapcert.states", "random_mixed", "states"),
    ("overlapcert.states", "build_density", "states"),
    ("overlapcert.qmat", "QState.__post_init__", "qmat"),
    ("overlapcert.criteria", "overlap_ratio", "overlap"),
    ("overlapcert.multipartite", "multipartite_ipc", "overlap"),
    ("overlapcert.multipartite", "lambda_map_value", "overlap"),
    ("overlapcert.multipartite", "lambda_map_verdict", "overlap"),
    ("overlapcert._scan", "bisect_root", "scan"),
    ("overlapcert._scan", "golden_section_max", "scan"),
    ("overlapcert._scan", "maximize_unimodal", "scan"),
    ("overlapcert.randomized", "run_protocol", "protocol"),
    ("overlapcert.randomized", "sample_local_unitary", "protocol"),
    ("overlapcert.randomized", "estimate_overlaps", "estimator"),
    ("overlapcert.randomized", "estimate_self_overlaps", "estimator"),
    ("overlapcert.randomized", "write_records", "persist"),
    ("overlapcert.randomized", "read_records", "persist"),
    ("overlapcert.variational", "s_hat", "variational"),
    ("overlapcert.variational", "fully_entangled_fraction", "variational"),
    ("overlapcert.variational", "verify_shat_fef_identity", "variational"),
    ("overlapcert.variational", "_maximize", "variational"),
    ("overlapcert.cli", "cmd_fig1", "cli"),
    ("overlapcert.cli", "cmd_fig3", "cli"),
    ("overlapcert.cli", "cmd_rfbc_tightness", "cli"),
    ("overlapcert.cli", "cmd_rm_experiment", "cli"),
    ("overlapcert.cli", "cmd_examples", "cli"),
)

# The scans evaluate the function they are given; each evaluation is a
# child span, so a scan's self time is its own bisection or golden-section
# arithmetic.
SCAN_EVAL = "scan_eval.f"


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(kwargs.get("path", args[0] if args else None))


# Counts read off a traced call's arguments or result: attribute ->
# (counter, function of (args, kwargs, result)).
COUNTERS = {
    "run_protocol": ("protocol.settings", lambda a, k, r: len(r)),
    "estimate_overlaps": ("estimator.settings", lambda a, k, r: r.n_settings),
    "estimate_self_overlaps": ("estimator.settings", lambda a, k, r: r.n_settings),
    "write_records": ("persist.write_bytes", _file_bytes),
    "read_records": ("persist.read_bytes", _file_bytes),
    # the trajectory holds the start value and one value per iteration
    "_maximize": ("variational.iterations", lambda a, k, r: len(r.trajectory) - 1),
}


class OpStats:
    """Totals of one operation, filled as spans close."""

    def __init__(self):
        self.calls = defaultdict(int)  # span name -> calls
        self.total = defaultdict(float)  # span name -> summed duration
        self.outer_calls = defaultdict(int)  # layer -> calls from outside it
        self.busy = defaultdict(float)  # layer -> duration of those calls
        self.self_time = defaultdict(float)  # layer -> summed self time
        self.extra = defaultdict(float)  # counts read off arguments/results


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[list] = []  # [index, start, layer, child_sum]
        self._depth = defaultdict(int)  # layer -> open spans of that layer
        self.stats = OpStats()
        self._patches: list[tuple] = []
        self._replay: dict[str, tuple] = {}

    # -- spans ---------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name_id: int, layer: str) -> None:
        idx = len(self.span_start)
        start = time.perf_counter()
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(0.0)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self._stack.append([idx, start, layer, 0.0])
        self._depth[layer] += 1

    def end(self, name: str) -> None:
        stop = time.perf_counter()
        idx, start, layer, child_sum = self._stack.pop()
        self.span_end[idx] = stop
        dur = stop - start
        if self._stack:
            self._stack[-1][3] += dur
        self._depth[layer] -= 1
        st = self.stats
        st.calls[name] += 1
        st.total[name] += dur
        st.self_time[layer] += dur - child_sum
        if self._depth[layer] == 0:
            st.outer_calls[layer] += 1
            st.busy[layer] += dur

    def new_op(self) -> OpStats:
        """Start the totals of a new operation; return the finished ones."""
        done, self.stats = self.stats, OpStats()
        return done

    def wrap(self, fn, name: str, layer: str, attr: str = ""):
        name_id = self._name_id(name)
        counter = COUNTERS.get(attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.begin(name_id, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(name)
            if counter is not None:
                key, count = counter
                tracer.stats.extra[key] += count(args, kwargs, result)
            if layer == "estimator":
                tracer._replay[attr] = (fn, args, kwargs)
            return result

        traced.__traced__ = True
        return traced

    # -- installation --------------------------------------------------
    def _scan_wrapper(self, traced):
        tracer = self

        @functools.wraps(traced)
        def scan(f, *args, **kwargs):
            if not getattr(f, "__traced__", False):
                f = tracer.wrap(f, SCAN_EVAL, "scan_eval")
            return traced(f, *args, **kwargs)

        scan.__traced__ = True
        return scan

    def install(self) -> None:
        """Wrap every target under every module name that refers to it."""
        modules = [m for k, m in list(sys.modules.items())
                   if (k == "overlapcert" or k.startswith("overlapcert."))
                   and m is not None]
        for mod_name, attr, layer in TARGETS:
            owner = sys.modules.get(mod_name)
            if owner is None:
                continue
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                original = getattr(cls, meth, None)
                if original is None:
                    continue
                traced = self.wrap(original, f"{layer}.{cls_name}", layer)
                self._patches.append((cls, meth, original))
                setattr(cls, meth, traced)
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            traced = self.wrap(original, f"{layer}.{attr}", layer, attr)
            if layer == "scan":
                traced = self._scan_wrapper(traced)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, traced)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- outputs -------------------------------------------------------
    def estimator_peak_alloc_mb(self) -> float:
        """tracemalloc peak of one estimator call, replayed untraced.

        tracemalloc slows every allocation, so it is kept out of the
        timed spans; the replay repeats the last call of each estimator.
        """
        peak = 0
        for fn, args, kwargs in self._replay.values():
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                fn(*args, **kwargs)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peak / 2**20

    def dump(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(st: OpStats) -> dict:
    """Per-layer metrics of one traced operation."""
    settings = st.extra["protocol.settings"]
    unitaries = st.calls["protocol.sample_local_unitary"]
    sample_s = st.total["protocol.sample_local_unitary"]
    est_settings = st.extra["estimator.settings"]
    iterations = st.extra["variational.iterations"]
    return {
        "states.builds": st.outer_calls["states"],
        "states.build_s": st.busy["states"],
        "qmat.validations": st.calls["qmat.QState"],
        "qmat.validate_s": st.busy["qmat"],
        "protocol.settings": settings,
        "protocol.busy_s": st.busy["protocol"],
        "protocol.us_per_setting": 1e6 * _div(st.busy["protocol"], settings),
        "protocol.unitaries": unitaries,
        "protocol.sample_s": sample_s,
        "protocol.self_s": st.busy["protocol"] - sample_s,
        "estimator.calls": st.outer_calls["estimator"],
        "estimator.busy_s": st.busy["estimator"],
        "estimator.us_per_setting": 1e6 * _div(st.busy["estimator"], est_settings),
        "persist.write_s": st.total["persist.write_records"],
        "persist.write_mb": st.extra["persist.write_bytes"] / 2**20,
        "persist.read_s": st.total["persist.read_records"],
        "persist.read_mb": st.extra["persist.read_bytes"] / 2**20,
        "overlap.calls": st.outer_calls["overlap"],
        "overlap.busy_s": st.busy["overlap"],
        "overlap.us_per_call": 1e6 * _div(st.busy["overlap"], st.outer_calls["overlap"]),
        "scan.evals": st.calls[SCAN_EVAL],
        "scan.self_s": st.self_time["scan"],
        "cli.fig1_s": st.total["cli.cmd_fig1"],
        "cli.fig3_s": st.total["cli.cmd_fig3"],
        "cli.rfbc_tightness_s": st.total["cli.cmd_rfbc_tightness"],
        "cli.examples_s": st.total["cli.cmd_examples"],
        "cli.rm_experiment_s": st.total["cli.cmd_rm_experiment"],
        "variational.calls": st.outer_calls["variational"],
        "variational.busy_s": st.busy["variational"],
        "variational.iterations": iterations,
        "variational.ms_per_iteration": 1e3 * _div(st.busy["variational"], iterations),
    }

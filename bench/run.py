"""Benchmark of overlapcert: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload scans --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

``--trace 0`` prints the end-to-end metrics (setup_s, op_s, peak_rss_mb);
``--trace 1`` prints the per-layer metrics of a traced run.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  ``--smoke`` runs one checked operation of every
workload.  The package is imported from ``src/`` of the same checkout.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread for this process and every process it starts:
# each run is the single-threaded baseline, and the two cores of a small
# machine never compete for BLAS threads.  Must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

SETUP_STARTS = 5  # timed cold starts per run; setup_s is their median
IMPORTTIME_RUNS = 3

# The host moves the clock of a vCPU while a run is going: the loop in
# spin() took from 0.0113 to 0.0166 s within one hour on the reference
# machine, and the interpreter-bound operations sped up and slowed down
# with it.  Every timed interval is therefore bracketed by two spins and
# converted to the base clock, at which one spin takes BASE_SPIN_S.
BASE_SPIN_S = 0.0155

E2E_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MiB"}
LAYER_UNITS = {
    "import.total_s": "s", "import.scipy_s": "s",
    "states.builds": "count", "states.build_s": "s",
    "qmat.validations": "count", "qmat.validate_s": "s",
    "protocol.settings": "count", "protocol.busy_s": "s",
    "protocol.us_per_setting": "us", "protocol.unitaries": "count",
    "protocol.sample_s": "s", "protocol.self_s": "s",
    "estimator.calls": "count", "estimator.busy_s": "s",
    "estimator.us_per_setting": "us", "estimator.peak_alloc_mb": "MiB",
    "persist.write_s": "s", "persist.write_mb": "MiB",
    "persist.read_s": "s", "persist.read_mb": "MiB",
    "overlap.calls": "count", "overlap.busy_s": "s", "overlap.us_per_call": "us",
    "scan.evals": "count", "scan.self_s": "s",
    "cli.fig1_s": "s", "cli.fig3_s": "s", "cli.rfbc_tightness_s": "s",
    "cli.examples_s": "s", "cli.rm_experiment_s": "s",
    "variational.calls": "count", "variational.busy_s": "s",
    "variational.iterations": "count", "variational.ms_per_iteration": "ms",
    "trace.overhead_s": "s",
}


def spin() -> float:
    """Wall time of a fixed pure-Python loop: a probe of the current clock."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _use_checkout_source() -> None:
    if not (SRC / "overlapcert" / "__init__.py").is_file():
        _log(f"no overlapcert package under {SRC}; run from a checkout's root")
        sys.exit(2)
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# set-up time, from fresh interpreters


def setup_probe(workload: str, seed: int, workdir: str) -> None:
    """Child process: import the package, build the inputs, print stamps."""
    import overlapcert  # noqa: F401

    imported = time.perf_counter()
    from workloads import WORKLOADS

    w = WORKLOADS[workload]()
    w.prepare(seed, workdir)
    t0 = time.perf_counter()
    w.build()
    print(json.dumps({"imported": imported, "build_s": time.perf_counter() - t0}))


def cold_setup_seconds(workload: str, seed: int, workdir: str) -> float:
    """Median over cold starts of spawn-to-import plus the input build.

    The first start is not counted: it may compile the package's bytecode.
    """
    times = []
    for k in range(SETUP_STARTS + 1):
        before = spin()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--workdir", workdir],
            capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        stamps = json.loads(proc.stdout.splitlines()[-1])
        clock = (before + spin()) / 2
        if k:
            times.append((stamps["imported"] - t0 + stamps["build_s"])
                         * BASE_SPIN_S / clock)
    return statistics.median(times)


def import_times() -> dict:
    """Cumulative import time of overlapcert and of scipy.optimize."""
    totals, scipys = [], []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             f"import sys; sys.path.insert(0, {str(SRC)!r}); import overlapcert"],
            capture_output=True, text=True, timeout=150, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        totals.append(cumulative["overlapcert"])
        scipys.append(cumulative.get("scipy.optimize", 0.0))
    return {"import.total_s": statistics.median(totals),
            "import.scipy_s": statistics.median(scipys)}


# ---------------------------------------------------------------------------
# operations


class Counts:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, w, i: int):
        """One operation and its checks; returns its time at the base clock,
        or None if it raised."""
        self.attempted += 1
        gc.collect()
        before = spin()
        try:
            t0 = time.perf_counter()
            out = w.op(i)
            elapsed = time.perf_counter() - t0
        except Exception:  # an operation that raises is counted, not fatal
            self.failed += 1
            _log(f"{w.name} operation {i} failed:\n{traceback.format_exc()}")
            return None
        clock = (before + spin()) / 2
        errs = w.check(out)
        if errs:
            self.errors += errs
            _log(f"{w.name} operation {i}: " + "; ".join(errs[:5]))
        return elapsed * BASE_SPIN_S / clock


def timed_loop(w, counts: Counts, seconds: float, first: int, per_op=None):
    """Whole operations until ``seconds`` have passed; returns their times."""
    times = []
    deadline = time.perf_counter() + seconds
    i = first
    while True:
        elapsed = counts.run(w, i)
        if elapsed is not None:
            times.append(elapsed)
        if per_op is not None:
            per_op()
        i += 1
        if time.perf_counter() >= deadline:
            return times, i


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        metrics = {}
        if trace:
            metrics.update(import_times())
        else:
            metrics["setup_s"] = cold_setup_seconds(workload, seed, workdir)
        from workloads import WORKLOADS

        w = WORKLOADS[workload]()
        w.prepare(seed, workdir)
        w.build()
        counts = Counts()
        counts.run(w, 0)  # warm-up, checked but not timed
        if not trace:
            times, _ = timed_loop(w, counts, seconds, 1)
            metrics["op_s"] = _median(times)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        else:
            metrics.update(traced_run(w, counts, seconds, seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = LAYER_UNITS if trace else E2E_UNITS
    return {
        "correct": not counts.errors,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def traced_run(w, counts: Counts, seconds: float, seed: int) -> dict:
    """Half the time untraced, half traced; per-layer medians over operations."""
    from spans import Tracer, layer_metrics

    plain, nxt = timed_loop(w, counts, seconds / 2, 1)
    tracer = Tracer()
    tracer.install()
    per_op = []
    try:
        tracer.new_op()
        traced, _ = timed_loop(
            w, counts, seconds / 2, nxt,
            per_op=lambda: per_op.append(layer_metrics(tracer.new_op())))
    finally:
        tracer.uninstall()
    out = {k: _median([m[k] for m in per_op]) for k in per_op[0]}
    out["estimator.peak_alloc_mb"] = tracer.estimator_peak_alloc_mb()
    out["trace.overhead_s"] = _median(traced) - _median(plain)
    tracer.dump(OUT / f"spans-{w.name}-seed{seed}.npz")
    return out


def smoke() -> int:
    """One checked operation of every workload."""
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    counts = Counts()
    for name, cls in WORKLOADS.items():
        workdir = tempfile.mkdtemp(prefix=f"smoke-{name}-", dir=OUT)
        try:
            w = cls()
            w.prepare(0, workdir)
            w.build()
            elapsed = counts.run(w, 0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        _log(f"smoke {name}: {'failed' if elapsed is None else f'{elapsed:.3f} s'}")
    result = {"correct": not counts.errors, "attempted": counts.attempted,
              "failed": counts.failed, "metrics": {}}
    print(json.dumps(result))
    return 0 if result["correct"] and not counts.failed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_checkout_source()
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.workdir)
        return 0
    if args.smoke:
        return smoke()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.joinpath(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

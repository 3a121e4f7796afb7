"""Benchmark for the isospec command line: seeded workloads of real CLI calls.

Usage, from the root of a checkout (the program is imported from ./src):

    python3 bench/run.py --workload perturb-torus48 --seed 1 --seconds 30 --trace 0

``--workload`` may be repeated, or ``all``.  With ``--trace 0`` every
call runs as its own ``python -m isospec.cli`` subprocess, one at a time,
and the end-to-end metrics are measured.  With ``--trace 1`` the same
calls run in this process, in pairs of an untraced and a traced pass, and
the per-layer metrics come from the spans of the traced pass (see
spans.py).  BLAS keeps its default thread count in both modes.  Each mode
repeats whole passes, or pairs, until the next one would overrun
``--seconds``; at least one.

Every artifact of a call that exits 0 is checked against its oracle
(oracles.py) and against the same call in the other passes of the run,
which must be bit-identical apart from the manifest's wall time.  A
traced run always has two passes, so determinism is checked there even
when one subprocess pass fills the budget.  A call fails when it
exits non-zero, fails its oracle or differs from a repeat.  Calls that
exit 2 or 3 are counted; oracle and determinism failures also make the
command exit 1.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The numbers are
recorded, not gated on: the bounds live in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import logging
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer, per_root_layers  # noqa: E402

WORK_DIR = ".bench_run"
SETUP_SAMPLES = 3
CALL_TIMEOUT_S = 150.0

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("corrections_s", "s"),
    ("peak_rss_mb", "MB"),
)

_SPAN_TIMES = (
    "cli.load_config",
    "cli.write",
    "surface.load_mesh",
    "surface.field",
    "assembly.assemble_base",
    "eigen.solve",
    "perturb.compute_corrections",
    "perturb.adapt",
    "perturb.first_order",
    "perturb.second_order",
    "perturb.matrix_elements",
    "experiments.metric_side_probe",
    "experiments.convexity_probe",
    "experiments.obstruction_map",
    "experiments.default_field_basis",
    "experiments.weyl",
)
_SPAN_CALLS = (
    "surface.load_mesh",
    "surface.field",
    "assembly.assemble_base",
    "assembly.exact_pair",
    "eigen.solve",
    "perturb.matrix_elements",
)
_COUNTS = (
    "assembly.apply_h1.columns",
    "assembly.apply_h1_adjoint.columns",
    "assembly.apply_h2.columns",
    "eigen.solve.full_calls",
    "eigen.solve.modes",
    "perturb.adapted_groups",
)
PER_LAYER = (
    tuple((f"{name}_s", "s") for name in _SPAN_TIMES)
    + tuple((f"{name}.calls", "count") for name in _SPAN_CALLS)
    + tuple((name, "count") for name in _COUNTS)
    + (
        ("cli.artifact_bytes", "bytes"),
        ("eigen.dense_mb", "MB"),
        ("eigen.modes_used_ratio", "ratio"),
        ("experiments.convexity.solves_per_tau", "ratio"),
    )
    + tuple((f"{layer}.failed", "count") for layer in LAYERS)
    + (("trace.overhead_s", "s"),)
)


@dataclass
class CallResult:
    label: str
    command: str
    wall_s: float
    returncode: int
    rss_kb: int = 0
    error: str = ""
    digest: str | None = None
    problems: tuple = ()
    artifact_bytes: int = 0
    modes_written: int = 0

    @property
    def failed(self):
        return self.returncode != 0 or bool(self.problems)


# ------------------------------------------------------------------ machine


def openblas_threads():
    """Thread count of every OpenBLAS this process has loaded."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:  # no /proc: the thread count stays unknown
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if get is None:
                continue
            get.restype = ctypes.c_int
            found[os.path.basename(path)] = get()
            break
    return found


def machine_facts():
    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's own BLAS

    def blas(config):
        info = config["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": openblas_threads(),
    }


# ------------------------------------------------------------------ statistics


def top_percentile(n):
    """Highest whole percentile with at least ten of n samples above it."""
    if n < 11:
        return None
    return math.floor(100.0 * (1.0 - 10.0 / n))


def describe(values):
    """Median, sample count and the top percentile with ten samples beyond it."""
    values = sorted(values)
    text = f"median of n={len(values)}"
    p = top_percentile(len(values))
    if p is not None:
        rank = max(0, math.ceil(p / 100.0 * len(values)) - 1)
        text += f", p{p}={values[rank]:.4f}"
    return text


# ------------------------------------------------------------------ calls


def _program_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _wait_with_rusage(proc, timeout):
    """os.wait4 on a child; kills it after timeout seconds."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def measure_setup(root, samples):
    """Median wall time of a fresh interpreter importing isospec.cli."""
    env = _program_env(root)
    argv = [sys.executable, "-c", "import isospec.cli"]
    subprocess.run(argv, env=env, check=True, cwd=root)  # warm-up: file and bytecode caches
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=root)
        rc, _ = _wait_with_rusage(proc, CALL_TIMEOUT_S)
        times.append(time.perf_counter() - started)
        if rc != 0:
            raise RuntimeError("importing isospec.cli failed")
    return times


def _argv(call, out_dir):
    return [call.command, "--config", call.config, "--out", out_dir]


def run_subprocess(call, inputs, out_dir, env):
    os.makedirs(out_dir)
    with open(os.path.join(out_dir, "..", f"{call.label}.stderr"), "w+") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "isospec.cli", *_argv(call, out_dir)],
            cwd=inputs,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        rc, rss_kb = _wait_with_rusage(proc, CALL_TIMEOUT_S)
        wall = time.perf_counter() - started
        err.seek(0)
        lines = err.read().strip().splitlines()
    return CallResult(call.label, call.command, wall, rc, rss_kb, lines[-1] if rc and lines else "")


def run_inprocess(call, inputs, out_dir):
    from isospec import cli

    os.makedirs(out_dir)
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(inputs)
    started = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(_argv(call, out_dir))
    except SystemExit as exc:
        rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a bug in the program: report it, keep measuring
        rc = 1
        traceback.print_exc()
        err.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
    finally:
        wall = time.perf_counter() - started
        os.chdir(cwd)
    lines = err.getvalue().strip().splitlines()
    return CallResult(call.label, call.command, wall, rc, 0, lines[-1] if rc and lines else "")


def _inspect(result, call, out_dir):
    """Oracle, digest and size data of a call that exited 0."""
    if result.returncode != 0:
        return
    result.problems = tuple(oracles.check(call, out_dir))
    if result.problems:
        return
    result.digest = oracles.digest(call.command, out_dir)
    result.artifact_bytes = oracles.artifact_bytes(out_dir)
    result.modes_written = oracles.modes_written(call.command, out_dir)


def run_pass(calls, inputs, out_root, runner):
    """Run every call once; the wall time excludes the artifact checks."""
    os.makedirs(out_root)
    out_dirs = [os.path.join(out_root, call.label) for call in calls]
    started = time.perf_counter()
    results = [runner(call, inputs, out) for call, out in zip(calls, out_dirs)]
    wall = time.perf_counter() - started
    for result, call, out in zip(results, calls, out_dirs):
        _inspect(result, call, out)
    return wall, results


def mark_nondeterministic(passes):
    """Flag successful calls whose artifacts differ from another repeat."""
    digests = defaultdict(set)
    for results in passes:
        for r in results:
            if r.digest is not None:
                digests[r.label].add(r.digest)
    for results in passes:
        for r in results:
            if r.digest is not None and len(digests[r.label]) > 1:
                r.problems = ("artifacts differ between repeats of one seed",)


# ------------------------------------------------------------------ modes


def _repeat(seconds, once):
    """Call once() at least once, then until the next call would overrun."""
    started = time.perf_counter()
    durations = []
    while not durations or (
        time.perf_counter() - started + statistics.mean(durations) <= seconds
    ):
        t0 = time.perf_counter()
        once(len(durations))
        durations.append(time.perf_counter() - t0)


def end_to_end(root, calls, inputs, work, seconds):
    setup = measure_setup(root, SETUP_SAMPLES)
    env = _program_env(root)
    passes, pass_times = [], []

    def once(k):
        wall, results = run_pass(
            calls, inputs, os.path.join(work, f"pass{k}"),
            lambda c, i, o: run_subprocess(c, i, o, env),
        )
        pass_times.append(wall)
        passes.append(results)

    _repeat(seconds, once)
    mark_nondeterministic(passes)
    flat = [r for results in passes for r in results]
    by_command = defaultdict(list)
    for r in flat:
        by_command[r.command].append(r.wall_s)
    samples = {"setup_s": setup, "pass_s": pass_times}
    samples.update((f"{c.replace('-', '_')}_s", v) for c, v in by_command.items())
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    metrics["peak_rss_mb"] = max(r.rss_kb for r in flat) * 1024 / 1e6
    return metrics, samples, flat


def _layer_metrics(tracer, results):
    times = tracer.self_times()
    counts = tracer.counts
    failed = tracer.failed_by_layer()
    ok = [r for r in results if not r.failed]
    metrics = {f"{name}_s": times.get(name, 0.0) for name in _SPAN_TIMES}
    metrics.update((f"{name}.calls", counts[f"{name}.calls"]) for name in _SPAN_CALLS)
    metrics.update((name, counts[name]) for name in _COUNTS)
    metrics["cli.artifact_bytes"] = sum(r.artifact_bytes for r in ok)
    metrics["eigen.dense_mb"] = counts["eigen.dense_bytes.max"] / 1e6
    solved = counts["eigen.solve.modes"]
    metrics["eigen.modes_used_ratio"] = sum(r.modes_written for r in ok) / solved if solved else 0.0
    taus = counts["convexity.taus"]
    metrics["experiments.convexity.solves_per_tau"] = counts["convexity.solves"] / taus if taus else 0.0
    metrics.update((f"{layer}.failed", failed[layer]) for layer in LAYERS)
    return metrics


def traced(calls, inputs, work, seconds):
    import isospec

    # the CLI configures logging on its first call; do it here so that its
    # handler writes to the real stderr, not to one call's captured stream
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

    plain_times, traced_times, passes, layer_runs = [], [], [], []
    breakdowns = []

    def once(k):
        wall, results = run_pass(calls, inputs, os.path.join(work, f"plain{k}"), run_inprocess)
        plain_times.append(wall)
        passes.append(results)
        with Tracer() as tracer:
            wall, results = run_pass(calls, inputs, os.path.join(work, f"traced{k}"), run_inprocess)
        traced_times.append(wall)
        passes.append(results)
        if tracer.missing:
            print(f"trace: sites missing, their layers read zero: {tracer.missing}")
        layer_runs.append(_layer_metrics(tracer, results))
        breakdowns.append(list(zip(results, per_root_layers(tracer.spans))))

    print(f"program: {os.path.dirname(isospec.__file__)}")
    _repeat(seconds, once)
    mark_nondeterministic(passes)
    # counts repeat exactly from pass to pass; times take the median
    metrics = {
        name: statistics.median(run[name] for run in layer_runs) if name.endswith("_s") else value
        for name, value in layer_runs[0].items()
    }
    metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(plain_times)
    print("per-call self time by layer, first traced pass:")
    for result, (span_total, layers) in breakdowns[0]:
        parts = " ".join(f"{k}={v:.3f}" for k, v in sorted(layers.items()))
        print(f"  {result.label:28s} rc={result.returncode} call={span_total:.3f}s {parts}")
    samples = {"plain_pass_s": plain_times, "traced_pass_s": traced_times}
    return metrics, samples, [r for results in passes for r in results]


# ------------------------------------------------------------------ report


def run_workload(root, name, seed, seconds, trace):
    work = os.path.join(root, WORK_DIR, name)
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")
    calls = workloads.generate(name, seed, inputs)
    print(f"== workload {name} seed={seed}: {workloads.WHY[name]}")
    print(f"calls per pass: {', '.join(c.label for c in calls)}")
    if trace:
        metrics, samples, flat = traced(calls, inputs, work, seconds)
        units = dict(PER_LAYER)
    else:
        metrics, samples, flat = end_to_end(root, calls, inputs, work, seconds)
        units = dict(END_TO_END)
    errors = sorted({f"{r.label}: rc={r.returncode} {r.error}" for r in flat if r.returncode})
    problems = sorted({f"{r.label}: {p}" for r in flat for p in r.problems})
    failed = sum(r.failed for r in flat)
    for line in errors:
        print(f"failed call {line}")
    for line in problems:
        print(f"ORACLE {line}")
    for key, values in sorted(samples.items()):
        unit = units.get(key, "s")
        print(f"  {key} = {statistics.median(values):.4f} {unit} ({describe(values)})")
    print(f"  fail_share = {failed}/{len(flat)} = {failed / len(flat):.4f}")
    for key, unit in units.items():
        print(f"  {key} = {metrics[key]} {unit}")
    return {
        "correct": not problems,
        "attempted": len(flat),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True,
                        help=f"one of {', '.join(workloads.WHY)}, or all; repeatable")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "isospec", "cli.py")):
        print("run from the root of an isospec checkout: src/isospec is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    names = list(workloads.WHY) if args.workload == ["all"] else args.workload
    unknown = [n for n in names if n not in workloads.WHY]
    if unknown:
        print(f"unknown workload(s) {unknown}", file=sys.stderr)
        return 2

    print(f"machine: {json.dumps(machine_facts(), sort_keys=True)}")
    print("end-to-end numbers come from untraced CLI subprocesses (--trace 0); "
          "per-layer numbers come from the traced in-process pass (--trace 1)")
    results = {name: run_workload(root, name, args.seed, args.seconds, args.trace) for name in names}
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

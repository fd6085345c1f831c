"""Solve benchmark of stiefel-rgd: end-to-end metrics or a per-layer trace.

    python3 bench/run.py --workload ref1d --seed 1 --seconds 30 --trace 0

The package is imported from the ``src`` directory next to ``bench``.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer ones; README.md describes both.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The load is one process at a time; pin BLAS before numpy is imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Solver, check, load_references, read_outcome  # noqa: E402

# Fresh processes started to time set-up; the median is reported.
SETUP_SAMPLES = 3
# Grids the kernel probes run on besides the workload's own: (suffix,
# dimension, points per axis), all with N=4 and kappa=100.
PROBE_GRIDS = (("2d64", 2, 64), ("2d128", 2, 128))
# Gauge readings taken before, between and after the passes of a traced run.
OVERHEAD_READINGS = 20


def environment_line() -> str:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    threads = " ".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS)
    return (f"env nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} blas={blas} {threads}")


def measure_setup(workload, seed: int) -> list:
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def warm_up(solver, workload) -> None:
    """Build the per-grid caches and lazy imports before anything is timed."""
    for problem in workload.problems:
        with contextlib.redirect_stderr(io.StringIO()):
            solver.solve(problem, "dcm", 0, max_iter=1)


def run_pass(solver, workload, frame_seeds, tracer=None, gauge=None):
    """Solve every task once per start frame.

    Returns the outcomes and, per solve, its wall time (net of gauge
    readings), start and end.
    """
    outcomes, times = [], []
    for frame_seed in frame_seeds:
        for problem, method in workload.tasks():
            span = tracer.open("cli") if tracer else None
            try:
                code, timing = timed_solve(solver, gauge, problem, method, frame_seed)
            finally:
                if tracer:
                    tracer.close(span)
            outcomes.append(read_outcome(solver, problem, method, frame_seed, code))
            times.append(timing)
    return outcomes, times


def timed_solve(solver, gauge, problem, method, frame_seed):
    if gauge is None:
        start = time.perf_counter()
        code, seconds = solver.solve(problem, method, frame_seed)
        return code, (seconds, start, start + seconds)
    (code, _), net, start, end = gauge.timed(
        lambda: solver.solve(problem, method, frame_seed))
    return code, (net, start, end)


def timed_sweeps(solver, workload, seed: int, seconds: float, gauge):
    """One pass over all start frames, then repeats until the time is up.

    Repeats go round-robin over the solves and stop before one would end
    past ``seconds``. Every repeat must rewrite the same summary.txt.
    Returns, per solve, the list of its (net time, start, end) samples.
    """
    start = time.perf_counter()
    outcomes, first = run_pass(solver, workload, workload.frame_seeds(seed), gauge=gauge)
    samples = [[t] for t in first]
    errors = []
    k = 0
    while time.perf_counter() - start + samples[k % len(samples)][0][0] <= seconds:
        o = outcomes[k % len(samples)]
        code, timing = timed_solve(solver, gauge, o.problem, o.method, o.frame_seed)
        samples[k % len(samples)].append(timing)
        again = read_outcome(solver, o.problem, o.method, o.frame_seed, code)
        if (again.code, again.summary_text) != (o.code, o.summary_text):
            errors.append(f"{o.problem.name}/{o.method}/seed {o.frame_seed}: "
                          "a repeat wrote a different summary.txt")
        k += 1
    return outcomes, samples, errors


def end_to_end(solver, workload, seed: int, seconds: float):
    from gauge import Gauge

    setup = measure_setup(workload, seed)
    warm_up(solver, workload)
    probe = workload.probe_problem
    with Gauge(probe.dimension, probe.grid_points, probe.n_orbitals) as gauge:
        outcomes, samples, errors = timed_sweeps(solver, workload, seed, seconds, gauge)
    # Work per solve depends strongly on the start frame, so each
    # (problem, method) contributes its median over the start frames.
    per_task = {}
    for o, times in zip(outcomes, samples):
        task = per_task.setdefault((o.problem.name, o.method), {
            "raw": [], "rel": [], "outer": [], "inner": [], "samples": 0, "converged": 0})
        task["raw"].append(statistics.median(t for t, _, _ in times))
        task["rel"].append(statistics.median(
            t / gauge.around(begin, end) for t, begin, end in times))
        task["samples"] += len(times)
        task["outer"].append(o.summary["iterations"] if o.summary else 0)
        task["inner"].append(o.summary["inner_iterations"] if o.summary else 0)
        task["converged"] += o.converged

    def median(task, field):
        return statistics.median(task[field])

    for (problem, method), task in per_task.items():
        print(f"task {problem}/{method}: solve_s = {median(task, 'raw'):.6f} s, "
              f"solve_rel = {median(task, 'rel'):.4f} "
              f"(median of {len(task['raw'])} start frames, {task['samples']} samples), "
              f"outer_iters = {median(task, 'outer')}, inner_iters = {median(task, 'inner')}, "
              f"converged {task['converged']}/{len(task['raw'])}")

    def total(field):
        return sum(median(task, field) for task in per_task.values())

    count = sum(map(len, samples))
    print(f"solve_s = {total('raw')} s ({len(outcomes)} solves, {count} samples; "
          f"gauge median {gauge.median():.6f} s of {len(gauge.seconds)} readings)")
    frames = len(workload.frame_seeds(seed))
    metrics = {
        "solve_rel": (total("rel"), "ratio", f"{len(outcomes)} solves, {count} samples"),
        "outer_iters": (total("outer"), "count", f"{frames} start frames"),
        "inner_iters": (total("inner"), "count", f"{frames} start frames"),
        "setup_s": (statistics.median(setup), "s", f"{len(setup)} fresh processes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "1 process"),
    }
    return outcomes, metrics, errors


def traced(solver, workload, seed: int):
    from gauge import Gauge
    from probes import probe_grid
    from spans import Tracer

    warm_up(solver, workload)
    probe = workload.probe_problem
    # Readings only between the passes, so that no span contains one.
    gauge = Gauge(probe.dimension, probe.grid_points, probe.n_orbitals)
    frame_seeds = workload.frame_seeds(seed)[:1]
    for _ in range(OVERHEAD_READINGS):
        gauge.read()
    plain_start = time.perf_counter()
    plain, _ = run_pass(solver, workload, frame_seeds)
    plain_end = time.perf_counter()
    for _ in range(OVERHEAD_READINGS):
        gauge.read()
    with Tracer() as tracer:
        traced_start = time.perf_counter()
        outcomes, _ = run_pass(solver, workload, frame_seeds, tracer)
        traced_end = time.perf_counter()
    for _ in range(OVERHEAD_READINGS):
        gauge.read()
    errors = [f"{a.problem.name}/{a.method}: the traced pass wrote a different summary.txt"
              for a, b in zip(plain, outcomes) if a.summary_text != b.summary_text]
    layer = tracer.metrics(outcomes)
    plain_rel = (plain_end - plain_start) / gauge.around(plain_start, plain_end)
    traced_rel = (traced_end - traced_start) / gauge.around(traced_start, traced_end)
    layer["trace.overhead_frac"] = (traced_rel / plain_rel - 1.0, "ratio")
    grids = (("", probe.dimension, probe.grid_points, probe.n_orbitals, probe.kappa),)
    grids += tuple((suffix, d, n, 4, 100.0) for suffix, d, n in PROBE_GRIDS)
    for suffix, dimension, points, n_orbitals, kappa in grids:
        for name, value in probe_grid(dimension, points, n_orbitals, kappa, seed).items():
            layer[f"{name}.{suffix}" if suffix else name] = value
    metrics = {name: (value, unit, "1 traced pass") for name, (value, unit) in layer.items()}
    return plain + outcomes, metrics, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "stiefel_rgd" / "__init__.py").is_file():
        print(f"no stiefel_rgd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from stiefel_rgd import cli

    workload = WORKLOADS[args.workload]
    work_dir = HERE / ".work" / workload.name
    shutil.rmtree(work_dir, ignore_errors=True)
    solver = Solver(cli.main, work_dir)
    print(environment_line())
    print(f"workload {workload.name} seed {args.seed} "
          f"start frames {workload.frame_seeds(args.seed)}")

    if args.trace:
        outcomes, metrics, errors = traced(solver, workload, args.seed)
    else:
        outcomes, metrics, errors = end_to_end(solver, workload, args.seed, args.seconds)
    errors += check(outcomes, load_references())
    for name, (value, unit, samples) in metrics.items():
        print(f"metric {name} = {value} {unit} ({samples})")
    failed = sum(not o.converged for o in outcomes)
    print(f"converged_frac = {(len(outcomes) - failed) / len(outcomes)} "
          f"({len(outcomes) - failed} of {len(outcomes)} solves reached residual_tol)")
    for error in errors:
        print(f"CORRECTNESS {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

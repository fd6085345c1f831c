"""The library names the benchmark harness reads, checked from the library's
side: ``bench/spans.py`` wraps names where their callers bind them and
``bench/probes.py`` calls public functions, and both silently leave out a
metric whose name is gone; ``bench/setup_probe.py`` imports public names,
and ``bench/run.py`` fails when they are gone. These tests load the three
files and change nothing under ``bench``."""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Every span the tracer installs on this library.
SPANS = {
    "descent", "frames", "models.energy", "models.residual", "models.operator_at",
    "models.validate_coercivity", "geometry.retract", "geometry.retract_qr_mgs",
    "solvers.solve", "directions.compute_direction", "directions.riemannian_gradient",
    "directions.safeguarded_inexact_gradient", "directions.inexact_gradient",
    "directions.dcm_direction",
}

# Every metric the per-call probes return on one grid.
PROBE_METRICS = {
    "models.energy_us", "models.operator_at_us", "models.residual_us",
    "solvers.solve_exact_ms", "solvers.solve_fixed3_ms", "solvers.precond_apply_us",
    "geometry.retract_polar_us", "geometry.retract_qr_mgs_us",
    "geometry.retract_qr_cholesky_us", "solvers.matvec_bytes",
}


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_contract_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_span():
    with load("spans").Tracer() as tracer:
        patched = set(tracer.patched)
    assert SPANS <= patched, sorted(SPANS - patched)


def test_probes_return_every_metric(monkeypatch):
    probes = load("probes")
    calls = []

    def once(fn):
        calls.append(fn())
        return 0.0

    monkeypatch.setattr(probes, "per_call_seconds", once)
    metrics = probes.probe_grid(1, 16, 2, 10.0, 1)
    assert PROBE_METRICS <= set(metrics), sorted(PROBE_METRICS - set(metrics))
    assert len(calls) == len(PROBE_METRICS) - 1  # matvec_bytes is computed, not timed


def test_setup_probe_times_every_workload(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the probe prepends bench/ and src/
    probe = load("setup_probe")
    for name in probe.WORKLOADS:
        probe.main(name, 1)
        printed = capsys.readouterr().out.split()
        assert len(printed) == 1, (name, printed)
        assert float(printed[0]) >= 0.0

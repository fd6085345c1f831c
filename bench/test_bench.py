"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_bench.py -q

They take a few seconds: every solve is the 1D N=1 reference problem.
"""

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    GPE1D, WORKLOADS, Solver, check, energy_bound, load_references, read_outcome,
)

from stiefel_rgd import GridSpec, cli, descent, initial_frame  # noqa: E402


def solve(solver, frame_seed, method="dcm"):
    code, _ = solver.solve(GPE1D, method, frame_seed)
    return read_outcome(solver, GPE1D, method, frame_seed, code)


def test_traced_pass_writes_identical_summary(tmp_path):
    solver = Solver(cli.main, tmp_path)
    plain = solve(solver, 3)
    original = descent.energy
    with Tracer() as tracer:
        span = tracer.open("cli")
        traced = solve(solver, 3)
        tracer.close(span)
    assert descent.energy is original
    assert plain.converged and plain.summary_text == traced.summary_text
    metrics = tracer.metrics([traced])
    assert metrics["models.energy.calls"][0] > 0
    assert metrics["directions.calls"][0] == traced.summary["iterations"] + 1


def test_seeds_change_start_frames_but_not_reference_energies(tmp_path):
    workload = WORKLOADS["ref1d"]
    first, second = workload.frame_seeds(1)[0], workload.frame_seeds(2)[0]
    assert not set(workload.frame_seeds(1)) & set(workload.frame_seeds(2))
    grid = GridSpec(1, GPE1D.grid_points, 1.0)
    assert not np.allclose(initial_frame(grid, 1, first).values,
                           initial_frame(grid, 1, second).values)
    solver = Solver(cli.main, tmp_path)
    outcomes = [solve(solver, first), solve(solver, second)]
    references = load_references()
    assert check(outcomes, references) == []
    energies = [o.summary["final_energy"] for o in outcomes]
    assert abs(energies[0] - energies[1]) <= energy_bound(references["gpe1d"])


def test_gate_rejects_a_wrong_energy_and_a_changed_header(tmp_path):
    solver = Solver(cli.main, tmp_path)
    outcome = solve(solver, 4)
    wrong = dict(load_references(), gpe1d=load_references()["gpe1d"] * (1 + 1e-9))
    assert any("energy" in e for e in check([outcome], wrong))
    outcome.csv_header += ",extra"
    assert any("header" in e for e in check([outcome], load_references()))

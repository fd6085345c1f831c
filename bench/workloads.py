"""Workload definitions, generated solve configs and the correctness gate.

Every solve is one in-process call of the public CLI,
``stiefel_rgd.cli.main(["solve", <config>, "--out-dir", <dir>, "--seed", <n>])``,
on a config with a single (problem, method) pair. Counts and correctness
are read back from the frozen ``summary.txt`` and CSV formats, so the
benchmark does not depend on the internal descent drivers.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent

# Frozen CSV header of the per-method history files.
CSV_HEADER = (
    "iter,energy,residual_h_norm,grad_a_norm,step_size,"
    "backtracks,inner_iterations,wall_time_s"
)

TOL = 1e-6
SOLVER = {
    "method": "krylov_cg",
    "rel_tol": 1e-8,
    "max_iters": 500,
    "preconditioner": "kinetic_shift",
}
METHODS = {
    "rgd_fixed": {"tau": 0.1, "tol": TOL, "max_iter": 5000},
    "rgd_ls": {"tol": TOL, "max_iter": 2000},
    "rgd_ls_inexact": {"fixed_iters": 3, "tol": TOL, "max_iter": 2000},
    "dcm": {"fixed_iters": 3, "tol": TOL, "max_iter": 2000},
}


@dataclass(frozen=True)
class Problem:
    name: str
    dimension: int
    grid_points: int
    n_orbitals: int
    kappa: float

    def model_section(self) -> dict:
        return {
            "type": "coupled",
            "dimension": self.dimension,
            "grid_points": self.grid_points,
            "domain_length": 1.0,
            "boundary": "dirichlet_zero",
            "potential": {"kind": "harmonic", "omega": 10.0},
            "kappa": self.kappa,
            "sigma": 0.0,
            "n_orbitals": self.n_orbitals,
            "seed": 0,
        }


GPE1D = Problem("gpe1d", 1, 128, 1, 100.0)
COUPLED1D = Problem("coupled1d", 1, 128, 3, 10.0)
TRAP2D = Problem("trap2d", 2, 32, 4, 100.0)


@dataclass(frozen=True)
class Workload:
    name: str
    problems: tuple
    methods: tuple
    # Start frames per run. Work per solve depends strongly on the start
    # (up to 10x in 1D), so every metric is a median over this many frames.
    frames: int
    # Problem whose grid the kernel probes and the speed gauge use.
    probe_problem: Problem

    def frame_seeds(self, seed: int) -> list:
        """CLI seeds of this run's start frames; disjoint across run seeds."""
        return [seed * 1000 + k for k in range(self.frames)]

    def tasks(self):
        return [(p, m) for p in self.problems for m in self.methods]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ref1d", (GPE1D, COUPLED1D),
                 ("rgd_fixed", "rgd_ls", "rgd_ls_inexact", "dcm"), 9, COUPLED1D),
        Workload("trap2d_truncated", (TRAP2D,), ("dcm", "rgd_ls_inexact"), 3, TRAP2D),
        Workload("trap2d_exact", (TRAP2D,), ("rgd_ls",), 3, TRAP2D),
    )
}


def load_references() -> dict:
    text = (HERE / "reference.json").read_text(encoding="utf-8")
    return json.loads(text)["energies"]


class Solver:
    """Writes one config per (problem, method) and runs solves through the CLI."""

    def __init__(self, cli_main, work_dir: Path):
        self.cli_main = cli_main
        self.work_dir = work_dir
        self.config_dir = work_dir / "configs"
        self.config_dir.mkdir(parents=True, exist_ok=True)

    def config_path(self, problem: Problem, method: str, max_iter=None) -> Path:
        """Config of one (problem, method); ``max_iter`` caps a warm-up run."""
        suffix = "" if max_iter is None else f"__max{max_iter}"
        path = self.config_dir / f"{problem.name}__{method}{suffix}.yaml"
        if not path.exists():
            entry = dict(name=method, **METHODS[method])
            if max_iter is not None:
                entry["max_iter"] = max_iter
            config = {
                "model": problem.model_section(),
                "methods": [entry],
                "solver": dict(SOLVER),
                "output": {"csv": True, "summary": True},
            }
            path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
        return path

    def out_dir(self, problem: Problem, method: str, frame_seed: int) -> Path:
        return self.work_dir / "out" / f"{problem.name}__{method}__{frame_seed}"

    def solve(self, problem: Problem, method: str, frame_seed: int,
              max_iter=None) -> "tuple[int, float]":
        """Run one solve; return the CLI exit code and its wall time."""
        out = (self.out_dir(problem, method, frame_seed) if max_iter is None
               else self.work_dir / "warm_up" / problem.name)
        argv = [
            "solve", str(self.config_path(problem, method, max_iter)),
            "--out-dir", str(out),
            "--seed", str(frame_seed),
        ]
        start = time.perf_counter()
        code = self.cli_main(argv)
        return code, time.perf_counter() - start


def parse_summary(text: str) -> dict:
    """Fields of the single method block that follows the model line."""
    blocks = text.strip().split("\n\n")
    if len(blocks) != 2:
        raise ValueError(f"expected one method block, got {len(blocks) - 1}")
    fields = dict(line.split(": ", 1) for line in blocks[1].splitlines())
    return {
        "converged": fields["converged"] == "true",
        "termination": fields["termination"],
        "iterations": int(fields["iterations"]),
        "final_energy": float(fields["final_energy"]),
        "residual": float(fields["residual_h_norm"]),
        "eigenvalues": [float(x) for x in fields["eigenvalues"].split()],
        "inner_iterations": int(fields["total_inner_iterations"]),
    }


@dataclass
class Outcome:
    """What one solve left behind, read from its output directory."""

    problem: Problem
    method: str
    frame_seed: int
    code: int
    summary_text: str = ""  # empty when the CLI wrote no summary
    summary: dict = None
    csv_header: str = ""
    csv_rows: list = None

    @property
    def converged(self) -> bool:
        return bool(self.summary) and self.summary["converged"]


def read_outcome(solver: Solver, problem: Problem, method: str, frame_seed: int,
                 code: int) -> Outcome:
    out = solver.out_dir(problem, method, frame_seed)
    summary_path = out / "summary.txt"
    if not summary_path.exists():
        return Outcome(problem, method, frame_seed, code)
    text = summary_path.read_text(encoding="utf-8")
    lines = (out / f"{method}.csv").read_text(encoding="utf-8").splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    return Outcome(problem, method, frame_seed, code, text, parse_summary(text),
                   lines[0], rows)


# Correctness bounds.
#
# Energy: near a non-degenerate minimiser E(phi) - E* ~ 1/2 <r, H^-1 r> <=
# |r|^2 / (2 mu), with r the eigenvector residual (|r|_H <= tol at
# convergence) and mu the smallest tangent Hessian eigenvalue, which is at
# least the orbital gap (> 1/2 on every problem here). So a converged
# energy lies within tol^2 of the minimum. The remaining 1e-12 |E| covers
# the 13 significant digits summary.txt prints plus double round-off.
#
# Eigenvalues: the multipliers are not stationary. The commutator part of
# their first variation cancels, but the density coupling kappa * rho adds
# a first-order term, so two converged frames (frame error O(tol / mu))
# can differ by O(tol) times the operator scale |lambda|. The cross-method
# bound is therefore tol * (1 + |lambda|): orders of magnitude tighter
# than the gap (> 1) that separates the ground state from any other
# critical point the descent could stop at.
def energy_bound(reference: float) -> float:
    return TOL**2 + 1e-12 * abs(reference)


def eigenvalue_bound(value: float) -> float:
    return TOL * (1.0 + abs(value))


def check(outcomes: list, references: dict) -> list:
    """Return a list of correctness violations (empty when all hold)."""
    errors = []
    by_start = {}
    for o in outcomes:
        tag = f"{o.problem.name}/{o.method}/seed {o.frame_seed}"
        if not o.summary:
            if o.code == 0:
                errors.append(f"{tag}: exit 0 without summary.txt")
            continue
        if o.csv_header != CSV_HEADER:
            errors.append(f"{tag}: CSV header changed: {o.csv_header!r}")
        if len(o.csv_rows) != o.summary["iterations"] + 1:
            errors.append(f"{tag}: CSV has {len(o.csv_rows)} rows for "
                          f"{o.summary['iterations']} iterations")
        if (o.code == 0) != o.converged:
            errors.append(f"{tag}: exit code {o.code} but converged={o.converged}")
        if not o.converged:
            continue
        if o.summary["residual"] > TOL:
            errors.append(f"{tag}: converged with residual {o.summary['residual']:.3e}")
        ref = references[o.problem.name]
        if abs(o.summary["final_energy"] - ref) > energy_bound(ref):
            errors.append(f"{tag}: energy {o.summary['final_energy']!r} vs reference {ref!r}")
        by_start.setdefault((o.problem.name, o.frame_seed), []).append(o)
    for (name, seed), group in by_start.items():
        first = group[0]
        for o in group[1:]:
            for a, b in zip(first.summary["eigenvalues"], o.summary["eigenvalues"]):
                if abs(a - b) > eigenvalue_bound(a):
                    errors.append(f"{name}/seed {seed}: eigenvalue {a!r} ({first.method}) "
                                  f"vs {b!r} ({o.method})")
    return errors

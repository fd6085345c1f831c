"""Per-call probes of public layer functions on one grid.

Each probe times one public function on a seeded start frame, after a
warm-up call so cached factorizations are built. A probed name that no
longer exists leaves its metric out; the run does not fail.
"""

from __future__ import annotations

import importlib
import statistics
import time

import numpy as np

# Wall time the repeated calls of one probe aim for, split into batches
# whose per-call medians are reported.
PROBE_BUDGET_S = 0.25
BATCHES = 5


def per_call_seconds(fn) -> float:
    fn()
    start = time.perf_counter()
    fn()
    one = time.perf_counter() - start
    calls = max(1, int(PROBE_BUDGET_S / BATCHES / max(one, 1e-7)))
    batches = BATCHES if calls > 1 else 3
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def _public(module, name):
    return getattr(importlib.import_module(f"stiefel_rgd.{module}"), name, None)


def probe_grid(dimension: int, points: int, n_orbitals: int, kappa: float,
               seed: int) -> dict:
    """Per-call probe metrics, as {name: (value, unit)}, on one grid."""
    grid = _public("frames", "GridSpec")(dimension, points, 1.0)
    model = _public("models", "EnergyModel")(
        grid, _public("models", "potential_harmonic")(grid, 10.0),
        kappa=kappa, n_orbitals=n_orbitals)
    phi = _public("descent", "initial_frame")(grid, n_orbitals, seed)
    eta = 0.01 * _public("frames", "random_frame")(grid, n_orbitals, np.random.default_rng(seed))

    operator = _public("models", "DiscreteOperatorA")
    solve = _public("solvers", "solve")
    config = _public("solvers", "SolveConfig")
    precondition = _public("solvers", "apply_preconditioner")
    energy = _public("models", "energy")
    residual = _public("models", "residual")
    retract = _public("geometry", "retract")

    op = operator.at(model, phi) if operator is not None else None
    if op is None or config is None:
        solve = precondition = None
    else:
        exact = config(rel_tol=1e-8, max_iters=500, preconditioner="kinetic_shift")
        fixed3 = config(rel_tol=1e-8, max_iters=500, fixed_iters=3,
                        preconditioner="kinetic_shift")
    probes = {
        "models.energy_us": (energy, 1e6, lambda: energy(model, phi)),
        "models.operator_at_us": (operator, 1e6, lambda: operator.at(model, phi)),
        "models.residual_us": (residual, 1e6, lambda: residual(model, phi)),
        "solvers.solve_exact_ms": (solve, 1e3, lambda: solve(op, phi, exact)),
        "solvers.solve_fixed3_ms": (solve, 1e3, lambda: solve(op, phi, fixed3)),
        "solvers.precond_apply_us": (
            precondition, 1e6, lambda: precondition("kinetic_shift", op, phi)),
    }
    for kind in ("polar", "qr_mgs", "qr_cholesky"):
        probes[f"geometry.retract_{kind}_us"] = (
            retract, 1e6, lambda kind=kind: retract(phi, eta, kind))

    out = {}
    for name, (target, scale, call) in probes.items():
        if target is None:
            continue
        out[name] = (scale * per_call_seconds(call), name.rsplit("_", 1)[1])
    matrix = getattr(op, "matrix", None)
    if all(hasattr(matrix, a) for a in ("data", "indices", "indptr")):
        # Computed, not measured: one sparse matvec reads the CSR arrays and
        # the frame and writes a frame of the same size.
        moved = (matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
                 + 2 * phi.values.nbytes)
        out["solvers.matvec_bytes"] = (moved, "B")
    return out

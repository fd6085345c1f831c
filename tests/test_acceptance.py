"""Acceptance suite: every release criterion at its frozen tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
import yaml

from stiefel_rgd import (
    energy,
    initial_frame,
    norm_h,
    nonmonotone_update,
    outer_product,
    random_frame,
    retract,
    retract_polar,
    rgd_line_search,
    riemannian_gradient,
)
from stiefel_rgd.cli import EXIT_OK, main
from stiefel_rgd.geometry import RETRACTION_KINDS, retract_qr_mgs
from stiefel_rgd.models import DiscreteOperatorA, IterateState

from conftest import (
    COUPLED_SPEC,
    DIRECT,
    GPE_SPEC,
    RUN_TOL,
    a_norm,
    dense_a_solve,
    dense_lowest_eigenpairs,
    is_on_stiefel,
    make_model,
    project_tangent,
    random_tangent,
    saddle_projection_oracle,
)

LINE_SEARCH_METHODS = ("rgd_ls", "rgd_ls_inexact", "dcm")


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def energy_roundoff(e):
    # Resolution floor of the energy evaluation in double precision.
    return 1e-12 * (1.0 + abs(e))


def test_criterion_01_retraction_axioms():
    with criterion(1, "retraction axioms (100 samples, n=256, N=4)"):
        # CPU time of this process, so that other load on the machine does not count.
        start = time.process_time()
        model = make_model(n=256, length=1.0, omega=8.0, kappa=5.0, n_orbitals=4)
        rng = np.random.default_rng(2024)
        for _ in range(100):
            phi, _ = retract_qr_mgs(random_frame(model.grid, 4, rng))
            eta = random_tangent(model, phi, rng, normalized=True)
            for kind in RETRACTION_KINDS:
                assert is_on_stiefel(retract(phi, eta, kind), 1e-11)
                assert norm_h(retract(phi, 0.0 * eta, kind) - phi) <= 1e-12
                t = 1e-4
                fd = (1.0 / (2 * t)) * (
                    retract(phi, t * eta, kind) - retract(phi, (-t) * eta, kind)
                )
                assert norm_h(fd - eta) <= 1e-6
        assert time.process_time() - start < 5.0


def test_criterion_02_second_order_bounds():
    with criterion(2, "second-order retraction bounds (100 samples)"):
        model = make_model(n=64, length=1.0, omega=8.0, kappa=5.0, n_orbitals=3)
        rng = np.random.default_rng(55)
        for _ in range(100):
            phi, _ = retract_qr_mgs(random_frame(model.grid, 3, rng))
            op = DiscreteOperatorA.at(model, phi)
            eta = random_tangent(model, phi, rng)
            eta_h = norm_h(eta)
            for t in (0.01, 0.1, 0.5, 1.0):
                moved = phi + t * eta
                scale = a_norm(op, moved)
                polar_gap = a_norm(op, retract_polar(phi, t * eta) - moved)
                assert polar_gap <= t**2 * scale * eta_h**2
                qr_gap = a_norm(op, retract(phi, t * eta, "qr_mgs") - moved)
                qr_bound = (
                    t**2 / np.sqrt(2.0)
                    * scale
                    * np.sqrt(1.0 + t**2 * eta_h**2)
                    * eta_h**2
                )
                assert qr_gap <= qr_bound


def test_criterion_03_projection_correctness():
    with criterion(3, "tangent projection vs saddle oracle (N in {1,2,3}, n=64)"):
        rng = np.random.default_rng(7)
        for n_orb in (1, 2, 3):
            model = make_model(
                n=64, length=1.0, omega=8.0, kappa=5.0, n_orbitals=n_orb
            )
            phi = initial_frame(model.grid, n_orb, 10 + n_orb)
            op = DiscreteOperatorA.at(model, phi)
            solve = dense_a_solve(model, phi)
            v = random_frame(model.grid, n_orb, rng)
            v = (1.0 / norm_h(v)) * v
            p = project_tangent(phi, v, solve)
            skew = outer_product(p, phi) + outer_product(phi, p)
            assert np.linalg.norm(skew) <= 1e-9
            eta = random_tangent(model, phi, rng, normalized=True)
            assert abs(op.bilinear(v - p, eta)) <= 1e-9
            assert norm_h(project_tangent(phi, p, solve) - p) <= 1e-9
            assert norm_h(p - saddle_projection_oracle(model, phi, v)) <= 1e-9


def test_criterion_04_gradient_correctness(gpe_model, coupled_model):
    with criterion(4, "gradient finite-difference and Lyapunov identities"):
        rng = np.random.default_rng(99)
        for model, seed in ((gpe_model, GPE_SPEC["seed"]), (coupled_model, COUPLED_SPEC["seed"])):
            phi = initial_frame(model.grid, model.n_orbitals, seed)
            sd = riemannian_gradient(IterateState.at(model, phi), DIRECT)
            op = DiscreteOperatorA.at(model, phi)
            for _ in range(50):
                u = random_tangent(model, phi, rng, normalized=True)
                t = 1e-4
                fd = (
                    energy(model, retract_polar(phi, t * u))
                    - energy(model, retract_polar(phi, (-t) * u))
                ) / (2.0 * t)
                lhs = op.bilinear(-1.0 * sd.direction, u)
                assert lhs == pytest.approx(fd, rel=1e-5)
            solve = dense_a_solve(model, phi)
            g = outer_product(phi, solve(phi))
            g = 0.5 * (g + g.T)
            s = -np.linalg.inv(g)
            n_orb = model.n_orbitals
            lyap_residual = np.linalg.norm(g @ s + s @ g + 2.0 * np.eye(n_orb))
            assert lyap_residual <= 1e-12 * n_orb


def test_criterion_05_linear_case_oracle():
    with criterion(5, "linear-case eigenvalue and energy oracle (kappa=0)"):
        start = time.process_time()
        model = make_model(n=128, length=1.0, omega=10.0, kappa=0.0, n_orbitals=3)
        result = rgd_line_search(
            model,
            initial_frame(model.grid, 3, 5),
            tol=1e-9,
            max_iter=1000,
            solver_config=DIRECT,
        )
        assert result.converged
        lam_oracle, _ = dense_lowest_eigenpairs(model, 3)
        assert np.abs(result.eigenvalues - lam_oracle).max() <= 1e-8
        assert abs(result.final_energy - 0.5 * lam_oracle.sum()) <= 1e-8
        assert time.process_time() - start < 30.0


def test_criterion_06_monotone_decay(gpe_observed):
    with criterion(6, "fixed-step energy decay and positive descent ratios"):
        run, _, (r2, r3) = gpe_observed["rgd_fixed"]  # r2, r3 as the CLI streams them
        assert run.converged
        assert run.history[-1].residual_h_norm <= 1e-6
        energies = [rec.energy for rec in run.history]
        for n in range(len(energies) - 1):
            decrement = energies[n] - energies[n + 1]
            # Strict decrease whenever the decrement is resolvable in double
            # precision; never an increase beyond evaluation round-off.
            assert decrement > -energy_roundoff(energies[n])
        assert any(
            energies[n] - energies[n + 1] > energy_roundoff(energies[n])
            for n in range(len(energies) - 1)
        )
        finite3 = r3[np.isfinite(r3)]
        assert finite3.size > 0 and np.all(finite3 > 0.0)
        for n in range(len(r2)):
            decrement = energies[n] - energies[n + 1]
            if np.isfinite(r2[n]) and decrement > energy_roundoff(energies[n]):
                assert r2[n] > 0.0


def test_criterion_07_method_agreement(gpe_runs, coupled_runs):
    with criterion(7, "four methods reach the same energy on both problems"):
        for runs in (gpe_runs, coupled_runs):
            energies = []
            for run in runs.values():
                assert run.converged
                assert run.history[-1].residual_h_norm <= RUN_TOL
                energies.append(run.final_energy)
            assert max(energies) - min(energies) <= 1e-7


def test_criterion_08_line_search_speedup(gpe_runs):
    with criterion(8, "line-search outer and inexact inner iteration savings"):
        assert gpe_runs["rgd_ls"].iterations < gpe_runs["rgd_fixed"].iterations
        assert (
            gpe_runs["rgd_ls_inexact"].total_inner_iterations
            < gpe_runs["rgd_ls"].total_inner_iterations
        )


def test_criterion_09_line_search_bookkeeping(gpe_runs, coupled_runs):
    with criterion(9, "averaged-energy recursion and post-hoc step conditions"):
        c1, q1 = nonmonotone_update(3.0, 1.0, 0.95, 2.0)
        assert abs(q1 - 1.95) <= 1e-14
        assert abs(c1 - 2.487179487179487) <= 1e-14
        for runs in (gpe_runs, coupled_runs):
            for name in LINE_SEARCH_METHODS:
                run = runs[name]
                for rec, nxt in zip(run.history[:-1], run.history[1:]):
                    bound = rec.c_n - 1e-4 * rec.step_size * rec.grad_a_norm**2
                    assert nxt.energy <= bound + energy_roundoff(bound)
                    c_next, q_next = nonmonotone_update(
                        rec.c_n, rec.q_n, 0.95, nxt.energy
                    )
                    assert nxt.c_n == pytest.approx(c_next, rel=1e-12)
                    assert nxt.q_n == pytest.approx(q_next, rel=1e-14)


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "bit-identical energies for identical config and seed"):
        config = {
            "model": {
                "type": "gpe",
                "dimension": 1,
                "grid_points": GPE_SPEC["n"],
                "domain_length": GPE_SPEC["length"],
                "boundary": "dirichlet_zero",
                "potential": {"kind": "harmonic", "omega": GPE_SPEC["omega"]},
                "kappa": GPE_SPEC["kappa"],
                "sigma": 0.0,
                "n_orbitals": 1,
                "seed": GPE_SPEC["seed"],
            },
            "methods": [
                {"name": "rgd_ls", "tol": 1e-6, "max_iter": 2000},
                {"name": "dcm", "tol": 1e-6, "max_iter": 2000, "fixed_iters": 3},
            ],
            "solver": {
                "method": "krylov_cg",
                "rel_tol": 1e-8,
                "max_iters": 500,
                "preconditioner": "kinetic_shift",
            },
            "output": {"directory": "out", "csv": True, "summary": True},
        }
        path = tmp_path / "reference.yaml"
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        assert main(["solve", str(path), "--out-dir", str(tmp_path / "a")]) == EXIT_OK
        assert main(["solve", str(path), "--out-dir", str(tmp_path / "b")]) == EXIT_OK
        first = (tmp_path / "a" / "summary.txt").read_text()
        second = (tmp_path / "b" / "summary.txt").read_text()
        assert first == second
        energies = [
            line for line in first.splitlines() if line.startswith("final_energy:")
        ]
        assert len(energies) == 2

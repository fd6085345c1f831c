"""End-to-end CLI behavior: configs, exit codes, CSV/summary artifacts."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
import yaml

from stiefel_rgd import LineSearchParams, SolveConfig
from stiefel_rgd.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    _build_solver,
    _parse_methods,
    load_config,
    main,
)

from conftest import poison_solve

LINE_SEARCH_KEYS = ("alpha", "beta", "delta", "gamma_min", "gamma_max", "gamma0",
                    "max_backtracks")
# The keys each method entry reads besides name, retraction, tol and max_iter.
METHOD_KEYS = {
    "rgd_fixed": ("tau",),
    "rgd_ls": LINE_SEARCH_KEYS,
    "rgd_ls_inexact": LINE_SEARCH_KEYS + ("fixed_iters",),
    "dcm": LINE_SEARCH_KEYS + ("fixed_iters",),
}
# A value in range for each of those keys.
VALID = {"tau": 0.5, "fixed_iters": 10, "alpha": 0.9, "beta": 1e-3, "delta": 0.5,
         "gamma_min": 1e-4, "gamma_max": 1.0, "gamma0": 1e-2, "max_backtracks": 20}
# Each (method, key) pair where only another method reads the key.
FOREIGN_KEYS = [(method, key) for method, keys in METHOD_KEYS.items()
                for key in VALID if key not in keys]


def base_config(**overrides):
    config = {
        "model": {
            "type": "coupled",
            "dimension": 1,
            "grid_points": 48,
            "domain_length": 1.0,
            "boundary": "dirichlet_zero",
            "potential": {"kind": "harmonic", "omega": 8.0},
            "kappa": 5.0,
            "sigma": 0.0,
            "n_orbitals": 2,
            "seed": 3,
        },
        "methods": [{"name": "rgd_ls", "tol": 1e-6, "max_iter": 500}],
        "solver": {
            "method": "krylov_cg",
            "rel_tol": 1e-8,
            "max_iters": 500,
            "preconditioner": "kinetic_shift",
        },
        "output": {"directory": "out", "csv": True, "summary": True},
    }
    for key, value in overrides.items():
        config[key] = value
    return config


def write_config(tmp_path, config, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return path


def read_summary_energies(path):
    energies = {}
    method = None
    for line in path.read_text().splitlines():
        if line.startswith("method: "):
            method = line.split(": ", 1)[1]
        elif line.startswith("final_energy: "):
            energies[method] = line.split(": ", 1)[1]
    return energies


def read_summary_eigenvalues(path):
    for line in path.read_text().splitlines():
        if line.startswith("eigenvalues: "):
            return np.array([float(tok) for tok in line.split(": ", 1)[1].split()])
    raise AssertionError("no eigenvalues in summary")


class TestSolveCommand:
    def test_successful_run_writes_artifacts(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert main(["solve", str(path)]) == EXIT_OK
        out = tmp_path / "out"
        csv = (out / "rgd_ls.csv").read_text().splitlines()
        header = csv[0].split(",")
        assert header == [
            "iter", "energy", "residual_h_norm", "grad_a_norm", "step_size",
            "backtracks", "inner_iterations", "wall_time_s",
        ]
        for row in csv[1:]:
            fields = row.split(",")
            assert len(fields) == 8
            assert all(np.isfinite(float(tok)) for tok in fields)
        summary = (out / "summary.txt").read_text()
        assert "converged: true" in summary
        assert "termination: residual_tol" in summary

    def test_csv_rows_match_reported_iterations(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert main(["solve", str(path)]) == EXIT_OK
        csv = (tmp_path / "out" / "rgd_ls.csv").read_text().splitlines()
        summary = (tmp_path / "out" / "summary.txt").read_text()
        iterations = int(
            [l for l in summary.splitlines() if l.startswith("iterations:")][0]
            .split(":")[1]
        )
        # one row per visited iterate (initial point included) plus header
        assert len(csv) == iterations + 2

    def test_two_methods_agree(self, tmp_path):
        config = base_config(
            methods=[
                {"name": "rgd_ls", "tol": 1e-6, "max_iter": 500},
                {"name": "dcm", "tol": 1e-6, "max_iter": 500, "fixed_iters": 3},
            ]
        )
        path = write_config(tmp_path, config)
        assert main(["solve", str(path)]) == EXIT_OK
        out = tmp_path / "out"
        assert (out / "rgd_ls.csv").exists()
        assert (out / "dcm.csv").exists()
        energies = read_summary_energies(out / "summary.txt")
        assert abs(float(energies["rgd_ls"]) - float(energies["dcm"])) <= 1e-7

    def test_method_budget_reaches_every_direction(self, tmp_path):
        # The entry's fixed_iters, not the library's default of 3, is the
        # inner budget: 5 steps per orbital on every iterate.
        config = base_config(methods=[{"name": "dcm", "fixed_iters": 5, "max_iter": 500}])
        path = write_config(tmp_path, config)
        assert main(["solve", str(path)]) == EXIT_OK
        csv = (tmp_path / "out" / "dcm.csv").read_text().splitlines()
        column = csv[0].split(",").index("inner_iterations")
        n_orbitals = config["model"]["n_orbitals"]
        assert len(csv) > 2
        assert all(int(row.split(",")[column]) == 5 * n_orbitals for row in csv[1:])

    def test_determinism_bitwise_summary(self, tmp_path):
        config = base_config()
        path = write_config(tmp_path, config)
        assert main(["solve", str(path), "--out-dir", str(tmp_path / "a")]) == EXIT_OK
        assert main(["solve", str(path), "--out-dir", str(tmp_path / "b")]) == EXIT_OK
        first = (tmp_path / "a" / "summary.txt").read_bytes()
        second = (tmp_path / "b" / "summary.txt").read_bytes()
        assert first == second

    def test_seed_override_changes_start_not_ground_energy(self, tmp_path):
        config = base_config()
        path = write_config(tmp_path, config)
        assert main(["solve", str(path), "--out-dir", str(tmp_path / "a")]) == EXIT_OK
        assert main(
            ["solve", str(path), "--out-dir", str(tmp_path / "b"), "--seed", "99"]
        ) == EXIT_OK
        e_a = read_summary_energies(tmp_path / "a" / "summary.txt")["rgd_ls"]
        e_b = read_summary_energies(tmp_path / "b" / "summary.txt")["rgd_ls"]
        assert abs(float(e_a) - float(e_b)) <= 1e-7

    def test_log_frames_writes_diagnostics(self, tmp_path):
        config = base_config(
            methods=[{"name": "rgd_fixed", "tau": 0.1, "tol": 1e-5, "max_iter": 3000}]
        )
        path = write_config(tmp_path, config)
        assert main(["solve", str(path), "--log-frames"]) == EXIT_OK
        diag = (tmp_path / "out" / "rgd_fixed_diagnostics.csv").read_text().splitlines()
        assert diag[0] == "iter,r2,r3"
        assert len(diag) >= 2

    @pytest.mark.parametrize("switch, kept", [("csv", "summary.txt"), ("summary", "rgd_ls.csv")])
    def test_output_switch_suppresses_only_its_file(self, tmp_path, switch, kept):
        config = base_config()
        config["output"][switch] = False
        path = write_config(tmp_path, config)
        assert main(["solve", str(path), "--log-frames"]) == EXIT_OK
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert written == sorted([kept, "rgd_ls_diagnostics.csv"])

    @pytest.mark.parametrize("log_frames", [True, False], ids=["log-frames", "no-log-frames"])
    @pytest.mark.parametrize("max_iter, code", [(500, EXIT_OK), (3, EXIT_NUMERICAL)],
                             ids=["converged", "not-converged"])
    def test_both_output_switches_off(self, tmp_path, log_frames, max_iter, code):
        # The exit code still follows convergence; --log-frames still writes
        # its diagnostics, and nothing else is written.
        config = base_config(methods=[{"name": "rgd_ls", "tol": 1e-6, "max_iter": max_iter}],
                             output={"csv": False, "summary": False})
        path = write_config(tmp_path, config)
        argv = ["solve", str(path)] + (["--log-frames"] if log_frames else [])
        assert main(argv) == code
        written = [p.name for p in (tmp_path / "out").iterdir()]
        assert written == (["rgd_ls_diagnostics.csv"] if log_frames else [])

    def test_flags_do_not_carry_over_to_the_next_call(self, tmp_path):
        """The parser is built once per process; each call parses afresh."""
        path = write_config(tmp_path, base_config())
        assert main(["solve", str(path), "--out-dir", str(tmp_path / "a"),
                     "--log-frames", "--seed", "5"]) == EXIT_OK
        assert main(["solve", str(path), "--out-dir", str(tmp_path / "b")]) == EXIT_OK
        assert (tmp_path / "a" / "rgd_ls_diagnostics.csv").exists()
        assert not list((tmp_path / "b").glob("*_diagnostics.csv"))
        first, second = ((tmp_path / out / "summary.txt").read_text().splitlines()[0]
                         for out in ("a", "b"))
        assert first.endswith(" seed=5")
        assert second.endswith(" seed=3")

    def test_potential_from_file(self, tmp_path):
        values = np.linspace(0.0, 1.0, 48)
        pot_path = tmp_path / "pot.txt"
        np.savetxt(pot_path, values)
        config = base_config()
        config["model"]["potential"] = {"kind": "file", "path": "pot.txt"}
        path = write_config(tmp_path, config)
        assert main(["solve", str(path)]) == EXIT_OK

    def test_potential_file_wrong_length(self, tmp_path):
        np.savetxt(tmp_path / "pot.txt", np.zeros(17))
        config = base_config()
        config["model"]["potential"] = {"kind": "file", "path": "pot.txt"}
        path = write_config(tmp_path, config)
        assert main(["solve", str(path)]) == EXIT_CONFIG

    def test_nonconvergent_run_exits_numerical(self, tmp_path):
        config = base_config(
            methods=[{"name": "rgd_fixed", "tau": 0.01, "tol": 1e-10, "max_iter": 3}]
        )
        path = write_config(tmp_path, config)
        assert main(["solve", str(path)]) == EXIT_NUMERICAL

    def test_failed_krylov_solve_reported_as_solver_failure(self, tmp_path, capsys):
        # One unpreconditioned CG step cannot reach rel_tol on either column,
        # so the first exact gradient's solve raises ConvergenceError.
        config = base_config(
            methods=[{"name": "rgd_ls"}],
            solver={"max_iters": 1, "preconditioner": "none"},
        )
        config["model"].update(grid_points=64, kappa=10.0, seed=0,
                               potential={"kind": "harmonic", "omega": 10.0})
        path = write_config(tmp_path, config)
        assert main(["solve", str(path)]) == EXIT_NUMERICAL
        assert "run did not converge: solver_failure" in capsys.readouterr().err
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        assert "termination: solver_failure" in summary
        assert "iterations: 0" in summary
        assert "total_inner_iterations: 2" in summary
        rows = (tmp_path / "out" / "rgd_ls.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].split(",")[6] == "2"

    def test_non_finite_solve_exits_numerical(self, tmp_path, monkeypatch, capsys):
        calls = poison_solve(monkeypatch, at_call=3)
        path = write_config(tmp_path, base_config())
        assert main(["solve", str(path)]) == EXIT_NUMERICAL
        assert calls[0] == 3
        err = capsys.readouterr().err
        assert "method rgd_ls failed: frame contains non-finite entries" in err


class TestConfigValidation:
    def test_empty_method_list(self, tmp_path):
        path = write_config(tmp_path, base_config(methods=[]))
        assert main(["solve", str(path)]) == EXIT_CONFIG

    def test_missing_model_section(self, tmp_path):
        config = base_config()
        del config["model"]
        path = write_config(tmp_path, config)
        assert main(["solve", str(path)]) == EXIT_CONFIG

    def test_unknown_method_name(self, tmp_path):
        path = write_config(tmp_path, base_config(methods=[{"name": "newton"}]))
        assert main(["solve", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("value", ["direct_dense", "gmres"])
    def test_unknown_solver_method_rejected(self, tmp_path, capsys, value):
        config = base_config()
        config["solver"]["method"] = value
        path = write_config(tmp_path, config)
        assert main(["solve", str(path)]) == EXIT_CONFIG
        assert "'solver.method'" in capsys.readouterr().err

    def test_removed_diagonal_preconditioner_rejected(self, tmp_path, capsys):
        config = base_config()
        config["solver"]["preconditioner"] = "diagonal"
        path = write_config(tmp_path, config)
        assert main(["solve", str(path)]) == EXIT_CONFIG
        assert "unknown preconditioner 'diagonal'" in capsys.readouterr().err

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("model: [unclosed", encoding="utf-8")
        assert main(["solve", str(path)]) == EXIT_CONFIG

    def test_missing_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "absent.yaml")]) == EXIT_CONFIG

    def test_gpe_requires_single_orbital(self, tmp_path):
        config = base_config()
        config["model"]["type"] = "gpe"
        config["model"]["n_orbitals"] = 2
        path = write_config(tmp_path, config)
        assert main(["solve", str(path)]) == EXIT_CONFIG

    def test_negative_kappa_rejected(self, tmp_path):
        config = base_config()
        config["model"]["kappa"] = -1.0
        path = write_config(tmp_path, config)
        assert main(["solve", str(path)]) == EXIT_CONFIG

    def test_more_orbitals_than_unknowns_rejected(self, tmp_path, capsys):
        config = base_config()
        config["model"]["grid_points"] = 4
        config["model"]["n_orbitals"] = 6
        path = write_config(tmp_path, config)
        assert main(["solve", str(path)]) == EXIT_CONFIG
        assert "model.n_orbitals" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key",
        [("model", "kappa"), ("model", "n_orbitals"), ("solver", "rel_tol"),
         ("solver", "max_iters")],
    )
    def test_boolean_number_rejected(self, tmp_path, capsys, section, key):
        # YAML reads true/on/yes as a bool, which int() and float() accept.
        config = base_config()
        config[section][key] = True
        path = write_config(tmp_path, config)
        assert main(["solve", str(path)]) == EXIT_CONFIG
        assert f"'{section}.{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["fixed_iters", "tau"])
    def test_boolean_method_number_rejected(self, tmp_path, capsys, key):
        method = "rgd_fixed" if key == "tau" else "rgd_ls_inexact"
        config = base_config(methods=[{"name": method, key: True}])
        path = write_config(tmp_path, config)
        assert main(["solve", str(path)]) == EXIT_CONFIG
        assert f"'methods[0].{key}'" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "section, key, value",
        [("methods", "gamma0", float("nan")), ("methods", "gamma_max", float("inf")),
         ("model", "kappa", float("nan")), ("model", "kappa", float("inf")),
         ("methods", "tol", float("nan")), ("model", "sigma", float("inf")),
         ("methods", "max_iter", float("inf"))],
        ids=["gamma0-nan", "gamma_max-inf", "kappa-nan", "kappa-inf", "tol-nan",
             "sigma-inf", "max_iter-inf"],
    )
    def test_non_finite_number_rejected(self, tmp_path, capsys, section, key, value):
        # YAML reads .nan and .inf as floats, which float() and int() accept or overflow on.
        config = base_config()
        config["model"]["grid_points"] = 16
        if section == "methods":
            config["methods"][0][key] = value
            field = f"'methods[0].{key}'"
        else:
            config[section][key] = value
            field = f"'{section}.{key}'"
        path = write_config(tmp_path, config)
        assert main(["solve", str(path)]) == EXIT_CONFIG
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, center",
        [("harmonic", True), ("harmonic", "0.5"), ("harmonic", float("nan")),
         ("harmonic", [float("inf")]), ("harmonic", [0.5, 0.5]), ("well", True),
         ("well", [0.5, False]), ("well", {"x": 0.5})],
        ids=["bool", "string", "nan", "inf-entry", "two-entries-1d", "well-bool",
             "well-bool-entry", "mapping"],
    )
    def test_invalid_potential_center_rejected(self, tmp_path, capsys, kind, center):
        config = base_config()
        config["model"]["grid_points"] = 16
        config["model"]["potential"] = (
            {"kind": "harmonic", "omega": 8.0} if kind == "harmonic"
            else {"kind": "well", "depth": -50.0, "width": 0.4})
        config["model"]["potential"]["center"] = center
        path = write_config(tmp_path, config)
        assert main(["solve", str(path)]) == EXIT_CONFIG
        assert "'model.potential.center'" in capsys.readouterr().err

    @pytest.mark.parametrize("dimension, center", [(1, 0.5), (1, [1]), (2, [0.5, 0.5])])
    def test_valid_potential_center_accepted(self, tmp_path, dimension, center):
        config = base_config()
        config["model"].update(dimension=dimension, grid_points=8 if dimension == 2 else 16)
        config["model"]["potential"]["center"] = center
        path = write_config(tmp_path, config)
        assert main(["solve", str(path)]) == EXIT_OK

    @pytest.mark.parametrize(
        "where, key",
        [("", "solvr"), ("model", "grid_point"), ("model.potential", "omgea"),
         ("model.potential", "depth"), ("methods[0]", "gama_max"), ("solver", "reltol"),
         ("output", "csvv")],
        ids=["top-level", "model", "potential", "potential-other-kind", "method", "solver",
             "output"],
    )
    def test_unknown_key_rejected(self, tmp_path, capsys, where, key):
        # A misspelt key must not run silently with the default it meant to override.
        config = base_config()
        if where == "":
            config[key] = {}
        elif where == "methods[0]":
            config["methods"][0][key] = 10.0
        elif where == "model.potential":
            config["model"]["potential"][key] = 10.0  # 'depth' is a key of kind 'well'
        else:
            config[where][key] = 1.0
        path = write_config(tmp_path, config)
        assert main(["solve", str(path)]) == EXIT_CONFIG
        assert f"'{where + '.' if where else ''}{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("max_iter", -1), ("tau", -0.1), ("tau", 0.0), ("fixed_iters", 0), ("tol", -1.0)])
    def test_method_value_out_of_range_rejected_before_any_run(
            self, tmp_path, capsys, key, value):
        # The second entry is rejected before the first runs and writes its CSV.
        method = "rgd_fixed" if key == "tau" else "dcm"
        config = base_config(methods=[{"name": "rgd_ls"}, {"name": method, key: value}])
        path = write_config(tmp_path, config)
        assert main(["solve", str(path)]) == EXIT_CONFIG
        assert f"'methods[1].{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method, key", FOREIGN_KEYS)
    def test_key_of_another_method_rejected(self, tmp_path, capsys, method, key):
        # A key the entry's method never reads would run silently ignored.
        config = base_config(methods=[{"name": method, key: VALID[key]}])
        path = write_config(tmp_path, config)
        assert main(["solve", str(path)]) == EXIT_CONFIG
        assert (f"unknown key 'methods[0].{key}' for method '{method}'"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_negative_model_seed_rejected(self, tmp_path, capsys):
        config = base_config()
        config["model"]["seed"] = -3
        path = write_config(tmp_path, config)
        assert main(["solve", str(path)]) == EXIT_CONFIG
        assert ("field 'model.seed' has invalid value -3; need >= 0"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_negative_seed_option_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["solve", str(path), "--seed", "-1"]) == EXIT_CONFIG
        assert ("option '--seed' has invalid value -1; need >= 0"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @staticmethod
    def config_error(code, capsys):
        """The stderr of a run that must have ended in a reported config error."""
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error:")
        assert "Traceback" not in err
        return err

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "run.yaml").mkdir()
        code = main(["solve", str(tmp_path / "run.yaml")])
        self.config_error(code, capsys)
        assert not (tmp_path / "out").exists()

    def test_config_not_utf8(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        path.write_bytes(path.read_bytes() + b"# \xff\n")
        code = main(["solve", str(path)])
        assert "not valid YAML" in self.config_error(code, capsys)
        assert not (tmp_path / "out").exists()

    def test_potential_path_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "potential").mkdir()
        config = base_config()
        config["model"]["potential"] = {"kind": "file", "path": "potential"}
        code = main(["solve", str(write_config(tmp_path, config))])
        assert "'model.potential.path'" in self.config_error(code, capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_out_dir_is_a_file(self, tmp_path, capsys, command):
        config = base_config()
        config["model"]["kappa"] = 0.0  # a problem the oracle accepts
        path = write_config(tmp_path, config)
        code = main([command, str(path), "--out-dir", str(path)])
        self.config_error(code, capsys)

    def test_float_fields_in_exponent_form_without_a_dot(self, tmp_path):
        # YAML 1.1 reads 1e-6 as a string, which the float fields accept.
        config = base_config()
        config["model"]["grid_points"] = 16
        text = yaml.safe_dump(config)
        assert "tol: 1.0e-06" in text and "rel_tol: 1.0e-08" in text
        text = text.replace("tol: 1.0e-06", "tol: 1e-6").replace("rel_tol: 1.0e-08",
                                                                  "rel_tol: 1e-8")
        path = tmp_path / "run.yaml"
        path.write_text(text, encoding="utf-8")
        assert load_config(path)["methods"][0]["tol"] == "1e-6"
        assert main(["solve", str(path)]) == EXIT_OK


class TestConfigValidationWithoutLibyaml(TestConfigValidation):
    """The same checks when PyYAML was built without libyaml, so that
    ``load_config`` falls back to the pure-Python safe loader."""

    @pytest.fixture(autouse=True)
    def pure_python_loader(self, monkeypatch):
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).parents[1] / "configs").glob("*.yaml")), ids=lambda p: p.stem)
def test_shipped_configs_load_alike_under_both_loaders(path, monkeypatch):
    loaded = load_config(path)
    assert loaded == yaml.load(path.read_text(encoding="utf-8"), Loader=yaml.SafeLoader)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert load_config(path) == loaded


class TestConfigDefaults:
    """The CLI's defaults are the dataclasses' own."""

    def test_empty_method_entry_parses_to_default_line_search(self):
        methods = _parse_methods({"methods": [{"name": "rgd_ls"}]})
        assert methods[0]["params"] == LineSearchParams()

    @pytest.mark.parametrize("method", METHOD_KEYS)
    def test_method_entry_reads_its_keys_with_their_defaults(self, method):
        defaults = {"retraction": "polar", "tol": 1e-6, "max_iter": 2000, "tau": 0.1,
                    "fixed_iters": 3, **dataclasses.asdict(LineSearchParams())}
        keys = ("retraction", "tol", "max_iter") + METHOD_KEYS[method]
        spec = _parse_methods({"methods": [{"name": method}]})[0]
        params = {} if method == "rgd_fixed" else {"params": LineSearchParams()}
        assert spec == {"name": method, **params, **{key: defaults[key] for key in keys}}
        entry = {"name": method, **{key: VALID[key] for key in METHOD_KEYS[method]}}
        spec = _parse_methods({"methods": [entry]})[0]
        assert all(spec[key] == VALID[key] for key in METHOD_KEYS[method])

    def test_method_entry_overrides_only_its_fields(self):
        entry = {"name": "dcm", "beta": 0.25, "max_backtracks": 3}
        methods = _parse_methods({"methods": [entry]})
        assert methods[0]["params"] == LineSearchParams(beta=0.25, max_backtracks=3)

    @pytest.mark.parametrize("section", [{}, None], ids=["empty", "absent"])
    def test_empty_solver_section_parses_to_default_config(self, section):
        assert _build_solver({"solver": section}) == SolveConfig()


class TestOracleCommand:
    def test_analytic_spectrum_free_particle(self, tmp_path):
        config = base_config()
        config["model"]["potential"] = {"kind": "zero"}
        config["model"]["kappa"] = 0.0
        config["model"]["grid_points"] = 64
        config["model"]["n_orbitals"] = 3
        path = write_config(tmp_path, config)
        assert main(["oracle", str(path)]) == EXIT_OK
        rows = (tmp_path / "out" / "oracle_eigs.csv").read_text().splitlines()
        assert rows[0] == "index,eigenvalue"
        computed = np.array([float(r.split(",")[1]) for r in rows[1:]])
        n, length = 64, 1.0
        h = length / (n + 1)
        analytic = np.array(
            [(4.0 / h**2) * np.sin(np.pi * k * h / (2 * length)) ** 2 for k in (1, 2, 3)]
        )
        assert computed == pytest.approx(analytic, abs=1e-10)
        modes = np.loadtxt(tmp_path / "out" / "oracle_modes.csv", delimiter=",", skiprows=1)
        assert modes.shape == (64, 3)

    def test_harmonic_spectrum_increasing(self, tmp_path):
        config = base_config()
        config["model"]["kappa"] = 0.0
        config["model"]["grid_points"] = 128
        config["model"]["n_orbitals"] = 4
        path = write_config(tmp_path, config)
        assert main(["oracle", str(path)]) == EXIT_OK
        rows = (tmp_path / "out" / "oracle_eigs.csv").read_text().splitlines()[1:]
        eigenvalues = [float(r.split(",")[1]) for r in rows]
        assert all(b > a for a, b in zip(eigenvalues, eigenvalues[1:]))

    def test_nonlinear_model_rejected(self, tmp_path):
        path = write_config(tmp_path, base_config())  # kappa = 5
        assert main(["oracle", str(path)]) == EXIT_CONFIG

    def test_oversized_grid_rejected(self, tmp_path):
        config = base_config()
        config["model"]["kappa"] = 0.0
        config["model"]["dimension"] = 2
        config["model"]["grid_points"] = 96  # 9216 > dense limit
        path = write_config(tmp_path, config)
        assert main(["oracle", str(path)]) == EXIT_CONFIG

    def test_solve_matches_oracle_file(self, tmp_path):
        config = base_config(
            methods=[{"name": "rgd_ls", "tol": 1e-9, "max_iter": 500}],
            solver={"method": "krylov_cg", "rel_tol": 1e-10, "preconditioner": "kinetic_shift"},
        )
        config["model"]["kappa"] = 0.0
        config["model"]["grid_points"] = 64
        config["model"]["n_orbitals"] = 3
        path = write_config(tmp_path, config)
        assert main(["oracle", str(path)]) == EXIT_OK
        assert main(["solve", str(path)]) == EXIT_OK
        rows = (tmp_path / "out" / "oracle_eigs.csv").read_text().splitlines()[1:]
        oracle_eigs = np.array([float(r.split(",")[1]) for r in rows])
        solved = read_summary_eigenvalues(tmp_path / "out" / "summary.txt")
        assert solved == pytest.approx(oracle_eigs, abs=1e-8)

"""Config-driven experiment runner.

``stiefel-rgd solve <config.yaml>`` executes the requested descent methods
and writes one CSV history per method plus a summary; ``stiefel-rgd oracle
<config.yaml>`` writes the dense eigensolve reference for linear problems.
The YAML grammar is documented in the README.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .descent import (
    LineSearchParams,
    RunResult,
    collect,
    diagnostics_a2_a3,
    initial_frame,
    steps,
)
from .directions import DCM, EXACT_GRAD, FIXED_ITERS, INEXACT_GRAD
from .errors import ConfigError, NumericalError
from .frames import DIRICHLET, GridSpec, PERIODIC
from .geometry import RETRACTION_KINDS
from .models import (
    EnergyModel,
    potential_from_file,
    potential_harmonic,
    potential_well,
    potential_zero,
    validate_coercivity,
)
from .solvers import SolveConfig

ORACLE_LIMIT = 8192  # largest n_dof the oracle's dense eigensolve accepts

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2

OUT_DIR_HELP = ("override output.directory; a relative path resolves against "
                "the config file's folder, not the working directory")

CSV_HEADER = (
    "iter,energy,residual_h_norm,grad_a_norm,step_size,"
    "backtracks,inner_iterations,wall_time_s"
)


# One table per config section, read by ``_read``: each key maps to its
# default, to its type when the key is required, or to the tuple of the
# values it accepts, the first of them its default.
SECTIONS = {"model": None, "methods": None, "solver": None, "output": None}
MODEL = {
    "type": ("coupled", "gpe"), "dimension": 1, "grid_points": int, "domain_length": 1.0,
    "boundary": (DIRICHLET, PERIODIC), "potential": None, "kappa": 0.0, "sigma": 0.0,
    "n_orbitals": 1, "seed": 0,
}
POTENTIALS = {  # the keys of 'model.potential' besides 'kind', per kind
    "zero": {},
    "harmonic": {"omega": float, "center": None},
    "well": {"depth": float, "width": float, "center": None},
    "file": {"path": str},
}
COMMON = {"name": str, "retraction": RETRACTION_KINDS, "tol": 1e-6, "max_iter": 2000}
LINE_SEARCH = {**COMMON, **{f.name: f.default for f in dataclasses.fields(LineSearchParams)}}
METHODS = {  # per method: its direction kind (None for the fixed step) and the
    # keys of its entry, only those its method reads
    "rgd_fixed": (None, {**COMMON, "tau": 0.1}), "rgd_ls": (EXACT_GRAD, LINE_SEARCH),
    "rgd_ls_inexact": (INEXACT_GRAD, {**LINE_SEARCH, "fixed_iters": FIXED_ITERS}),
    "dcm": (DCM, {**LINE_SEARCH, "fixed_iters": FIXED_ITERS}),
}
SOLVER = {  # 'fixed_iters' is set by a method entry, not by the solver section
    "method": ("krylov_cg",),
    **{f.name: f.default for f in dataclasses.fields(SolveConfig) if f.name != "fixed_iters"},
}
OUTPUT = {"directory": "out", "csv": True, "summary": True}


def _read(section, path: str, fields: dict, owner: str = "") -> dict:
    """The values of ``section``, the mapping at ``path`` ('' for the root),
    read by the table ``fields``: every key of the table, each with its
    default when absent. A key not in the table is a config error, whose
    message ends with ``owner``. An absent or empty top-level section reads
    as an empty mapping; the error for one that is not a mapping calls
    ``path`` a section or a field by its form."""
    noun = "field" if "." in path else "section"
    if section is None and noun == "section":
        section = {}
    if not isinstance(section, dict):
        raise ConfigError(f"{noun} '{path}' must be a mapping")
    for key in section:
        if key not in fields:
            name = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown key '{name}'{owner}")
    return {key: _value(section, path, key, default) for key, default in fields.items()}


def _value(section: dict, path: str, key: str, default):
    """``section[key]`` coerced to the type of ``default``, or ``default``
    when the key is absent. A type as ``default`` makes the key required
    and is the type itself; a tuple lists the accepted values, its first
    the default; a None default passes the value on as it is, for the
    caller to check."""
    required = isinstance(default, type)
    choices = isinstance(default, tuple)
    if key not in section:
        if required:
            raise ConfigError(f"missing field '{path}.{key}'")
        return default[0] if choices else default
    kind = default if required else type(default)
    value = section[key]
    if choices and value not in default:
        raise ConfigError(f"field '{path}.{key}' has unknown value {value!r}")
    try:
        if kind in (int, float) and isinstance(value, bool):
            raise ValueError  # YAML true/false, which int() and float() accept
        if kind is float:
            coerced = float(value)
            if not math.isfinite(coerced):
                raise ValueError  # YAML .nan and .inf: no field takes a non-finite value
            return coerced
        if kind is int:
            coerced = int(value)
            if coerced != float(value):
                raise ValueError
            return coerced
        if kind in (bool, str) and not isinstance(value, kind):
            raise ValueError
    except (TypeError, ValueError, OverflowError):  # int() of an infinity overflows
        raise ConfigError(f"field '{path}.{key}' has invalid value {value!r}") from None
    return value


def _build(cls, values: dict, path: str):
    """``cls`` from the entries of ``values`` that name its dataclass fields,
    so each default is written once, on the dataclass."""
    try:
        return cls(**{f.name: values[f.name] for f in dataclasses.fields(cls) if f.name in values})
    except ValueError as exc:
        raise ConfigError(f"section '{path}': {exc}") from exc


def _center(spec: dict, dimension: int) -> Optional[list]:
    """``model.potential.center``: None when absent, else a finite number or
    a list of them, with one entry per dimension (a bare number is one)."""
    value = spec.get("center")
    if value is None:
        return None
    entries = value if isinstance(value, list) else [value]
    if len(entries) != dimension or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
        for x in entries
    ):
        raise ConfigError(
            f"field 'model.potential.center' has invalid value {value!r}; "
            f"need {dimension} finite number(s)"
        )
    return [float(x) for x in entries]


def _build_potential(grid: GridSpec, spec, base_dir: Path) -> np.ndarray:
    if spec is None:
        return potential_zero(grid)
    if not isinstance(spec, dict):
        raise ConfigError("field 'model.potential' must be a mapping")
    kind = _value(spec, "model.potential", "kind", str)
    if kind not in POTENTIALS:
        raise ConfigError(f"field 'model.potential.kind' has unknown value {kind!r}")
    values = _read(spec, "model.potential", {"kind": str, **POTENTIALS[kind]})
    if kind == "zero":
        return potential_zero(grid)
    if kind == "harmonic":
        return potential_harmonic(grid, values["omega"], _center(values, grid.dimension))
    if kind == "well":
        return potential_well(grid, values["depth"], values["width"],
                              _center(values, grid.dimension))
    try:
        return potential_from_file(grid, base_dir / values["path"])  # absolute replaces base_dir
    except OSError as exc:
        raise ConfigError(f"field 'model.potential.path': {exc}") from exc


def _build_model(config: dict, base_dir: Path) -> "tuple[EnergyModel, int]":
    if config.get("model") is None:
        raise ConfigError("missing config section 'model'")
    values = _read(config["model"], "model", MODEL)
    n_orbitals = values["n_orbitals"]
    if values["type"] == "gpe" and n_orbitals != 1:
        raise ConfigError("field 'model.n_orbitals' must be 1 for type 'gpe'")
    try:
        grid = GridSpec(values["dimension"], values["grid_points"], values["domain_length"],
                        values["boundary"])
        potential = _build_potential(grid, values["potential"], base_dir)
        model = EnergyModel(grid, potential, values["kappa"], values["sigma"], n_orbitals)
    except ConfigError:
        raise  # already names its field
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"section 'model': {exc}") from exc
    if n_orbitals > grid.n_dof:
        raise ConfigError(
            f"field 'model.n_orbitals': {n_orbitals} orbitals need at least as many "
            f"grid unknowns, got {grid.n_dof}"
        )
    _check_seed(values["seed"], "field 'model.seed'")
    return model, values["seed"]


def _check_seed(seed: int, name: str) -> None:
    """Seeds are non-negative: ``numpy.random.default_rng`` rejects others."""
    if seed < 0:
        raise ConfigError(f"{name} has invalid value {seed!r}; need >= 0")


def _build_solver(config: dict) -> SolveConfig:
    return _build(SolveConfig, _read(config.get("solver"), "solver", SOLVER), "solver")


def _parse_methods(config: dict) -> list:
    entries = config.get("methods")
    if not isinstance(entries, list) or len(entries) == 0:
        raise ConfigError("section 'methods' must be a non-empty list")
    methods = []
    seen = set()
    for i, entry in enumerate(entries):
        path = f"methods[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"entry '{path}' must be a mapping")
        name = _value(entry, path, "name", str)
        if name not in METHODS:
            raise ConfigError(f"field '{path}.name' has unknown value {name!r}")
        if name in seen:
            raise ConfigError(f"field '{path}.name': duplicate method {name!r}")
        seen.add(name)
        kind, keys = METHODS[name]
        spec = _read(entry, path, keys, f" for method {name!r}")
        # Checked here, so that no method runs on a config that a later one
        # rejects; a key its method's table lacks passes.
        for key, valid, need in (("tau", spec.get("tau", 1.0) > 0.0, "> 0"),
                                 ("fixed_iters", spec.get("fixed_iters", 1) >= 1, ">= 1"),
                                 ("tol", spec["tol"] >= 0.0, ">= 0"),
                                 ("max_iter", spec["max_iter"] >= 0, ">= 0")):
            if not valid:
                raise ConfigError(
                    f"field '{path}.{key}' has invalid value {spec[key]!r}; need {need}")
        if kind is not None:  # the line-search methods
            spec["params"] = _build(LineSearchParams, spec, path)
        methods.append(spec)
    return methods


def load_config(config_path) -> dict:
    """The config mapping, read by libyaml's safe loader when PyYAML was
    built with it (it reads the same YAML about eight times faster) and by
    the pure-Python one otherwise. A path that cannot be read raises its
    ``OSError``, a file that is not UTF-8 a ``ConfigError``."""
    try:
        with open(config_path, "rb") as handle:
            config = yaml.load(handle, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a mapping")
    _read(config, "", SECTIONS)  # rejects an unknown section
    return config


def _load(config_path, out_dir: Optional[str]) -> "tuple[dict, EnergyModel, int, dict, Path]":
    """The config, its model and seed, its output section and the output
    directory: ``out_dir`` when given, else ``output.directory``, either of
    them resolved against the config file's folder."""
    config = load_config(config_path)
    base_dir = Path(config_path).resolve().parent
    model, seed = _build_model(config, base_dir)
    output = _read(config.get("output"), "output", OUTPUT)
    directory = base_dir / (out_dir if out_dir is not None else output["directory"])
    return config, model, seed, output, directory


def _run_method(model, phi0, spec, solver_config, diagnostics: Optional[list]) -> RunResult:
    """One method's run: its steps, passed through ``_diagnosed`` into
    ``diagnostics`` when that is a list, folded by ``collect``."""
    if "fixed_iters" in spec:  # the inner budget of rgd_ls_inexact and dcm
        solver_config = dataclasses.replace(solver_config, fixed_iters=spec["fixed_iters"])
    kind = METHODS[spec["name"]][0]
    run = steps(model, phi0, spec.get("params", spec.get("tau")), kind or EXACT_GRAD,
                spec["retraction"], spec["tol"], spec["max_iter"], solver_config)
    return collect(model, run if diagnostics is None else _diagnosed(model, run, diagnostics))


def _diagnosed(model, run, rows: list):
    """The steps of ``run`` passed on unchanged, appending to ``rows`` the
    (r2, r3) of ``diagnostics_a2_a3`` for each step once the next one has
    arrived. Holds only the previous step."""
    previous = None
    for step in run:
        if previous is not None:
            rows.append(diagnostics_a2_a3(model, previous, step))
        previous = step
        yield step


def _write_lines(path: Path, lines) -> None:
    """Write ``lines`` to ``path`` in the one format of every output file:
    UTF-8, each line ended by a newline (LF)."""
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_history_csv(path: Path, result: RunResult) -> None:
    lines = [CSV_HEADER]
    for rec in result.history:
        lines.append(
            f"{rec.n},{rec.energy:.12e},{rec.residual_h_norm:.12e},"
            f"{rec.grad_a_norm:.12e},{rec.step_size:.12e},{rec.backtracks},"
            f"{rec.inner_iterations},{rec.wall_time_s:.12e}"
        )
    _write_lines(path, lines)


def _write_diagnostics_csv(path: Path, rows: list) -> None:
    lines = ["iter,r2,r3"]
    for n, (r2, r3) in enumerate(rows):
        lines.append(f"{n},{r2:.12e},{r3:.12e}")
    _write_lines(path, lines)


def _model_summary_line(model: EnergyModel, seed: int) -> str:
    grid = model.grid
    return (
        f"model: dimension={grid.dimension} grid_points={grid.points_per_axis} "
        f"domain_length={grid.domain_length:g} boundary={grid.boundary} "
        f"kappa={model.kappa:g} sigma={model.shift:g} "
        f"n_orbitals={model.n_orbitals} seed={seed}"
    )


def _summary_block(name: str, result: RunResult) -> str:
    eigs = " ".join(f"{lam:.12e}" for lam in result.eigenvalues)
    last = result.history[-1]
    return "\n".join(
        [
            f"method: {name}",
            f"converged: {str(result.converged).lower()}",
            f"termination: {result.termination}",
            f"iterations: {result.iterations}",
            f"final_energy: {result.final_energy:.12e}",
            f"residual_h_norm: {last.residual_h_norm:.12e}",
            f"eigenvalues: {eigs}",
            f"total_inner_iterations: {result.total_inner_iterations}",
        ]
    )


def run(
    config_path,
    out_dir: Optional[str] = None,
    seed: Optional[int] = None,
    diagnose: bool = False,
) -> int:
    """Execute every configured method; exit 0 only if all of them converged,
    1 if one failed or did not converge. ``diagnose`` (``--log-frames``)
    also writes each method's (r2, r3) diagnostics. Before any output, a
    bad config raises ``ConfigError`` and a model that is not coercive
    ``NumericalError``; a path that cannot be read or made raises its
    ``OSError``. ``main`` reports each of them."""
    if seed is not None:
        _check_seed(seed, "option '--seed'")
    config, model, config_seed, output, directory = _load(config_path, out_dir)
    solver_config = _build_solver(config)
    methods = _parse_methods(config)
    validate_coercivity(model)

    used_seed = seed if seed is not None else config_seed
    directory.mkdir(parents=True, exist_ok=True)
    phi0 = initial_frame(model.grid, model.n_orbitals, used_seed)

    blocks = [_model_summary_line(model, used_seed)]
    failure_cause = None
    for spec in methods:
        diagnostics = [] if diagnose else None
        try:
            result = _run_method(model, phi0, spec, solver_config, diagnostics)
        except (NumericalError, ValueError) as exc:  # ValueError: a non-finite frame
            print(f"method {spec['name']} failed: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        if output["csv"]:
            _write_history_csv(directory / f"{spec['name']}.csv", result)
        if diagnose:
            _write_diagnostics_csv(directory / f"{spec['name']}_diagnostics.csv", diagnostics)
        blocks.append(_summary_block(spec["name"], result))
        if not result.converged:
            failure_cause = result.termination
    if output["summary"]:
        _write_lines(directory / "summary.txt", ["\n\n".join(blocks)])  # blank line between blocks
    if failure_cause is not None:
        print(f"run did not converge: {failure_cause}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def oracle(config_path, out_dir: Optional[str] = None) -> int:
    """Dense eigensolve reference for the linear (kappa = 0) problem. A bad
    config or a problem it cannot solve raises ``ConfigError``, and a path
    that cannot be read or made ``OSError``, for ``main`` to report."""
    _, model, _, _, directory = _load(config_path, out_dir)
    if model.kappa != 0.0:
        raise ConfigError("oracle is defined only for kappa = 0")
    if model.grid.n_dof > ORACLE_LIMIT:
        raise ConfigError(f"oracle needs n_dof <= {ORACLE_LIMIT}, got {model.grid.n_dof}")

    matrix = model.linear_part.toarray()
    eigenvalues, vectors = np.linalg.eigh(matrix)
    n = model.n_orbitals
    weight = model.grid.weight
    modes = vectors[:, :n] / np.sqrt(weight * np.sum(vectors[:, :n] ** 2, axis=0))
    # Deterministic sign: largest-magnitude component positive.
    for j in range(n):
        k = int(np.argmax(np.abs(modes[:, j])))
        if modes[k, j] < 0:
            modes[:, j] = -modes[:, j]

    directory.mkdir(parents=True, exist_ok=True)
    lines = ["index,eigenvalue"]
    for j in range(n):
        lines.append(f"{j},{eigenvalues[j]:.12e}")
    _write_lines(directory / "oracle_eigs.csv", lines)

    header = ",".join(f"mode_{j}" for j in range(n))
    rows = [header]
    for row in modes:
        rows.append(",".join(f"{val:.12e}" for val in row))
    _write_lines(directory / "oracle_modes.csv", rows)
    return EXIT_OK


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each parse makes a
    fresh namespace, so no value carries over from one ``main`` call to the
    next."""
    parser = argparse.ArgumentParser(
        prog="stiefel-rgd",
        description="Ground states of nonlinear eigenvector problems by "
        "energy-adaptive Riemannian gradient descent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve_parser = sub.add_parser("solve", help="run the configured descent methods")
    solve_parser.add_argument("config", help="path to the YAML run configuration")
    solve_parser.add_argument("--out-dir", default=None, help=OUT_DIR_HELP)
    solve_parser.add_argument("--seed", type=int, default=None, help="override the seed")
    solve_parser.add_argument(
        "--log-frames", action="store_true", dest="diagnose",
        help="write each method's (r2, r3) diagnostics, computed step by step"
    )

    oracle_parser = sub.add_parser("oracle", help="dense eigensolve for kappa = 0")
    oracle_parser.add_argument("config", help="path to the YAML run configuration")
    oracle_parser.add_argument("--out-dir", default=None, help=OUT_DIR_HELP)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and map its failures to exit codes: 2 for a bad
    config or a path that cannot be read or made, 1 for a model that is not
    coercive; ``run`` gives 1 itself for a method that fails or does not
    converge."""
    args = _parser().parse_args(argv)
    try:
        if args.command == "solve":
            return run(args.config, args.out_dir, args.seed, args.diagnose)
        return oracle(args.config, args.out_dir)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

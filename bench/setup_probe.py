"""Set-up time of one workload, measured in a fresh process.

Times importing ``stiefel_rgd`` and building the workload's models,
coercivity checks and start frames through the public API, then prints
the seconds taken. ``run.py`` starts this script several times.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main(workload_name: str, seed: int) -> None:
    workload = WORKLOADS[workload_name]
    start = time.perf_counter()
    from stiefel_rgd import EnergyModel, GridSpec, initial_frame, potential_harmonic
    from stiefel_rgd.models import validate_coercivity

    for problem in workload.problems:
        grid = GridSpec(problem.dimension, problem.grid_points, 1.0)
        model = EnergyModel(grid, potential_harmonic(grid, 10.0), kappa=problem.kappa,
                            n_orbitals=problem.n_orbitals)
        validate_coercivity(model)
        for frame_seed in workload.frame_seeds(seed):
            initial_frame(grid, problem.n_orbitals, frame_seed)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))

"""CoMD: OpenMP CPU port (the Figures 8c/9c baseline).

A ``#pragma omp parallel for`` on each of the three loops — Table IV's
23 changed lines.
"""

from __future__ import annotations

from ...models.base import ExecutionContext
from ...models.openmp import OpenMP
from ..base import RunResult, make_result
from .driver import epochs
from .kernels import advance_position, advance_velocity, kernel_specs, lj_force
from .reference import LJ_CUTOFF, CoMDConfig, bin_atoms, make_state

model_name = "OpenMP"


def run(ctx: ExecutionContext, config: CoMDConfig) -> RunResult:
    state = make_state(config, ctx.precision)
    specs = kernel_specs(config, ctx.precision)
    dt = config.dt
    omp = OpenMP(ctx, num_threads=4)

    def force() -> None:
        # #pragma omp parallel for schedule(dynamic)
        omp.parallel_for(
            lj_force,
            specs["comd.lj_force"],
            arrays=[state.positions, state.forces, state.pe_per_atom,
                    state.cell_atoms, state.cell_count, state.neighbor_cells,
                    config.box],
            scalars=[LJ_CUTOFF],
        )

    force()
    chunks = list(epochs(config.steps))
    for i, chunk in enumerate(chunks):
        for _ in range(chunk):
            # #pragma omp parallel for
            omp.parallel_for(advance_velocity, specs["comd.advance_velocity"],
                             arrays=[state.velocities, state.forces], scalars=[0.5 * dt])
            # #pragma omp parallel for
            omp.parallel_for(advance_position, specs["comd.advance_position"],
                             arrays=[state.positions, state.velocities, config.box], scalars=[dt])
            force()
            # #pragma omp parallel for
            omp.parallel_for(advance_velocity, specs["comd.advance_velocity"],
                             arrays=[state.velocities, state.forces], scalars=[0.5 * dt])
        if i + 1 < len(chunks):
            bin_atoms(state)
    return make_result("CoMD", ctx, model_name, omp.simulated_seconds, lambda: state.checksum())

"""CoMD: OpenMP target-offload port.

``target teams distribute parallel for`` over the three loops, with a
``target data`` region per rebin epoch.  Like OpenACC, the directive
level exposes no LDS and no workgroup barrier, so the cell-pair force
loop cannot be tiled — the compilers fall back to scattered per-lane
work on this, their worst kernel.
"""

from __future__ import annotations

from ...models.base import ExecutionContext
from ...models.omp_offload import OpenMPOffload
from ..base import RunResult, make_result
from .driver import epochs
from .kernels import advance_position, advance_velocity, kernel_specs, lj_force
from .reference import LJ_CUTOFF, CoMDConfig, bin_atoms, make_state

model_name = "OpenMP Offload"

THREAD_LIMIT = 128


def run(ctx: ExecutionContext, config: CoMDConfig) -> RunResult:
    state = make_state(config, ctx.precision)
    specs = kernel_specs(config, ctx.precision)
    dt = config.dt
    box = config.box  # bind once: the data environment tracks identity
    omp = OpenMPOffload(ctx)
    n = config.n_atoms
    teams = -(-n // THREAD_LIMIT)

    def launch_force() -> None:
        # #pragma omp target teams distribute parallel for thread_limit(...)
        omp.target_teams_loop(
            lj_force,
            specs["comd.lj_force"],
            arrays=[state.positions, state.forces, state.pe_per_atom,
                    state.cell_atoms, state.cell_count, state.neighbor_cells,
                    box],
            scalars=[LJ_CUTOFF],
            writes=[state.forces, state.pe_per_atom],
            num_teams=teams, thread_limit=THREAD_LIMIT,
        )

    first = True
    chunks = list(epochs(config.steps))
    for i, chunk in enumerate(chunks):
        # #pragma omp target data map(tofrom: pos, vel, force, pe) \
        #     map(to: cells, counts, neigh, box)
        with omp.target_data(
            tofrom=[state.positions, state.velocities, state.forces, state.pe_per_atom],
            to=[state.cell_atoms, state.cell_count, state.neighbor_cells, box],
        ):
            if first:
                launch_force()
                first = False
            for _ in range(chunk):
                omp.target_teams_loop(
                    advance_velocity, specs["comd.advance_velocity"],
                    arrays=[state.velocities, state.forces], scalars=[0.5 * dt],
                    writes=[state.velocities], num_teams=teams, thread_limit=THREAD_LIMIT,
                )
                omp.target_teams_loop(
                    advance_position, specs["comd.advance_position"],
                    arrays=[state.positions, state.velocities, box], scalars=[dt],
                    writes=[state.positions], num_teams=teams, thread_limit=THREAD_LIMIT,
                )
                launch_force()
                omp.target_teams_loop(
                    advance_velocity, specs["comd.advance_velocity"],
                    arrays=[state.velocities, state.forces], scalars=[0.5 * dt],
                    writes=[state.velocities], num_teams=teams, thread_limit=THREAD_LIMIT,
                )
        if i + 1 < len(chunks):
            bin_atoms(state)
    return make_result("CoMD", ctx, model_name, omp.simulated_seconds, lambda: state.checksum())

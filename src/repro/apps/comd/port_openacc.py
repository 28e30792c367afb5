"""CoMD: OpenACC port.

``kernels loop`` directives over the three loops, with a ``data``
region per rebin epoch.  PGI cannot map the cell-pair parallelism onto
the vector units (no LDS, no workgroup barrier), which is why the
paper found "OpenACC demonstrated the worst performance on both
architectures because of the compiler's inability to expose
vector-parallelism in the accelerator code".
"""

from __future__ import annotations

from ...models.base import ExecutionContext
from ...models.openacc import OpenACC
from ..base import RunResult, make_result
from .driver import epochs
from .kernels import advance_position, advance_velocity, kernel_specs, lj_force
from .reference import LJ_CUTOFF, CoMDConfig, bin_atoms, make_state

model_name = "OpenACC"

VECTOR_LENGTH = 128


def run(ctx: ExecutionContext, config: CoMDConfig) -> RunResult:
    state = make_state(config, ctx.precision)
    specs = kernel_specs(config, ctx.precision)
    dt = config.dt
    box = config.box  # bind once: the data region tracks identity
    acc = OpenACC(ctx)
    n = config.n_atoms
    gangs = -(-n // VECTOR_LENGTH)

    def launch_force() -> None:
        # #pragma acc kernels loop gang vector(VECTOR_LENGTH) independent
        acc.kernels_loop(
            lj_force,
            specs["comd.lj_force"],
            arrays=[state.positions, state.forces, state.pe_per_atom,
                    state.cell_atoms, state.cell_count, state.neighbor_cells,
                    box],
            scalars=[LJ_CUTOFF],
            writes=[state.forces, state.pe_per_atom],
            gang=gangs, vector=VECTOR_LENGTH,
        )

    first = True
    chunks = list(epochs(config.steps))
    for i, chunk in enumerate(chunks):
        # #pragma acc data copy(pos, vel, force, pe) copyin(cells, counts, neigh, box)
        with acc.data(
            copy=[state.positions, state.velocities, state.forces, state.pe_per_atom],
            copyin=[state.cell_atoms, state.cell_count, state.neighbor_cells, box],
        ):
            if first:
                launch_force()
                first = False
            for _ in range(chunk):
                acc.kernels_loop(
                    advance_velocity, specs["comd.advance_velocity"],
                    arrays=[state.velocities, state.forces], scalars=[0.5 * dt],
                    writes=[state.velocities], gang=gangs, vector=VECTOR_LENGTH,
                )
                acc.kernels_loop(
                    advance_position, specs["comd.advance_position"],
                    arrays=[state.positions, state.velocities, box], scalars=[dt],
                    writes=[state.positions], gang=gangs, vector=VECTOR_LENGTH,
                )
                launch_force()
                acc.kernels_loop(
                    advance_velocity, specs["comd.advance_velocity"],
                    arrays=[state.velocities, state.forces], scalars=[0.5 * dt],
                    writes=[state.velocities], gang=gangs, vector=VECTOR_LENGTH,
                )
        if i + 1 < len(chunks):
            bin_atoms(state)
    return make_result("CoMD", ctx, model_name, acc.simulated_seconds, lambda: state.checksum())

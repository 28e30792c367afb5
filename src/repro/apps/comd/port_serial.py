"""CoMD: serial CPU port."""

from __future__ import annotations

from ...models.base import ExecutionContext
from ...models.serial import SerialCPU
from ..base import RunResult, make_result
from .driver import epochs
from .kernels import advance_position, advance_velocity, kernel_specs, lj_force
from .reference import LJ_CUTOFF, CoMDConfig, bin_atoms, make_state

model_name = "Serial"


def run(ctx: ExecutionContext, config: CoMDConfig) -> RunResult:
    state = make_state(config, ctx.precision)
    specs = kernel_specs(config, ctx.precision)
    dt = config.dt
    cpu = SerialCPU(ctx)

    def force() -> None:
        cpu.run_loop(
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
            cpu.run_loop(advance_velocity, specs["comd.advance_velocity"],
                         arrays=[state.velocities, state.forces], scalars=[0.5 * dt])
            cpu.run_loop(advance_position, specs["comd.advance_position"],
                         arrays=[state.positions, state.velocities, config.box], scalars=[dt])
            force()
            cpu.run_loop(advance_velocity, specs["comd.advance_velocity"],
                         arrays=[state.velocities, state.forces], scalars=[0.5 * dt])
        if i + 1 < len(chunks):
            bin_atoms(state)
    return make_result("CoMD", ctx, model_name, cpu.simulated_seconds, lambda: state.checksum())

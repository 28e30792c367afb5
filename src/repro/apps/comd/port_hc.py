"""CoMD: Heterogeneous Compute port (Section VII).

Single source, raw pointers, explicit staging — the atoms are uploaded
once, the whole velocity-Verlet loop runs device-resident, and only
the link-cell rebuilds synchronize with the host.
"""

from __future__ import annotations

from ...models.base import ExecutionContext
from ...models.hc import HCRuntime
from ..base import RunResult, make_result
from .driver import epochs
from .kernels import advance_position, advance_velocity, kernel_specs, lj_force
from .reference import LJ_CUTOFF, CoMDConfig, bin_atoms, make_state

model_name = "Heterogeneous Compute"


def run(ctx: ExecutionContext, config: CoMDConfig) -> RunResult:
    state = make_state(config, ctx.precision)
    specs = kernel_specs(config, ctx.precision)
    dt = config.dt
    box = config.box  # bind once: residency tracking is per-object
    hc = HCRuntime(ctx)

    hc.copy_to_device(state.positions)
    hc.copy_to_device(state.velocities)
    hc.copy_to_device(state.forces)
    hc.copy_to_device(state.pe_per_atom)
    hc.copy_to_device(box)
    hc.copy_to_device(state.neighbor_cells)
    hc.copy_to_device(state.cell_atoms)
    hc.copy_to_device(state.cell_count)

    def launch_force() -> None:
        hc.launch(
            lj_force, specs["comd.lj_force"],
            arrays=[state.positions, state.forces, state.pe_per_atom,
                    state.cell_atoms, state.cell_count, state.neighbor_cells,
                    box],
            scalars=[LJ_CUTOFF],
        )

    launch_force()
    chunks = list(epochs(config.steps))
    for i, chunk in enumerate(chunks):
        for _ in range(chunk):
            hc.launch(advance_velocity, specs["comd.advance_velocity"],
                      arrays=[state.velocities, state.forces], scalars=[0.5 * dt])
            hc.launch(advance_position, specs["comd.advance_position"],
                      arrays=[state.positions, state.velocities, box], scalars=[dt])
            launch_force()
            hc.launch(advance_velocity, specs["comd.advance_velocity"],
                      arrays=[state.velocities, state.forces], scalars=[0.5 * dt])
        if i + 1 < len(chunks):
            # Host rebuilds the link cells from fresh positions, then
            # restages the (possibly reshaped) tables.
            hc.copy_to_host(state.positions)
            bin_atoms(state)
            hc.copy_to_device(state.cell_atoms)
            hc.copy_to_device(state.cell_count)

    hc.copy_to_host(state.positions)
    hc.copy_to_host(state.velocities)
    hc.copy_to_host(state.forces)
    hc.copy_to_host(state.pe_per_atom)
    return make_result("CoMD", ctx, model_name, hc.finish(), lambda: state.checksum())

"""CoMD: C++ AMP port.

The force lambda runs on a *tiled* extent with neighbour positions in
``tile_static`` storage — the tiling the paper credits with "almost
3x" for CoMD (Sec. VI-C).  The CLAMP runtime still owns the transfer
schedule, writing results back after every launch on the dGPU.
"""

from __future__ import annotations

from ...models import cppamp as amp
from ...models.base import ExecutionContext
from ..base import RunResult, make_result
from .driver import epochs
from .kernels import ATOMS_PER_CELL, advance_position, advance_velocity, kernel_specs, lj_force
from .reference import LJ_CUTOFF, CoMDConfig, bin_atoms, make_state

model_name = "C++ AMP"

TILE_SIZE = ATOMS_PER_CELL * 2


def run(ctx: ExecutionContext, config: CoMDConfig) -> RunResult:
    state = make_state(config, ctx.precision)
    specs = kernel_specs(config, ctx.precision)
    dt = config.dt

    rt = amp.AmpRuntime(ctx)
    pos_view = amp.array_view(rt, state.positions)
    vel_view = amp.array_view(rt, state.velocities)
    force_view = amp.array_view(rt, state.forces)
    pe_view = amp.array_view(rt, state.pe_per_atom)
    box_view = amp.array_view(rt, config.box)
    neigh_view = amp.array_view(rt, state.neighbor_cells)
    cells_view = amp.array_view(rt, state.cell_atoms)
    counts_view = amp.array_view(rt, state.cell_count)

    n = config.n_atoms
    tiled_atoms = -(-n // TILE_SIZE) * TILE_SIZE

    def launch_force() -> None:
        rt.parallel_for_each(
            amp.extent(tiled_atoms).tile(TILE_SIZE),
            lj_force,
            specs["comd.lj_force"],
            views=[pos_view, force_view, pe_view, cells_view, counts_view, neigh_view, box_view],
            scalars=[LJ_CUTOFF],
            writes=[force_view, pe_view],
        )

    launch_force()
    chunks = list(epochs(config.steps))
    for i, chunk in enumerate(chunks):
        for _ in range(chunk):
            rt.parallel_for_each(
                amp.extent(n), advance_velocity, specs["comd.advance_velocity"],
                views=[vel_view, force_view], scalars=[0.5 * dt], writes=[vel_view],
            )
            rt.parallel_for_each(
                amp.extent(n), advance_position, specs["comd.advance_position"],
                views=[pos_view, vel_view, box_view], scalars=[dt], writes=[pos_view],
            )
            launch_force()
            rt.parallel_for_each(
                amp.extent(n), advance_velocity, specs["comd.advance_velocity"],
                views=[vel_view, force_view], scalars=[0.5 * dt], writes=[vel_view],
            )
        if i + 1 < len(chunks):
            pos_view.synchronize()
            bin_atoms(state)
            # Cell tables may change shape after a rebuild: re-wrap them.
            cells_view = amp.array_view(rt, state.cell_atoms)
            counts_view = amp.array_view(rt, state.cell_count)

    pos_view.synchronize()
    vel_view.synchronize()
    force_view.synchronize()
    pe_view.synchronize()
    return make_result("CoMD", ctx, model_name, rt.simulated_seconds, lambda: state.checksum())

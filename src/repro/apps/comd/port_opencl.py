"""CoMD: OpenCL port.

Explicit host code: buffers for atoms, cells and tables are staged
once per epoch, kernels run back-to-back on the device, and only the
positions needed for the host-side re-binning (plus the final state)
cross the bus.  The force kernel is the hand-tuned, LDS-tiled variant
(one workgroup per pair of link cells, neighbour positions staged in
local memory).
"""

from __future__ import annotations

from ...models import opencl as cl
from ...models.base import ExecutionContext
from ..base import RunResult, make_result
from .driver import epochs
from .kernels import advance_position, advance_velocity, kernel_specs, lj_force
from .reference import LJ_CUTOFF, CoMDConfig, bin_atoms, make_state

model_name = "OpenCL"

WORKGROUP_SIZE = 64


def run(ctx: ExecutionContext, config: CoMDConfig) -> RunResult:
    state = make_state(config, ctx.precision)
    specs = kernel_specs(config, ctx.precision)
    dt = config.dt

    # InitCl(): platform, device, context, queue, program.
    platform = cl.get_platforms(ctx)[0]
    device = next(d for d in platform.get_devices() if d.is_gpu)
    context = cl.Context(ctx, [device])
    queue = cl.CommandQueue(context, device)
    program = cl.Program(context).build()

    # CreateClBuffer() + CopyClDataToGPU() for the atom state.
    pos_cl = cl.Buffer(context, cl.MemFlags.READ_WRITE, size=state.positions.nbytes)
    vel_cl = cl.Buffer(context, cl.MemFlags.READ_WRITE, size=state.velocities.nbytes)
    force_cl = cl.Buffer(context, cl.MemFlags.READ_WRITE, size=state.forces.nbytes)
    pe_cl = cl.Buffer(context, cl.MemFlags.READ_WRITE, size=state.pe_per_atom.nbytes)
    box_cl = cl.Buffer(context, cl.MemFlags.READ_ONLY | cl.MemFlags.COPY_HOST_PTR, hostbuf=config.box)
    neigh_cl = cl.Buffer(context, cl.MemFlags.READ_ONLY, size=state.neighbor_cells.nbytes)
    queue.enqueue_write_buffer(pos_cl, state.positions)
    queue.enqueue_write_buffer(vel_cl, state.velocities)
    queue.enqueue_write_buffer(force_cl, state.forces)
    queue.enqueue_write_buffer(pe_cl, state.pe_per_atom)
    queue.enqueue_write_buffer(neigh_cl, state.neighbor_cells)

    force_kernel = program.create_kernel("comd_lj_force", lj_force, specs["comd.lj_force"])
    velocity_kernel = program.create_kernel(
        "comd_advance_velocity", advance_velocity, specs["comd.advance_velocity"]
    )
    position_kernel = program.create_kernel(
        "comd_advance_position", advance_position, specs["comd.advance_position"]
    )

    n = config.n_atoms
    global_atoms = -(-n // WORKGROUP_SIZE) * WORKGROUP_SIZE

    def stage_cells() -> tuple[cl.Buffer, cl.Buffer]:
        cells_cl = cl.Buffer(context, cl.MemFlags.READ_ONLY, size=state.cell_atoms.nbytes)
        counts_cl = cl.Buffer(context, cl.MemFlags.READ_ONLY, size=state.cell_count.nbytes)
        queue.enqueue_write_buffer(cells_cl, state.cell_atoms)
        queue.enqueue_write_buffer(counts_cl, state.cell_count)
        return cells_cl, counts_cl

    cells_cl, counts_cl = stage_cells()

    def launch_force() -> None:
        force_kernel.set_args(pos_cl, force_cl, pe_cl, cells_cl, counts_cl, neigh_cl, box_cl, LJ_CUTOFF)
        queue.enqueue_nd_range_kernel(force_kernel, global_atoms, WORKGROUP_SIZE)

    launch_force()
    chunks = list(epochs(config.steps))
    for i, chunk in enumerate(chunks):
        for _ in range(chunk):
            velocity_kernel.set_args(vel_cl, force_cl, 0.5 * dt)
            queue.enqueue_nd_range_kernel(velocity_kernel, global_atoms, WORKGROUP_SIZE)
            position_kernel.set_args(pos_cl, vel_cl, box_cl, dt)
            queue.enqueue_nd_range_kernel(position_kernel, global_atoms, WORKGROUP_SIZE)
            launch_force()
            velocity_kernel.set_args(vel_cl, force_cl, 0.5 * dt)
            queue.enqueue_nd_range_kernel(velocity_kernel, global_atoms, WORKGROUP_SIZE)
        if i + 1 < len(chunks):
            # Host rebuilds the link cells: fetch positions, re-stage tables.
            queue.enqueue_read_buffer(pos_cl, state.positions)
            bin_atoms(state)
            cells_cl, counts_cl = stage_cells()

    # CopyClDataToHost(): final state for the energy checksum.
    queue.enqueue_read_buffer(pos_cl, state.positions)
    queue.enqueue_read_buffer(vel_cl, state.velocities)
    queue.enqueue_read_buffer(force_cl, state.forces)
    queue.enqueue_read_buffer(pe_cl, state.pe_per_atom)
    seconds = queue.finish()
    return make_result("CoMD", ctx, model_name, seconds, lambda: state.checksum())

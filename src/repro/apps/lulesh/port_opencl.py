"""LULESH: OpenCL port.

Classic explicit structure: every state array gets a ``cl_mem``
buffer, the whole mesh is staged once before the time loop, and only
what the host genuinely needs each iteration (the two constraint
arrays and the qstop snapshot) is read back.  This explicit minimal
transfer schedule is exactly the advantage the paper credits for
OpenCL's discrete-GPU wins.
"""

from __future__ import annotations

from ...models import opencl as cl
from ...models.base import ExecutionContext
from ..base import RunResult, make_result
from .kernels import SCHEDULE, kernel_specs
from .physics import LuleshConfig
from .reference import check_qstop, make_state, next_dt

model_name = "OpenCL"

WORKGROUP_SIZE = 128


def run(ctx: ExecutionContext, config: LuleshConfig) -> RunResult:
    state = make_state(config, ctx.precision)
    specs = kernel_specs(config, ctx.precision)
    arrays = state.arrays()

    # InitCl(): platform, device, context, queue, program.
    platform = cl.get_platforms(ctx)[0]
    device = next(d for d in platform.get_devices() if d.is_gpu)
    context = cl.Context(ctx, [device])
    queue = cl.CommandQueue(context, device)
    program = cl.Program(context).build()

    # CreateClBuffer() + CopyClDataToGPU(): one staging pass, up front.
    buffers: dict[str, cl.Buffer] = {}
    for name, host in arrays.items():
        buffers[name] = cl.Buffer(context, cl.MemFlags.READ_WRITE, size=host.nbytes)
        queue.enqueue_write_buffer(buffers[name], host)

    # clCreateKernel for all 28 kernels.
    kernels = {
        step.name: program.create_kernel(step.name, step.func, specs[step.name])
        for step in SCHEDULE
    }

    for _ in range(config.iterations):
        scalars = {"dt": state.dt}
        for step in SCHEDULE:
            kernel = kernels[step.name]
            kernel.set_args(
                *[buffers[name] for name in step.arrays],
                *[scalars[name] for name in step.scalars],
            )
            spec = specs[step.name]
            global_size = -(-spec.work_items // WORKGROUP_SIZE) * WORKGROUP_SIZE
            queue.enqueue_nd_range_kernel(kernel, global_size, WORKGROUP_SIZE)
            if step.name == "lulesh.qstop_check":
                # The only mid-iteration readback: one scalar.
                queue.enqueue_read_buffer(buffers["q_max"], state.q_max)
                check_qstop(state.q_max)
        # Read back just the two scalar reduction results.
        queue.enqueue_read_buffer(buffers["dt_courant_min"], state.dt_courant_min)
        queue.enqueue_read_buffer(buffers["dt_hydro_min"], state.dt_hydro_min)
        state.time += state.dt
        state.dt = next_dt(state.dt, state.dt_courant_min, state.dt_hydro_min)

    # CopyClDataToHost(): final results only.
    for name in ("e", "v", "xd", "yd", "zd", "x", "y", "z", "p", "q"):
        queue.enqueue_read_buffer(buffers[name], arrays[name])
    seconds = queue.finish()
    return make_result("LULESH", ctx, model_name, seconds, lambda: state.checksum())

"""LULESH: C++ AMP port.

``array_view`` per state array and one ``parallel_for_each`` per
kernel; the CLAMP runtime decides when data moves (conservatively, on
the discrete GPU).  On that platform CLAMP v0.6.0 also fails to
compile ``calc_kinematics`` — as in the paper, that one kernel falls
back to the CPU, dragging its seven arrays across PCIe every
iteration ("one kernel was implemented on the CPU which led to
data-transfer overhead").
"""

from __future__ import annotations

from ...models import cppamp as amp
from ...models.base import ExecutionContext
from ..base import RunResult, make_result
from .kernels import SCHEDULE, kernel_specs
from .physics import LuleshConfig
from .reference import check_qstop, make_state, next_dt

model_name = "C++ AMP"

TILE_SIZE = 128


def run(ctx: ExecutionContext, config: LuleshConfig) -> RunResult:
    state = make_state(config, ctx.precision)
    specs = kernel_specs(config, ctx.precision)
    arrays = state.arrays()

    rt = amp.AmpRuntime(ctx)
    views = {name: amp.array_view(rt, host) for name, host in arrays.items()}

    for _ in range(config.iterations):
        scalars = {"dt": state.dt}
        for step in SCHEDULE:
            spec = specs[step.name]
            step_views = [views[name] for name in step.arrays]
            step_scalars = [scalars[name] for name in step.scalars]
            write_views = [views[name] for name in step.writes]
            if rt.compiles(step.name):
                domain = amp.extent(spec.work_items)
                rt.parallel_for_each(
                    domain,
                    step.func,
                    spec,
                    views=step_views,
                    scalars=step_scalars,
                    writes=write_views,
                )
            else:
                # CLAMP compiler bug: run this kernel on the host CPU.
                rt.cpu_fallback_loop(step.func, spec, step_views, step_scalars)
            if step.name == "lulesh.qstop_check":
                views["q_max"].synchronize()
                check_qstop(state.q_max)
        views["dt_courant_min"].synchronize()
        views["dt_hydro_min"].synchronize()
        state.time += state.dt
        state.dt = next_dt(state.dt, state.dt_courant_min, state.dt_hydro_min)

    for name in ("e", "v", "xd", "yd", "zd"):
        views[name].synchronize()
    return make_result("LULESH", ctx, model_name, rt.simulated_seconds, lambda: state.checksum())

"""LULESH: serial CPU port."""

from __future__ import annotations

from ...models.base import ExecutionContext
from ...models.serial import SerialCPU
from ..base import RunResult, make_result
from .kernels import SCHEDULE, kernel_specs
from .physics import LuleshConfig
from .reference import check_qstop, make_state, next_dt

model_name = "Serial"


def run(ctx: ExecutionContext, config: LuleshConfig) -> RunResult:
    state = make_state(config, ctx.precision)
    specs = kernel_specs(config, ctx.precision)
    arrays = state.arrays()

    cpu = SerialCPU(ctx)
    for _ in range(config.iterations):
        scalars = {"dt": state.dt}
        for step in SCHEDULE:
            cpu.run_loop(
                step.func,
                specs[step.name],
                arrays=[arrays[name] for name in step.arrays],
                scalars=[scalars[name] for name in step.scalars],
            )
            if step.name == "lulesh.qstop_check":
                check_qstop(state.q_max)
        state.time += state.dt
        state.dt = next_dt(state.dt, state.dt_courant_min, state.dt_hydro_min)
    return make_result("LULESH", ctx, model_name, cpu.simulated_seconds, lambda: state.checksum())

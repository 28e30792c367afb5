"""LULESH: Heterogeneous Compute port (Section VII).

Single source with explicit staging: the mesh uploads once, all 28
kernels run device-resident (no CLAMP-style compiler bug, no per-launch
write-backs), and only the three reduction scalars synchronize per
iteration.
"""

from __future__ import annotations

from ...models.base import ExecutionContext
from ...models.hc import HCRuntime
from ..base import RunResult, make_result
from .kernels import SCHEDULE, kernel_specs
from .physics import LuleshConfig
from .reference import check_qstop, make_state, next_dt

model_name = "Heterogeneous Compute"


def run(ctx: ExecutionContext, config: LuleshConfig) -> RunResult:
    state = make_state(config, ctx.precision)
    specs = kernel_specs(config, ctx.precision)
    arrays = state.arrays()

    hc = HCRuntime(ctx)
    for host in arrays.values():
        hc.copy_to_device(host)

    for _ in range(config.iterations):
        scalars = {"dt": state.dt}
        for step in SCHEDULE:
            hc.launch(
                step.func,
                specs[step.name],
                arrays=[arrays[name] for name in step.arrays],
                scalars=[scalars[name] for name in step.scalars],
            )
            if step.name == "lulesh.qstop_check":
                hc.copy_to_host(state.q_max)
                check_qstop(state.q_max)
        hc.copy_to_host(state.dt_courant_min)
        hc.copy_to_host(state.dt_hydro_min)
        state.time += state.dt
        state.dt = next_dt(state.dt, state.dt_courant_min, state.dt_hydro_min)

    for name in ("e", "v", "xd", "yd", "zd"):
        hc.copy_to_host(arrays[name])
    return make_result("LULESH", ctx, model_name, hc.finish(), lambda: state.checksum())

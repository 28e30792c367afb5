"""read-memory: serial CPU port (Figure 3a)."""

from __future__ import annotations

import numpy as np

from ...models.base import ExecutionContext
from ...models.serial import SerialCPU
from ..base import RunResult, make_result
from .kernels import read_kernel_spec
from .reference import ReadMemConfig, make_input, read_serial_cpu

model_name = "Serial"


def run(ctx: ExecutionContext, config: ReadMemConfig) -> RunResult:
    data = make_input(config, ctx.precision)
    out = np.zeros(config.n_blocks, dtype=ctx.dtype)

    cpu = SerialCPU(ctx)
    cpu.run_loop(
        read_serial_cpu,
        read_kernel_spec(config, ctx.precision),
        arrays=[data, out],
        scalars=[config.block_size],
    )
    return make_result("read-benchmark", ctx, model_name, cpu.simulated_seconds, lambda: out.sum())

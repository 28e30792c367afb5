"""read-memory: Heterogeneous Compute port (Section VII).

Single source, raw pointers, explicit asynchronous staging.
"""

from __future__ import annotations

import numpy as np

from ...models.base import ExecutionContext
from ...models.hc import HCRuntime
from ..base import RunResult, make_result
from .kernels import read_gpu_kernel, read_kernel_spec
from .reference import ReadMemConfig, make_input

model_name = "Heterogeneous Compute"


def run(ctx: ExecutionContext, config: ReadMemConfig) -> RunResult:
    data = make_input(config, ctx.precision)
    out = np.zeros(config.n_blocks, dtype=ctx.dtype)

    hc = HCRuntime(ctx)
    hc.copy_to_device(data)
    hc.copy_to_device(out)
    hc.launch(
        read_gpu_kernel,
        read_kernel_spec(config, ctx.precision),
        arrays=[data, out],
        scalars=[config.block_size],
    )
    hc.copy_to_host(out)
    return make_result("read-benchmark", ctx, model_name, hc.simulated_seconds, lambda: out.sum())

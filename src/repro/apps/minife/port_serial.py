"""miniFE: serial CPU port."""

from __future__ import annotations

import numpy as np

from ...models.base import ExecutionContext
from ...models.serial import SerialCPU
from ..base import RunResult, make_result
from .kernels import dot, kernel_specs, spmv, waxpby
from .reference import MiniFEConfig, assemble

model_name = "Serial"


def run(ctx: ExecutionContext, config: MiniFEConfig) -> RunResult:
    data, indices, indptr, b = assemble(config, ctx.precision)
    n = config.n_rows
    x = np.zeros(n, dtype=ctx.dtype)
    r = b.copy()
    p = b.copy()
    ap = np.zeros(n, dtype=ctx.dtype)
    pap_out = np.zeros(1, dtype=ctx.dtype)
    rr_out = np.zeros(1, dtype=ctx.dtype)

    cpu = SerialCPU(ctx)
    specs = kernel_specs(config, ctx.precision)
    cpu.run_loop(dot, specs["minife.dot"], arrays=[r, r, rr_out])
    rr = float(rr_out[0])
    for _ in range(config.cg_iterations):
        cpu.run_loop(spmv, specs["minife.spmv"], arrays=[data, indices, indptr, p, ap])
        cpu.run_loop(dot, specs["minife.dot"], arrays=[p, ap, pap_out])
        pap = float(pap_out[0])
        alpha = rr / pap if pap else 0.0
        cpu.run_loop(waxpby, specs["minife.waxpby"], arrays=[x, x, p], scalars=[1.0, alpha])
        cpu.run_loop(waxpby, specs["minife.waxpby"], arrays=[r, r, ap], scalars=[1.0, -alpha])
        cpu.run_loop(dot, specs["minife.dot"], arrays=[r, r, rr_out])
        rr_new = float(rr_out[0])
        beta = rr_new / rr if rr else 0.0
        cpu.run_loop(waxpby, specs["minife.waxpby"], arrays=[p, r, p], scalars=[1.0, beta])
        rr = rr_new
    return make_result("miniFE", ctx, model_name, cpu.simulated_seconds, lambda: float(np.abs(x).sum()))

"""miniFE: OpenACC port.

A ``data`` region holds the matrix and CG vectors on the device;
``update host`` fetches the dot results each iteration.  The paper:
"OpenACC performs the slowest because specialized sparse matrix
operations cannot be easily expressed at a high level, and the
compiler is unable to recognize and take advantage of the complicated
memory access patterns" — here, PGI gets neither the LDS row-blocks of
CSR-Adaptive nor decent gather vectorization.
"""

from __future__ import annotations

import numpy as np

from ...models.base import ExecutionContext
from ...models.openacc import OpenACC
from ..base import RunResult, make_result
from .kernels import dot, kernel_specs, spmv, waxpby
from .reference import MiniFEConfig, assemble

model_name = "OpenACC"

VECTOR_LENGTH = 256


def run(ctx: ExecutionContext, config: MiniFEConfig) -> RunResult:
    data, indices, indptr, b = assemble(config, ctx.precision)
    n = config.n_rows
    x = np.zeros(n, dtype=ctx.dtype)
    pap_out = np.zeros(1, dtype=ctx.dtype)
    rr_out = np.zeros(1, dtype=ctx.dtype)
    r = b.copy()
    p = b.copy()
    ap = np.zeros(n, dtype=ctx.dtype)

    acc = OpenACC(ctx)
    specs = kernel_specs(config, ctx.precision)
    gangs = -(-n // VECTOR_LENGTH)

    def launch_dot(a: np.ndarray, b_: np.ndarray, out: np.ndarray) -> float:
        # #pragma acc kernels loop reduction(+:sum)
        acc.kernels_loop(dot, specs["minife.dot"], arrays=[a, b_, out],
                         writes=[out], gang=gangs, vector=VECTOR_LENGTH)
        # #pragma acc update host(out)
        acc.update_host(out)
        return float(out[0])

    def launch_waxpby(w: np.ndarray, xa: np.ndarray, ya: np.ndarray, alpha: float, beta: float) -> None:
        # #pragma acc kernels loop independent
        acc.kernels_loop(waxpby, specs["minife.waxpby"], arrays=[w, xa, ya],
                         scalars=[alpha, beta], writes=[w], gang=gangs, vector=VECTOR_LENGTH)

    # #pragma acc data copyin(A, b) copy(x) create(r, p, ap, outs)
    with acc.data(
        copyin=[data, indices, indptr, r, p],
        copy=[x],
        create=[ap, pap_out, rr_out],
    ):
        rr = launch_dot(r, r, rr_out)
        for _ in range(config.cg_iterations):
            # #pragma acc kernels loop gang vector(VECTOR_LENGTH)
            acc.kernels_loop(spmv, specs["minife.spmv"],
                             arrays=[data, indices, indptr, p, ap],
                             writes=[ap], gang=gangs, vector=VECTOR_LENGTH)
            pap = launch_dot(p, ap, pap_out)
            alpha = rr / pap if pap else 0.0
            launch_waxpby(x, x, p, 1.0, alpha)
            launch_waxpby(r, r, ap, 1.0, -alpha)
            rr_new = launch_dot(r, r, rr_out)
            beta = rr_new / rr if rr else 0.0
            launch_waxpby(p, r, p, 1.0, beta)
            rr = rr_new
    return make_result("miniFE", ctx, model_name, acc.simulated_seconds, lambda: float(np.abs(x).sum()))

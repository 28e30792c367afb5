"""miniFE: OpenMP target-offload port.

A ``target data`` region holds the matrix and CG vectors on the
device; ``target update from`` fetches the dot results each iteration.
Like PGI's OpenACC, the OpenMP compilers get neither the LDS
row-blocks of CSR-Adaptive nor decent gather vectorization for the
SpMV — only the loop-level directive surface.
"""

from __future__ import annotations

import numpy as np

from ...models.base import ExecutionContext
from ...models.omp_offload import OpenMPOffload
from ..base import RunResult, make_result
from .kernels import dot, kernel_specs, spmv, waxpby
from .reference import MiniFEConfig, assemble

model_name = "OpenMP Offload"

THREAD_LIMIT = 256


def run(ctx: ExecutionContext, config: MiniFEConfig) -> RunResult:
    data, indices, indptr, b = assemble(config, ctx.precision)
    n = config.n_rows
    x = np.zeros(n, dtype=ctx.dtype)
    pap_out = np.zeros(1, dtype=ctx.dtype)
    rr_out = np.zeros(1, dtype=ctx.dtype)
    r = b.copy()
    p = b.copy()
    ap = np.zeros(n, dtype=ctx.dtype)

    omp = OpenMPOffload(ctx)
    specs = kernel_specs(config, ctx.precision)
    teams = -(-n // THREAD_LIMIT)

    def launch_dot(a: np.ndarray, b_: np.ndarray, out: np.ndarray) -> float:
        # #pragma omp target teams distribute parallel for reduction(+:sum)
        omp.target_teams_loop(dot, specs["minife.dot"], arrays=[a, b_, out],
                              writes=[out], num_teams=teams, thread_limit=THREAD_LIMIT)
        # #pragma omp target update from(out)
        omp.update_from(out)
        return float(out[0])

    def launch_waxpby(w: np.ndarray, xa: np.ndarray, ya: np.ndarray, alpha: float, beta: float) -> None:
        # #pragma omp target teams distribute parallel for
        omp.target_teams_loop(waxpby, specs["minife.waxpby"], arrays=[w, xa, ya],
                              scalars=[alpha, beta], writes=[w],
                              num_teams=teams, thread_limit=THREAD_LIMIT)

    # #pragma omp target data map(to: A, b) map(tofrom: x) map(alloc: r, p, ap, outs)
    with omp.target_data(
        to=[data, indices, indptr, r, p],
        tofrom=[x],
        alloc=[ap, pap_out, rr_out],
    ):
        rr = launch_dot(r, r, rr_out)
        for _ in range(config.cg_iterations):
            # #pragma omp target teams distribute parallel for thread_limit(...)
            omp.target_teams_loop(spmv, specs["minife.spmv"],
                                  arrays=[data, indices, indptr, p, ap],
                                  writes=[ap], num_teams=teams, thread_limit=THREAD_LIMIT)
            pap = launch_dot(p, ap, pap_out)
            alpha = rr / pap if pap else 0.0
            launch_waxpby(x, x, p, 1.0, alpha)
            launch_waxpby(r, r, ap, 1.0, -alpha)
            rr_new = launch_dot(r, r, rr_out)
            beta = rr_new / rr if rr else 0.0
            launch_waxpby(p, r, p, 1.0, beta)
            rr = rr_new
    return make_result("miniFE", ctx, model_name, omp.simulated_seconds, lambda: float(np.abs(x).sum()))

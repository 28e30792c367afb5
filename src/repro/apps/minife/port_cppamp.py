"""miniFE: C++ AMP port.

``array_view`` per CG vector; the dot results synchronize to the host
each iteration for the alpha/beta scalars.  Tiling gives the SpMV its
LDS row-blocks, but the CLAMP runtime still writes every kernel's
output back across PCIe on the dGPU.
"""

from __future__ import annotations

import numpy as np

from ...models import cppamp as amp
from ...models.base import ExecutionContext
from ..base import RunResult, make_result
from .kernels import dot, kernel_specs, spmv, waxpby
from .reference import MiniFEConfig, assemble

model_name = "C++ AMP"

TILE_SIZE = 256


def run(ctx: ExecutionContext, config: MiniFEConfig) -> RunResult:
    data, indices, indptr, b = assemble(config, ctx.precision)
    n = config.n_rows
    x = np.zeros(n, dtype=ctx.dtype)
    pap_out = np.zeros(1, dtype=ctx.dtype)
    rr_out = np.zeros(1, dtype=ctx.dtype)
    r = b.copy()
    p = b.copy()
    ap = np.zeros(n, dtype=ctx.dtype)

    rt = amp.AmpRuntime(ctx)
    data_view = amp.array_view(rt, data)
    indices_view = amp.array_view(rt, indices)
    indptr_view = amp.array_view(rt, indptr)
    x_view = amp.array_view(rt, x)
    r_view = amp.array_view(rt, r)
    p_view = amp.array_view(rt, p)
    ap_view = amp.array_view(rt, ap)
    pap_view = amp.array_view(rt, pap_out)
    rr_view = amp.array_view(rt, rr_out)

    specs = kernel_specs(config, ctx.precision)
    tiled = amp.extent(-(-n // TILE_SIZE) * TILE_SIZE).tile(TILE_SIZE)
    plain = amp.extent(n)

    def launch_dot(a_view: amp.array_view, b_view: amp.array_view, out_view: amp.array_view, out_host: np.ndarray) -> float:
        rt.parallel_for_each(
            tiled, dot, specs["minife.dot"],
            views=[a_view, b_view, out_view], writes=[out_view],
        )
        out_view.synchronize()
        return float(out_host[0])

    def launch_waxpby(w_view: amp.array_view, xv: amp.array_view, yv: amp.array_view, alpha: float, beta: float) -> None:
        rt.parallel_for_each(
            plain, waxpby, specs["minife.waxpby"],
            views=[w_view, xv, yv], scalars=[alpha, beta], writes=[w_view],
        )

    rr = launch_dot(r_view, r_view, rr_view, rr_out)
    for _ in range(config.cg_iterations):
        rt.parallel_for_each(
            tiled, spmv, specs["minife.spmv"],
            views=[data_view, indices_view, indptr_view, p_view, ap_view],
            writes=[ap_view],
        )
        pap = launch_dot(p_view, ap_view, pap_view, pap_out)
        alpha = rr / pap if pap else 0.0
        launch_waxpby(x_view, x_view, p_view, 1.0, alpha)
        launch_waxpby(r_view, r_view, ap_view, 1.0, -alpha)
        rr_new = launch_dot(r_view, r_view, rr_view, rr_out)
        beta = rr_new / rr if rr else 0.0
        launch_waxpby(p_view, r_view, p_view, 1.0, beta)
        rr = rr_new

    x_view.synchronize()
    return make_result("miniFE", ctx, model_name, rt.simulated_seconds, lambda: float(np.abs(x).sum()))

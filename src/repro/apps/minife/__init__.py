"""miniFE finite-element proxy application (Sec. IV-D).

Assembles a hexahedral FEM Poisson system and solves it with
unpreconditioned CG: SpMV (CSR-Adaptive in the OpenCL port), waxpby
and dot kernels.  Memory-bandwidth bound with high IPC (Table I).
"""

from ..base import ProxyApp
from . import (
    port_cppamp,
    port_hc,
    port_omp_offload,
    port_openacc,
    port_opencl,
    port_openmp,
    port_serial,
)
from .kernels import NNZ_PER_ROW, dot, kernel_specs, spmv, waxpby
from .reference import (
    MiniFEConfig,
    assemble,
    default_config,
    hex8_stiffness,
    paper_config,
    reference_solve,
)

APP = ProxyApp(
    name="miniFE",
    description="hex-mesh FEM + unpreconditioned CG solve (Sec. IV-D)",
    command_line="./miniFE -nx 100 -ny 100 -nz 100",
    n_kernels=3,
    boundedness="Memory",
    default_config=default_config,
    paper_config=paper_config,
    ports={
        port_serial.model_name: port_serial.run,
        port_openmp.model_name: port_openmp.run,
        port_opencl.model_name: port_opencl.run,
        port_cppamp.model_name: port_cppamp.run,
        port_openacc.model_name: port_openacc.run,
        port_omp_offload.model_name: port_omp_offload.run,
        port_hc.model_name: port_hc.run,
    },
    loop_field="cg_iterations",
)

__all__ = [
    "APP",
    "MiniFEConfig",
    "NNZ_PER_ROW",
    "assemble",
    "default_config",
    "dot",
    "hex8_stiffness",
    "kernel_specs",
    "paper_config",
    "reference_solve",
    "spmv",
    "waxpby",
]

"""Heterogeneous Compute (HC) — Section VII's "best of both worlds".

The paper closes by introducing AMD's Heterogeneous Compute: a
single-source C++ model with C++ AMP's productivity and OpenCL's
control — explicit, asynchronous data transfers, raw pointers in
kernel code, platform atomics and offline compilation.

We model HC as: full optimization capability (it inherits OpenCL's
tuning surface), near-hand-tuned code generation, explicit transfers,
and HSA-grade dispatch overheads.  The ablation benchmark
(``benchmarks/test_ablation_hc.py``) uses it to quantify the paper's
claim that explicit transfers were the single biggest performance gap
of the emerging models.

**Asynchronous transfers** (the Sec. VII feature that "help[s] in
overlapping kernel execution with data-transfers, resulting in further
speedup") are modeled with two timelines: a copy stream and a compute
stream.  ``async_copy_to_device`` advances only the copy stream; a
``launch`` whose inputs are still in flight waits for them, otherwise
it overlaps with outstanding copies.  ``finish()`` (and
``simulated_seconds``) report the makespan of the two streams.

**Schedule capture.**  Under a :class:`~repro.models.base.ChargeLog`
every charge returns 0.0, so the two clocks cannot run during capture.
Instead the runtime records each stream operation, in charge order,
into the log's side stream (``ChargeLog.stream_ops``):

* ``SYNC_H2D`` (slot) — joins the streams, sets the slot's ready time;
* ``ASYNC_H2D`` (slot) — advances the copy stream, sets the ready time;
* ``D2H`` — joins the streams;
* ``LAUNCH`` (wait set) — starts at the compute stream or the latest
  ready time of the slots it touches;
* ``RESET`` (slot) — ready time back to 0.0 (unified-memory staging,
  ``device_alloc``);
* ``JOIN`` — ``finish()``.

A slot is a capture-local index per array object; a launch's slots are
deduplicated into a shared wait-set table.  The first four ops each use
up the next event of the log's charge stream, the last two use none.
:func:`replay` walks the ops over priced charges with the runtime's own
``max`` and ``+`` in the runtime's order, so the columnar engine
(:mod:`repro.engine.study_vec`) reproduces ``finish()`` bit for bit.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from ..engine.kernel import KernelSpec
from ..engine.launch import HC_APU, HC_DGPU
from .base import Capability, CompilerProfile, ExecutionContext, Toolchain, TransferPolicy

HC_PROFILE = CompilerProfile(
    name="Heterogeneous Compute",
    version="HC (pre-release, Sec. VII)",
    capabilities=Capability.all(),
    transfer_policy=TransferPolicy.EXPLICIT,
    vector_efficiency_regular=0.95,
    vector_efficiency_irregular=0.88,
    memory_efficiency=0.95,
    divergence_reduction=0.4,
)


#: Stream op codes of a captured HC run (see the module docstring).
SYNC_H2D, ASYNC_H2D, D2H, LAUNCH, RESET, JOIN = range(6)
#: Ops that each use up one charge event, in charge order.
CHARGING_OPS = (SYNC_H2D, ASYNC_H2D, D2H, LAUNCH)


def replay(
    ops: Iterable[int],
    args: Iterable[int],
    wait_sets: Sequence[tuple[int, ...]],
    n_slots: int,
    charges: Iterable[float],
) -> float:
    """The makespan :class:`HCRuntime` reaches for a captured op stream.

    ``charges`` are the priced seconds of the charge events in order
    (a launch's kernel seconds plus overhead, one add, as
    ``charge_gpu_kernel`` returns it; a copy's transfer seconds).
    """
    copy = compute = 0.0
    ready = [0.0] * n_slots
    charge = iter(charges).__next__
    for op, arg in zip(ops, args):
        if op == LAUNCH:
            start = compute
            for slot in wait_sets[arg]:
                start = max(start, ready[slot])
            compute = start + charge()
        elif op == ASYNC_H2D:
            copy += charge()
            ready[arg] = copy
        elif op == SYNC_H2D:
            copy = compute = ready[arg] = max(copy, compute) + charge()
        elif op == D2H:
            copy = compute = max(copy, compute) + charge()
        elif op == RESET:
            ready[arg] = 0.0
        else:
            copy = compute = max(copy, compute)
    return max(copy, compute)


class HCRuntime:
    """Single-source kernels over raw pointers with explicit staging.

    Two simulated hardware queues: the DMA (copy) stream and the
    compute stream.  Synchronous calls join the streams; asynchronous
    copies run ahead on the copy stream, and launches synchronize only
    with the readiness of the arrays they actually touch.
    """

    def __init__(self, ctx: ExecutionContext) -> None:
        self.ctx = ctx
        self.unified = ctx.platform.is_apu
        self.toolchain = Toolchain(HC_PROFILE, HC_APU if self.unified else HC_DGPU)
        self._device: dict[int, np.ndarray] = {}
        self._copy_time = 0.0
        self._compute_time = 0.0
        #: When each staged array's device copy becomes usable.
        self._ready: dict[int, float] = {}
        self._log = ctx.charge_log

    @property
    def simulated_seconds(self) -> float:
        """Makespan of the copy and compute streams."""
        return max(self._copy_time, self._compute_time)

    def finish(self) -> float:
        """Drain both streams; returns the total simulated seconds."""
        drained = self.simulated_seconds
        self._copy_time = self._compute_time = drained
        if self._log is not None:
            self._log.stream_op(JOIN)
        return drained

    # -- staging -------------------------------------------------------

    def _stage(self, host: np.ndarray) -> np.ndarray:
        if not self.ctx.execute_kernels:
            self._device[id(host)] = host
            return host
        device = self._device.get(id(host))
        if device is None:
            device = host.copy()
            self._device[id(host)] = device
        else:
            np.copyto(device, host)
        return device

    def copy_to_device(self, host: np.ndarray) -> np.ndarray:
        """Synchronous host->device copy; raw pointer on the APU."""
        if self.unified:
            return self._reset(host)
        device = self._stage(host)
        seconds = self.toolchain.charge_transfer(self.ctx, host.nbytes, "h2d")
        done = max(self._copy_time, self._compute_time) + seconds
        self._copy_time = self._compute_time = done
        self._ready[id(host)] = done
        if self._log is not None:
            self._log.stream_op(SYNC_H2D, host)
        return device

    def async_copy_to_device(self, host: np.ndarray) -> np.ndarray:
        """Asynchronous host->device copy on the DMA stream.

        Returns immediately in simulated time; kernels that read the
        array wait for it, everything else overlaps.
        """
        if self.unified:
            return self._reset(host)
        device = self._stage(host)
        seconds = self.toolchain.charge_transfer(self.ctx, host.nbytes, "h2d")
        self._copy_time += seconds
        self._ready[id(host)] = self._copy_time
        if self._log is not None:
            self._log.stream_op(ASYNC_H2D, host)
        return device

    def device_alloc(self, host: np.ndarray) -> np.ndarray:
        """Allocate device storage for an output array without copying
        (the ``CL_MEM_WRITE_ONLY`` idiom: results only ever come back)."""
        if self.unified:
            return self._reset(host)
        if not self.ctx.execute_kernels:
            self._device[id(host)] = host
            return self._reset(host)
        device = self._device.get(id(host))
        if device is None:
            device = np.empty_like(host)
            self._device[id(host)] = device
        self._reset(host)
        return device

    def _reset(self, host: np.ndarray) -> np.ndarray:
        """Mark ``host`` usable at time 0.0 (nothing to wait for)."""
        self._ready[id(host)] = 0.0
        if self._log is not None:
            self._log.stream_op(RESET, host)
        return host

    def copy_to_host(self, host: np.ndarray) -> None:
        """Synchronous device->host copy of a previously staged array."""
        if self.unified:
            return
        device = self._device.get(id(host))
        if device is None:
            raise RuntimeError("copy_to_host of an array never staged to the device")
        if self.ctx.execute_kernels and device is not host:
            np.copyto(host, device)
        seconds = self.toolchain.charge_transfer(self.ctx, host.nbytes, "d2h")
        done = max(self._copy_time, self._compute_time) + seconds
        self._copy_time = self._compute_time = done
        if self._log is not None:
            self._log.stream_op(D2H)

    def device_view(self, host: np.ndarray) -> np.ndarray:
        """The device-side array for a staged host array."""
        if self.unified:
            return host
        device = self._device.get(id(host))
        if device is None:
            raise RuntimeError("array not resident; call copy_to_device first")
        return device

    # -- execution -------------------------------------------------------

    def launch(
        self,
        func: Callable[..., None],
        spec: KernelSpec,
        arrays: Sequence[np.ndarray],
        scalars: Sequence[object] = (),
    ) -> None:
        """Launch a kernel over raw device pointers.

        Starts as soon as the compute stream is free *and* every input
        array's copy has landed — outstanding async copies of other
        arrays keep flowing underneath.
        """
        for a in arrays:
            if not self.unified and id(a) not in self._device:
                raise RuntimeError("array not resident; call copy_to_device first")
        if self.ctx.execute_kernels:
            device_arrays = [self.device_view(a) for a in arrays]
            func(*device_arrays, *scalars)
        seconds = self.toolchain.charge_gpu_kernel(self.ctx, spec, n_buffers=len(arrays))
        start = self._compute_time
        for a in arrays:
            start = max(start, self._ready.get(id(a), 0.0))
        self._compute_time = start + seconds
        if self._log is not None:
            self._log.stream_wait(LAUNCH, arrays)

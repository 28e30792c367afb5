"""Kernel intermediate representation.

A :class:`KernelSpec` describes one GPU kernel (or parallel CPU loop)
in architecture-neutral terms: how much arithmetic it does, how many
bytes it touches and in what pattern, and which optimizations its
best-known implementation uses (LDS tiling, unrolling, ...).

Programming-model compilers (``repro.models``) *lower* a spec into a
:class:`LoweredKernel`, dropping whatever the model cannot express —
OpenACC cannot use the LDS, C++ AMP cannot unroll, etc. (Figure 11).
The timing model then prices the lowered kernel on a device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TypeVar

T = TypeVar("T")

_HASH = "_field_hash"


def hash_once(cls: type[T]) -> type[T]:
    """Memoize a frozen dataclass's field-tuple hash per instance.

    These value objects nest (a lowering holds a spec, which holds op
    counts and an access pattern) and key the hot dicts of capture and
    pricing, so the generated ``__hash__`` would re-walk every field on
    every lookup.  The first hash is kept in the instance ``__dict__``,
    the per-instance pattern of ``RunSpec.content_key``; equality is
    untouched.  ``str`` hashes are salted per process, so the cached
    value is left out of the pickled (and copied) state: an object
    loaded in a pool worker or from the result store rehashes there.
    """
    if not cls.__dataclass_params__.frozen:  # type: ignore[attr-defined]
        raise TypeError(f"hash_once needs a frozen dataclass, got {cls.__name__}")
    field_hash = cls.__hash__

    def __hash__(self) -> int:
        cached = self.__dict__.get(_HASH)
        if cached is None:
            cached = self.__dict__[_HASH] = field_hash(self)
        return cached

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop(_HASH, None)
        return state

    cls.__hash__ = __hash__  # type: ignore[method-assign]
    cls.__getstate__ = __getstate__  # type: ignore[attr-defined]
    return cls


@hash_once
@dataclass(frozen=True)
class OpCount:
    """Dynamic operation counts for one kernel launch.

    All counts are totals across every work-item of the launch.
    ``bytes_read``/``bytes_written`` are *useful* bytes; the memory
    system may move more (burst padding, cache-line fills).
    """

    flops: float = 0.0
    int_ops: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0

    @property
    def total_bytes(self) -> float:
        return self.bytes_read + self.bytes_written

    @property
    def total_ops(self) -> float:
        return self.flops + self.int_ops

    def scaled(self, factor: float) -> "OpCount":
        """Counts for a problem ``factor`` times larger (linear scaling)."""
        return OpCount(
            flops=self.flops * factor,
            int_ops=self.int_ops * factor,
            bytes_read=self.bytes_read * factor,
            bytes_written=self.bytes_written * factor,
        )

    def __add__(self, other: "OpCount") -> "OpCount":
        return OpCount(
            flops=self.flops + other.flops,
            int_ops=self.int_ops + other.int_ops,
            bytes_read=self.bytes_read + other.bytes_read,
            bytes_written=self.bytes_written + other.bytes_written,
        )

    def arithmetic_intensity(self) -> float:
        """FLOPs per useful byte — the roofline x-axis."""
        if self.total_bytes == 0:
            return math.inf
        return self.flops / self.total_bytes


class AccessKind(Enum):
    """Shape of a kernel's global-memory access stream."""

    STREAMING = "streaming"  # unit-stride, no reuse (read-memory, axpy)
    STENCIL = "stencil"  # structured neighbours, high reuse (LULESH)
    NEIGHBOR_LIST = "neighbor-list"  # cell/neighbour gathers, some reuse (CoMD)
    BINARY_SEARCH = "binary-search"  # tree descent + random row gather (XSBench)
    CSR_SPMV = "csr-spmv"  # streamed matrix + gathered vector (miniFE)


@hash_once
@dataclass(frozen=True)
class AccessPattern:
    """Parametric description of a kernel's memory behaviour.

    ``traffic_multiplier`` analytically predicts DRAM traffic per useful
    byte; ``repro.engine.trace`` generates concrete address traces from
    the same parameters so the cache simulator can validate the
    prediction (Table I's LLC miss rates).
    """

    kind: AccessKind
    working_set_bytes: float
    request_bytes: int = 4
    #: Fraction of accesses that re-touch recently used lines (temporal
    #: locality the LLC can capture even when the working set spills).
    reuse_fraction: float = 0.0
    #: DRAM row-buffer efficiency: 1.0 for long unit-stride bursts,
    #: lower for scattered request streams.
    row_buffer_efficiency: float = 1.0
    #: For BINARY_SEARCH: number of elements in the searched table.
    table_entries: int = 0

    def __post_init__(self) -> None:
        if self.working_set_bytes <= 0:
            raise ValueError("working_set_bytes must be positive")
        if not 0.0 <= self.reuse_fraction < 1.0:
            raise ValueError("reuse_fraction must be in [0, 1)")
        if not 0.0 < self.row_buffer_efficiency <= 1.0:
            raise ValueError("row_buffer_efficiency must be in (0, 1]")

    def traffic_multiplier(self, cache_bytes: int, line_bytes: int = 64) -> float:
        """Predicted DRAM bytes moved per useful byte requested.

        Streaming unit-stride traffic moves exactly what it uses (the
        line fill is fully consumed).  Scattered patterns pay for whole
        lines per request; temporal reuse captured by the cache removes
        a fraction of that.
        """
        fits = self.working_set_bytes <= cache_bytes
        if self.kind is AccessKind.STREAMING:
            # Sequential fills: every byte of every fetched line is used.
            return 0.0 if fits and self.reuse_fraction > 0 else 1.0
        if self.kind is AccessKind.STENCIL:
            # Neighbour re-reads hit in cache; only the compulsory
            # streaming traffic (1 - reuse) reaches DRAM.
            survive = 1.0 - self.reuse_fraction if not fits else 0.15
            return max(0.1, survive)
        if self.kind is AccessKind.NEIGHBOR_LIST:
            # Gathered neighbours pad to a line but adjacent particles
            # share lines; reuse across neighbouring cells filters some.
            line_waste = min(4.0, line_bytes / max(self.request_bytes, 16))
            survive = 1.0 - self.reuse_fraction
            return max(0.2, line_waste * survive) if not fits else 0.3
        if self.kind is AccessKind.BINARY_SEARCH:
            # Upper levels of the tree are cache-resident; each lookup
            # pays full lines for the uncached lower levels plus the
            # random data-row gather.
            if self.table_entries <= 0:
                raise ValueError("BINARY_SEARCH pattern needs table_entries")
            levels = max(1.0, math.log2(self.table_entries))
            cached_levels = min(levels, math.log2(max(2.0, cache_bytes / line_bytes)))
            uncached = max(0.0, levels - cached_levels) + 1.0  # +1 row gather
            pad = line_bytes / self.request_bytes
            return (uncached / levels) * pad * (1.0 - self.reuse_fraction)
        if self.kind is AccessKind.CSR_SPMV:
            # Matrix values/indices stream (multiplier 1); the x-vector
            # gather pads to lines but is banded, so reuse filters it.
            stream_share = 0.75
            gather_pad = line_bytes / max(self.request_bytes, 8)
            gather = (1.0 - stream_share) * gather_pad * (1.0 - self.reuse_fraction)
            return stream_share + gather if not fits else 0.5
        raise AssertionError(f"unhandled access kind {self.kind}")


@hash_once
@dataclass(frozen=True)
class KernelSpec:
    """One kernel as written by an expert (all optimizations available).

    The spec captures the *best-known* form of the kernel; programming
    models subtract what they cannot express when lowering.
    """

    name: str
    work_items: int
    ops: OpCount
    access: AccessPattern
    workgroup_size: int = 256
    #: Dynamic instructions per work-item (ALU + address + control).
    instructions_per_item: float = 0.0
    registers_per_thread: int = 32
    #: LDS the tiled/hand-tuned form uses, and what fraction of global
    #: traffic that tiling removes (0 when the kernel cannot tile).
    lds_bytes_per_workgroup: int = 0
    lds_traffic_filter: float = 0.0
    #: Fraction of wavefront execution lost to branch divergence when
    #: the compiler does not restructure the control flow.
    divergence: float = 0.0
    #: Fraction of instructions removable by unrolling + code motion.
    unroll_benefit: float = 0.0
    #: Fraction of the loop body a CPU autovectorizer can put on SIMD
    #: lanes (gather-heavy loops vectorize poorly on 2014 x86).
    cpu_simd_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.work_items <= 0:
            raise ValueError(f"kernel {self.name!r}: work_items must be positive")
        if not 0.0 <= self.lds_traffic_filter < 1.0:
            raise ValueError(f"kernel {self.name!r}: lds_traffic_filter in [0,1)")
        if not 0.0 <= self.divergence < 1.0:
            raise ValueError(f"kernel {self.name!r}: divergence in [0,1)")
        if not 0.0 <= self.unroll_benefit < 1.0:
            raise ValueError(f"kernel {self.name!r}: unroll_benefit in [0,1)")
        if not 0.0 < self.cpu_simd_fraction <= 1.0:
            raise ValueError(f"kernel {self.name!r}: cpu_simd_fraction in (0,1]")

    @property
    def instructions(self) -> float:
        """Total dynamic instructions for the launch."""
        per_item = self.instructions_per_item
        if per_item <= 0:
            # Fall back to op counts: one instruction per op plus one
            # per 4 bytes moved (loads/stores).
            per_item = (self.ops.total_ops + self.ops.total_bytes / 4.0) / self.work_items
        return per_item * self.work_items


@hash_once
@dataclass(frozen=True)
class LoweredKernel:
    """A kernel after a programming model's compiler lowered it.

    The fields restate the spec's tunables as *what the generated code
    actually does* on the target.
    """

    spec: KernelSpec
    #: SIMD lane utilisation of the generated ISA (1.0 = hand-tuned).
    vector_efficiency: float
    #: Whether the generated code uses the LDS tiling of the spec.
    uses_lds: bool
    #: Instruction-count inflation from missing unroll/code-motion.
    instruction_scale: float
    #: Residual divergence after (or without) compiler restructuring.
    divergence: float
    #: Coalescing quality of the generated loads/stores: the fraction of
    #: peak DRAM bandwidth the generated access stream can draw.  This
    #: is what the paper's read-memory experiment isolates (Sec. VI-A):
    #: hand-tuned OpenCL saturates the bus while OpenACC's generated
    #: code reaches about half of it.
    memory_efficiency: float = 1.0
    #: Human-readable lowering decisions, for reports and tests.
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 0.0 < self.vector_efficiency <= 1.0:
            raise ValueError("vector_efficiency must be in (0, 1]")
        if not 0.0 < self.memory_efficiency <= 1.0:
            raise ValueError("memory_efficiency must be in (0, 1]")
        if self.instruction_scale < 1.0:
            raise ValueError("instruction_scale must be >= 1")

    @property
    def instructions(self) -> float:
        return self.spec.instructions * self.instruction_scale

    def cache_key(self) -> tuple:
        """Hashable identity of everything that prices this lowering.

        Two lowerings with equal keys produce bit-identical timings on
        the same device state, so memoization (``repro.engine.memo``)
        can return a cached result.  ``notes`` are deliberately
        excluded: they describe *why* the numbers are what they are,
        not what the timing model sees.
        """
        return (
            self.spec,
            self.vector_efficiency,
            self.uses_lds,
            self.instruction_scale,
            self.divergence,
            self.memory_efficiency,
        )

    def dram_traffic_bytes(self, cache_bytes: int, line_bytes: int = 64) -> float:
        """DRAM bytes this lowered kernel moves on a device with the
        given last-level cache."""
        useful = self.spec.ops.total_bytes
        multiplier = self.spec.access.traffic_multiplier(cache_bytes, line_bytes)
        traffic = useful * max(multiplier, 0.05)
        if self.uses_lds and self.spec.lds_traffic_filter > 0:
            traffic *= 1.0 - self.spec.lds_traffic_filter
        return traffic


def hand_tuned(spec: KernelSpec) -> LoweredKernel:
    """The expert lowering: everything the spec allows (OpenCL's path)."""
    return LoweredKernel(
        spec=spec,
        vector_efficiency=1.0,
        uses_lds=spec.lds_bytes_per_workgroup > 0,
        instruction_scale=1.0,
        divergence=spec.divergence,
        notes=("hand-tuned",),
    )


def with_spec(lowered: LoweredKernel, spec: KernelSpec) -> LoweredKernel:
    """Rebind a lowering decision to a (rescaled) spec."""
    return replace(lowered, spec=spec)

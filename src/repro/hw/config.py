"""Platform presets and cost-model constants for the hardware simulators.

The paper's target platform (its Section V) is a Xilinx Zynq UltraScale+
MPSoC: four in-order Cortex-A53 cores at 1.5 GHz with 32+32 KB private L1
caches and a shared 1 MB L2, and the Relational Memory (RM) engine placed
in programmable logic clocked at 100 MHz with a 2 MB on-fabric data memory.
:data:`ZYNQ_ULTRASCALE` encodes that platform.

All cycle quantities in this package are expressed in **CPU cycles** of the
configured core clock. The RM engine runs in a slower clock domain; its
per-fabric-cycle costs are converted through ``clock_ratio``.

Calibration
-----------
Latency/bandwidth numbers are typical published figures for the A53 memory
subsystem. Five constants are *calibrated* rather than measured, because
they stand in for prototype behaviour the paper reports only indirectly;
each was fit once to one of two targets, the RM-vs-ROW band of 1.3-1.5x
(Figure 6a) and the COL/RM crossover at four columns (Figure 5), then
frozen:

* ``CpuConfig.volcano_tuple_cycles`` — the row engine's per-tuple cost,
  fit to the Figure 6a RM-vs-ROW band;
* ``RmConfig.line_fabric_cycles`` — the fabric's cost per packed line,
  fit to the same Figure 6a band;
* ``CpuConfig.ephemeral_tuple_cycles`` — the RM engine's scalar loop per
  tuple, fit to the Figure 5 crossover;
* ``CpuConfig.packed_field_cycles`` — one field read from a packed
  ephemeral struct, fit to the Figure 5 crossover;
* ``CpuConfig.col_reconstruct_cycles`` — the column engine's tuple
  reconstruction per value, fit to the Figure 5 crossover.

Each field comment marks its constant *Calibrated*.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError

#: Size of a cache line / DRAM burst in bytes on every supported platform.
CACHE_LINE_BYTES = 64


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int
    ways: int
    line_bytes: int = CACHE_LINE_BYTES
    #: Load-to-use latency of a hit in this level, in CPU cycles.
    hit_cycles: int = 2

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways

    def validate(self) -> None:
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ConfigurationError(
                f"cache size {self.size_bytes} not divisible into "
                f"{self.ways}-way sets of {self.line_bytes}B lines"
            )
        if self.num_sets & (self.num_sets - 1):
            raise ConfigurationError(
                f"number of sets must be a power of two, got {self.num_sets}"
            )


@dataclass(frozen=True)
class DramConfig:
    """Timing of the DRAM device behind the last-level cache.

    The model is deliberately coarse: a closed-row access costs
    ``row_miss_cycles``, a hit in the open row buffer costs
    ``row_hit_cycles``, and ``banks`` independent banks can overlap
    accesses. ``stream_cycles_per_line`` is the steady-state cost of one
    line when the access pattern is sequential and covered by the
    prefetcher (i.e. the bandwidth-bound regime).
    """

    banks: int = 8
    row_bytes: int = 2048
    row_hit_cycles: int = 90
    row_miss_cycles: int = 165
    #: Amortized CPU cycles per 64 B line for a prefetch-covered stream.
    stream_cycles_per_line: int = 24
    #: How many streaming cores saturate the DDR channel: bandwidth-bound
    #: (covered) work stops scaling past this thread count, while compute
    #: and latency-bound work keep scaling. This asymmetry is why the
    #: fabric — which moves fewer bytes — scales further on the paper's
    #: 4-core testbed.
    bandwidth_saturation_cores: int = 2
    #: Effective per-line cost for a non-prefetched stream. An in-order
    #: core with a near-blocking load path (Cortex-A53-class, two or three
    #: outstanding misses) overlaps little, so this sits close to the full
    #: row-access latency rather than the bandwidth-bound cost.
    unprefetched_cycles_per_line: int = 150


@dataclass(frozen=True)
class PrefetcherConfig:
    """Stream prefetcher model.

    The paper's crossover argument (Section V, Figure 5) rests on the
    Cortex-A53 prefetcher tracking a small number of concurrent sequential
    streams — "the prefetcher can efficiently support up to four parallel
    sequential accesses". Streams beyond ``max_streams`` fall back to
    demand misses; strides larger than ``max_stride_bytes`` are never
    prefetched (large-stride row scans of narrow columns defeat it).
    """

    max_streams: int = 4
    #: Number of sequential line accesses before a stream is confirmed.
    train_lines: int = 3
    max_stride_bytes: int = 256


@dataclass(frozen=True)
class CpuConfig:
    """Per-operation CPU costs for the in-order core model.

    The constants describe an interpretation-style query engine on a small
    in-order core, in cycles:

    * ``volcano_tuple_cycles`` — per-tuple overhead of the Volcano
      ``next()`` call chain in the row engine **and** of the scalar loop
      over an ephemeral struct in the RM engine (the paper's Figure 3
      kernel is exactly such a scalar loop). *Calibrated.*
    * ``vector_op_cycles`` — per-value cost of a primitive in the
      column-at-a-time engine (tight loop, no call overhead).
    * ``col_reconstruct_cycles`` — per-value cost of stitching one column
      value into an output tuple during tuple reconstruction in the column
      engine; this is the materialization cost that grows with
      projectivity. *Calibrated.*
    """

    freq_hz: int = 1_500_000_000
    volcano_tuple_cycles: int = 34
    field_extract_cycles: int = 7
    predicate_cycles: int = 3
    aggregate_update_cycles: int = 9
    vector_op_cycles: int = 2
    col_reconstruct_cycles: int = 6
    branch_miss_cycles: int = 8
    function_call_cycles: int = 6
    #: Cost of materializing one value of a column-at-a-time intermediate
    #: result (write + later read of the intermediate vector).
    intermediate_value_cycles: int = 2
    #: Generic interpreted ALU operation in a scalar (tuple-at-a-time) loop.
    scalar_op_cycles: int = 3
    #: Per-tuple overhead of the scalar loop over an ephemeral struct (the
    #: paper's Figure 3 kernel): a plain counted loop, cheaper than a
    #: Volcano next() chain. *Calibrated.*
    ephemeral_tuple_cycles: int = 12
    #: Extracting one field from a packed ephemeral struct (constant
    #: offsets, always line-resident). *Calibrated.*
    packed_field_cycles: int = 4


@dataclass(frozen=True)
class RmConfig:
    """The Relational Memory engine in programmable logic.

    * ``freq_hz`` — fabric clock (100 MHz on the Zynq prototype).
    * ``buffer_bytes`` — on-fabric data memory holding packed lines; when
      the requested column group exceeds it, the engine refills it and the
      CPU observes a stall (Section V: "RM supports arbitrary data sizes
      even with a small data memory of 2 MB ... by refilling it").
    * ``line_fabric_cycles`` — fabric cycles the engine needs to gather and
      pack one 64 B output line from row-major DRAM content, after bank
      parallelism. *Calibrated.*
    * ``refill_stall_cycles`` — CPU cycles of pipeline drain per buffer
      refill.
    * ``configure_cycles`` — one-off cost of configuring an ephemeral
      variable (writing geometry registers over AXI).
    """

    freq_hz: int = 100_000_000
    buffer_bytes: int = 2 * 1024 * 1024
    line_fabric_cycles: int = 2
    refill_stall_cycles: int = 1800
    configure_cycles: int = 450
    #: Extra fabric cycles per referenced source row beyond the first that
    #: contributes to one packed output line (wide gathers pack fields from
    #: many rows and pay for the extra strided DRAM requests).
    gather_row_fabric_cycles: float = 0.14

    def clock_ratio(self, cpu: CpuConfig) -> float:
        """CPU cycles per fabric cycle."""
        return cpu.freq_hz / self.freq_hz


@dataclass(frozen=True)
class PlatformConfig:
    """A complete simulated platform: CPU, caches, DRAM, prefetcher, RM."""

    name: str
    cpu: CpuConfig = field(default_factory=CpuConfig)
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=32 * 1024, ways=4, hit_cycles=2)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=1024 * 1024, ways=16, hit_cycles=15)
    )
    dram: DramConfig = field(default_factory=DramConfig)
    prefetcher: PrefetcherConfig = field(default_factory=PrefetcherConfig)
    rm: RmConfig = field(default_factory=RmConfig)

    def validate(self) -> None:
        self.l1.validate()
        self.l2.validate()
        if self.l1.line_bytes != self.l2.line_bytes:
            raise ConfigurationError("L1 and L2 must share one line size")
        if self.rm.buffer_bytes % self.l1.line_bytes != 0:
            raise ConfigurationError("RM buffer must be a whole number of lines")

    def with_rm(self, **changes) -> "PlatformConfig":
        """Return a copy with the RM engine reconfigured (for ablations)."""
        return replace(self, rm=replace(self.rm, **changes))

    def with_prefetcher(self, **changes) -> "PlatformConfig":
        """Return a copy with the prefetcher reconfigured (for ablations)."""
        return replace(self, prefetcher=replace(self.prefetcher, **changes))


#: The paper's evaluation platform (Section V "Target Platform").
ZYNQ_ULTRASCALE = PlatformConfig(name="zynq-ultrascale-mpsoc")

#: The Relational Memory Controller of Section IV-C: the same transform
#: engine integrated *into* the memory controller and driven through an
#: ISA extension. Modelled differences, each tied to a claim in §IV-C:
#:
#: * ``freq_hz`` — the controller clock domain, far above the 100 MHz a
#:   soft-logic prototype reaches;
#: * ``configure_cycles`` — "extending the ISA as an RMC interface":
#:   geometry registers are written by an instruction, not by MMIO over
#:   AXI (hundreds of cycles → ~a pipeline flush);
#: * ``line_fabric_cycles`` / ``gather_row_fabric_cycles`` — "low-level
#:   access to the actual memory DIMMs ... fully exploit the capabilities
#:   of DDR memory chips": the per-line assembly loses the AXI hop and
#:   the gather path schedules directly against open rows.
ZYNQ_RMC = PlatformConfig(
    name="zynq-rmc",
    rm=RmConfig(
        freq_hz=800_000_000,
        buffer_bytes=2 * 1024 * 1024,
        line_fabric_cycles=1,
        refill_stall_cycles=600,
        configure_cycles=18,
        gather_row_fabric_cycles=0.07,
    ),
)

#: A tiny platform used by unit tests so cache effects are visible with
#: kilobyte-scale tables.
TEST_PLATFORM = PlatformConfig(
    name="test-small",
    l1=CacheConfig(size_bytes=1024, ways=2, hit_cycles=2),
    l2=CacheConfig(size_bytes=8192, ways=4, hit_cycles=15),
    rm=RmConfig(buffer_bytes=4096),
)


def default_platform() -> PlatformConfig:
    """The platform every high-level API uses unless told otherwise."""
    return ZYNQ_ULTRASCALE

"""Kernel and benchmark execution under evaluation configurations.

Compilation and functional execution (the expensive trace generation)
are cached per (kernel, compiler options); timing replays are cheap and
run per GPU configuration.  Per-kernel opt-in mirrors the paper: the
specialized version is used only where it beats the unspecialized
kernel on the same hardware.

Cache entries are **content-addressed**: the key is a SHA-256 over the
kernel's canonical IR encoding, launch geometry, initial memory image
(see :meth:`Kernel.content_digest`), every compiler option and the
source of the ``repro`` package (:func:`source_digest`), so
structurally identical kernels share an entry regardless of object
identity, and entries persist across processes through the on-disk
:class:`~repro.fexec.trace_store.TraceStore`.  The key is the only
staleness rule: a hit needs the same kernel, options and code, so it
is served without recompiling, and any source edit starts a cold cache.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import repro
from repro.core.compiler import WaspCompiler, WaspCompilerOptions
from repro.errors import CompilerError, ResourceError, SimulationError
from repro.experiments.configs import EvalConfig
from repro.fexec.machine import run_kernel as run_functional
from repro.fexec.trace import KernelTrace
from repro.fexec.trace_store import TraceStore
from repro.sim.config import GPUConfig
from repro.sim.gpu import SimResult, simulate_kernel
from repro.telemetry.registry import TELEMETRY
from repro.telemetry.spans import span
from repro.workloads.base import Benchmark, Kernel

@dataclass
class CacheStats:
    """Hit/miss counters for one :class:`TraceCache`.

    ``generations`` counts *functional trace generations* — the
    expensive operation everything else exists to avoid.  Compiling a
    kernel that turns out not to specialize does not count.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    generations: int = 0
    disk_writes: int = 0

    @property
    def lookups(self) -> int:
        return self.memory_hits + self.disk_hits + self.generations

    def snapshot(self) -> "CacheStats":
        return replace(self)

    def since(self, before: "CacheStats") -> "CacheStats":
        return CacheStats(
            memory_hits=self.memory_hits - before.memory_hits,
            disk_hits=self.disk_hits - before.disk_hits,
            generations=self.generations - before.generations,
            disk_writes=self.disk_writes - before.disk_writes,
        )

    def merge(self, other: "CacheStats") -> None:
        self.memory_hits += other.memory_hits
        self.disk_hits += other.disk_hits
        self.generations += other.generations
        self.disk_writes += other.disk_writes

    def to_json(self) -> dict[str, int]:
        """Structured form for SweepReport/CI artifacts."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "generations": self.generations,
            "disk_writes": self.disk_writes,
            "lookups": self.lookups,
        }


def harvest_cache_stats(stats: CacheStats) -> None:
    """Fold trace-cache counters into the metrics registry.

    Tier locality (memory vs disk hit, and with the disk tier off even
    the generation count) depends on process scheduling, so every tier
    is ``invariant=False`` — excluded from the jobs-invariance
    contract.
    """
    if not TELEMETRY.enabled:
        return
    for tier, value in (
        ("memory_hit", stats.memory_hits),
        ("disk_hit", stats.disk_hits),
        ("generation", stats.generations),
        ("disk_write", stats.disk_writes),
    ):
        TELEMETRY.counter(
            "repro_cache_trace_lookups_total", {"tier": tier},
            help="TraceCache lookups by outcome tier", invariant=False,
        ).inc(value)


@functools.cache
def source_digest() -> str:
    """SHA-256 over the relative path and bytes of every ``*.py`` file
    of the ``repro`` package, computed once per process.

    Traces depend on the compiler, the functional executor, the trace
    encoding and whatever they import; hashing all of it leaves no
    list of modules to keep up to date by hand.
    """
    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        digest.update(
            f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode()
        )
        digest.update(data)
    return digest.hexdigest()


class TraceCache:
    """Two-tier (memory + optional disk) functional-trace cache.

    The in-memory tier maps content keys to traces within one process
    (``None`` for a kernel that does not specialize under the options);
    the optional :class:`TraceStore` tier shares traces across processes
    and runs.  ``TraceCache()`` with no store is purely in-memory (what
    unit tests want); the shared :data:`GLOBAL_CACHE` is backed by the
    environment-configured store.
    """

    def __init__(self, store: TraceStore | None = None) -> None:
        self._entries: dict[str, list[KernelTrace] | None] = {}
        self.store = store
        self.stats = CacheStats()

    def key_for(
        self, kernel: Kernel, options: WaspCompilerOptions | None
    ) -> str:
        """Content-addressed cache key for (kernel, options, source).

        The options enter through their own :meth:`to_json`, so every
        compiler option is part of the key, including any added later.
        """
        opts = None if options is None else json.dumps(
            options.to_json(), sort_keys=True
        )
        text = (
            f"{kernel.content_digest()}"
            f"|opts={opts}"
            f"|source={source_digest()}"
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def original(self, kernel: Kernel) -> list[KernelTrace]:
        return self._get(kernel, None)

    def specialized(
        self, kernel: Kernel, options: WaspCompilerOptions
    ) -> list[KernelTrace] | None:
        """Traces of the specialized kernel, or ``None`` when the kernel
        does not specialize under ``options``."""
        return self._get(kernel, options)

    def _get(
        self, kernel: Kernel, options: WaspCompilerOptions | None
    ) -> list[KernelTrace] | None:
        key = self.key_for(kernel, options)
        if key in self._entries:
            self.stats.memory_hits += 1
            return self._entries[key]
        traces = self.store.load(key) if self.store is not None else None
        if traces:
            self.stats.disk_hits += 1
        else:
            traces = self._generate(key, kernel, options)
        self._entries[key] = traces
        return traces

    def _generate(
        self, key: str, kernel: Kernel, options: WaspCompilerOptions | None
    ) -> list[KernelTrace] | None:
        """Compile (when ``options`` are given), trace and save."""
        program, launch = kernel.program, kernel.launch
        if options is not None:
            result = WaspCompiler(options).compile(
                program, num_warps=launch.num_warps
            )
            if not result.specialized:
                # Nothing expensive to persist: rediscovering "does not
                # specialize" is a compile, not a functional run.
                return None
            program = result.program
            launch = replace(
                launch, num_warps=launch.num_warps * result.num_stages
            )
        with span("fexec", "trace"):
            traces = run_functional(
                program, kernel.image_factory(), launch
            ).traces
        self.stats.generations += 1
        if self.store is not None and traces and self.store.save(
            key, traces
        ):
            self.stats.disk_writes += 1
        return traces


_GLOBAL_CACHE = TraceCache(store=TraceStore.from_env())

# Public shared cache: experiment modules, benches and parallel workers
# reuse functional traces across figures and — through the persistent
# store — across processes.
GLOBAL_CACHE = _GLOBAL_CACHE


def configure_global_cache(
    cache_dir: str | None = None, enabled: bool = True
) -> TraceCache:
    """Point :data:`GLOBAL_CACHE` at a different disk tier (or none).

    Used by the CLI's ``--cache-dir`` / ``--no-cache`` flags; parallel
    workers inherit the same configuration through the pool
    initializer.
    """
    if not enabled:
        GLOBAL_CACHE.store = None
    elif cache_dir is not None:
        GLOBAL_CACHE.store = TraceStore(cache_dir)
    else:
        GLOBAL_CACHE.store = TraceStore.from_env()
    return GLOBAL_CACHE


@dataclass
class KernelResult:
    """Timing of one kernel under one configuration."""

    kernel: Kernel
    config_name: str
    cycles: float
    sim: SimResult
    used_specialized: bool
    fallback_sim: SimResult | None = None
    #: Static performance-model prediction for the *same* traces the
    #: simulator timed (attached when ``run_kernel(..., predict=True)``).
    prediction: object | None = None

    @property
    def predicted_error(self) -> float | None:
        """|predicted - simulated| / simulated, when a prediction rode
        along."""
        if self.prediction is None or self.cycles <= 0:
            return None
        predicted = getattr(self.prediction, "cycles", None)
        if predicted is None:
            return None
        return abs(predicted - self.cycles) / self.cycles


@dataclass
class BenchmarkResult:
    """Weighted benchmark aggregate."""

    benchmark: Benchmark
    config_name: str
    kernels: list[KernelResult] = field(default_factory=list)

    @property
    def total_cycles(self) -> float:
        return sum(k.kernel.weight * k.cycles for k in self.kernels)


def _compiler_options_for(
    kernel: Kernel, config: EvalConfig
) -> WaspCompilerOptions | None:
    if config.compiler is not None:
        return replace(config.compiler, queue_size=config.gpu.rfq_size)
    if kernel.is_gemm and config.cutlass_gemm:
        # CUTLASS model: tile pipeline on GEMM kernels, even at baseline.
        return WaspCompilerOptions(
            enable_streaming=False, enable_tma_offload=False
        )
    return None


def _gpu_for(kernel: Kernel, config: EvalConfig) -> GPUConfig:
    if (
        kernel.is_gemm
        and config.cutlass_gemm
        and config.compiler is None
    ):
        # Idealized warp mapping for the CUTLASS baseline (Section V-A).
        from repro.experiments.configs import _cutlass_gpu

        return _cutlass_gpu(config.gpu)
    return config.gpu


def run_kernel(
    kernel: Kernel,
    config: EvalConfig,
    cache: TraceCache | None = None,
    predict: bool = False,
) -> KernelResult:
    """Time one kernel under ``config`` (with per-kernel opt-in).

    With ``predict=True`` the static performance model predicts the
    same traces the simulator timed and rides along on the result
    (``result.prediction`` / ``result.predicted_error``), turning every
    sweep row into a calibration sample.
    """
    cache = cache or _GLOBAL_CACHE
    gpu = _gpu_for(kernel, config)
    options = _compiler_options_for(kernel, config)

    plain_traces = cache.original(kernel)
    plain_sim = simulate_kernel(plain_traces, gpu)

    result: KernelResult
    chosen_traces = plain_traces
    if options is None:
        result = KernelResult(
            kernel=kernel,
            config_name=config.name,
            cycles=plain_sim.cycles,
            sim=plain_sim,
            used_specialized=False,
        )
        return _attach_prediction(
            result, chosen_traces, gpu, predict, kernel.name
        )

    try:
        spec_traces = cache.specialized(kernel, options)
    except CompilerError:
        spec_traces = None
    spec_sim = None
    if spec_traces is not None:
        try:
            spec_sim = simulate_kernel(spec_traces, gpu)
        except ResourceError:
            spec_sim = None

    use_spec = spec_sim is not None and (
        not config.opt_in or spec_sim.cycles < plain_sim.cycles
    )
    if use_spec:
        result = KernelResult(
            kernel=kernel,
            config_name=config.name,
            cycles=spec_sim.cycles,
            sim=spec_sim,
            used_specialized=True,
            fallback_sim=plain_sim,
        )
        chosen_traces = spec_traces
    else:
        result = KernelResult(
            kernel=kernel,
            config_name=config.name,
            cycles=plain_sim.cycles,
            sim=plain_sim,
            used_specialized=False,
            fallback_sim=plain_sim,
        )
    return _attach_prediction(
        result, chosen_traces, gpu, predict, kernel.name
    )


def _attach_prediction(
    result: KernelResult,
    traces: list[KernelTrace],
    gpu: GPUConfig,
    predict: bool,
    kernel_name: str,
) -> KernelResult:
    if not predict:
        return result
    # Imported lazily: the perfmodel depends on this module's cache in
    # the other direction (predict_kernel), and predicting is opt-in.
    from repro.analysis.perfmodel.model import predict_traces

    result.prediction = predict_traces(
        traces, gpu, kernel_name=kernel_name
    )
    return result


def profile_kernel(
    kernel: Kernel,
    config: EvalConfig,
    cache: TraceCache | None = None,
    trace_capacity: int | None = None,
) -> tuple[KernelResult, "PipelineProfiler"]:
    """Time one kernel with full pipeline profiling attached.

    Runs the normal (unprofiled) :func:`run_kernel` selection first so
    the specialized-vs-plain opt-in decision is identical to what the
    figures use, then replays the chosen variant's traces once more
    with a :class:`~repro.profiling.PipelineProfiler` recording the
    event trace, queue occupancy and memory mix.  The replay is
    deterministic, so the profiled timing equals the reported one.
    """
    from repro.profiling import PipelineProfiler

    cache = cache or _GLOBAL_CACHE
    result = run_kernel(kernel, config, cache)
    gpu = _gpu_for(kernel, config)
    if result.used_specialized:
        options = _compiler_options_for(kernel, config)
        traces = cache.specialized(kernel, options)
    else:
        traces = cache.original(kernel)
    if trace_capacity is not None:
        profiler = PipelineProfiler(trace_capacity=trace_capacity)
    else:
        profiler = PipelineProfiler()
    sim = simulate_kernel(traces, gpu, profiler=profiler)
    if sim.cycles != result.cycles:
        raise SimulationError(
            f"profiled replay of {kernel.name} under {config.name} "
            f"took {sim.cycles} cycles vs {result.cycles} unprofiled: "
            f"profiling hooks must not perturb timing"
        )
    profiled = replace(result, sim=sim)
    return profiled, profiler


def run_benchmark(
    benchmark: Benchmark,
    config: EvalConfig,
    cache: TraceCache | None = None,
) -> BenchmarkResult:
    """Time every kernel of a benchmark under ``config``."""
    result = BenchmarkResult(benchmark=benchmark, config_name=config.name)
    for kernel in benchmark.kernels:
        result.kernels.append(run_kernel(kernel, config, cache))
    return result

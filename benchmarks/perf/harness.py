"""Micro-benchmark harness for the simulator cores.

The shape follows the ``BaseBenchmark``/harness idiom of GPU perf
suites: a benchmark object owns its inputs (``setup``), a measured
region (``run``), and derived metrics; the harness calibrates the
machine, runs every benchmark with warmup + repeats, and emits one
JSON document (``BENCH_core.json``) that CI's ``perf-gate`` job diffs
against the committed baseline.

Two benchmark families:

* :class:`KernelSimBenchmark` — one registry kernel under one GPU
  config and one SM core; metrics are best wall-clock seconds,
  simulated cycles, and cycles/second.
* :class:`Fig14SweepBenchmark` — the full fig14 kernel x config
  matrix under one core (the ISSUE's trajectory target), simulated
  back-to-back from pre-built traces.

Wall-clock on shared CI runners is noisy, so every measurement is also
reported *normalized*: divided by a pure-Python calibration loop timed
in the same process (dimensionless "calibration units").  The gate
compares normalized values, which cancels machine speed to first
order.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "BaseBenchmark",
    "BenchmarkConfig",
    "BenchmarkHarness",
    "Fig14SweepBenchmark",
    "KernelSimBenchmark",
    "calibrate",
    "check_against_baseline",
    "check_telemetry_overhead",
]

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1


@dataclass
class BenchmarkConfig:
    """Harness-wide measurement knobs."""

    warmup: int = 1
    repeats: int = 3
    scale: float = 0.25


class BaseBenchmark:
    """One measured workload: ``setup()`` once, ``run()`` repeatedly.

    Subclasses set :attr:`name`, build their inputs in :meth:`setup`
    (excluded from timing), and do exactly the measured work in
    :meth:`run`, returning auxiliary metrics (e.g. simulated cycles).
    """

    name: str = "base"

    def setup(self) -> None:  # pragma: no cover - trivial default
        pass

    def run(self) -> dict[str, Any]:
        raise NotImplementedError

    def teardown(self) -> None:  # pragma: no cover - trivial default
        pass


def calibrate(target_seconds: float = 0.2) -> float:
    """Seconds per 10M units of a fixed pure-Python workload.

    The workload (integer arithmetic + list/dict traffic) resembles the
    simulator's instruction mix closely enough to track interpreter and
    machine speed; the result is this machine's "calibration unit".
    """
    def chunk(n: int) -> float:
        t0 = time.perf_counter()
        acc = 0
        data = {}
        seq = []
        for i in range(n):
            acc += i & 7
            if i & 1:
                data[i & 255] = acc
            seq.append(acc)
            if len(seq) > 64:
                seq.clear()
        return time.perf_counter() - t0

    n = 100_000
    while chunk(n) < target_seconds / 4:
        n *= 2
    best = min(chunk(n) for _ in range(3))
    return best * (10_000_000 / n)


class KernelSimBenchmark(BaseBenchmark):
    """Time one registry kernel under one GPU config and SM core."""

    def __init__(self, bench_name: str, config_name: str, core: str,
                 scale: float) -> None:
        self.name = f"{bench_name}/{config_name}/{core}"
        self.bench_name = bench_name
        self.config_name = config_name
        self.core = core
        self.scale = scale
        self._work: list[tuple[Any, Any]] = []  # (traces, gpu)

    def setup(self) -> None:
        from repro.experiments.configs import standard_configs
        from repro.experiments.runner import _GLOBAL_CACHE, _gpu_for
        from repro.workloads.registry import get_benchmark

        bench = get_benchmark(self.bench_name, scale=self.scale)
        config = next(
            c for c in standard_configs() if c.name == self.config_name
        )
        for kernel in bench.kernels:
            gpu = _gpu_for(kernel, config)
            traces = _GLOBAL_CACHE.original(kernel)
            self._work.append((traces, gpu))

    def run(self) -> dict[str, Any]:
        from repro.sim.gpu import make_simulator

        cycles = 0.0
        issued = 0
        for traces, gpu in self._work:
            stats = make_simulator(gpu, traces, core=self.core).run()
            cycles += stats.cycles
            issued += stats.issued_total
        return {"cycles": cycles, "issued": issued}


class Fig14SweepBenchmark(BaseBenchmark):
    """The full fig14 kernel x config simulation matrix, one core.

    Traces (functional execution + compilation) are built in
    ``setup()`` — the measured region is purely the timing simulator,
    which is what the event core changes.
    """

    def __init__(self, core: str, scale: float) -> None:
        self.name = f"fig14-sweep/{core}"
        self.core = core
        self.scale = scale
        self._work: list[tuple[Any, Any]] = []

    def setup(self) -> None:
        from repro.errors import CompilerError, ResourceError
        from repro.experiments.configs import standard_configs
        from repro.experiments.runner import (
            _GLOBAL_CACHE, _compiler_options_for, _gpu_for,
        )
        from repro.workloads.registry import all_benchmarks, get_benchmark

        for name in all_benchmarks():
            bench = get_benchmark(name, scale=self.scale)
            for kernel in bench.kernels:
                for config in standard_configs():
                    gpu = _gpu_for(kernel, config)
                    traces = _GLOBAL_CACHE.original(kernel)
                    self._work.append((traces, gpu))
                    options = _compiler_options_for(kernel, config)
                    if options is None:
                        continue
                    try:
                        spec_traces = _GLOBAL_CACHE.specialized(
                            kernel, options
                        )
                    except (CompilerError, ResourceError):
                        continue
                    if spec_traces is not None:
                        self._work.append((spec_traces, gpu))

    def run(self) -> dict[str, Any]:
        from repro.errors import ReproError
        from repro.sim.gpu import make_simulator

        cycles = 0.0
        sims = 0
        for traces, gpu in self._work:
            try:
                stats = make_simulator(gpu, traces, core=self.core).run()
            except ReproError:
                continue
            cycles += stats.cycles
            sims += 1
        return {"cycles": cycles, "sims": sims}


@dataclass
class BenchmarkHarness:
    """Calibrate, measure every benchmark, emit the JSON document."""

    config: BenchmarkConfig = field(default_factory=BenchmarkConfig)

    def measure(self, bench: BaseBenchmark) -> dict[str, Any]:
        bench.setup()
        try:
            for _ in range(self.config.warmup):
                bench.run()
            best = None
            metrics: dict[str, Any] = {}
            for _ in range(max(1, self.config.repeats)):
                t0 = time.perf_counter()
                metrics = bench.run()
                elapsed = time.perf_counter() - t0
                best = elapsed if best is None else min(best, elapsed)
        finally:
            bench.teardown()
        record = {"wall_s": best, **metrics}
        cycles = metrics.get("cycles")
        if cycles:
            record["cycles_per_sec"] = cycles / best
        return record

    def run_suite(
        self, benchmarks: list[BaseBenchmark]
    ) -> dict[str, Any]:
        calib = calibrate()
        results: dict[str, dict[str, Any]] = {}
        for bench in benchmarks:
            record = self.measure(bench)
            record["normalized"] = record["wall_s"] / calib
            results[bench.name] = record
            print(
                f"  {bench.name:40s} {record['wall_s']:8.3f}s "
                f"({record['normalized']:7.2f} calib units)"
            )
        doc: dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "scale": self.config.scale,
            "repeats": self.config.repeats,
            "calibration_s": calib,
            "benchmarks": results,
        }
        doc["summary"] = _summarize(results)
        return doc


def _summarize(results: dict[str, dict[str, Any]]) -> dict[str, Any]:
    """Event-vs-reference speedups for every measured pair."""
    summary: dict[str, Any] = {}
    for name, record in results.items():
        if not name.endswith("/event"):
            continue
        ref = results.get(name[: -len("event")] + "reference")
        if ref is None:
            continue
        pair = name[: -len("/event")]
        summary[pair] = {
            "reference_wall_s": ref["wall_s"],
            "event_wall_s": record["wall_s"],
            "speedup": ref["wall_s"] / record["wall_s"],
        }
    return summary


def check_against_baseline(
    current: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float,
) -> list[str]:
    """Regression report: normalized wall-clock vs the committed file.

    Returns human-readable violation lines (empty = gate passes).  Only
    benchmarks present in both documents are compared; removed or new
    benchmarks are reported informationally by the caller.  Comparison
    is on calibration-normalized time so a slower CI machine does not
    fail the gate (and a faster one does not mask a regression).
    """
    problems: list[str] = []
    if baseline.get("schema") != current.get("schema"):
        return [
            f"schema changed ({baseline.get('schema')} -> "
            f"{current.get('schema')}): refresh BENCH_core.json"
        ]
    base_bench = baseline.get("benchmarks", {})
    for name, record in current.get("benchmarks", {}).items():
        base = base_bench.get(name)
        if base is None or "normalized" not in base:
            continue
        allowed = base["normalized"] * (1.0 + tolerance)
        if record["normalized"] > allowed:
            problems.append(
                f"{name}: normalized wall {record['normalized']:.2f} "
                f"exceeds baseline {base['normalized']:.2f} "
                f"by more than {tolerance:.0%}"
            )
    return problems


def check_telemetry_overhead(
    current: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float = 0.02,
) -> list[str]:
    """The disabled-feature overhead gate (ISSUE 7/8 acceptance).

    The harness always measures with the telemetry registry *and* the
    SMEM sanitizer disabled (their default states), so the *aggregate*
    normalized wall-clock of the suite vs the committed baseline
    bounds what both opt-in code paths cost when off — the telemetry
    counters and the sanitizer's None-guarded hooks in the functional
    machine's hot loops.  The aggregate sum is used rather than
    per-benchmark values because a 2%% bar is inside single-benchmark
    noise even after calibration normalization; summing the suite
    averages that noise away.
    """
    if baseline.get("schema") != current.get("schema"):
        return []  # the schema line from check_against_baseline covers it
    base_bench = baseline.get("benchmarks", {})
    shared = [
        name for name, record in current.get("benchmarks", {}).items()
        if "normalized" in record
        and "normalized" in base_bench.get(name, {})
    ]
    if not shared:
        return []
    base_total = sum(base_bench[n]["normalized"] for n in shared)
    cur_total = sum(
        current["benchmarks"][n]["normalized"] for n in shared
    )
    if base_total <= 0:
        return []
    ratio = cur_total / base_total
    if ratio > 1.0 + tolerance:
        return [
            f"telemetry-disabled overhead: aggregate normalized wall "
            f"{cur_total:.2f} is {ratio - 1.0:.1%} over baseline "
            f"{base_total:.2f} (allowed {tolerance:.0%})"
        ]
    return []


def load_json(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def dump_json(doc: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")

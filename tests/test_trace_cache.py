"""Content-addressed trace cache: keys, sharing, disk round-trips.

Covers the two-tier :class:`TraceCache`: structurally identical kernels
must share one entry regardless of object identity, any structural
mutation must produce a distinct key, a source edit must start cold,
and the persistent :class:`TraceStore` tier must round-trip traces
bit-identically while degrading gracefully (corrupt files, key
mismatches) to plain regeneration.
"""

import gzip
import json
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from repro.core.compiler import WaspCompiler, WaspCompilerOptions
from repro.experiments import runner
from repro.experiments.configs import baseline_config, wasp_gpu_config
from repro.experiments.runner import (
    TraceCache,
    _compiler_options_for,
    run_kernel,
)
from repro.fexec import LaunchConfig, MemoryImage
from repro.fexec.trace import KernelTrace, decode_traces, encode_traces
from repro.fexec.trace_store import TraceStore, cache_enabled
from repro.fuzz.generator import build_kernel
from repro.fuzz.spec import generate_spec
from repro.isa import ProgramBuilder, SpecialReg
from repro.sim.config import baseline_a100, wasp_gpu
from repro.sim.gpu import simulate_kernel
from repro.workloads import get_benchmark
from repro.workloads.base import Kernel

_DATA_WORDS = 64


def _build_image(value: float) -> MemoryImage:
    img = MemoryImage(1 << 12)
    img.alloc("data", _DATA_WORDS)
    img.write_array("data", np.full(_DATA_WORDS, value))
    return img


def _tiny_kernel(
    name: str = "tiny",
    *,
    value: float = 7.0,
    extra_op: bool = False,
    num_warps: int = 2,
) -> Kernel:
    base = _build_image(value).base("data")
    b = ProgramBuilder(name)
    lane = b.special(SpecialReg.LANE_ID)
    addr = b.iadd(lane, base)
    v = b.ldg(addr)
    v = b.fadd(v, 1.0)
    if extra_op:
        v = b.fmul(v, 2.0)
    b.stg(addr, v)
    b.exit()
    return Kernel(
        name=name,
        program=b.finish(),
        image_factory=lambda: _build_image(value),
        launch=LaunchConfig(num_warps=num_warps, warp_width=4),
    )


# -- content addressing ------------------------------------------------------


def test_identical_kernels_share_cache_entry():
    cache = TraceCache()
    k1 = _tiny_kernel("alpha")
    k2 = _tiny_kernel("beta")  # same structure, different name/objects
    assert cache.key_for(k1, None) == cache.key_for(k2, None)
    cache.original(k1)
    cache.original(k2)
    assert cache.stats.generations == 1
    assert cache.stats.memory_hits == 1


def test_mutated_program_gets_distinct_key():
    cache = TraceCache()
    base = _tiny_kernel()
    mutant = _tiny_kernel(extra_op=True)
    assert cache.key_for(base, None) != cache.key_for(mutant, None)


def test_mutated_inputs_or_launch_get_distinct_keys():
    cache = TraceCache()
    base = _tiny_kernel()
    other_data = _tiny_kernel(value=9.0)
    other_launch = _tiny_kernel(num_warps=4)
    keys = {
        cache.key_for(k, None)
        for k in (base, other_data, other_launch)
    }
    assert len(keys) == 3


def test_options_distinguish_cache_entries():
    cache = TraceCache()
    kernel = _tiny_kernel()
    options = wasp_gpu_config().compiler
    assert cache.key_for(kernel, None) != cache.key_for(kernel, options)


@pytest.mark.parametrize("field", sorted(WaspCompilerOptions().to_json()))
def test_every_compiler_option_enters_the_key(field):
    """Changing any one option — ones added later included — changes
    the key, so no entry is ever served for a different program."""
    cache = TraceCache()
    kernel = _tiny_kernel()
    base = WaspCompilerOptions().to_json()
    value = base[field]
    changed = not value if isinstance(value, bool) else value + 1
    options = WaspCompilerOptions.from_json({**base, field: changed})
    assert cache.key_for(kernel, options) != cache.key_for(
        kernel, WaspCompilerOptions()
    )


# -- disk round-trip ---------------------------------------------------------


@pytest.fixture
def store(tmp_path):
    return TraceStore(tmp_path / "cache")


def test_disk_round_trip_bit_identical_simulation(store):
    kernel = _tiny_kernel()
    gpu = baseline_a100()

    warm = TraceCache(store=store)
    reference = simulate_kernel(warm.original(kernel), gpu)
    assert warm.stats.generations == 1
    assert warm.stats.disk_writes == 1

    fresh = TraceCache(store=store)  # fresh memory tier, same disk
    replayed = simulate_kernel(fresh.original(kernel), gpu)
    assert fresh.stats.disk_hits == 1
    assert fresh.stats.generations == 0
    assert replayed.cycles == reference.cycles


def test_specialized_round_trip_through_run_kernel(store):
    kernel = get_benchmark("pointnet", 0.1).kernels[0]
    config = wasp_gpu_config()

    warm = TraceCache(store=store)
    reference = run_kernel(kernel, config, warm)
    assert warm.stats.generations > 0

    fresh = TraceCache(store=store)
    replayed = run_kernel(kernel, config, fresh)
    assert fresh.stats.generations == 0
    assert fresh.stats.disk_hits > 0
    assert replayed.cycles == reference.cycles
    assert replayed.used_specialized == reference.used_specialized


def test_baseline_run_kernel_round_trip(store):
    kernel = get_benchmark("lonestar_bfs", 0.1).kernels[0]
    config = baseline_config()
    reference = run_kernel(kernel, config, TraceCache(store=store))
    replayed = run_kernel(kernel, config, TraceCache(store=store))
    assert replayed.cycles == reference.cycles


# -- graceful degradation ----------------------------------------------------


def _single_entry_path(store):
    paths = list(store.cache_dir.glob("*.json.gz"))
    assert len(paths) == 1
    return paths[0]


def test_corrupted_entry_falls_back_to_regeneration(store):
    kernel = _tiny_kernel()
    warm = TraceCache(store=store)
    reference = warm.original(kernel)

    _single_entry_path(store).write_bytes(b"not gzip at all")

    fresh = TraceCache(store=store)
    traces = fresh.original(kernel)
    assert fresh.stats.disk_hits == 0
    assert fresh.stats.generations == 1
    gpu = baseline_a100()
    assert (
        simulate_kernel(traces, gpu).cycles
        == simulate_kernel(reference, gpu).cycles
    )


def test_source_edit_is_a_miss(store, monkeypatch):
    """Entries written by other code are never served: the package
    source is part of the key."""
    kernel = build_kernel(generate_spec(0))
    options = WaspCompilerOptions()
    TraceCache(store=store).original(kernel)
    TraceCache(store=store).specialized(kernel, options)
    assert store.entry_count() == 2

    monkeypatch.setattr(runner, "source_digest", lambda: "0" * 64)
    fresh = TraceCache(store=store)
    fresh.original(kernel)
    assert fresh.specialized(kernel, options) is not None
    assert fresh.stats.disk_hits == 0
    assert fresh.stats.generations == 2
    assert store.entry_count() == 4


def test_warm_specialized_hit_does_not_recompile(store, monkeypatch):
    kernel = build_kernel(generate_spec(0))
    options = WaspCompilerOptions()
    reference = TraceCache(store=store).specialized(kernel, options)
    assert reference is not None

    calls = []
    compile_ = WaspCompiler.compile
    monkeypatch.setattr(
        WaspCompiler, "compile",
        lambda self, *a, **kw: calls.append(1) or compile_(self, *a, **kw),
    )
    fresh = TraceCache(store=store)
    traces = fresh.specialized(kernel, options)
    assert (fresh.stats.disk_hits, fresh.stats.generations) == (1, 0)
    assert calls == []
    gpu = wasp_gpu()
    assert (
        simulate_kernel(traces, gpu).cycles
        == simulate_kernel(reference, gpu).cycles
    )


def test_key_mismatch_is_a_miss(store):
    kernel = _tiny_kernel()
    TraceCache(store=store).original(kernel)
    path = _single_entry_path(store)
    assert store.load("0" * 64) is None
    # The real key still loads fine.
    key = path.name.removesuffix(".json.gz")
    assert store.load(key) is not None


def test_every_failed_load_counts_a_miss(store, clean_telemetry):
    kernel = _tiny_kernel()
    TraceCache(store=store).original(kernel)
    path = _single_entry_path(store)
    key = path.name.removesuffix(".json.gz")
    misses = clean_telemetry.counter(
        "repro_tracestore_ops_total", {"op": "load", "outcome": "miss"}
    )
    before = misses.value

    assert store.load("0" * 64) is None  # no such file
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        envelope = json.load(fh)
    envelope["key"] = "0" * 64
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(envelope, fh)
    assert store.load(key) is None  # envelope key differs from its name
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump([], fh)
    assert store.load(key) is None  # not an envelope
    assert misses.value - before == 3


def test_truncated_entry_is_a_miss_and_regenerates(store, clean_telemetry):
    kernel = _tiny_kernel()
    reference = TraceCache(store=store).original(kernel)
    path = _single_entry_path(store)
    key = path.name.removesuffix(".json.gz")
    misses = clean_telemetry.counter(
        "repro_tracestore_ops_total", {"op": "load", "outcome": "miss"}
    )
    before = misses.value

    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    assert store.load(key) is None
    assert misses.value - before == 1

    fresh = TraceCache(store=store)
    traces = fresh.original(kernel)
    assert (fresh.stats.disk_hits, fresh.stats.generations) == (0, 1)
    gpu = baseline_a100()
    assert (
        simulate_kernel(traces, gpu).cycles
        == simulate_kernel(reference, gpu).cycles
    )


def test_corrupt_deflate_stream_is_a_miss(store):
    TraceCache(store=store).original(_tiny_kernel())
    path = _single_entry_path(store)
    key = path.name.removesuffix(".json.gz")
    data = bytearray(path.read_bytes())
    # The first deflate block header follows the 10-byte gzip header;
    # block type 3 is reserved, so zlib rejects the stream.
    data[10] |= 0b110
    path.write_bytes(bytes(data))
    assert store.load(key) is None


@pytest.mark.parametrize("past", ["end", "start"])
def test_index_past_the_table_is_a_miss(store, clean_telemetry, past):
    TraceCache(store=store).original(_tiny_kernel())
    path = _single_entry_path(store)
    key = path.name.removesuffix(".json.gz")
    misses = clean_telemetry.counter(
        "repro_tracestore_ops_total", {"op": "load", "outcome": "miss"}
    )
    before = misses.value

    envelope = json.loads(gzip.decompress(path.read_bytes()))
    trace = envelope["traces"][0]
    trace["warps"][0][2][0] = len(trace["table"]) if past == "end" else -1
    path.write_bytes(gzip.compress(json.dumps(envelope).encode()))
    assert store.load(key) is None
    assert misses.value - before == 1


def test_store_clear_and_count(store):
    TraceCache(store=store).original(_tiny_kernel())
    assert store.entry_count() == 1
    assert store.clear() == 1
    assert store.entry_count() == 0


def test_store_clear_removes_orphaned_temp_files(store):
    """A writer killed before its rename leaves a ``*.tmp`` file."""
    TraceCache(store=store).original(_tiny_kernel())
    orphan = store.cache_dir / "tmpabc123.tmp"
    orphan.write_bytes(b"partial")
    assert store.clear() == 1
    assert list(store.cache_dir.iterdir()) == []


def test_cache_disabled_by_environment(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    assert not cache_enabled()
    assert TraceStore.from_env() is None
    monkeypatch.setenv("REPRO_CACHE", "1")
    assert cache_enabled()


# -- encoding round-trip -----------------------------------------------------


def _assert_round_trip(traces):
    decoded = decode_traces(json.loads(json.dumps(encode_traces(traces))))
    assert len(decoded) == len(traces)
    for got, want in zip(decoded, traces):
        for f in fields(KernelTrace):
            assert getattr(got, f.name) == getattr(want, f.name), f.name


def _sharing(trace):
    """Each record's number by first appearance, in stream order."""
    first: dict[int, int] = {}
    return [
        first.setdefault(id(i), len(first))
        for w in trace.warps for i in w.instrs
    ]


def _assert_interned(traces):
    """Records are shared within a trace, TMA records never, and the
    encoded table and a decoded trace keep exactly that sharing."""
    payload = json.loads(json.dumps(encode_traces(traces)))
    for trace, encoded, decoded in zip(traces, payload,
                                       decode_traces(payload)):
        records = [i for w in trace.warps for i in w.instrs]
        distinct = len({id(i) for i in records})
        assert distinct == len(encoded["table"]) < len(records)
        tma = [id(i) for i in records if i.tma_job is not None]
        assert len(set(tma)) == len(tma)
        assert _sharing(decoded) == _sharing(trace)


@pytest.mark.parametrize("depth", [2, 4, 8])
@pytest.mark.parametrize("seed", [0, 1, 5, 7])
def test_fuzz_traces_are_interned(seed, depth):
    cache = TraceCache()
    kernel = build_kernel(generate_spec(seed))
    _assert_interned(cache.original(kernel))
    traces = cache.specialized(
        kernel, WaspCompilerOptions(pipeline_depth=depth)
    )
    if traces is not None:
        _assert_interned(traces)


def test_tma_offloaded_traces_are_interned():
    kernel = get_benchmark("pointnet", 0.1).kernels[0]
    options = _compiler_options_for(kernel, wasp_gpu_config())
    _assert_interned(TraceCache().specialized(kernel, options))


def test_records_are_immutable():
    traces = TraceCache().original(_tiny_kernel())
    with pytest.raises(FrozenInstanceError):
        traces[0].warps[0].instrs[0].sectors = ()


@pytest.mark.parametrize("depth", [2, 4, 8])
@pytest.mark.parametrize("seed", [0, 1, 5, 7])
def test_fuzz_traces_round_trip_exactly(seed, depth):
    cache = TraceCache()
    kernel = build_kernel(generate_spec(seed))
    _assert_round_trip(cache.original(kernel))
    traces = cache.specialized(
        kernel, WaspCompilerOptions(pipeline_depth=depth)
    )
    if traces is not None:
        assert all(t.tb_spec is not None for t in traces)
        _assert_round_trip(traces)


def test_tma_offloaded_traces_round_trip_exactly():
    kernel = get_benchmark("pointnet", 0.1).kernels[0]
    options = _compiler_options_for(kernel, wasp_gpu_config())
    traces = TraceCache().specialized(kernel, options)
    assert any(
        i.tma_job is not None
        for t in traces for w in t.warps for i in w.instrs
    )
    _assert_round_trip(traces)

"""Fast self-test of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import compare, layers, workloads  # noqa: E402


@pytest.fixture(scope="module")
def expected():
    return workloads.load_expected()


@pytest.fixture
def no_disk_cache():
    """Keep the trace cache in memory so tests write nothing."""
    from repro.experiments.runner import GLOBAL_CACHE, configure_global_cache

    store = GLOBAL_CACHE.store
    configure_global_cache(enabled=False)
    yield
    GLOBAL_CACHE.store = store


def test_sweep_draw_is_seeded_and_stratified(expected):
    from repro.workloads import get_benchmark

    draw = workloads.sweep_draw(3, expected)
    assert draw == workloads.sweep_draw(3, expected)
    categories = Counter(
        get_benchmark(name, workloads.SCALE).category for name in draw
    )
    assert categories == Counter(workloads.CATEGORY_QUOTAS)
    assert len({tuple(workloads.sweep_draw(s, expected))
                for s in range(8)}) > 1


def test_certify_seeds_fill_every_skeleton_quota(expected):
    from repro.fuzz.spec import generate_spec

    seeds = workloads.certify_seeds(5, expected)
    assert seeds == workloads.certify_seeds(5, expected)
    assert len({tuple(workloads.certify_seeds(s, expected))
                for s in range(8)}) > 1
    skeletons = Counter(generate_spec(s).skeleton for s in seeds)
    assert skeletons == Counter(workloads.SKELETON_QUOTAS)


def test_fingerprint_follows_the_seed(expected):
    first = workloads.build_inputs("compile-certify", 1, expected)
    again = workloads.build_inputs("compile-certify", 1, expected)
    other = workloads.build_inputs("compile-certify", 2, expected)
    assert first.fingerprint == again.fingerprint
    assert first.fingerprint != other.fingerprint
    assert first.tasks == 40 * 12


def test_compare_refuses_different_work():
    base = {
        "workload": "sweep-cold", "fingerprint": "a",
        "work": {"tasks": 1, "compiles": 9},
        "metrics": {"tasks_per_s": {"value": 2.0, "unit": "1/s"}},
    }
    slower = dict(base, metrics={"tasks_per_s": {"value": 1.0,
                                                  "unit": "1/s"}})
    lines = compare.compare(base, slower, {"tasks_per_s": ("higher", 0.2)})
    assert "WORSE" in lines[0]
    with pytest.raises(compare.Refused):
        compare.compare(base, dict(base, fingerprint="b"))
    with pytest.raises(compare.Refused):
        compare.compare(base, dict(base, work={"tasks": 2, "compiles": 9}))
    # Less internal work for the same tasks is a result, not a refusal.
    lines = compare.compare(base, dict(base, work={"tasks": 1,
                                                    "compiles": 3}))
    assert "work compiles: 9 -> 3 (-66.7%)" in lines


def test_tracer_records_spans_and_restores_bindings(no_disk_cache):
    import repro.core.compiler.pipeline as pipeline
    from repro.fuzz import generator
    from repro.fuzz.spec import generate_spec

    originals = [
        layers._resolve(t)[0].__dict__[layers._resolve(t)[1]]
        for t, _, _ in layers.LAYER_PATCHES
    ]
    with layers.Tracer() as tracer:
        kernel = generator.build_kernel(generate_spec(5))
        result = workloads.run_certify_pass([(5, kernel)])
    assert not result.failures
    assert result.operations == 12
    restored = [
        layers._resolve(t)[0].__dict__[layers._resolve(t)[1]]
        for t, _, _ in layers.LAYER_PATCHES
    ]
    assert restored == originals
    names = Counter(s.name for s in tracer.spans)
    assert names["core.compiler.compile"] == 12
    assert names["workloads.build"] == 1
    assert tracer.counts["analysis.transval.equivalent"] == 12
    compile_spans = [
        i for i, s in enumerate(tracer.spans)
        if s.name == "core.compiler.compile"
    ]
    assert all(tracer.spans[i].parent is None for i in compile_spans)
    assert any(s.parent in compile_spans for s in tracer.spans
               if s.name == "core.compiler.build_pdg")
    assert min(tracer.self_times()) >= 0
    # Nothing is recorded once the bindings are restored.
    pipeline.WaspCompiler().compile(kernel.program, kernel.launch.num_warps)
    assert Counter(s.name for s in tracer.spans) == names


def test_tracer_restores_bindings_after_an_error():
    from repro.fuzz import generator

    original = generator.build_kernel
    with pytest.raises(RuntimeError):
        with layers.Tracer():
            assert generator.build_kernel is not original
            raise RuntimeError("boom")
    assert generator.build_kernel is original


def test_tiny_sweep_matches_reference_cycles(expected, no_disk_cache):
    result = workloads.run_sweep_pass(["pointnet"], predict=False)
    assert result.operations == 4
    assert workloads.check_rows(result.rows, expected, ["pointnet"]) == []
    broken = dict(result.rows)
    row = next(iter(broken))
    broken[row] += 1
    assert workloads.check_rows(broken, expected, ["pointnet"]) != []


def test_top_level_spans_cannot_outlast_the_operations():
    tracer = layers.Tracer()
    tracer.spans = [
        layers.Span("workloads.build", 0.0, 0.5, None),
        layers.Span("sim.replay", 1.0, 3.0, None),
        layers.Span("core.compiler.compile", 1.5, 2.5, 1),
        layers.Span("sim.replay", 4.0, 5.0, None),
    ]
    for span in tracer.spans:
        span.thread = tracer.main_thread
    result = workloads.PassResult([(1.0, 3.0), (4.0, 5.0)], ["a", "b"], [])
    region = {"start": 0.0, "end": 10.0, "pass": result}
    assert layers._timing_problems(tracer, region) == []
    # A span counted twice outlasts the operations it ran in.
    tracer.spans.append(layers.Span("sim.replay", 6.0, 8.0, None,
                                    thread=tracer.main_thread))
    assert layers._timing_problems(tracer, region)


def test_spans_on_another_thread_keep_their_own_parents(no_disk_cache):
    from repro.fuzz import generator
    from repro.fuzz.spec import generate_spec

    with layers.Tracer() as tracer:
        worker = threading.Thread(
            target=lambda: generator.build_kernel(generate_spec(1))
        )
        generator.build_kernel(generate_spec(2))
        worker.start()
        worker.join()
    builds = [s for s in tracer.spans if s.name == "workloads.build"]
    assert len(builds) == 2
    assert all(s.parent is None for s in builds)
    assert len({s.thread for s in builds}) == 2
    region = {"start": 0.0, "end": float("inf"),
              "pass": workloads.PassResult([], [], [])}
    assert layers._top_level(tracer, 0.0, float("inf")) == [
        s for s in builds if s.thread == tracer.main_thread
    ]
    assert layers._timing_problems(tracer, region) == []


def test_host_speed_rescales_slow_stretches():
    speed = workloads.HostSpeed()
    speed.REFERENCE_PROBE_S = 0.001
    speed.times = [0.0, 1.0, 2.0]
    speed.probes = [0.001, 0.002, 0.001]
    # Around t=1 the probe ran at half speed, so that second counts
    # half, minus the probe's own time.
    assert speed.seconds(0.5, 1.5) == pytest.approx(0.998 * 0.5)
    assert speed.seconds(0.0, 3.0) == pytest.approx(3.0 - 0.004)
    assert workloads.HostSpeed().seconds(1.0, 3.5) == 2.5
    # With another thread running, the probe is slowed by the program
    # itself: plain host time, less the probes' own time.
    speed.threads = 2
    assert not speed.rescaled
    assert speed.seconds(0.5, 1.5) == pytest.approx(0.998)


def test_host_speed_counts_threads():
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        with workloads.HostSpeed(interval=0.005) as speed:
            while len(speed.probes) < 3:
                pass
    finally:
        stop.set()
        worker.join()
    assert speed.threads == 2 and not speed.rescaled

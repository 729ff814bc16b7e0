"""Evaluation harness: configs, runner semantics, experiment modules.

Experiment-module tests run on small benchmark subsets at reduced scale
so the whole file stays fast; the benches exercise the full sweeps.
"""

import pytest

from repro.experiments.configs import (
    baseline_config,
    compiler_all_config,
    compiler_tile_config,
    gto_wasp_hw_config,
    progressive_feature_configs,
    scheduling_policy_configs,
    standard_configs,
    wasp_gpu_config,
)
from repro.experiments.runner import (
    TraceCache,
    _compiler_options_for,
    run_benchmark,
    run_kernel,
)
from repro.experiments.reporting import format_table, geomean
from repro.sim.config import QueueImpl
from repro.workloads import get_benchmark

SCALE = 0.25
FAST = ["pointnet", "lonestar_bfs"]


@pytest.fixture(scope="module")
def cache():
    return TraceCache()


def test_standard_configs_cover_figure14():
    names = [c.name for c in standard_configs()]
    assert names == [
        "BASELINE", "WASP_COMPILER_TILE", "WASP_COMPILER_ALL", "WASP_GPU",
    ]


def test_baseline_has_no_compiler_but_cutlass_gemm():
    cfg = baseline_config()
    assert cfg.compiler is None
    assert cfg.cutlass_gemm


def test_compiler_tile_disables_streaming():
    cfg = compiler_tile_config()
    assert cfg.compiler.enable_streaming is False
    assert cfg.compiler.enable_tile is True


def test_compiler_all_uses_smem_queues_on_baseline_gpu():
    cfg = compiler_all_config()
    assert cfg.gpu.features.queue_impl is QueueImpl.SMEM
    assert cfg.compiler.enable_tma_offload is False


def test_wasp_gpu_full_features():
    cfg = wasp_gpu_config()
    features = cfg.gpu.features
    assert features.queue_impl is QueueImpl.RFQ
    assert features.wasp_tma and features.pipeline_scheduling
    assert cfg.compiler.enable_tma_offload


def test_progressive_configs_accumulate_features():
    configs = progressive_feature_configs()
    assert [c.name for c in configs] == [
        "COMPILER_SW", "+REGALLOC", "+WASP_TMA", "+RFQ", "+SCHEDULING",
    ]
    assert configs[1].gpu.features.per_stage_registers
    assert not configs[1].gpu.features.wasp_tma
    assert configs[3].gpu.features.queue_impl is QueueImpl.RFQ
    assert configs[4].gpu.features.pipeline_scheduling


def test_scheduling_configs_fix_hardware_vary_policy():
    policies = scheduling_policy_configs()
    assert len(policies) == 4
    assert gto_wasp_hw_config().gpu.features.pipeline_scheduling is False


def test_runner_opt_in_never_slower_than_baseline(cache):
    benchmark = get_benchmark("pointnet", SCALE)
    base = run_benchmark(benchmark, baseline_config(), cache)
    for cfg in standard_configs()[1:]:
        result = run_benchmark(benchmark, cfg, cache)
        assert result.total_cycles <= base.total_cycles * 1.0001


def test_runner_reports_specialization_metadata(cache):
    benchmark = get_benchmark("pointnet", SCALE)
    result = run_kernel(
        benchmark.kernels[0], wasp_gpu_config(), cache
    )
    assert result.used_specialized
    options = _compiler_options_for(benchmark.kernels[0], wasp_gpu_config())
    traces = cache.specialized(benchmark.kernels[0], options)
    assert all(t.tb_spec.num_stages >= 2 for t in traces)
    assert result.fallback_sim is not None


def test_trace_cache_reuses_functional_runs(cache):
    benchmark = get_benchmark("pointnet", SCALE)
    kernel = benchmark.kernels[0]
    entry1 = cache.original(kernel)
    entry2 = cache.original(kernel)
    assert entry1 is entry2


def test_weighted_total(cache):
    benchmark = get_benchmark("bert", SCALE)
    result = run_benchmark(benchmark, baseline_config(), cache)
    manual = sum(k.kernel.weight * k.cycles for k in result.kernels)
    assert result.total_cycles == manual
    gemm = benchmark.kernel("qkv_gemm")
    assert gemm.weight == 2.0


# -- reporting helpers ------------------------------------------------------


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([]) == 0.0
    assert geomean([1.0, 0.0, 4.0]) == pytest.approx(2.0)  # zeros skipped


def test_format_table_alignment():
    text = format_table(["A", "Blong"], [["x", 1.5], ["yy", 2]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "Blong" in lines[1]
    assert "1.50" in text


# -- experiment modules (small subsets) --------------------------------------


def test_fig14_module_shape():
    from repro.experiments import fig14

    result = fig14.run(scale=SCALE, benchmarks=FAST)
    assert len(result.rows) == 2
    for _, values in result.rows:
        assert values[0] == pytest.approx(1.0)   # BASELINE vs itself
        assert values[-1] >= values[1] * 0.95    # WASP_GPU competitive
    assert result.speedup("pointnet", "WASP_GPU") > 1.0
    assert "GEOMEAN" in result.to_text()


def test_table2_module(cache):
    from repro.experiments import table2

    result = table2.run(scale=SCALE, benchmarks=["pointnet"])
    row = result.rows[0]
    assert row.max_speedup >= row.median_speedup
    assert row.num_kernels == 1
    assert "Table II" in result.to_text()


def test_fig16_module():
    from repro.experiments import fig16

    result = fig16.run(scale=SCALE, benchmarks=FAST)
    for row in result.rows:
        assert row.per_stage_ratio <= row.uniform_ratio + 1e-9
        assert row.uniform_ratio >= 1.0
    assert 0.0 <= result.mean_savings() <= 1.0


def test_fig18_module_runs_sizes():
    from repro.experiments import fig18

    result = fig18.run(scale=SCALE, benchmarks=["pointnet"], sizes=(8, 32))
    assert result.sizes == [8, 32]
    assert result.best_size() in (8, 32)


def test_fig19_module_tma_reduces_instructions():
    from repro.experiments import fig19

    result = fig19.run(scale=SCALE, benchmarks=["lonestar_bfs"])
    variants = result.variants_of("lonestar_bfs")
    assert set(variants) == {"B", "W", "T"}
    assert variants["B"].normalized_total == pytest.approx(1.0)
    assert variants["T"].total <= variants["W"].total


def test_fig20_module_bandwidth_monotone():
    from repro.experiments import fig20

    result = fig20.run(scale=SCALE, benchmarks=["pointnet"])
    assert result.value("pointnet", "A100 1x") == pytest.approx(1.0)
    assert result.value("pointnet", "A100 0.5x") <= 1.0
    assert result.value("pointnet", "A100 2x") >= 1.0
    assert (
        result.value("pointnet", "WASP 1x")
        >= result.value("pointnet", "A100 1x")
    )


def test_fig21_module_utilization_bounds():
    from repro.experiments import fig21

    result = fig21.run(scale=SCALE, benchmarks=["pointnet"])
    row = result.rows[0]
    for value in (row.baseline_l2, row.wasp_l2, row.baseline_dram,
                  row.wasp_dram):
        assert 0.0 <= value <= 1.0


def test_fig3_module_overlap_improves():
    from repro.experiments import fig3

    result = fig3.run(scale=SCALE)
    base = result.by_config("BASELINE")
    wasp = result.by_config("WASP_GPU")
    assert wasp.overlap_score() >= base.overlap_score()
    assert "timeline" in result.to_text()


def test_fig15_and_fig17_modules():
    from repro.experiments import fig15, fig17

    r15 = fig15.run(scale=SCALE, benchmarks=["pointnet"])
    assert len(r15.config_names) == 4
    assert all(v > 0 for _, values in r15.rows for v in values)
    r17 = fig17.run(scale=SCALE, benchmarks=["pointnet"])
    assert r17.best_policy() in r17.policy_names


def test_table4_module():
    from repro.experiments import table4

    result = table4.run()
    assert result.rows[-1][0] == "Total"
    assert "Table IV" in result.to_text()

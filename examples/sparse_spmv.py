#!/usr/bin/env python3
"""Sparse kernels under WASP: SpMV and SpMM on two matrix structures.

Compares the four evaluation configurations on the cuSPARSE-style
benchmarks, showing the paper's sparse-suite observations: modest SpMV
gains, a large SpMM win on the irregular (webbase-like) matrix, and the
role of decoupling the serialized column->B-row load chain.

Run:  python examples/sparse_spmv.py
"""

from dataclasses import replace

from repro.core.compiler import WaspCompiler
from repro.experiments.configs import standard_configs
from repro.experiments.runner import run_benchmark
from repro.workloads import get_benchmark


def main() -> None:
    configs = standard_configs()
    names = ["spmv1_g3", "spmv2_web", "spmm1_g3", "spmm2_web"]
    print(f"{'benchmark':14s}" + "".join(f"{c.name:>20s}" for c in configs))
    for name in names:
        benchmark = get_benchmark(name, scale=0.5)
        baseline = None
        cells = []
        for cfg in configs:
            result = run_benchmark(benchmark, cfg)
            if baseline is None:
                baseline = result.total_cycles
            cells.append(f"{baseline / result.total_cycles:>19.2f}x")
        print(f"{name:14s}" + "".join(cells))

    print("\nPer-kernel detail for spmm2_web under WASP_GPU:")
    benchmark = get_benchmark("spmm2_web", scale=0.5)
    wasp = run_benchmark(benchmark, configs[-1])
    base = run_benchmark(benchmark, configs[0])
    compiler = WaspCompiler(
        replace(configs[-1].compiler, queue_size=configs[-1].gpu.rfq_size)
    )
    for base_k, wasp_k in zip(base.kernels, wasp.kernels):
        stages = compiler.compile(
            wasp_k.kernel.program, num_warps=wasp_k.kernel.launch.num_warps
        ).num_stages
        print(
            f"  {wasp_k.kernel.name}: {base_k.cycles:,.0f} -> "
            f"{wasp_k.cycles:,.0f} cycles "
            f"({base_k.cycles / wasp_k.cycles:.2f}x), "
            f"{stages}-stage pipeline, "
            f"specialized={wasp_k.used_specialized}"
        )
        print(
            f"    DRAM utilization {100 * base_k.sim.dram_utilization:.0f}%"
            f" -> {100 * wasp_k.sim.dram_utilization:.0f}%, "
            f"L1 hit {100 * base_k.sim.l1_hit_rate:.0f}%"
            f" -> {100 * wasp_k.sim.l1_hit_rate:.0f}%"
        )


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Figure 3 walkthrough: pointnet's phased baseline vs WASP overlap.

Runs the pointnet ball-query gather kernel on the baseline A100 model
and on the WASP GPU, then prints the compute/memory utilization
timelines.  On the baseline, memory-access phases alternate with compute
phases; WASP's warp-specialized pipeline overlaps them.

Run:  python examples/pointnet_gather.py
"""

from dataclasses import replace

from repro.core.compiler import WaspCompiler
from repro.experiments import fig3
from repro.experiments.configs import baseline_config, wasp_gpu_config
from repro.experiments.runner import run_kernel
from repro.workloads import get_benchmark


def main() -> None:
    result = fig3.run(scale=0.5)
    print(result.to_text())

    base = result.by_config("BASELINE")
    wasp = result.by_config("WASP_GPU")
    print(
        f"\nOverlap score: baseline {100 * base.overlap_score():.1f}% "
        f"-> WASP {100 * wasp.overlap_score():.1f}%"
    )

    # Show what the harness actually ran underneath.
    benchmark = get_benchmark("pointnet", 0.5)
    kernel = benchmark.kernels[0]
    wasp = wasp_gpu_config()
    base_res = run_kernel(kernel, baseline_config())
    wasp_res = run_kernel(kernel, wasp)
    compiled = WaspCompiler(
        replace(wasp.compiler, queue_size=wasp.gpu.rfq_size)
    ).compile(kernel.program, num_warps=kernel.launch.num_warps)
    print(
        f"\n{kernel.name}: {base_res.cycles:,.0f} -> "
        f"{wasp_res.cycles:,.0f} cycles "
        f"({base_res.cycles / wasp_res.cycles:.2f}x), "
        f"pipeline stages = {compiled.num_stages}"
    )
    if compiled.offload:
        offload = compiled.offload
        print(
            f"WASP-TMA offload: {offload.streams} stream jobs, "
            f"{offload.gathers} fused gather jobs"
        )


if __name__ == "__main__":
    main()

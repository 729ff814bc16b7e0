"""End-to-end and per-layer benchmark of the WASP toolchain.

Run ``python3 perfbench/run.py --seed N`` from the repository root;
``perfbench/README.md`` documents the workloads and metrics.
"""

"""Reference-vs-event core differential: the exactness contract.

Tier-1 coverage for :mod:`repro.sim.differential` — small canonical
kernels, a fuzz-spec sample, a registry sample, and failure parity.
CI's ``core-differential`` job runs the full corpus + registry via
``repro corediff``; these tests keep the contract enforced on every
push without that job's runtime.
"""

from __future__ import annotations

import pytest

from repro.fexec import run_kernel
from repro.fuzz.oracle import OPTION_SETS
from repro.gates import registry_subjects, run_gate, seed_subjects
from repro.sim.differential import (
    CoreDiffCheck,
    diff_traces,
    differential_gpus,
)
from repro.sim.config import baseline_a100, wasp_gpu


def _traces(program, image_factory, launch):
    return run_kernel(program, image_factory(), launch).traces


def _assert_all_ok(diffs):
    bad = [d for d in diffs if not d.ok]
    assert not bad, "\n".join(
        line for d in bad for line in d.detail
    )
    assert diffs, "differential compared nothing"


@pytest.mark.parametrize("setup_name", [
    "stream_setup", "gather_setup", "tile_setup",
])
def test_canonical_kernels_bit_identical(setup_name, request):
    program, image_factory, launch, _ = request.getfixturevalue(setup_name)
    traces = _traces(program, image_factory, launch)
    diffs = [
        diff_traces(traces, gpu, f"{setup_name}:{i}")
        for i, gpu in enumerate(differential_gpus())
    ]
    _assert_all_ok(diffs)
    # The comparison is non-vacuous: real cycles were simulated.
    assert all(d.fields["ref_cycles"] > 0 for d in diffs)


def test_fuzz_spec_sample_bit_identical():
    """Two specs x (plain + specializations) x the GPU matrix."""
    for seed in (0, 7):
        subjects = seed_subjects([seed], option_sets=OPTION_SETS, plain=True)
        _assert_all_ok(run_gate(CoreDiffCheck(), subjects).verdicts)


def test_registry_sample_bit_identical():
    from repro.experiments.configs import standard_configs
    from repro.workloads.registry import get_benchmark

    config = next(
        c for c in standard_configs() if c.name == "WASP_GPU"
    )
    report = run_gate(CoreDiffCheck(), registry_subjects(
        ["pointnet"], scale=0.125, configs=[config],
    ))
    assert report.subjects == len(get_benchmark("pointnet", 0.125).kernels)
    _assert_all_ok(report.verdicts)


def test_registry_deep_ring_subject_replays_its_own_program(monkeypatch):
    """A ``@d4`` registry subject times the depth-4 program's traces,
    not the depth-2 entry a shallower subject already cached."""
    from repro.experiments import runner
    from repro.experiments.configs import standard_configs
    from repro.gates import specialize

    monkeypatch.setattr(runner.GLOBAL_CACHE, "_entries", {})
    monkeypatch.setattr(runner.GLOBAL_CACHE, "store", None)
    config = next(
        c for c in standard_configs() if c.name == "WASP_GPU"
    )
    subjects = [
        s for s in registry_subjects(
            ["3d_unet"], scale=0.1, configs=[config], depths=(2, 4),
        )
        if s.kernel.name == "conv_gemm"
    ]
    verdicts = {
        v.label: v for v in run_gate(CoreDiffCheck(), subjects).verdicts
    }
    _assert_all_ok(list(verdicts.values()))

    deep = subjects[-1]
    assert deep.config.compiler.pipeline_depth == 4
    compiled = specialize(
        deep.kernel, runner._compiler_options_for(deep.kernel, deep.config)
    )
    assert compiled is not None
    traces = _traces(
        compiled[0].program, deep.kernel.image_factory, compiled[1]
    )
    dynamic = sum(len(w.instrs) for t in traces for w in t.warps)
    shallow = verdicts["conv_gemm:WASP_GPU:specialized"].fields
    replayed = verdicts["conv_gemm:WASP_GPU@d4:specialized"].fields
    assert replayed["ref_issued"] == dynamic
    assert shallow["ref_issued"] != dynamic  # the two rings differ


def test_deadlock_parity_counts_as_ok():
    """Both cores must fail identically — and that parity is ok=True."""
    from repro.fexec.trace import DynamicInstr, KernelTrace, WarpTrace
    from repro.isa.opcodes import FuncUnit, InstrCategory, Opcode

    pop = DynamicInstr(
        opcode=Opcode.MOV, unit=FuncUnit.INT,
        category=InstrCategory.QUEUE, dst_regs=(0,), queue_pop=0,
    )
    trace = KernelTrace(
        kernel_name="dead", num_warps=1, warp_width=8,
        warps=[WarpTrace(warp_id=0, pipe_stage_id=0, instrs=[pop])],
    )
    for gpu in (baseline_a100(), wasp_gpu()):
        diff = diff_traces([trace], gpu, "deadlock")
        assert diff.ok, diff.detail
        # Neither core produced cycles: both raised.
        assert diff.fields["ref_cycles"] == 0.0
        assert diff.fields["event_cycles"] == 0.0


def test_mismatch_is_reported_not_swallowed(monkeypatch, stream_setup):
    """A doctored event core must produce a labelled mismatch."""
    import repro.sim.gpu as gpu_mod
    from repro.sim.sm_event import EventSMSimulator

    class _BrokenEventCore(EventSMSimulator):
        def run(self):
            stats = super().run()
            stats.cycles += 1.0  # the kind of drift the gate exists for
            return stats

    monkeypatch.setitem(gpu_mod._CORES, "event", _BrokenEventCore)
    program, image_factory, launch, _ = stream_setup
    traces = _traces(program, image_factory, launch)
    diff = diff_traces(traces, wasp_gpu(), "doctored")
    assert not diff.ok
    assert any("cycles" in line for line in diff.detail)

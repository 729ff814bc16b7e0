"""Reference-vs-event SM core differential: the exactness contract.

The event-skipping core (:mod:`repro.sim.sm_event`) claims *bit
identity* with the reference loop, not statistical agreement.  This
module is the claim's enforcement: it runs both cores over the same
traces and compares every observable — cycle count, issue totals by
category and stage, queue-overhead instructions, thread blocks
completed, the full ``(stage, cause) -> cycles`` stall mix, the stall
*span* count (a core that merged or split attribution intervals could
still match the totals), active warp-cycles, the per-bucket activity
timeline, the memory system's service counters (L1/L2/DRAM hits,
sectors, SMEM words) and the TMA engine's vector/job counts.

Consumers:

* ``tests/test_core_differential.py`` — tier-1 coverage on small
  programs and a registry sample.
* ``repro corediff`` (the CLI) — the full fuzz corpus plus the kernel
  registry; CI's ``core-differential`` job gates on it.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.errors import CompilerError, ReproError, ResourceError
from repro.fexec.trace import KernelTrace
from repro.gates import GateReport, Subject, Verdict, specialize
from repro.sim.config import GPUConfig, baseline_a100, wasp_gpu
from repro.sim.gpu import make_simulator

if TYPE_CHECKING:
    from repro.experiments.configs import EvalConfig

__all__ = [
    "CoreDiffCheck",
    "diff_traces",
    "differential_gpus",
]


def differential_gpus() -> list[GPUConfig]:
    """A GPU matrix that exercises every event class.

    Baseline (SMEM queues, GTO), the full WASP GPU (RFQ queues,
    pipeline scheduling, TMA), a queue-starved WASP GPU (constant
    QUEUE_FULL/QUEUE_EMPTY blocking -> the wake registries), and a
    bandwidth-starved one (long memory waits -> the wakeup heap).
    """
    return [
        baseline_a100(),
        wasp_gpu(),
        wasp_gpu(rfq_size=2),
        wasp_gpu().scale_bandwidth(0.25),
    ]


def diff_traces(
    traces: list[KernelTrace],
    config: GPUConfig,
    label: str,
) -> Verdict:
    """Run both cores over ``traces`` and compare every observable.

    Beyond the verdict, the fields carry per-core wall time and
    issue/event counts, so ``repro corediff`` doubles as a per-kernel
    performance comparison of the two cores.
    """

    def one(core: str):
        start = time.perf_counter()
        try:
            sim = make_simulator(config, traces, core=core)
            stats = sim.run()
        except ReproError as exc:
            outcome = (type(exc).__name__, str(exc)[:200])
            return None, outcome, time.perf_counter() - start
        return sim, stats, time.perf_counter() - start

    ref_sim, ref, ref_wall_s = one("reference")
    event_sim, event, event_wall_s = one("event")
    diff = Verdict(label, fields={
        "ref_cycles": 0.0,
        "event_cycles": 0.0,
        "ref_wall_s": round(ref_wall_s, 6),
        "event_wall_s": round(event_wall_s, 6),
        "speedup": round(
            ref_wall_s / event_wall_s if event_wall_s > 0 else 0.0, 3
        ),
        "ref_issued": 0,
        "event_issued": 0,
        # Event-core bookkeeping volume: heap pops + list wakes (0 for
        # runs that failed before completing).
        "event_events": 0,
    })
    mismatches = diff.detail

    if ref_sim is None or event_sim is None:
        # Both must fail identically (same error, same cycle in the
        # message) — deadlock parity is part of the contract.
        if ref != event:
            mismatches.append(
                f"{label}: outcome: reference={ref!r} event={event!r}"
            )
        diff.ok = not mismatches
        return diff

    diff.fields.update(
        ref_cycles=ref.cycles,
        event_cycles=event.cycles,
        ref_issued=ref.issued_total,
        event_issued=event.issued_total,
        event_events=int(
            event_sim._heap.pops + getattr(event_sim, "_tel_wakes", 0)
        ),
    )

    def cmp(name: str, a, b) -> None:
        if a != b:
            mismatches.append(
                f"{label}: {name}: reference={a!r} event={b!r}"
            )

    cmp("cycles", ref.cycles, event.cycles)
    cmp("issued_total", ref.issued_total, event.issued_total)
    cmp("issued_by_category", ref.issued_by_category,
        event.issued_by_category)
    cmp("issued_by_stage", ref.issued_by_stage, event.issued_by_stage)
    cmp("queue_overhead_instrs", ref.queue_overhead_instrs,
        event.queue_overhead_instrs)
    cmp("tbs_completed", ref.tbs_completed, event.tbs_completed)
    cmp("stall_cycles", ref.stall_cycles, event.stall_cycles)
    cmp("stall_spans", ref.stall_spans, event.stall_spans)
    cmp("active_warp_cycles", ref.active_warp_cycles,
        event.active_warp_cycles)
    cmp("timeline", ref.timeline, event.timeline)
    rm, em = ref_sim.memory.stats, event_sim.memory.stats
    cmp("memory.l1_hits", rm.l1_hits, em.l1_hits)
    cmp("memory.l2_hits", rm.l2_hits, em.l2_hits)
    cmp("memory.dram_accesses", rm.dram_accesses, em.dram_accesses)
    cmp("memory.total_sectors", rm.total_sectors, em.total_sectors)
    cmp("memory.smem_words", rm.smem_words, em.smem_words)
    cmp("memory.drain_time", ref_sim.memory.drain_time(),
        event_sim.memory.drain_time())
    cmp("tma.vectors_issued", ref_sim.tma.vectors_issued,
        event_sim.tma.vectors_issued)
    cmp("tma.jobs_started", ref_sim.tma.jobs_started,
        event_sim.tma.jobs_started)
    diff.ok = not mismatches
    return diff


class CoreDiffCheck:
    """``repro corediff``: both SM cores over one subject's traces.

    A fuzz-spec subject (the plain program or one option set's
    specialization) is timed under the whole :func:`differential_gpus`
    matrix.  Functional memory effects are shared by construction —
    both cores replay the same traces — so the oracle's
    bit-identical-memory check rides on the fuzz gate, while this
    compares every timing observable.  A registry subject compares its
    plain and (when the compiler specializes) specialized traces under
    its evaluation config's GPU, through the shared trace cache, so a
    sweep that already ran pays no extra trace generation.
    """

    name = "corediff"

    def run(self, subject: Subject) -> list[Verdict]:
        from repro.fexec.machine import run_kernel

        kernel = subject.kernel
        if subject.config is not None:
            return self._registry(subject, subject.config)
        if subject.options is None:
            traces = run_kernel(
                kernel.program, kernel.image_factory(), kernel.launch
            ).traces
        else:
            compiled = specialize(kernel, subject.options)
            if compiled is None:
                return []
            try:
                traces = run_kernel(
                    compiled[0].program, kernel.image_factory(), compiled[1]
                ).traces
            except ReproError:
                return []  # oracle territory (deadlock checks), not ours
        return [
            diff_traces(
                traces, gpu,
                f"{subject.label}:{gpu.features.queue_impl.value}"
                f"-rfq{gpu.rfq_size}-bw{gpu.l2_sectors_per_cycle:g}",
            )
            for gpu in differential_gpus()
        ]

    @staticmethod
    def _registry(subject: Subject, config: EvalConfig) -> list[Verdict]:
        from repro.experiments.runner import (
            GLOBAL_CACHE, _compiler_options_for, _gpu_for,
        )

        kernel = subject.kernel
        gpu = _gpu_for(kernel, config)
        verdicts = [diff_traces(
            GLOBAL_CACHE.original(kernel), gpu,
            f"{subject.label}:plain",
        )]
        options = _compiler_options_for(kernel, config)
        if options is not None:
            try:
                traces = GLOBAL_CACHE.specialized(kernel, options)
            except (CompilerError, ResourceError):
                traces = None
            if traces is not None:
                verdicts.append(diff_traces(
                    traces, gpu, f"{subject.label}:specialized",
                ))
        return verdicts

    def summary(self, report: GateReport) -> str:
        ref = sum(v.fields["ref_wall_s"] for v in report.verdicts)
        event = sum(v.fields["event_wall_s"] for v in report.verdicts)
        return (
            f"corediff: {report.num_ok}/{len(report.verdicts)} comparisons "
            f"bit-identical ({report.wall_s:.1f}s; reference {ref:.2f}s "
            f"vs event {event:.2f}s"
            + (f", event {ref / event:.2f}x faster overall)"
               if event > 0 else ")")
        )



"""Dynamic instruction traces.

The functional executor resolves control flow, addresses and queue
traffic, and emits one :class:`DynamicInstr` per executed instruction per
warp.  The timing simulator replays these streams, re-enforcing register,
queue and barrier dependences at cycle granularity.

Register identifiers in traces are flat integers: architectural register
``Ri`` maps to ``i`` and predicate ``Pi`` to ``PRED_BASE + i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.isa.opcodes import FuncUnit, InstrCategory, Opcode

PRED_BASE = 1 << 16


@dataclass(slots=True, frozen=True)
class DynamicInstr:
    """One executed instruction in a warp's dynamic stream.

    Records are immutable and shared: within one :class:`KernelTrace`,
    every execution of a static instruction with the same memory
    footprint is the same object, in every warp that executes it.
    Records carrying a ``tma_job`` are never shared.

    Attributes:
        opcode: The executed opcode.
        unit: Functional unit (drives latency/throughput in the sim).
        category: Figure-19 category tag carried over from the static
            instruction (possibly refined by the compiler).
        dst_regs: Flat ids of registers/predicates written.
        src_regs: Flat ids of registers/predicates read (incl. guard).
        queue_push: Queue id pushed to, or ``None``.
        queue_pop: Queue id popped from, or ``None``.
        barrier_id: Barrier name for BAR.* instructions.
        sectors: Distinct global-memory sector ids touched (loads/stores).
        is_store: True for global stores (no register writeback to wait on).
        smem_words: Shared-memory words moved (SMEM bandwidth model).
        tma_job: Offload descriptor for TMA configuration instructions.
    """

    opcode: Opcode
    unit: FuncUnit
    category: InstrCategory
    dst_regs: tuple[int, ...] = ()
    src_regs: tuple[int, ...] = ()
    queue_push: int | None = None
    queue_pop: int | None = None
    barrier_id: str | None = None
    sectors: tuple[int, ...] = ()
    is_store: bool = False
    smem_words: int = 0
    tma_job: dict[str, Any] | None = None


@dataclass
class WarpTrace:
    """The ordered dynamic stream of one warp, plus summary counters."""

    warp_id: int
    pipe_stage_id: int
    instrs: list[DynamicInstr] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instrs)

    def count_by_category(self) -> dict[InstrCategory, int]:
        counts: dict[InstrCategory, int] = {}
        for instr in self.instrs:
            counts[instr.category] = counts.get(instr.category, 0) + 1
        return counts

    def total_sectors(self) -> int:
        total = sum(len(i.sectors) for i in self.instrs)
        for instr in self.instrs:
            if instr.tma_job is not None:
                total += instr.tma_job.get("total_sectors", 0)
        return total


@dataclass
class KernelTrace:
    """All warp traces of one thread block execution.

    ``queue_lengths`` records how many entries flowed through each named
    queue (used for sanity checks and reporting); ``barrier_arrivals``
    counts arrive events per barrier.
    """

    kernel_name: str
    num_warps: int
    warp_width: int
    warps: list[WarpTrace] = field(default_factory=list)
    queue_lengths: dict[int, int] = field(default_factory=dict)
    barrier_arrivals: dict[str, int] = field(default_factory=dict)
    tb_spec: object | None = None
    program_registers: int = 0
    smem_words: int = 0

    def total_instructions(self) -> int:
        return sum(len(w) for w in self.warps)

    def count_by_category(self) -> dict[InstrCategory, int]:
        counts: dict[InstrCategory, int] = {}
        for warp in self.warps:
            for category, count in warp.count_by_category().items():
                counts[category] = counts.get(category, 0) + count
        return counts


# -- serialization ----------------------------------------------------------
#
# Traces persist across processes in the content-addressed cache
# (``repro.fexec.trace_store``).  The format is deliberately primitive —
# JSON-compatible lists/dicts with enums stored by value — so payloads
# stay readable.  Each kernel trace holds a ``"table"`` of its distinct
# records, numbered by first appearance, and each warp is
# ``[warp_id, pipe_stage_id, [index, ...]]`` into it, so sharing survives
# a round trip.  It needs no version number: the cache key covers the
# source of the whole package, this encoding included, so files written
# by other code are never looked up.


def encode_traces(traces: list[KernelTrace]) -> list[dict]:
    """Encode kernel traces as JSON-compatible primitives."""
    return [_encode_kernel_trace(t) for t in traces]


def decode_traces(payload: list[dict]) -> list[KernelTrace]:
    """Rebuild kernel traces from :func:`encode_traces` output.

    Raises ``KeyError``/``IndexError``/``ValueError``/``TypeError`` on
    malformed payloads; callers treat any failure as a cache miss.
    """
    return [_decode_kernel_trace(t) for t in payload]


def _encode_kernel_trace(trace: KernelTrace) -> dict:
    # Keys keep first-appearance order; the records stay alive in
    # ``trace`` while their ids are in use.
    distinct = {id(i): i for w in trace.warps for i in w.instrs}
    slot = {key: n for n, key in enumerate(distinct)}
    return {
        "kernel_name": trace.kernel_name,
        "num_warps": trace.num_warps,
        "warp_width": trace.warp_width,
        "table": [_encode_instr(i) for i in distinct.values()],
        "warps": [
            [w.warp_id, w.pipe_stage_id,
             list(map(slot.__getitem__, map(id, w.instrs)))]
            for w in trace.warps
        ],
        "queue_lengths": {str(k): v for k, v in trace.queue_lengths.items()},
        "barrier_arrivals": dict(trace.barrier_arrivals),
        "tb_spec": _encode_tb_spec(trace.tb_spec),
        "program_registers": trace.program_registers,
        "smem_words": trace.smem_words,
    }


def _decode_kernel_trace(data: dict) -> KernelTrace:
    table = [_decode_instr(i) for i in data["table"]]
    if any(ids and min(ids) < 0 for _, _, ids in data["warps"]):
        raise IndexError("negative trace table index")
    return KernelTrace(
        kernel_name=data["kernel_name"],
        num_warps=data["num_warps"],
        warp_width=data["warp_width"],
        warps=[
            WarpTrace(
                warp_id=warp_id,
                pipe_stage_id=stage,
                instrs=list(map(table.__getitem__, ids)),
            )
            for warp_id, stage, ids in data["warps"]
        ],
        queue_lengths={int(k): v for k, v in data["queue_lengths"].items()},
        barrier_arrivals=dict(data["barrier_arrivals"]),
        tb_spec=_decode_tb_spec(data["tb_spec"]),
        program_registers=data["program_registers"],
        smem_words=data["smem_words"],
    )


def _encode_instr(instr: DynamicInstr) -> list:
    # Positional encoding keeps large payloads compact.
    return [
        instr.opcode.value,
        instr.unit.value,
        instr.category.value,
        list(instr.dst_regs),
        list(instr.src_regs),
        instr.queue_push,
        instr.queue_pop,
        instr.barrier_id,
        list(instr.sectors),
        int(instr.is_store),
        instr.smem_words,
        _encode_tma_job(instr.tma_job),
    ]


def _decode_instr(data: list) -> DynamicInstr:
    (opcode, unit, category, dst_regs, src_regs, queue_push, queue_pop,
     barrier_id, sectors, is_store, smem_words, tma_job) = data
    return DynamicInstr(
        opcode=Opcode(opcode),
        unit=FuncUnit(unit),
        category=InstrCategory(category),
        dst_regs=tuple(dst_regs),
        src_regs=tuple(src_regs),
        queue_push=queue_push,
        queue_pop=queue_pop,
        barrier_id=barrier_id,
        sectors=tuple(sectors),
        is_store=bool(is_store),
        smem_words=smem_words,
        tma_job=_decode_tma_job(tma_job),
    )


_TMA_SECTOR_KEYS = ("vector_sectors", "data_vector_sectors")


def _encode_tma_job(job: dict[str, Any] | None) -> dict | None:
    if job is None:
        return None
    encoded = dict(job)
    for key in _TMA_SECTOR_KEYS:
        if key in encoded:
            encoded[key] = [list(v) for v in encoded[key]]
    return encoded


def _decode_tma_job(job: dict | None) -> dict[str, Any] | None:
    if job is None:
        return None
    decoded = dict(job)
    for key in _TMA_SECTOR_KEYS:
        if key in decoded:
            decoded[key] = [tuple(v) for v in decoded[key]]
    return decoded


def _encode_tb_spec(spec) -> dict | None:
    if spec is None:
        return None
    return {
        "num_stages": spec.num_stages,
        "warps_per_stage": [list(ws) for ws in spec.warps_per_stage],
        "stage_registers": list(spec.stage_registers),
        "queues": [
            {
                "queue_id": q.queue_id,
                "src_stage": q.src_stage,
                "dst_stage": q.dst_stage,
                "size": q.size,
            }
            for q in spec.queues
        ],
        "smem_words": spec.smem_words,
        "barrier_expected": dict(spec.barrier_expected),
        "barrier_initial": dict(spec.barrier_initial),
    }


def _decode_tb_spec(data: dict | None):
    if data is None:
        return None
    from repro.core.specs import NamedQueueSpec, ThreadBlockSpec

    return ThreadBlockSpec(
        num_stages=data["num_stages"],
        warps_per_stage=[list(ws) for ws in data["warps_per_stage"]],
        stage_registers=list(data["stage_registers"]),
        queues=[
            NamedQueueSpec(
                queue_id=q["queue_id"],
                src_stage=q["src_stage"],
                dst_stage=q["dst_stage"],
                size=q["size"],
            )
            for q in data["queues"]
        ],
        smem_words=data["smem_words"],
        barrier_expected=dict(data["barrier_expected"]),
        barrier_initial=dict(data["barrier_initial"]),
    )

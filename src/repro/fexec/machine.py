"""The cooperative functional machine.

Warps of a thread block are interpreted round-robin; each warp executes
until it blocks on a queue pop with no data, a barrier wait that cannot
pass yet, or finishes with ``EXIT``.  Register values are warp-wide
float64 vectors, so gather indices and coalescing behaviour are computed
from real per-lane values.

The machine emits :class:`~repro.fexec.trace.DynamicInstr` records that
the timing simulator replays (:mod:`repro.sim`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import DeadlockError, ExecutionError
from repro.fexec.barriers import ArriveWaitBarrier, SyncBarrier
from repro.fexec.launch import LaunchConfig
from repro.fexec.memory_image import MemoryImage, sectors_of
from repro.fexec.queues import FunctionalQueue
from repro.fexec.sanitizer import SanitizerRace, SmemSanitizer
from repro.fexec.trace import PRED_BASE, DynamicInstr, KernelTrace, WarpTrace
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.operands import (
    Immediate,
    Operand,
    Predicate,
    QueueRef,
    Register,
    SpecialReg,
    SpecialRegister,
)
from repro.isa.program import Program

_MAX_DYNAMIC_INSTRS = 5_000_000

_CMP_FUNCS = {
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "eq": np.equal,
    "ne": np.not_equal,
}


def _flat_reg(op: Register | Predicate) -> int:
    if isinstance(op, Predicate):
        return PRED_BASE + op.index
    return op.index


@dataclass
class _WarpState:
    """Mutable per-warp interpreter state."""

    warp_id: int
    pipe_stage_id: int
    stage_warp_id: int
    num_stage_warps: int
    block_idx: int = 0
    instr_idx: int = 0
    done: bool = False
    regs: dict[int, np.ndarray] = field(default_factory=dict)
    trace: WarpTrace | None = None
    blocked_reason: str = ""


class FunctionalMachine:
    """Interprets one thread block of a program.

    Use :func:`run_kernel` for the common case of running every thread
    block of a launch.
    """

    def __init__(
        self,
        program: Program,
        memory: MemoryImage,
        launch: LaunchConfig,
        tb_id: int = 0,
        collect_trace: bool = True,
        sanitize: bool = False,
    ) -> None:
        program.validate()
        self.program = program
        self.memory = memory
        self.launch = launch
        self.tb_id = tb_id
        self.collect_trace = collect_trace
        self.smem = np.zeros(max(1, program.smem_words), dtype=np.float64)
        self._blocks = program.blocks
        self._label_to_idx = {b.label: i for i, b in enumerate(self._blocks)}
        # Queues are per pipeline slice: warp k of stage S communicates
        # with warp k of stage S+1 (the paper's TB0_W<k>_QS0S1 naming),
        # so the channel key is (queue_id, slice index).
        self._queues: dict[tuple[int, int], FunctionalQueue] = {}
        self._aw_barriers: dict[str, ArriveWaitBarrier] = {}
        self._sync_barriers: dict[str, SyncBarrier] = {}
        self._warps = [self._make_warp(w) for w in range(launch.num_warps)]
        self._dynamic_count = 0
        # One record per distinct (static instruction, memory footprint):
        # the static instruction fixes every other field, and it outlives
        # the run, so its id() is a stable key.
        self._interned: dict[tuple, DynamicInstr] = {}
        self._san: SmemSanitizer | None = None
        if sanitize:
            self._san = SmemSanitizer(program, launch.num_warps, tb_id)

    # -- setup ------------------------------------------------------------

    def _spec(self):
        return self.program.tb_spec

    def _make_warp(self, warp_id: int) -> _WarpState:
        spec = self._spec()
        if spec is not None:
            stage = spec.stage_of_warp(warp_id)
            stage_warps = spec.warps_in_stage(stage)
            stage_warp_id = stage_warps.index(warp_id)
            num_stage_warps = len(stage_warps)
        else:
            stage, stage_warp_id = 0, warp_id
            num_stage_warps = self.launch.num_warps
        warp = _WarpState(
            warp_id=warp_id,
            pipe_stage_id=stage,
            stage_warp_id=stage_warp_id,
            num_stage_warps=num_stage_warps,
        )
        if self.collect_trace:
            warp.trace = WarpTrace(warp_id=warp_id, pipe_stage_id=stage)
        return warp

    def _queue(self, queue_id: int, slice_id: int) -> FunctionalQueue:
        key = (queue_id, slice_id)
        if key not in self._queues:
            self._queues[key] = FunctionalQueue(queue_id)
        return self._queues[key]

    def _aw_barrier(self, barrier_id: str) -> ArriveWaitBarrier:
        if barrier_id not in self._aw_barriers:
            expected, credit = 1, 0
            spec = self._spec()
            if spec is not None:
                expected = spec.barrier_expected.get(barrier_id, 1)
                credit = spec.barrier_initial.get(barrier_id, 0)
            self._aw_barriers[barrier_id] = ArriveWaitBarrier(
                barrier_id, expected=expected, initial_credit=credit
            )
        return self._aw_barriers[barrier_id]

    def _sync_barrier(self, barrier_id: str) -> SyncBarrier:
        if barrier_id not in self._sync_barriers:
            self._sync_barriers[barrier_id] = SyncBarrier(
                barrier_id, num_warps=self.launch.num_warps
            )
        return self._sync_barriers[barrier_id]

    # -- value evaluation ---------------------------------------------------

    def _broadcast(self, value: float) -> np.ndarray:
        return np.full(self.launch.warp_width, float(value))

    def _special_value(self, warp: _WarpState, which: SpecialReg) -> np.ndarray:
        width = self.launch.warp_width
        if which is SpecialReg.LANE_ID:
            return np.arange(width, dtype=np.float64)
        table = {
            SpecialReg.WARP_ID: warp.warp_id,
            SpecialReg.TB_ID: self.tb_id,
            SpecialReg.NUM_WARPS: self.launch.num_warps,
            SpecialReg.PIPE_STAGE_ID: warp.pipe_stage_id,
            SpecialReg.STAGE_WARP_ID: warp.stage_warp_id,
            SpecialReg.NUM_STAGE_WARPS: warp.num_stage_warps,
        }
        return self._broadcast(table[which])

    def _value(self, warp: _WarpState, op: Operand) -> np.ndarray:
        if isinstance(op, (Register, Predicate)):
            flat = _flat_reg(op)
            if flat not in warp.regs:
                warp.regs[flat] = self._broadcast(0.0)
            return warp.regs[flat]
        if isinstance(op, Immediate):
            return self._broadcast(op.value)
        if isinstance(op, SpecialRegister):
            return self._special_value(warp, op.which)
        if isinstance(op, QueueRef):
            # Caller must have checked can_pop; popping here keeps
            # evaluation order identical to operand order.
            value = self._queue(op.queue_id, warp.stage_warp_id).pop()
            if self._san is not None:
                self._san.on_pop(
                    warp.warp_id, op.queue_id, warp.stage_warp_id
                )
            return value
        raise ExecutionError(f"cannot evaluate operand {op!r}")

    def _uniform_int(self, warp: _WarpState, op: Operand) -> int:
        vec = self._value(warp, op)
        first = vec.flat[0]
        if not np.all(vec == first):
            raise ExecutionError(f"operand {op!r} must be warp-uniform")
        return int(first)

    # -- execution ----------------------------------------------------------

    def run(self) -> KernelTrace:
        """Run the thread block to completion; returns the trace."""
        while True:
            progressed = False
            all_done = True
            for warp in self._warps:
                if warp.done:
                    continue
                all_done = False
                if self._run_warp_slice(warp):
                    progressed = True
            if all_done:
                break
            if not progressed:
                reasons = {
                    w.warp_id: w.blocked_reason
                    for w in self._warps
                    if not w.done
                }
                raise DeadlockError(
                    f"kernel {self.program.name!r} deadlocked: {reasons}"
                )
        return self._build_trace()

    def _run_warp_slice(self, warp: _WarpState, max_steps: int = 256) -> bool:
        """Step ``warp`` until it blocks/finishes; True if it progressed."""
        progressed = False
        for _ in range(max_steps):
            if warp.done or not self._step(warp):
                break
            progressed = True
        return progressed

    def _fetch(self, warp: _WarpState) -> Instruction | None:
        block = self._blocks[warp.block_idx]
        if warp.instr_idx < len(block.instructions):
            return block.instructions[warp.instr_idx]
        return None

    def _advance(self, warp: _WarpState) -> None:
        warp.instr_idx += 1
        block = self._blocks[warp.block_idx]
        while warp.instr_idx >= len(block.instructions):
            # Fall through to the next block in layout order.
            warp.block_idx += 1
            warp.instr_idx = 0
            if warp.block_idx >= len(self._blocks):
                raise ExecutionError(
                    f"warp {warp.warp_id} fell off program "
                    f"{self.program.name!r}"
                )
            block = self._blocks[warp.block_idx]

    def _guard_mask(self, warp: _WarpState, instr: Instruction) -> np.ndarray:
        if instr.guard is None:
            return np.ones(self.launch.warp_width, dtype=bool)
        mask = self._value(warp, instr.guard).astype(bool)
        if instr.guard_negated:
            mask = ~mask
        return mask

    def _step(self, warp: _WarpState) -> bool:
        """Execute one instruction; False if blocked."""
        instr = self._fetch(warp)
        if instr is None:
            self._advance_from_block_end(warp)
            return True
        # Blocking checks first (no side effects before we commit).
        for queue_ref in instr.queue_pops():
            if not self._queue(queue_ref.queue_id, warp.stage_warp_id).can_pop():
                warp.blocked_reason = f"queue {queue_ref.queue_id} empty"
                return False
        if instr.opcode is Opcode.BAR_WAIT:
            barrier = self._aw_barrier(instr.barrier_id)
            if not barrier.can_pass(warp.warp_id):
                warp.blocked_reason = f"wait {instr.barrier_id}"
                return False
        if instr.opcode is Opcode.BAR_SYNC:
            barrier = self._sync_barrier(instr.barrier_id)
            barrier.mark_arrived(warp.warp_id)
            if not barrier.can_pass(warp.warp_id):
                warp.blocked_reason = f"sync {instr.barrier_id}"
                return False
        self._dynamic_count += 1
        if self._dynamic_count > _MAX_DYNAMIC_INSTRS:
            raise ExecutionError(
                f"kernel {self.program.name!r} exceeded the dynamic "
                f"instruction cap ({_MAX_DYNAMIC_INSTRS})"
            )
        self._execute(warp, instr)
        return True

    def _advance_from_block_end(self, warp: _WarpState) -> None:
        warp.instr_idx = len(self._blocks[warp.block_idx].instructions)
        self._advance(warp)

    # -- per-opcode semantics -------------------------------------------

    def _execute(self, warp: _WarpState, instr: Instruction) -> None:
        opcode = instr.opcode
        if opcode is Opcode.BRA:
            self._exec_branch(warp, instr)
            return
        if opcode is Opcode.EXIT:
            warp.done = True
            self._record(warp, instr)
            return
        if opcode in (Opcode.BAR_SYNC, Opcode.BAR_ARRIVE, Opcode.BAR_WAIT):
            self._exec_barrier(warp, instr)
            self._advance(warp)
            return
        if opcode in (Opcode.TMA_TILE, Opcode.TMA_STREAM, Opcode.TMA_GATHER):
            self._exec_tma(warp, instr)
            self._advance(warp)
            return
        self._exec_data(warp, instr)
        self._advance(warp)

    def _exec_branch(self, warp: _WarpState, instr: Instruction) -> None:
        taken = True
        if instr.guard is not None:
            mask = self._value(warp, instr.guard).astype(bool)
            if instr.guard_negated:
                mask = ~mask
            if mask.all():
                taken = True
            elif not mask.any():
                taken = False
            else:
                raise ExecutionError(
                    f"divergent branch in {self.program.name!r} "
                    f"(warp {warp.warp_id}); kernels must keep branches "
                    "warp-uniform"
                )
        self._record(warp, instr)
        if taken:
            warp.block_idx = self._label_to_idx[instr.target]
            warp.instr_idx = 0
        else:
            self._advance(warp)

    def _exec_barrier(self, warp: _WarpState, instr: Instruction) -> None:
        if instr.opcode is Opcode.BAR_ARRIVE:
            self._aw_barrier(instr.barrier_id).arrive()
            if self._san is not None:
                self._san.on_arrive(warp.warp_id, instr.barrier_id)
        elif instr.opcode is Opcode.BAR_WAIT:
            barrier = self._aw_barrier(instr.barrier_id)
            barrier.wait(warp.warp_id)
            if self._san is not None:
                self._san.on_wait_pass(
                    warp.warp_id,
                    instr.barrier_id,
                    barrier.wait_counts[warp.warp_id],
                    barrier.expected,
                    barrier.initial_credit,
                )
        else:  # BAR_SYNC: arrival already marked in _step
            sync = self._sync_barrier(instr.barrier_id)
            phase = sync.warp_phase.get(warp.warp_id, 0)
            sync.passed(warp.warp_id)
            if self._san is not None:
                self._san.on_sync_pass(
                    warp.warp_id, instr.barrier_id, phase
                )
        self._record(warp, instr)

    def _exec_data(self, warp: _WarpState, instr: Instruction) -> None:
        opcode = instr.opcode
        mask = self._guard_mask(warp, instr)
        sectors: tuple[int, ...] = ()
        smem_words = 0
        is_store = False

        if opcode is Opcode.LDG:
            addrs = self._value(warp, instr.srcs[0]).astype(np.int64)
            active = addrs[mask]
            result = np.zeros(self.launch.warp_width)
            if active.size:
                result[mask] = self.memory.load(active)
                sectors = sectors_of(active)
        elif opcode is Opcode.STG:
            addrs = self._value(warp, instr.srcs[0]).astype(np.int64)
            values = self._value(warp, instr.srcs[1])
            if mask.any():
                self.memory.store(addrs[mask], values[mask])
                sectors = sectors_of(addrs[mask])
            result = None
            is_store = True
        elif opcode is Opcode.LDS:
            addrs = self._value(warp, instr.srcs[0]).astype(np.int64)
            result = np.zeros(self.launch.warp_width)
            if mask.any():
                result[mask] = self._smem_load(addrs[mask], warp)
            smem_words = int(mask.sum())
        elif opcode is Opcode.STS:
            addrs = self._value(warp, instr.srcs[0]).astype(np.int64)
            values = self._value(warp, instr.srcs[1])
            if mask.any():
                self._smem_store(addrs[mask], values[mask], warp)
            smem_words = int(mask.sum())
            result = None
            is_store = True
        elif opcode is Opcode.LDGSTS:
            gaddrs = self._value(warp, instr.srcs[0]).astype(np.int64)
            saddrs = self._value(warp, instr.srcs[1]).astype(np.int64)
            if mask.any():
                self._smem_store(
                    saddrs[mask], self.memory.load(gaddrs[mask]), warp
                )
                sectors = sectors_of(gaddrs[mask])
            smem_words = int(mask.sum())
            result = None
            is_store = True
        else:
            result = self._alu(warp, instr, mask)

        self._writeback(warp, instr, result, mask)
        self._record(
            warp,
            instr,
            sectors=sectors,
            smem_words=smem_words,
            is_store=is_store,
        )

    def _alu(self, warp: _WarpState, instr: Instruction, mask: np.ndarray):
        opcode = instr.opcode
        vals = [self._value(warp, s) for s in instr.srcs]
        if opcode in (Opcode.IADD, Opcode.FADD):
            return vals[0] + vals[1]
        if opcode in (Opcode.IMUL, Opcode.FMUL):
            return vals[0] * vals[1]
        if opcode is Opcode.IDIV:
            divisor = np.where(vals[1] != 0, vals[1], 1.0)
            return np.floor(vals[0] / divisor)
        if opcode in (Opcode.IMAD, Opcode.FFMA, Opcode.HMMA):
            return vals[0] * vals[1] + vals[2]
        if opcode is Opcode.SHL:
            return np.floor(vals[0]) * (2.0 ** np.floor(vals[1]))
        if opcode is Opcode.SHR:
            return np.floor(np.floor(vals[0]) / (2.0 ** np.floor(vals[1])))
        if opcode is Opcode.AND:
            return (
                vals[0].astype(np.int64) & vals[1].astype(np.int64)
            ).astype(np.float64)
        if opcode is Opcode.OR:
            return (
                vals[0].astype(np.int64) | vals[1].astype(np.int64)
            ).astype(np.float64)
        if opcode is Opcode.MIN:
            return np.minimum(vals[0], vals[1])
        if opcode is Opcode.MAX:
            return np.maximum(vals[0], vals[1])
        if opcode is Opcode.MOV:
            return vals[0].copy()
        if opcode is Opcode.SEL:
            return np.where(vals[0].astype(bool), vals[1], vals[2])
        if opcode is Opcode.ISETP:
            cmp = _CMP_FUNCS[instr.attrs["cmp"]]
            return cmp(vals[0], vals[1]).astype(np.float64)
        if opcode is Opcode.REDUX:
            return np.full(self.launch.warp_width, float(vals[0].sum()))
        if opcode is Opcode.FRCP:
            with np.errstate(divide="ignore"):
                return np.where(vals[0] != 0, 1.0 / vals[0], 0.0)
        if opcode is Opcode.NOP:
            return None
        raise ExecutionError(f"unimplemented opcode {opcode}")

    def _writeback(
        self,
        warp: _WarpState,
        instr: Instruction,
        result: np.ndarray | None,
        mask: np.ndarray,
    ) -> None:
        if result is None or instr.dst is None:
            return
        if isinstance(instr.dst, QueueRef):
            self._queue(instr.dst.queue_id, warp.stage_warp_id).push(result)
            if self._san is not None:
                self._san.on_push(
                    warp.warp_id, instr.dst.queue_id, warp.stage_warp_id
                )
            return
        flat = _flat_reg(instr.dst)
        if mask.all():
            warp.regs[flat] = np.asarray(result, dtype=np.float64)
        else:
            old = warp.regs.get(flat, self._broadcast(0.0))
            warp.regs[flat] = np.where(mask, result, old)

    # -- shared memory ------------------------------------------------------

    def _smem_load(
        self, addrs: np.ndarray, warp: _WarpState | None = None
    ) -> np.ndarray:
        if addrs.min(initial=0) < 0 or addrs.max(initial=0) >= len(self.smem):
            raise ExecutionError(
                f"SMEM load out of bounds in {self.program.name!r}: "
                f"{addrs.min()}..{addrs.max()} (smem={len(self.smem)})"
            )
        if self._san is not None and warp is not None:
            self._san.on_read(
                warp.warp_id, self._san.block_stage[warp.block_idx], addrs
            )
        return self.smem[addrs]

    def _smem_store(
        self,
        addrs: np.ndarray,
        values: np.ndarray,
        warp: _WarpState | None = None,
    ) -> None:
        if addrs.min(initial=0) < 0 or addrs.max(initial=0) >= len(self.smem):
            raise ExecutionError(
                f"SMEM store out of bounds in {self.program.name!r}: "
                f"{addrs.min()}..{addrs.max()} (smem={len(self.smem)})"
            )
        if self._san is not None and warp is not None:
            self._san.on_write(
                warp.warp_id, self._san.block_stage[warp.block_idx], addrs
            )
        self.smem[addrs] = values

    # -- TMA offload --------------------------------------------------------

    def _exec_tma(self, warp: _WarpState, instr: Instruction) -> None:
        if instr.opcode is Opcode.TMA_TILE:
            job = self._tma_tile(warp, instr)
        elif instr.opcode is Opcode.TMA_STREAM:
            job = self._tma_stream(warp, instr)
        else:
            job = self._tma_gather(warp, instr)
        self._record(warp, instr, tma_job=job)

    def _tma_tile(self, warp: _WarpState, instr: Instruction) -> dict[str, Any]:
        gbase = self._uniform_int(warp, instr.srcs[0])
        sbase = self._uniform_int(warp, instr.srcs[1])
        count = self._uniform_int(warp, instr.srcs[2])
        addrs = np.arange(gbase, gbase + count, dtype=np.int64)
        self._smem_store(
            np.arange(sbase, sbase + count, dtype=np.int64),
            self.memory.load(addrs),
            warp,
        )
        barrier_id = instr.attrs.get("barrier")
        if barrier_id:
            self._aw_barrier(barrier_id).arrive()
            if self._san is not None:
                self._san.on_arrive(warp.warp_id, barrier_id)
        width = self.launch.warp_width
        vector_sectors = [
            sectors_of(addrs[k : k + width]) for k in range(0, count, width)
        ]
        return {
            "mode": "tile",
            "num_vectors": len(vector_sectors),
            "vector_sectors": vector_sectors,
            "total_sectors": sum(len(v) for v in vector_sectors),
            "smem_words": count,
            "barrier": barrier_id,
            "queue": None,
        }

    def _tma_stream(self, warp: _WarpState, instr: Instruction) -> dict[str, Any]:
        if not isinstance(instr.dst, QueueRef):
            raise ExecutionError("TMA.STREAM requires a queue destination")
        base_vec = self._value(warp, instr.srcs[0]).astype(np.int64)
        count = self._uniform_int(warp, instr.srcs[1])
        if len(instr.srcs) > 2:
            vec_stride = self._uniform_int(warp, instr.srcs[2])
        else:
            vec_stride = int(instr.attrs.get("vec_stride", self.launch.warp_width))
        queue = self._queue(instr.dst.queue_id, warp.stage_warp_id)
        vector_sectors = []
        for k in range(count):
            addrs = base_vec + k * vec_stride
            queue.push(self.memory.load(addrs))
            if self._san is not None:
                self._san.on_push(
                    warp.warp_id, instr.dst.queue_id, warp.stage_warp_id
                )
            vector_sectors.append(sectors_of(addrs))
        return {
            "mode": "stream",
            "num_vectors": count,
            "vector_sectors": vector_sectors,
            "total_sectors": sum(len(v) for v in vector_sectors),
            "smem_words": 0,
            "barrier": None,
            "queue": instr.dst.queue_id,
        }

    def _tma_gather(self, warp: _WarpState, instr: Instruction) -> dict[str, Any]:
        idx_base = self._value(warp, instr.srcs[0]).astype(np.int64)
        data_base = self._value(warp, instr.srcs[1]).astype(np.int64)
        count = self._uniform_int(warp, instr.srcs[2])
        if len(instr.srcs) > 3:
            idx_stride = self._uniform_int(warp, instr.srcs[3])
        else:
            idx_stride = int(instr.attrs.get("idx_stride", self.launch.warp_width))
        dest = instr.attrs.get("dest", "rfq")
        width = self.launch.warp_width
        lanes = np.arange(width, dtype=np.int64)
        queue = None
        if dest == "rfq":
            if not isinstance(instr.dst, QueueRef):
                raise ExecutionError("TMA.GATHER dest=rfq needs a queue dst")
            queue = self._queue(instr.dst.queue_id, warp.stage_warp_id)
        sbase = int(instr.attrs.get("sbase", 0))
        vector_sectors = []
        data_vector_sectors = []
        smem_words = 0
        for k in range(count):
            idx_addrs = idx_base + k * idx_stride
            indices = self.memory.load(idx_addrs).astype(np.int64)
            data_addrs = data_base + indices
            data = self.memory.load(data_addrs)
            if queue is not None:
                queue.push(data)
                if self._san is not None:
                    self._san.on_push(
                        warp.warp_id, queue.queue_id, warp.stage_warp_id
                    )
            else:
                self._smem_store(sbase + k * width + lanes, data, warp)
                smem_words += width
            # Both phases consume memory bandwidth: index fetch, then the
            # dependent data fetch (kept separate for two-phase timing).
            vector_sectors.append(sectors_of(idx_addrs))
            data_vector_sectors.append(sectors_of(data_addrs))
        total = sum(len(v) for v in vector_sectors)
        total += sum(len(v) for v in data_vector_sectors)
        return {
            "mode": "gather",
            "num_vectors": count,
            "vector_sectors": vector_sectors,
            "data_vector_sectors": data_vector_sectors,
            "total_sectors": total,
            "smem_words": smem_words,
            "barrier": instr.attrs.get("barrier"),
            "queue": queue.queue_id if queue is not None else None,
        }

    # -- trace emission -------------------------------------------------

    def _record(
        self,
        warp: _WarpState,
        instr: Instruction,
        sectors: tuple[int, ...] = (),
        smem_words: int = 0,
        is_store: bool = False,
        tma_job: dict[str, Any] | None = None,
    ) -> None:
        if warp.trace is None:
            return
        key = (id(instr), sectors, smem_words, is_store)
        record = self._interned.get(key) if tma_job is None else None
        if record is None:
            dst_regs: tuple[int, ...] = ()
            if isinstance(instr.dst, (Register, Predicate)):
                dst_regs = (_flat_reg(instr.dst),)
            src_regs = tuple(
                _flat_reg(op)
                for op in instr.srcs
                if isinstance(op, (Register, Predicate))
            )
            if instr.guard is not None:
                src_regs = src_regs + (_flat_reg(instr.guard),)
            queue_push = (
                instr.dst.queue_id if isinstance(instr.dst, QueueRef) else None
            )
            pops = instr.queue_pops()
            record = DynamicInstr(
                opcode=instr.opcode,
                unit=instr.info.unit,
                category=instr.category,
                dst_regs=dst_regs,
                src_regs=src_regs,
                queue_push=queue_push,
                queue_pop=pops[0].queue_id if pops else None,
                barrier_id=instr.barrier_id,
                sectors=sectors,
                is_store=is_store,
                smem_words=smem_words,
                tma_job=tma_job,
            )
            # Each TMA job is its own dict, so those records are never shared.
            if tma_job is None:
                self._interned[key] = record
        warp.trace.instrs.append(record)

    def _aggregate_queue_lengths(self) -> dict[int, int]:
        totals: dict[int, int] = {}
        for (qid, _slice), queue in self._queues.items():
            totals[qid] = totals.get(qid, 0) + queue.total_pushed
        return totals

    def _build_trace(self) -> KernelTrace:
        trace = KernelTrace(
            kernel_name=self.program.name,
            num_warps=self.launch.num_warps,
            warp_width=self.launch.warp_width,
            warps=[w.trace for w in self._warps if w.trace is not None],
            queue_lengths=self._aggregate_queue_lengths(),
            barrier_arrivals={
                bid: b.arrivals for bid, b in self._aw_barriers.items()
            },
            tb_spec=self.program.tb_spec,
            program_registers=self.program.register_count(),
            smem_words=self.program.smem_words,
        )
        return trace


@dataclass
class ExecutionResult:
    """Traces (one per thread block) plus the mutated memory image."""

    traces: list[KernelTrace]
    memory: MemoryImage
    races: list[SanitizerRace] = field(default_factory=list)


def run_kernel(
    program: Program,
    memory: MemoryImage,
    launch: LaunchConfig,
    collect_trace: bool = True,
    sanitize: bool = False,
) -> ExecutionResult:
    """Functionally execute every thread block of a launch (serially)."""
    traces = []
    races: list[SanitizerRace] = []
    for tb_id in range(launch.num_thread_blocks):
        machine = FunctionalMachine(
            program,
            memory,
            launch,
            tb_id=tb_id,
            collect_trace=collect_trace,
            sanitize=sanitize,
        )
        traces.append(machine.run())
        if machine._san is not None:
            races.extend(machine._san.races)
    return ExecutionResult(traces=traces, memory=memory, races=races)

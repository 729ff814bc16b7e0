"""Program dependence graph construction.

Data dependences are computed with a classic reaching-definitions
dataflow analysis over the CFG, so loop-carried dependences (e.g. an
induction variable feeding its own update) are captured.  Nodes are
instruction ``uid`` values; an edge ``d -> u`` means a definition at
``d`` may reach a use at ``u``.

Control structure is exposed through block-level helpers (parents,
branch-of-block) because the paper's second extraction phase walks basic
blocks rather than a formal control-dependence graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode, is_global_load
from repro.isa.program import Program

_DefKey = tuple[str, int]  # ('r', idx) or ('p', idx)


def _def_keys(instr: Instruction) -> list[_DefKey]:
    keys: list[_DefKey] = [("r", r.index) for r in instr.defined_registers()]
    keys.extend(("p", p.index) for p in instr.defined_predicates())
    return keys


def _use_keys(instr: Instruction) -> list[_DefKey]:
    keys: list[_DefKey] = [("r", r.index) for r in instr.used_registers()]
    keys.extend(("p", p.index) for p in instr.used_predicates())
    return keys


@dataclass
class PDG:
    """Data-dependence graph plus CFG lookup tables for one program."""

    program: Program
    instr_by_uid: dict[int, Instruction] = field(default_factory=dict)
    block_of: dict[int, str] = field(default_factory=dict)
    data_preds: dict[int, set[int]] = field(default_factory=dict)
    data_succs: dict[int, set[int]] = field(default_factory=dict)

    def successors_of(self, instr: Instruction) -> set[Instruction]:
        return {
            self.instr_by_uid[uid] for uid in self.data_succs.get(instr.uid, ())
        }

    def consumers_of_load(self, load: Instruction) -> set[Instruction]:
        """Instructions consuming the value produced by a global load."""
        return self.successors_of(load)

    def global_loads(self) -> list[Instruction]:
        """All LDG/LDGSTS instructions in layout order."""
        return [
            instr
            for instr in self.program.instructions()
            if is_global_load(instr.opcode)
        ]

    def restricted(self, keep: set[int]) -> "PDG":
        """The subgraph of this PDG induced by the uids in ``keep``.

        Equal to rebuilding the PDG after deleting every other
        instruction when ``keep`` is closed under ``data_preds`` (dead
        code elimination's live set).  Deleting an instruction only
        drops its kills; a deleted def that killed another def on its
        way to a kept use would itself reach that use, hence be kept.
        So no kept use gains or loses a reaching definition.
        """
        return PDG(
            program=self.program,
            instr_by_uid={
                u: i for u, i in self.instr_by_uid.items() if u in keep
            },
            block_of={u: b for u, b in self.block_of.items() if u in keep},
            data_preds={
                u: {v for v in p if v in keep}
                for u, p in self.data_preds.items() if u in keep
            },
            data_succs={
                u: {v for v in s if v in keep}
                for u, s in self.data_succs.items() if u in keep
            },
        )

    def branches(self) -> list[Instruction]:
        return [
            instr
            for instr in self.program.instructions()
            if instr.opcode is Opcode.BRA
        ]


def build_pdg(program: Program) -> PDG:
    """Build the PDG for ``program`` (reaching-definitions dataflow)."""
    pdg = PDG(program=program)
    # Block-level GEN: the last def of each key in each block.
    defs: dict[int, list[_DefKey]] = {}
    gen: dict[str, dict[_DefKey, int]] = {}
    for block in program.blocks:
        block_gen: dict[_DefKey, int] = {}
        for instr in block.instructions:
            uid = instr.uid
            pdg.instr_by_uid[uid] = instr
            pdg.block_of[uid] = block.label
            pdg.data_preds[uid] = set()
            pdg.data_succs[uid] = set()
            keys = defs[uid] = _def_keys(instr)
            for key in keys:
                block_gen[key] = uid
        gen[block.label] = block_gen

    # Reaching definitions on demand: the defs of ``key`` live at a
    # block's entry are the last defs of ``key`` in the nearest
    # predecessors (searching backwards) that define it.  Only keys a
    # block reads before writing are ever asked for.
    preds = program.predecessors()
    entry_defs: dict[tuple[str, _DefKey], set[int]] = {}

    def reaching(label: str, key: _DefKey) -> set[int]:
        found = entry_defs.get((label, key))
        if found is not None:
            return found
        found = set()
        seen = {label}
        stack = list(preds[label])
        while stack:
            pred_label = stack.pop()
            def_uid = gen[pred_label].get(key)
            if def_uid is not None:
                found.add(def_uid)
            elif pred_label not in seen:
                seen.add(pred_label)
                stack.extend(preds[pred_label])
        entry_defs[(label, key)] = found
        return found

    # Per-instruction def-use edges, walking each block in order.
    for block in program.blocks:
        local: dict[_DefKey, int] = {}
        for instr in block.instructions:
            uid = instr.uid
            preds_of = pdg.data_preds[uid]
            for key in _use_keys(instr):
                last = local.get(key)
                for def_uid in (
                    (last,) if last is not None
                    else reaching(block.label, key)
                ):
                    preds_of.add(def_uid)
                    pdg.data_succs[def_uid].add(uid)
            for key in defs[uid]:
                local[key] = uid
    return pdg

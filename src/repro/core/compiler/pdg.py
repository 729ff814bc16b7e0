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

    def branches(self) -> list[Instruction]:
        return [
            instr
            for instr in self.program.instructions()
            if instr.opcode is Opcode.BRA
        ]


def build_pdg(program: Program) -> PDG:
    """Build the PDG for ``program`` (reaching-definitions dataflow)."""
    pdg = PDG(program=program)
    for block in program.blocks:
        for instr in block.instructions:
            pdg.instr_by_uid[instr.uid] = instr
            pdg.block_of[instr.uid] = block.label
            pdg.data_preds[instr.uid] = set()
            pdg.data_succs[instr.uid] = set()

    # Block-level GEN (last def per key) and KILL (keys defined).
    gen: dict[str, dict[_DefKey, int]] = {}
    kill: dict[str, set[_DefKey]] = {}
    for block in program.blocks:
        block_gen: dict[_DefKey, int] = {}
        for instr in block.instructions:
            for key in _def_keys(instr):
                block_gen[key] = instr.uid
        gen[block.label] = block_gen
        kill[block.label] = set(block_gen)

    preds = program.predecessors()
    # IN/OUT sets: key -> set of def uids.
    in_sets: dict[str, dict[_DefKey, set[int]]] = {
        b.label: {} for b in program.blocks
    }
    out_sets: dict[str, dict[_DefKey, set[int]]] = {
        b.label: {} for b in program.blocks
    }

    changed = True
    while changed:
        changed = False
        for block in program.blocks:
            label = block.label
            new_in: dict[_DefKey, set[int]] = {}
            for pred_label in preds[label]:
                for key, uids in out_sets[pred_label].items():
                    new_in.setdefault(key, set()).update(uids)
            new_out: dict[_DefKey, set[int]] = {
                key: set(uids)
                for key, uids in new_in.items()
                if key not in kill[label]
            }
            for key, uid in gen[label].items():
                new_out[key] = {uid}
            if new_in != in_sets[label] or new_out != out_sets[label]:
                in_sets[label] = new_in
                out_sets[label] = new_out
                changed = True

    # Per-instruction def-use edges, walking each block with a live map.
    for block in program.blocks:
        live: dict[_DefKey, set[int]] = {
            key: set(uids) for key, uids in in_sets[block.label].items()
        }
        for instr in block.instructions:
            for key in _use_keys(instr):
                for def_uid in live.get(key, ()):
                    pdg.data_preds[instr.uid].add(def_uid)
                    pdg.data_succs[def_uid].add(instr.uid)
            for key in _def_keys(instr):
                live[key] = {instr.uid}
    return pdg

"""PDG construction: def-use edges, loop-carried dependences."""

import pytest

from repro.core.compiler import stagesplit
from repro.core.compiler.pdg import build_pdg
from repro.isa import Opcode, ProgramBuilder


def _simple():
    b = ProgramBuilder("p")
    a = b.mov(1)            # 0
    c = b.iadd(a, 2)        # 1
    d = b.imul(c, a)        # 2
    b.stg(d, c)             # 3
    b.exit()
    return b.finish()


def test_direct_def_use_edges():
    prog = _simple()
    pdg = build_pdg(prog)
    instrs = list(prog.instructions())
    mov, add, mul, stg = instrs[0], instrs[1], instrs[2], instrs[3]
    assert add.uid in pdg.data_succs[mov.uid]
    assert mul.uid in pdg.data_succs[mov.uid]  # a used twice
    assert mul.uid in pdg.data_succs[add.uid]
    assert stg.uid in pdg.data_succs[mul.uid]
    assert stg.uid in pdg.data_succs[add.uid]


def test_kill_cuts_stale_defs():
    b = ProgramBuilder("p")
    a = b.mov(1)          # def1
    b.mov(2, dst=a)       # def2 kills def1
    use = b.iadd(a, 0)    # uses def2 only
    b.stg(use, use)
    b.exit()
    prog = b.finish()
    pdg = build_pdg(prog)
    instrs = list(prog.instructions())
    def1, def2, add = instrs[0], instrs[1], instrs[2]
    assert add.uid in pdg.data_succs[def2.uid]
    assert add.uid not in pdg.data_succs[def1.uid]


def test_loop_carried_dependence():
    b = ProgramBuilder("p")
    i = b.mov(0)
    b.label("loop")
    b.iadd(i, 1, dst=i)
    p = b.isetp("lt", i, 4)
    b.bra("loop", guard=p)
    b.label("end")
    b.exit()
    prog = b.finish()
    pdg = build_pdg(prog)
    update = prog.find_block("loop").instructions[0]
    # The induction update reaches itself around the backedge.
    assert update.uid in pdg.data_succs[update.uid]


def test_predicate_edges():
    b = ProgramBuilder("p")
    i = b.mov(0)
    b.label("loop")
    b.iadd(i, 1, dst=i)
    p = b.isetp("lt", i, 4)
    b.bra("loop", guard=p)
    b.label("end")
    b.exit()
    prog = b.finish()
    pdg = build_pdg(prog)
    setp = prog.find_block("loop").instructions[1]
    branch = prog.find_block("loop").instructions[2]
    assert branch.uid in pdg.data_succs[setp.uid]


def test_global_loads_enumeration():
    b = ProgramBuilder("p")
    a = b.ldg(b.mov(64))
    b.ldgsts(b.mov(64), b.mov(0))
    b.stg(b.mov(128), a)
    b.exit()
    pdg = build_pdg(b.finish())
    loads = pdg.global_loads()
    assert [l.opcode for l in loads] == [Opcode.LDG, Opcode.LDGSTS]


def test_consumers_of_load():
    b = ProgramBuilder("p")
    v = b.ldg(b.mov(64))
    use1 = b.fadd(v, 1.0)
    use2 = b.fmul(v, 2.0)
    b.stg(b.mov(128), use1)
    b.stg(b.mov(129), use2)
    b.exit()
    prog = b.finish()
    pdg = build_pdg(prog)
    load = pdg.global_loads()[0]
    consumers = pdg.consumers_of_load(load)
    assert {c.opcode for c in consumers} == {Opcode.FADD, Opcode.FMUL}


def _stage_pdgs(monkeypatch, programs):
    """(name, reused PDG, rebuilt PDG) for every stage program of
    ``programs``: stage splitting hands category annotation the PDG
    dead-code elimination built, restricted to the live uids.  The
    rebuild happens right there, before later passes edit the stage."""
    from repro.core.compiler import WaspCompiler, WaspCompilerOptions

    seen = []
    annotate = stagesplit._annotate_categories

    def recording(program, pdg, plan):
        seen.append((program.name, pdg, build_pdg(program)))
        annotate(program, pdg, plan)

    monkeypatch.setattr(stagesplit, "_annotate_categories", recording)
    compiler = WaspCompiler(WaspCompilerOptions(verify=False,
                                                validate=False))
    for program, num_warps in programs:
        compiler.compile(program, num_warps)
    return seen


def _registry_and_fuzz_programs():
    from repro.fuzz.generator import build_kernel
    from repro.fuzz.spec import generate_spec
    from repro.workloads.registry import all_benchmarks, get_benchmark

    kernels = [
        k for name in all_benchmarks()
        for k in get_benchmark(name, 0.1).kernels
    ]
    kernels += [build_kernel(generate_spec(seed)) for seed in range(12)]
    return [(k.program, k.launch.num_warps) for k in kernels]


def test_pdg_after_dead_code_elimination_is_the_restricted_pdg(
    monkeypatch,
):
    # Removing dead instructions cannot change a live use-def edge, so
    # the pre-DCE PDG restricted to the live uids is the post-DCE PDG.
    seen = _stage_pdgs(monkeypatch, _registry_and_fuzz_programs())
    assert len(seen) > 100
    for name, reused, rebuilt in seen:
        assert reused.data_preds == rebuilt.data_preds, name
        assert reused.data_succs == rebuilt.data_succs, name
        assert reused.instr_by_uid == rebuilt.instr_by_uid
        assert reused.block_of == rebuilt.block_of


@pytest.mark.parametrize("keep_mov", [True, False])
def test_restricted_drops_edges_to_removed_uids(keep_mov):
    prog = _simple()
    pdg = build_pdg(prog)
    mov, add, mul, stg = list(prog.instructions())[:4]
    keep = {add.uid, mul.uid, stg.uid} | ({mov.uid} if keep_mov else set())
    sub = pdg.restricted(keep)
    assert set(sub.data_succs) == keep
    assert (mov.uid in sub.data_preds[add.uid]) is keep_mov
    assert all(v in keep for succs in sub.data_succs.values() for v in succs)

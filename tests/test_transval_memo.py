"""The certification fast paths must be invisible in every result.

* **Normal-form idempotence.**  The read-only walk ``nodes(e)`` stands
  in for the old rebuilding ``rewrite(e, fn)`` traversal wherever a
  question only looks at an expression.  That is sound only if every
  such expression is already in normal form (``rewrite(e, id) == e``)
  and the walk visits the same leaves, with multiplicity.
* **Source-summary memo.**  A hit must be exactly the summary a fresh
  walk would build: keyed on name and content, never mutated by the
  matcher, bounded, and invisible in the validation report.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import replace

import pytest

from repro.analysis.lint import standard_option_sets
from repro.analysis.transval import effects, match, validate
from repro.analysis.transval.effects import summarize_program
from repro.analysis.transval.expr import (
    GLoad,
    Op,
    SLoad,
    nodes,
    rewrite,
    stable_repr,
)
from repro.analysis.transval.match import match_summaries
from repro.core.compiler import WaspCompiler, WaspCompilerOptions
from repro.fuzz.generator import build_kernel
from repro.fuzz.spec import generate_spec
from repro.isa.operands import Immediate

SEEDS = range(12)
_COMPOSITE = (Op, GLoad, SLoad)


@functools.lru_cache(maxsize=None)
def _kernel(seed: int):
    return build_kernel(generate_spec(seed))


def _specialized(seed: int, options: WaspCompilerOptions | None = None):
    kernel = _kernel(seed)
    opts = replace(options or WaspCompilerOptions(),
                   verify=False, validate=False)
    result = WaspCompiler(opts).compile(
        kernel.program, kernel.launch.num_warps
    )
    assert result.specialized
    return kernel.program, result.program


def _summary_exprs(summary):
    for eff in summary.effects:
        yield eff.addr
        yield eff.value
        if eff.guard is not None:
            yield eff.guard
    for info in summary.loops.values():
        yield from info.rec_inits
        for row in info.rec_deltas:
            yield from row
        yield from info.cont_conds


def _digest(summary) -> str:
    lines = [summary.kernel, summary.side]
    lines += [stable_repr(e) for e in _summary_exprs(summary)]
    lines += [f"{e.stage}/{e.block}/{e.instr}/{e.path}/{e.ring}"
              for e in summary.effects]
    lines += [str(a) for a in summary.abstentions]
    lines += [q.message for q in summary.queue_issues]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Normal form: the read-only walk sees what the rebuilding walk saw


def _rewrite_leaves(e) -> Counter:
    seen: Counter = Counter()

    def fn(node):
        if not isinstance(node, _COMPOSITE):
            seen[node] += 1
        return node

    rewrite(e, fn)
    return seen


def _node_leaves(e) -> Counter:
    return Counter(n for n in nodes(e) if not isinstance(n, _COMPOSITE))


def _queried_and_summary_exprs(monkeypatch) -> list:
    """Every expression a read-only question was asked about while
    certifying seeds 0-11 under the standard option sets (depths 2 and
    8), plus every expression of the resulting summaries."""
    asked: dict[int, object] = {}

    def recording(e):
        asked.setdefault(id(e), e)
        return nodes(e)

    monkeypatch.setattr(effects, "nodes", recording)
    monkeypatch.setattr(match, "nodes", recording)
    exprs = []
    for seed in SEEDS:
        for _, options in standard_option_sets():
            for depth in (2, 8):
                source, spec = _specialized(
                    seed, replace(options, pipeline_depth=depth)
                )
                for summary in (
                    summarize_program(source, side="source"),
                    summarize_program(spec, side="specialized"),
                ):
                    match_summaries(summary, summary)
                    exprs.extend(_summary_exprs(summary))
    monkeypatch.undo()
    return exprs + list(asked.values())


def test_summary_expressions_are_normal_and_walks_agree(monkeypatch):
    exprs = _queried_and_summary_exprs(monkeypatch)
    assert len(exprs) > 1000
    for e in exprs:
        assert rewrite(e, lambda n: n) == e, stable_repr(e)
        assert _node_leaves(e) == _rewrite_leaves(e), stable_repr(e)


# ---------------------------------------------------------------------------
# Source-summary memo


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(validate, "_source_memo", {})
    return validate._source_memo


def test_source_summary_unchanged_by_matching(empty_memo):
    source, spec = _specialized(2)
    first = validate.validate_programs(source, spec)
    before = _digest(first.source_summary)
    match_summaries(first.source_summary, first.spec_summary)
    assert _digest(first.source_summary) == before
    second = validate.validate_programs(source, spec)
    assert second.source_summary is first.source_summary
    assert _digest(second.source_summary) == before
    fresh = summarize_program(source, side="source")
    assert _digest(fresh) == before


def test_memo_key_includes_the_kernel_name(empty_memo):
    source, spec = _specialized(2)
    renamed = source.clone()
    renamed.name = source.name + "_renamed"
    assert renamed.canonical_encoding() == source.canonical_encoding()
    a = validate.validate_programs(source, spec)
    b = validate.validate_programs(renamed, spec)
    assert a.source_summary is not b.source_summary
    assert a.source_summary.kernel == source.name
    assert b.source_summary.kernel == renamed.name
    assert len(empty_memo) == 2


def test_edited_program_misses(empty_memo):
    source, spec = _specialized(2)
    first = validate.validate_programs(source, spec)
    edited = source.clone()
    edited.name = source.name
    instr = next(
        i for i in edited.instructions()
        if any(isinstance(s, Immediate) for s in i.srcs)
    )
    instr.srcs = [
        Immediate(s.value + 1) if isinstance(s, Immediate) else s
        for s in instr.srcs
    ]
    second = validate.validate_programs(edited, spec)
    assert second.source_summary is not first.source_summary
    assert len(empty_memo) == 2


def test_memo_is_bounded(empty_memo):
    source, _ = _specialized(0)
    for n in range(validate.SOURCE_MEMO_SIZE + 5):
        clone = source.clone()
        clone.name = f"{source.name}#{n}"
        validate._source_summary(clone)
        assert len(empty_memo) <= validate.SOURCE_MEMO_SIZE
    assert len(empty_memo) == validate.SOURCE_MEMO_SIZE
    # The oldest entries went first.
    names = [name for name, _ in empty_memo]
    assert names[0] == f"{source.name}#5"


def test_same_kernel_compiled_twice_reports_identically(
    empty_memo, clean_telemetry
):
    kernel = _kernel(5)
    compiler = WaspCompiler(WaspCompilerOptions(pipeline_depth=4))
    first = compiler.compile(kernel.program, kernel.launch.num_warps)
    second = compiler.compile(kernel.program, kernel.launch.num_warps)
    assert first.transval.to_json() == second.transval.to_json()
    served = {
        row["labels"]["served"]: row["value"]
        for row in clean_telemetry.snapshot().to_list()
        if row["name"] == "repro_transval_source_summaries_total"
    }
    assert served == {"walk": 1, "memo": 1}

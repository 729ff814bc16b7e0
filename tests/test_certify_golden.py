"""Golden certification table: a certified compile's every observable.

``tests/data/certify_golden.json`` holds one row per compile of fuzz
seeds 0-11 under the four standard option sets at ring depths 2/4/8
(144 compiles): the translation-validation verdict, the sorted T-rule
locations, the store counts, a digest of both effect summaries
(effects and loop tables in ``stable_repr`` form) and the static
verifier's happens-before pair verdicts with their min-plus distances.

Each seed's ``sw-queues@4`` compile is also corrupted with every fuzz
mutation that has a site in it and certified again, so the table holds
T-rule locations and racy HB pairs, not only clean certificates.

Any change to the certification path (summaries, expression normal
form, HB solve, PDG) must regenerate the table byte for byte: same
verdicts, same locations, same normal forms, same distances.

Regenerate (only when a verdict change is intended)::

    PYTHONPATH=src python -m tests.test_certify_golden --write
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Iterator

GOLDEN_PATH = Path(__file__).with_name("data") / "certify_golden.json"
SEEDS = range(12)
DEPTHS = (2, 4, 8)
MUTATED_VARIANT = ("sw-queues", 4)


def _dist(d: float) -> float | str:
    """JSON has no infinities: write them as text."""
    return d if math.isfinite(d) else str(d)


def _summary_digest(summary: Any) -> str:
    from repro.analysis.transval.expr import stable_repr

    def r(e: Any) -> str:
        return "-" if e is None else stable_repr(e)

    lines = [f"{summary.side} {summary.kernel}"]
    for eff in summary.effects:
        ring = ",".join(f"{c.loop}.{c.depth}.{c.copy}" for c in eff.ring)
        lines.append(
            f"store {eff.seq} s{eff.stage} {eff.block} {'/'.join(eff.path)} "
            f"[{ring}] {r(eff.addr)} := {r(eff.value)} if {r(eff.guard)}"
        )
    for key in sorted(summary.loops):
        info = summary.loops[key]
        ctx = ",".join(f"{c.loop}.{c.depth}.{c.copy}" for c in info.ctx)
        lines.append(
            f"loop {key} {info.base} s{info.stage} d{info.depth} [{ctx}] "
            f"inits {' ; '.join(r(e) for e in info.rec_inits)} "
            f"deltas {' | '.join(' ; '.join(r(e) for e in row) for row in info.rec_deltas)} "
            f"conds {' ; '.join(r(e) for e in info.cont_conds)}"
        )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@contextlib.contextmanager
def _recording_hb() -> Iterator[list[Any]]:
    """Capture every HB analysis the verifier runs, without re-solving."""
    from repro.analysis import smem

    seen: list[Any] = []
    original = smem.analyze_hb

    def recording(*args: Any, **kwargs: Any) -> Any:
        analysis = original(*args, **kwargs)
        seen.append(analysis)
        return analysis

    smem.analyze_hb = recording
    try:
        yield seen
    finally:
        smem.analyze_hb = original


def _row(report: Any, analyses: list[Any]) -> dict[str, Any]:
    row: dict[str, Any] = {
        "hb": [
            [v.group, v.writer.stage, v.other.stage, v.verdict, v.rule,
             _dist(v.d_wt), _dist(v.d_tw)]
            for analysis in analyses for v in analysis.verdicts
        ],
    }
    if report is None:
        return row
    row.update(
        verdict=report.verdict,
        t_diagnostics=sorted(
            (
                [d.rule, d.stage, d.block, d.instruction]
                for d in report.report if d.rule.startswith("WASP-T")
            ),
            key=json.dumps,
        ),
        stores=[report.matched_stores, report.source_stores,
                report.spec_stores],
        summaries=[
            _summary_digest(s)
            for s in (report.source_summary, report.spec_summary)
            if s is not None
        ],
    )
    return row


def certify_table() -> dict[str, Any]:
    """Compile the seed x option-set x depth grid; one row per compile."""
    from repro.analysis.lint import standard_option_sets
    from repro.core.compiler import WaspCompiler
    from repro.errors import ReproError
    from repro.fuzz.generator import build_kernel
    from repro.fuzz.spec import generate_spec

    table: dict[str, Any] = {}
    for seed in SEEDS:
        kernel = build_kernel(generate_spec(seed))
        for name, options in standard_option_sets():
            for depth in DEPTHS:
                opts = replace(options, pipeline_depth=depth)
                with _recording_hb() as analyses:
                    try:
                        result = WaspCompiler(opts).compile(
                            kernel.program,
                            num_warps=kernel.launch.num_warps,
                        )
                    except ReproError as exc:
                        table[f"{seed}/{name}@{depth}"] = {
                            "error": type(exc).__name__,
                        }
                        continue
                row = _row(result.transval, analyses)
                row["specialized"] = result.specialized
                table[f"{seed}/{name}@{depth}"] = row
                if (name, depth) == MUTATED_VARIANT and result.specialized:
                    table.update(_mutant_rows(seed, kernel, result.program))
    return table


def _mutant_rows(seed: int, kernel: Any, program: Any) -> dict[str, Any]:
    from repro.analysis.transval import validate_programs
    from repro.analysis.verifier import verify_program
    from repro.fuzz.mutate import MUTATIONS, apply_mutation

    rows: dict[str, Any] = {}
    for mutation in sorted(MUTATIONS):
        mutant = apply_mutation(program, mutation)
        if mutant is None:
            continue
        with _recording_hb() as analyses:
            verified = verify_program(mutant)
            report = validate_programs(kernel.program, mutant, verified)
        name, depth = MUTATED_VARIANT
        rows[f"{seed}/{name}@{depth}+{mutation}"] = _row(report, analyses)
    return rows


def _dump(table: dict[str, Any]) -> str:
    rows = [
        f"{json.dumps(key)}: {json.dumps(table[key], sort_keys=True)}"
        for key in sorted(table)
    ]
    return "{\n" + ",\n".join(rows) + "\n}\n"


def test_certification_matches_golden_table():
    golden = json.loads(GOLDEN_PATH.read_text())
    table = json.loads(_dump(certify_table()))
    compiles = [k for k in table if "+" not in k]
    assert len(compiles) == len(SEEDS) * 4 * len(DEPTHS)
    mismatched = sorted(k for k in golden if golden[k] != table.get(k))
    assert not mismatched, (
        f"{len(mismatched)} compile(s) differ from the golden table, "
        f"first {mismatched[0]}: {table.get(mismatched[0])} "
        f"!= {golden[mismatched[0]]}"
    )
    assert table == golden


def test_golden_table_certifies_every_specialized_compile():
    # The table is only a meaningful proof if it exercises the
    # validator and the HB engine, not just unspecialized identities.
    golden = json.loads(GOLDEN_PATH.read_text())
    clean = [r for k, r in golden.items() if "+" not in k]
    certified = [r for r in clean if r.get("verdict")]
    assert len(certified) >= 100
    assert all(r["verdict"] == "equivalent" for r in certified)
    mutants = [r for k, r in golden.items() if "+" in k]
    assert any(r["verdict"] == "not-equivalent" for r in mutants)
    assert any(r["t_diagnostics"] for r in mutants)
    assert any(v[3] == "racy" for r in mutants for v in r["hb"])


if __name__ == "__main__":
    if "--write" not in sys.argv:
        sys.exit("usage: python -m tests.test_certify_golden --write")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(_dump(certify_table()))
    print(f"wrote {GOLDEN_PATH}")

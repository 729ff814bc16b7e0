"""Sanitizer-vs-static race differential (``repro racediff``).

The trust chain for the happens-before engine mirrors the one
``repro corediff`` builds for the event-driven core: run the same
program through two independent implementations and require agreement.
Here the two implementations are

* the **static** engine (:mod:`repro.analysis.dataflow.hb`), which
  classifies every cross-stage SMEM access pair from the event graph
  alone, and
* the **dynamic** vector-clock sanitizer
  (:mod:`repro.fexec.sanitizer`), which observes one concrete
  execution with real addresses.

The checked direction is *no static false negatives*: every race the
sanitizer observes must be statically flagged — either as a WASP-S
race on the same buffer group and stage pair, or excused because the
static pass already reported it could not resolve an access in one of
the stages involved (WASP-S003).  The static engine is allowed to be
more conservative than one execution (races need not manifest
dynamically), so the reverse direction is not checked.
"""

from __future__ import annotations

import re
from typing import Any

from repro.analysis.dataflow.hb import HBAnalysis, analyze_program
from repro.errors import ReproError
from repro.fexec.machine import run_kernel
from repro.fexec.sanitizer import SanitizerRace
from repro.gates import GateReport, Subject, Verdict, specialize

_COPY_SUFFIX = re.compile(r"__db\d*$")


def _canon_group(group: str) -> str:
    """Collapse a circular-buffer ring copy onto its base buffer group."""
    return _COPY_SUFFIX.sub("", group)


def diff_races(
    label: str,
    program: Any,
    image: Any,
    launch: Any,
    analysis: HBAnalysis | None = None,
) -> Verdict:
    """Compare sanitizer-observed races against the static verdicts.

    The verdict's detail lists the observed races no static verdict
    covers; its fields count the static races and list the observed
    ones.
    """
    if analysis is None:
        analysis = analyze_program(program)
    static_pairs = {
        (_canon_group(group), pair)
        for group, pair in analysis.racy_stage_pairs()
    }
    excused = tuple(sorted(
        {stage for _, stage in analysis.skipped_stage_groups()}
    ))
    diff = Verdict(label, fields={
        "num_static": len(static_pairs),
        "num_dynamic": 0,
        "races": [],
        "excused_stages": list(excused),
    })
    try:
        result = run_kernel(
            program, image, launch, collect_trace=False, sanitize=True
        )
    except ReproError as exc:
        # Deadlocks and runtime faults are the fuzz oracle's domain;
        # without a completed execution there is nothing to compare.
        diff.skipped = f"{type(exc).__name__}: {exc}"
        return diff
    diff.fields["num_dynamic"] = len(result.races)
    diff.fields["races"] = [race.format() for race in result.races]
    diff.detail = [
        race.format() for race in result.races
        if not _is_covered(race, static_pairs, excused)
    ]
    diff.ok = not diff.detail
    return diff


def _is_covered(
    race: SanitizerRace,
    static_pairs: set[tuple[str, frozenset[int]]],
    excused_stages: tuple[int, ...],
) -> bool:
    if (_canon_group(race.group), race.stage_pair) in static_pairs:
        return True
    # S003: the static pass declared an access in this stage
    # unresolvable, so races involving it are already surfaced.
    return (
        race.first_stage in excused_stages
        or race.second_stage in excused_stages
    )


class RaceDiffCheck:
    """``repro racediff``: the race differential over one subject.

    A fuzz-spec subject is diffed under its option set, a registry
    subject under its evaluation config's compiler options; subjects
    the compiler does not specialize have no cross-stage races and
    give no verdict.
    """

    name = "racediff"

    def run(self, subject: Subject) -> list[Verdict]:
        options = subject.options
        if subject.config is not None:
            from repro.experiments.runner import _compiler_options_for

            options = _compiler_options_for(subject.kernel, subject.config)
        if options is None:
            return []
        compiled = specialize(subject.kernel, options)
        if compiled is None:
            return []
        result, launch = compiled
        return [diff_races(
            subject.label, result.program, subject.kernel.image_factory(),
            launch,
        )]

    def summary(self, report: GateReport) -> str:
        dynamic = sum(v.fields["num_dynamic"] for v in report.verdicts)
        return (
            f"racediff: {report.num_ok}/{len(report.verdicts)} comparisons "
            f"agree ({dynamic} dynamic race(s) observed, "
            f"{report.num_skipped} skipped; {report.wall_s:.1f}s)"
        )

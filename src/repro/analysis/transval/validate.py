"""Translation validation: execution-free equivalence certificates.

``validate_programs`` is the one entry point: given the pre-compile
kernel and the :class:`WaspCompiler` output it walks both sides into
symbolic effect summaries (:mod:`repro.analysis.transval.effects`),
checks the cutpoint simulation relation over ring-slot residues
(:mod:`repro.analysis.transval.match`), and folds in the ordering
obligations the value proof relies on.  Those come from the static
verifier's report on the specialized program, not from a second
analysis: a racy or deadlocking program has no meaningful simulation
relation to certify, and the verifier's happens-before pass already
reports every racy SMEM pair as an error.

The gates and the fuzz oracle compile one source under many option sets
and ring depths, so the source side's summary is memoized in process:
a small bounded table keyed on the kernel name plus its
``canonical_encoding()``.  A summary depends on nothing else, and no
caller mutates one, so a hit is the summary a fresh walk would build.

Verdicts are three-valued, and abstention is *never* silently folded
into a pass:

``equivalent``
    every specialized store matched 1:1, no T-errors, no abstentions.
``not-equivalent``
    at least one T001/T002/T003 error — a concrete broken obligation.
``abstain``
    no errors, but at least one WASP-T004: the program left the
    validated fragment somewhere, so equivalence is unproven.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport
from repro.analysis.transval.effects import Summary, summarize_program
from repro.analysis.transval.match import match_summaries
from repro.errors import VerificationError
from repro.isa.program import Program
from repro.telemetry.registry import TELEMETRY
from repro.telemetry.spans import span

__all__ = [
    "EQUIVALENT",
    "NOT_EQUIVALENT",
    "ABSTAIN",
    "ValidationReport",
    "validate_programs",
    "validate_or_raise",
]

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not-equivalent"
ABSTAIN = "abstain"

_T_ERRORS = ("WASP-T001", "WASP-T002", "WASP-T003")

#: Most source summaries held at once.  One gate or fuzz run revisits
#: a few dozen sources; past the bound the oldest entry is dropped.
SOURCE_MEMO_SIZE = 64
#: (kernel name, canonical encoding) -> source-side summary.  The name
#: is part of the key because the encoding leaves it out while the
#: summary and its diagnostics carry it.
_source_memo: dict[tuple[str, str], Summary] = {}


@dataclass
class ValidationReport:
    """One translation-validation run: verdict plus the evidence."""

    kernel: str
    verdict: str
    report: DiagnosticReport
    matched_stores: int = 0
    source_stores: int = 0
    spec_stores: int = 0
    specialized: bool = True
    #: Populated for introspection/tests; not serialized.  The source
    #: summary is shared with the memo: read it, never mutate it.
    source_summary: Summary | None = field(default=None, repr=False)
    spec_summary: Summary | None = field(default=None, repr=False)

    @property
    def t_errors(self) -> list[Diagnostic]:
        return [d for d in self.report if d.rule in _T_ERRORS]

    @property
    def abstentions(self) -> list[Diagnostic]:
        return [d for d in self.report if d.rule == "WASP-T004"]

    def summary_line(self) -> str:
        detail = (
            f"{self.matched_stores}/{self.source_stores} store "
            "obligations matched"
            if self.specialized else "unspecialized output (identity)"
        )
        return f"transval: {self.verdict} ({detail})"

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": "repro-transval-v1",
            "kernel": self.kernel,
            "verdict": self.verdict,
            "specialized": self.specialized,
            "matched_stores": self.matched_stores,
            "source_stores": self.source_stores,
            "spec_stores": self.spec_stores,
            "num_t_errors": len(self.t_errors),
            "num_abstentions": len(self.abstentions),
            "diagnostics": self.report.to_json()["diagnostics"],
        }


def validate_programs(
    source: Program,
    specialized: Program,
    verified: DiagnosticReport | None = None,
) -> ValidationReport:
    """Check the simulation relation between ``source`` and its compile.

    ``verified`` is the static verifier's report on ``specialized``
    (the compiler post-pass passes the one ``verify_or_raise`` just
    returned); without it the verifier runs here, once.  The value
    proof reads only that report's error-severity ordering findings.
    """
    with span("transval", "validate"):
        report = DiagnosticReport()
        specialized_output = _is_specialized(specialized)
        src_sum: Summary | None = None
        spec_sum: Summary | None = None
        matched = n_src = n_spec = 0

        if specialized_output:
            if verified is None:
                from repro.analysis.verifier import verify_program

                verified = verify_program(specialized)
            report.extend(_ordering_diagnostics(specialized, verified))
            src_sum = _source_summary(source)
            spec_sum = summarize_program(specialized, side="specialized")
            res = match_summaries(src_sum, spec_sum)
            report.extend(res.diagnostics)
            matched = res.matched_stores
            n_src = res.source_stores
            n_spec = res.spec_stores
        # An unspecialized compile is the identity transformation: the
        # compiler bailed before rewriting anything, so the relation
        # holds trivially and there is nothing to walk.

        report = report.normalized()
        verdict = _verdict(report)
        _count(report, verdict)
        return ValidationReport(
            kernel=source.name,
            verdict=verdict,
            report=report,
            matched_stores=matched,
            source_stores=n_src,
            spec_stores=n_spec,
            specialized=specialized_output,
            source_summary=src_sum,
            spec_summary=spec_sum,
        )


def validate_or_raise(
    source: Program,
    specialized: Program,
    verified: DiagnosticReport | None = None,
) -> ValidationReport:
    """The compiler's opt-out post-pass: raise on ``not-equivalent``.

    Abstention does **not** raise — it is a coverage statement, not a
    counterexample — but it is preserved on the report so callers (CI,
    the fuzz cross-check) can gate on it explicitly.
    """
    result = validate_programs(source, specialized, verified)
    if result.verdict == NOT_EQUIVALENT:
        errs = result.t_errors
        raise VerificationError(
            f"{source.name!r} failed translation validation with "
            f"{len(errs)} error(s); first: {errs[0].format()}",
            diagnostics=list(result.report),
        )
    return result


def _source_summary(source: Program) -> Summary:
    """The source side's summary, walked at most once per memo entry."""
    key = (source.name, source.canonical_encoding())
    summary = _source_memo.get(key)
    served = "memo"
    if summary is None:
        served = "walk"
        summary = summarize_program(source, side="source")
        if len(_source_memo) >= SOURCE_MEMO_SIZE:
            del _source_memo[next(iter(_source_memo))]
        _source_memo[key] = summary
    if TELEMETRY.enabled:
        # A cached sweep skips compiles, and the memo's contents depend
        # on what this process validated before: not --jobs invariant.
        TELEMETRY.counter(
            "repro_transval_source_summaries_total",
            labels={"served": served},
            help="Source-side effect summaries by how they were served: "
                 "from the in-process memo or by a fresh walk.",
            invariant=False,
        ).inc()
    return summary


def _is_specialized(program: Program) -> bool:
    from repro.analysis.cfg import build_view

    return bool(build_view(program).stages)


def _ordering_diagnostics(
    specialized: Program, verified: DiagnosticReport
) -> list[Diagnostic]:
    """T003: the ordering facts the value proof depends on must hold.

    The queue threading step assumed FIFO pairing and the SMEM
    threading step assumed writer-before-reader per ring slot.  The
    proof reads no happens-before edges itself, only whether the
    verifier found the protocol broken: every error-severity
    queue/deadlock/SMEM finding (racy pairs are S001/S004/S005) voids
    the simulation relation.
    """
    return [
        Diagnostic(
            rule="WASP-T003",
            message=(
                f"static verifier found {diag.rule} on the specialized "
                f"program: {diag.message}"
            ),
            kernel=specialized.name,
            stage=diag.stage,
            block=diag.block,
            instruction=diag.instruction,
            hint=diag.hint,
        )
        for diag in verified.errors
        if diag.rule.split("-")[1][0] in "QDS"
    ]


def _verdict(report: DiagnosticReport) -> str:
    if any(d.rule in _T_ERRORS for d in report):
        return NOT_EQUIVALENT
    if any(d.rule == "WASP-T004" for d in report):
        return ABSTAIN
    return EQUIVALENT


def _count(report: DiagnosticReport, verdict: str) -> None:
    # Whether a validation runs at all depends on trace-cache locality
    # (cached sweeps skip the compile entirely), so these series are
    # ``invariant=False`` — not expected to be bit-identical across
    # --jobs settings.
    if not TELEMETRY.enabled:
        return
    TELEMETRY.counter(
        "repro_transval_verdicts_total",
        labels={"verdict": verdict},
        help="Translation-validation verdicts by kind.",
        invariant=False,
    ).inc()
    for diag in report:
        if diag.rule.startswith("WASP-T"):
            TELEMETRY.counter(
                "repro_transval_rule_firings_total",
                labels={"rule": diag.rule},
                help="Diagnostics emitted per translation-validation "
                     "rule.",
                invariant=False,
            ).inc()

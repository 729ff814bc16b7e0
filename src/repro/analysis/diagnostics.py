"""Structured diagnostics for the static pipeline verifier.

Every analysis pass reports :class:`Diagnostic` records instead of raising
bare-string exceptions: a diagnostic names the *rule* that fired, where it
fired (kernel / pipeline stage / basic block / instruction), how severe it
is, and — where we can — a hint about how to fix the program.  Reports are
JSON-serializable so the ``repro lint`` CLI and the CI gate can archive
them as artifacts.

This module is intentionally dependency-free (stdlib + :mod:`repro.errors`
only) so the ISA layer can import it without cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterator


class Severity(enum.Enum):
    """How bad a diagnostic is.

    ``ERROR`` means the program will deadlock, race, or fail to launch —
    the compiler refuses to emit it and ``repro lint`` fails CI.
    ``WARNING`` marks contracts we cannot prove hold (the dynamic layers
    may still catch a violation).  ``INFO`` is advisory.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


#: Rule catalogue: id -> (default severity, one-line description).
#: Families: C = CFG/structure, Q = queue protocol, D = deadlock/barrier,
#: S = shared-memory races, R = resources, T = translation validation.
RULES: dict[str, tuple[Severity, str]] = {
    # -- CFG / structural hygiene ---------------------------------------
    "WASP-C001": (Severity.ERROR, "program has no basic blocks"),
    "WASP-C002": (Severity.ERROR, "duplicate basic-block label"),
    "WASP-C003": (Severity.ERROR, "branch in the middle of a basic block"),
    "WASP-C004": (Severity.ERROR, "branch target does not resolve"),
    "WASP-C005": (Severity.ERROR,
                  "control falls off the end of the program without EXIT"),
    "WASP-C006": (Severity.WARNING, "basic block unreachable from entry"),
    "WASP-C007": (Severity.ERROR,
                  "control falls through from one pipeline stage's code "
                  "section into another stage's section"),
    # -- queue protocol --------------------------------------------------
    "WASP-Q001": (Severity.ERROR,
                  "queue pushed from more than one pipeline stage "
                  "(single-producer violation)"),
    "WASP-Q002": (Severity.ERROR,
                  "queue popped from more than one pipeline stage "
                  "(single-consumer violation)"),
    "WASP-Q003": (Severity.ERROR,
                  "queue has an orphan endpoint (pushed but never popped, "
                  "or popped but never pushed)"),
    "WASP-Q004": (Severity.ERROR,
                  "per-iteration push/pop imbalance between producer and "
                  "consumer (or across CFG paths through a loop body)"),
    "WASP-Q005": (Severity.ERROR,
                  "queue operation in a stage that contradicts the thread "
                  "block specification's src/dst stage"),
    "WASP-Q006": (Severity.WARNING,
                  "credit pressure: a single loop iteration pushes more "
                  "entries than the queue holds (stalls the producer; "
                  "deadlocks when the consumer's pops are "
                  "barrier-coupled)"),
    "WASP-Q007": (Severity.ERROR,
                  "queue operand in a program without a thread-block "
                  "specification"),
    # -- deadlock / barrier pairing --------------------------------------
    "WASP-D001": (Severity.ERROR,
                  "cycle in the stage/queue wait-for graph"),
    "WASP-D002": (Severity.ERROR,
                  "barrier is waited on but never arrived by any stage"),
    "WASP-D003": (Severity.WARNING,
                  "barrier is arrived but never waited on (lost signal)"),
    "WASP-D004": (Severity.WARNING,
                  "barrier's expected arrival count disagrees with the "
                  "static arrive sites"),
    "WASP-D005": (Severity.WARNING,
                  "arrive/wait barrier used without metadata in the "
                  "thread-block specification"),
    "WASP-D006": (Severity.ERROR,
                  "thread-block BAR.SYNC not executed by every pipeline "
                  "stage"),
    # -- shared-memory races ---------------------------------------------
    "WASP-S001": (Severity.ERROR,
                  "SMEM buffer written by one stage and accessed by "
                  "another with no ordering barrier between them"),
    "WASP-S002": (Severity.ERROR,
                  "SMEM access out of the program's declared footprint"),
    "WASP-S003": (Severity.INFO,
                  "SMEM access with a statically unresolvable target "
                  "buffer (race analysis is incomplete here)"),
    "WASP-S004": (Severity.ERROR,
                  "circular-buffer phase overlap: a write from one "
                  "generation can land on a phase while another "
                  "stage's access to the same phase is still "
                  "unordered"),
    "WASP-S005": (Severity.ERROR,
                  "credit-underflow race: queue credit admits more "
                  "generations in flight than the shared buffer has "
                  "phases"),
    # -- resources ---------------------------------------------------------
    "WASP-R001": (Severity.ERROR,
                  "per-stage register footprint exceeds the SM register "
                  "file"),
    "WASP-R002": (Severity.ERROR,
                  "stage references a register outside its allocated "
                  "per-stage budget"),
    "WASP-R003": (Severity.ERROR,
                  "register or predicate read but never defined in its "
                  "stage"),
    "WASP-R004": (Severity.ERROR,
                  "SMEM footprint exceeds the SM's shared-memory "
                  "capacity"),
    "WASP-R005": (Severity.WARNING,
                  "register or predicate may be read before it is "
                  "defined on some CFG path"),
    "WASP-R006": (Severity.WARNING,
                  "thread-block specification disagrees with the program "
                  "(smem_words / register counts)"),
    "WASP-R007": (Severity.ERROR,
                  "circular-buffer ring credited deeper than its slots: "
                  "initial empty-barrier credit admits more buffer "
                  "generations than the ring has SMEM copies"),
    # -- translation validation --------------------------------------------
    "WASP-T001": (Severity.ERROR,
                  "global store in the specialized program has no "
                  "matching source store (or a source store was lost in "
                  "specialization)"),
    "WASP-T002": (Severity.ERROR,
                  "store address matches the source but the value "
                  "threaded through a queue / shared buffer differs "
                  "(or queue pushes and pops do not pair up)"),
    "WASP-T003": (Severity.ERROR,
                  "ring-slot aliasing or missing ordering breaks the "
                  "simulation relation: the static verifier reports an "
                  "error-severity queue, deadlock or SMEM finding on the "
                  "specialized program"),
    "WASP-T004": (Severity.WARNING,
                  "translation validator abstained: the program is "
                  "outside the validator's fragment, so equivalence is "
                  "unproven (not disproven)"),
}


def rules_table_lines() -> list[str]:
    """The rule catalogue as aligned text (``repro lint --list-rules``).

    One line per registered rule, grouped by family, so the printed
    table is always exactly the rules the verifier can fire — DESIGN.md
    §6c is held to the same registry by a doc-sync test.
    """
    lines = ["rule        sev      description",
             "----        ---      -----------"]
    family = ""
    for rule in sorted(RULES):
        severity, description = RULES[rule]
        prefix = rule.split("-")[1][0]  # C / Q / D / S / R
        if family and prefix != family:
            lines.append("")
        family = prefix
        lines.append(f"{rule:<11} {severity.value:<8} {description}")
    return lines


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one analysis rule, with its location and a hint."""

    rule: str
    message: str
    severity: Severity | None = None
    kernel: str | None = None
    stage: int | None = None
    block: str | None = None
    instruction: str | None = None
    hint: str | None = None

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown diagnostic rule {self.rule!r}")
        if self.severity is None:
            object.__setattr__(self, "severity", RULES[self.rule][0])

    @property
    def location(self) -> str:
        """Human-readable ``kernel[/stage N][/block][: instr]`` location."""
        parts: list[str] = []
        if self.kernel:
            parts.append(self.kernel)
        if self.stage is not None:
            parts.append(f"stage {self.stage}")
        if self.block:
            parts.append(self.block)
        where = "/".join(parts) or "<program>"
        if self.instruction:
            where += f": {self.instruction}"
        return where

    def to_json(self) -> dict[str, Any]:
        assert self.severity is not None
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "kernel": self.kernel,
            "stage": self.stage,
            "block": self.block,
            "instruction": self.instruction,
            "hint": self.hint,
        }

    def format(self) -> str:
        assert self.severity is not None
        text = (f"{self.severity.value}[{self.rule}] "
                f"{self.location}: {self.message}")
        if self.hint:
            text += f"  (hint: {self.hint})"
        return text


@dataclass
class DiagnosticReport:
    """An ordered collection of diagnostics from one verification run."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, diags: list[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    def normalized(self) -> "DiagnosticReport":
        """Deterministically ordered and deduplicated copy.

        Sort key is (rule, site, message) — site meaning kernel, then
        stage, then block, then instruction — so reports from
        repeated runs and from differently-ordered passes compare
        equal; byte-identical findings reported by more than one pass
        collapse to one.
        """
        unique = list(dict.fromkeys(self.diagnostics))
        unique.sort(key=_diagnostic_sort_key)
        return DiagnosticReport(unique)

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def clean(self) -> bool:
        """No errors and no warnings (info is allowed)."""
        return not self.errors and not self.warnings

    def rules_fired(self) -> set[str]:
        return {d.rule for d in self.diagnostics}

    def summary_line(self) -> str:
        """The one-line summary surfaced by ``repro profile``/artifacts."""
        if not self.diagnostics:
            return "verifier: clean"
        n_err = len(self.errors)
        n_warn = len(self.warnings)
        if not n_err and not n_warn:
            return f"verifier: clean ({len(self.diagnostics)} notes)"
        parts = []
        if n_err:
            parts.append(f"{n_err} error{'s' if n_err != 1 else ''}")
        if n_warn:
            parts.append(f"{n_warn} warning{'s' if n_warn != 1 else ''}")
        return "verifier: " + ", ".join(parts)

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": "repro-diagnostics-v1",
            "num_errors": len(self.errors),
            "num_warnings": len(self.warnings),
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }

    def to_text(self) -> str:
        if not self.diagnostics:
            return "verifier: clean"
        return "\n".join(d.format() for d in self.diagnostics)


def _diagnostic_sort_key(
    diag: Diagnostic,
) -> tuple[str, str, int, str, str, str]:
    return (
        diag.rule,
        diag.kernel or "",
        -1 if diag.stage is None else diag.stage,
        diag.block or "",
        diag.instruction or "",
        diag.message,
    )

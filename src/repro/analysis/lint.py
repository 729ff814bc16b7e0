"""The static checks behind ``repro lint`` and ``repro validate``.

Lint compiles each kernel with the standard compiler options but
verification-as-exception disabled, runs the static verifier over the
result (the specialized program when extraction succeeds, the original
otherwise), and reports the findings.  Unlike the compiler's opt-out
post-pass this never raises on findings: lint exists to *show* them.
Validate proves each compile equivalent to its source kernel with the
translation validator.

Both are :class:`repro.gates.Check` implementations; the gate engine
enumerates the kernels and maps error-severity findings (and, for
validate, any verdict short of ``equivalent``) to a non-zero exit code
so CI can gate on a clean registry.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport
from repro.analysis.verifier import verify_program
from repro.core.compiler.pipeline import (
    CompileResult,
    WaspCompiler,
    WaspCompilerOptions,
)
from repro.gates import GateReport, Subject, Verdict, specialize
from repro.isa.program import Program
from repro.workloads.base import Kernel


def _unchecked(options: WaspCompilerOptions) -> WaspCompilerOptions:
    """``options`` with the compiler's own verify/validate post-passes
    off: the checks here want the findings, not an exception."""
    return replace(options, verify=False, validate=False)


def lint_kernel(
    program: Program,
    num_warps: int,
    options: WaspCompilerOptions | None = None,
) -> tuple[CompileResult, DiagnosticReport]:
    """Compile one kernel program (verifier-as-exception off) and verify.

    Returns ``(compile_result, DiagnosticReport)``; callers that want
    raising behaviour should compile with ``verify=True`` instead.
    """
    options = _unchecked(options or WaspCompilerOptions())
    result = WaspCompiler(options).compile(program, num_warps)
    return result, verify_program(result.program)


class LintCheck:
    """``repro lint``: the static verifier over one kernel's compile."""

    name = "lint"

    def run(self, subject: Subject) -> list[Verdict]:
        kernel = subject.kernel
        result, report = lint_kernel(kernel.program, kernel.launch.num_warps)
        return [Verdict(
            subject.label, ok=not report.errors, report=report,
            fields={
                "specialized": result.specialized,
                "num_stages": result.num_stages,
            },
        )]

    def summary(self, report: GateReport) -> str:
        parts: list[str] = []
        if report.num_errors:
            parts.append(f"{report.num_errors} error(s)")
        if report.num_warnings:
            parts.append(f"{report.num_warnings} warning(s)")
        return (
            f"verifier: {', '.join(parts) or 'clean'} across "
            f"{len(report.verdicts)} kernel(s)"
        )


def standard_option_sets() -> list[tuple[str, WaspCompilerOptions]]:
    """The named compiler option sets ``repro validate`` sweeps.

    These are the fuzz oracle's deterministic variants minus
    ``deep-ring`` (its ``pipeline_depth=4`` would be overridden by the
    depth cross anyway, duplicating ``full``).
    """
    from repro.fuzz.oracle import OPTION_SETS

    return [(n, o) for n, o in OPTION_SETS if n != "deep-ring"]


class ValidateCheck:
    """``repro validate``: execution-free equivalence certificates.

    A registry subject is compiled under its option set and must
    certify ``equivalent``; an abstention fails too, since an
    uncertified compile is a finding, never a silent pass.  A corpus
    subject is validated under the first fuzz option set that
    specializes it.  Entries carrying an injected corruption are
    mutated first and must come out ``not-equivalent`` (the detector
    self-tests); one that does not is reported as a synthetic
    WASP-T002.
    """

    name = "validate"

    def run(self, subject: Subject) -> list[Verdict]:
        from repro.analysis.transval import validate_programs

        kernel, entry = subject.kernel, subject.entry
        if entry is None:
            assert subject.options is not None
            name, options = subject.options_name, subject.options
            result = WaspCompiler(_unchecked(options)).compile(
                kernel.program, kernel.launch.num_warps
            )
            program, specialized = result.program, result.specialized
            label = subject.label
        else:
            found = _corpus_variant(kernel, entry.inject)
            if found is None:
                return []
            name, options, program = found
            specialized = True
            label = f"{subject.label}[{name}]@depth{options.pipeline_depth}"
        tv = validate_programs(kernel.program, program)
        ok, report = tv.verdict == "equivalent", tv.report
        if entry is not None and entry.inject is not None:
            # Expectation flip: a flagged corruption is the *passing*
            # outcome for an injected entry.
            ok = tv.verdict == "not-equivalent"
            report = DiagnosticReport() if ok else DiagnosticReport([
                Diagnostic(
                    rule="WASP-T002",
                    message=(
                        f"injected corruption {entry.inject!r} was NOT "
                        f"statically flagged (validator said "
                        f"{tv.verdict!r}) — the corpus self-test expects "
                        "not-equivalent"
                    ),
                    kernel=kernel.program.name,
                )
            ])
        return [Verdict(
            label, ok=ok, detail=[] if ok else [f"verdict: {tv.verdict}"],
            report=report,
            fields={
                "depth": options.pipeline_depth,
                "options": name,
                "specialized": specialized,
                "verdict": tv.verdict,
                "matched_stores": tv.matched_stores,
                "source_stores": tv.source_stores,
            },
        )]

    def summary(self, report: GateReport) -> str:
        failed = [v.fields["verdict"] for v in report.verdicts if not v.ok]
        return (
            f"transval: {report.num_ok}/{len(report.verdicts)} compiles "
            f"certified equivalent ({failed.count('not-equivalent')} "
            f"not-equivalent, {failed.count('abstain')} abstained; "
            f"{report.wall_s:.1f}s)"
        )


def _corpus_variant(
    kernel: Kernel, inject: str | None
) -> tuple[str, WaspCompilerOptions, Program] | None:
    """The first fuzz option set that specializes ``kernel`` — and that
    ``inject``, if given, finds a site to corrupt in."""
    from repro.fuzz.mutate import apply_mutation
    from repro.fuzz.oracle import OPTION_SETS

    for name, options in OPTION_SETS:
        compiled = specialize(kernel, _unchecked(options))
        if compiled is None:
            continue
        program: Program | None = compiled[0].program
        if inject is not None:
            program = apply_mutation(compiled[0].program, inject)
        if program is not None:
            return name, options, program
    return None

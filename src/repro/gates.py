"""One engine behind the trust gates: subjects, checks, one report.

``repro corediff``, ``racediff``, ``validate``, ``lint`` and
``fuzz --corpus`` walk the same subjects — committed corpus entries,
freshly generated fuzz seeds and registry kernels, crossed with
compiler option sets, evaluation configs and ring depths — and end in
one pass/fail verdict per comparison.  This module holds what they
share:

* the subject enumerators :func:`registry_subjects`,
  :func:`corpus_subjects` and :func:`seed_subjects`;
* the :class:`Check` protocol, ``run(subject) -> list[Verdict]``;
* :class:`GateReport`, which owns the counts, the text summary, the
  ``repro-gate-report-v1`` JSON, the SARIF log and the exit code;
* :func:`specialize`, the compile-and-widen step every check that
  runs a specialized program needs.

The checks themselves sit next to the comparison they adapt:
:class:`repro.sim.differential.CoreDiffCheck`,
:class:`repro.analysis.racediff.RaceDiffCheck`,
:class:`repro.analysis.lint.LintCheck` and
:class:`~repro.analysis.lint.ValidateCheck`, and
:class:`repro.fuzz.corpus.ReplayCheck`.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Protocol

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Severity,
)
from repro.analysis.sarif import sarif_log
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.core.compiler.pipeline import (
        CompileResult,
        WaspCompilerOptions,
    )
    from repro.experiments.configs import EvalConfig
    from repro.fexec.launch import LaunchConfig
    from repro.fuzz.corpus import CorpusEntry
    from repro.fuzz.spec import FuzzSpec
    from repro.workloads.base import Kernel

GATE_SCHEMA = "repro-gate-report-v1"

#: ``[(name, options), …]`` — a named compiler option set per entry.
OptionSets = Sequence[tuple[str, "WaspCompilerOptions"]]


@dataclass(frozen=True)
class Subject:
    """One kernel a gate checks, and what to check it under.

    A registry sweep subject carries an evaluation ``config``; an
    option-set subject carries ``options``; with neither, checks use
    the plain program or their own default compile.
    """

    label: str
    kernel: Kernel
    #: The corpus entry the kernel was rebuilt from, if any.
    entry: CorpusEntry | None = None
    config: EvalConfig | None = None
    options_name: str = ""
    options: WaspCompilerOptions | None = None


@dataclass
class Verdict:
    """One comparison's outcome.

    ``skipped`` names why nothing could be compared; a skipped verdict
    still counts as ok.  ``fields`` holds the check's own numbers and
    tags and is exported verbatim in the JSON report.
    """

    label: str
    ok: bool = True
    skipped: str | None = None
    detail: list[str] = field(default_factory=list)
    report: DiagnosticReport | None = None
    fields: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "label": self.label,
            "ok": self.ok,
            "skipped": self.skipped,
            "detail": list(self.detail),
            **self.fields,
        }
        if self.report is not None:
            doc["diagnostics"] = [d.to_json() for d in self.report]
        return doc


class Check(Protocol):
    """One gate's comparison, applied to one subject at a time."""

    #: Gate name: the JSON ``gate`` field and the SARIF tool suffix.
    name: str

    def run(self, subject: Subject) -> list[Verdict]: ...

    def summary(self, report: GateReport) -> str:
        """The one-line verdict tally printed last."""
        ...


@dataclass
class GateReport:
    """Every verdict of one gate run, and what the run amounts to."""

    check: Check
    verdicts: list[Verdict] = field(default_factory=list)
    subjects: int = 0
    wall_s: float = 0.0

    @property
    def num_ok(self) -> int:
        return sum(1 for v in self.verdicts if v.ok)

    @property
    def num_failed(self) -> int:
        return len(self.verdicts) - self.num_ok

    @property
    def num_skipped(self) -> int:
        return sum(1 for v in self.verdicts if v.skipped is not None)

    def diagnostics(self) -> list[Diagnostic]:
        return [d for v in self.verdicts for d in v.report or ()]

    @property
    def num_errors(self) -> int:
        return sum(d.severity is Severity.ERROR for d in self.diagnostics())

    @property
    def num_warnings(self) -> int:
        return sum(
            d.severity is Severity.WARNING for d in self.diagnostics()
        )

    def summary_line(self) -> str:
        if not self.verdicts:
            why = (
                f"none of {self.subjects} subject(s) gave a verdict"
                if self.subjects else "no subjects to check"
            )
            return (
                f"{self.check.name}: nothing checked ({why}); an empty "
                "run fails the gate"
            )
        return self.check.summary(self)

    def to_text(self, verbose: bool = False) -> str:
        """Failed verdicts and verdicts with findings, then the tally."""
        lines: list[str] = []
        for verdict in self.verdicts:
            findings = list(verdict.report or ())
            if verdict.ok and not (verdict.detail or findings or verbose):
                continue
            status = (
                "FAILED" if not verdict.ok
                else f"skipped ({verdict.skipped})" if verdict.skipped
                else "ok"
            )
            lines.append(f"{verdict.label}: {status}")
            lines.extend(f"  {line}" for line in verdict.detail)
            lines.extend(f"  {d.format()}" for d in findings)
        lines.append(self.summary_line())
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": GATE_SCHEMA,
            "gate": self.check.name,
            "summary": self.summary_line(),
            "num_subjects": self.subjects,
            "num_verdicts": len(self.verdicts),
            "num_ok": self.num_ok,
            "num_failed": self.num_failed,
            "num_skipped": self.num_skipped,
            "num_errors": self.num_errors,
            "num_warnings": self.num_warnings,
            "wall_s": round(self.wall_s, 3),
            "verdicts": [v.to_json() for v in self.verdicts],
        }

    def to_sarif(self) -> dict[str, Any]:
        return sarif_log(f"repro-{self.check.name}", self.diagnostics())

    def exit_code(self, strict: bool = False) -> int:
        """1 on any failed verdict, on an empty run, or (``strict``)
        on any warning; else 0."""
        failed = (
            not self.verdicts
            or self.num_failed > 0
            or (strict and self.num_warnings > 0)
        )
        return 1 if failed else 0


def run_gate(check: Check, subjects: Iterable[Subject]) -> GateReport:
    """Run ``check`` over every subject, in order."""
    report = GateReport(check)
    start = time.perf_counter()
    for subject in subjects:
        report.subjects += 1
        report.verdicts.extend(check.run(subject))
    report.wall_s = time.perf_counter() - start
    return report


# -- subjects ------------------------------------------------------------


def depth_configs(
    configs: Sequence[EvalConfig], depths: Iterable[int]
) -> list[EvalConfig]:
    """Expand evaluation configs across circular-buffer depths.

    Depth 2 keeps the configs verbatim (the historical sweep); deeper
    rings re-derive each compiler-enabled config with
    ``pipeline_depth=d``.  Baseline-style configs have no compiler to
    deepen and only appear at depth 2.
    """
    out: list[EvalConfig] = []
    for depth in depths:
        for config in configs:
            if depth == 2:
                out.append(config)
            elif config.compiler is not None:
                out.append(replace(
                    config,
                    name=f"{config.name}@d{depth}",
                    compiler=replace(config.compiler, pipeline_depth=depth),
                ))
    return out


def registry_subjects(
    names: Sequence[str] | None = None,
    scale: float = 0.25,
    *,
    configs: Sequence[EvalConfig] | None = None,
    option_sets: OptionSets | None = None,
    depths: Sequence[int] = (2,),
) -> Iterator[Subject]:
    """Every kernel of the named benchmarks (default: all).

    Each kernel is crossed with ``configs`` × ``depths`` (see
    :func:`depth_configs`), or else with ``option_sets`` × ``depths``,
    or else yielded once.
    """
    from repro.workloads.registry import all_benchmarks, get_benchmark

    swept = depth_configs(configs, depths) if configs is not None else []
    for name in names or all_benchmarks():
        bench = get_benchmark(name, scale)
        for kernel in bench.kernels:
            label = f"{bench.name}/{kernel.name}"
            if configs is not None:
                for config in swept:
                    yield Subject(
                        f"{kernel.name}:{config.name}", kernel,
                        config=config,
                    )
            elif option_sets is not None:
                for opts_name, options in option_sets:
                    for depth in depths:
                        yield Subject(
                            f"{label}[{opts_name}]@depth{depth}", kernel,
                            options_name=opts_name,
                            options=replace(options, pipeline_depth=depth),
                        )
            else:
                yield Subject(label, kernel)


def corpus_subjects(
    corpus_dir: Path | None = None,
    *,
    option_sets: OptionSets | None = None,
    plain: bool = False,
    clean_only: bool = False,
) -> Iterator[Subject]:
    """The committed corpus entries (see :func:`_spec_subjects`).

    ``clean_only`` leaves out the injected-corruption entries.
    """
    from repro.fuzz.corpus import load_corpus

    for entry in load_corpus(corpus_dir):
        if not (clean_only and entry.inject is not None):
            yield from _spec_subjects(entry.spec, entry, option_sets, plain)


def seed_subjects(
    seeds: Iterable[int],
    *,
    option_sets: OptionSets | None = None,
    plain: bool = False,
) -> Iterator[Subject]:
    """Freshly generated fuzz specs (see :func:`_spec_subjects`)."""
    from repro.fuzz.spec import generate_spec

    for seed in seeds:
        yield from _spec_subjects(generate_spec(seed), None, option_sets,
                                  plain)


def _spec_subjects(
    spec: FuzzSpec,
    entry: CorpusEntry | None,
    option_sets: OptionSets | None,
    plain: bool,
) -> Iterator[Subject]:
    """One subject per spec, or — with ``option_sets`` — one per
    option set, preceded by the plain program when ``plain``."""
    from repro.fuzz.generator import build_kernel

    kernel = build_kernel(spec)
    if option_sets is None:
        label = f"corpus/{entry.name}" if entry else f"seed{spec.seed}"
        yield Subject(label, kernel, entry=entry)
        return
    if plain:
        yield Subject(f"seed{spec.seed}:plain", kernel, entry=entry)
    for name, options in option_sets:
        yield Subject(
            f"seed{spec.seed}:{name}", kernel, entry=entry,
            options_name=name, options=options,
        )


# -- compile-and-widen ---------------------------------------------------


def widened_launch(
    launch: LaunchConfig, result: CompileResult
) -> LaunchConfig:
    """A specialized program runs one warp group per pipeline stage."""
    return replace(launch, num_warps=launch.num_warps * result.num_stages)


def specialize(
    kernel: Kernel, options: WaspCompilerOptions
) -> tuple[CompileResult, LaunchConfig] | None:
    """Compile ``kernel`` under ``options``, with its widened launch.

    ``None`` when the compile fails or the compiler declines to
    stage-split the kernel: there is no specialized program to check.
    """
    from repro.core.compiler import WaspCompiler

    try:
        result = WaspCompiler(options).compile(
            kernel.program, num_warps=kernel.launch.num_warps
        )
    except ReproError:
        return None
    if not result.specialized:
        return None
    return result, widened_launch(kernel.launch, result)

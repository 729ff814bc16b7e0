"""W-level verifier findings surface in fuzz reports instead of being
dropped: per seed, per compiled variant, and into the ``repro fuzz``
summary."""

from __future__ import annotations

import pytest

from repro.analysis.diagnostics import Diagnostic
from repro.core.compiler import WaspCompiler
from repro.fuzz.oracle import OPTION_SETS, run_oracle
from repro.fuzz.runner import FuzzReport, run_fuzz
from repro.fuzz.spec import generate_spec


class _WarningCompiler(WaspCompiler):
    """Compiler whose specialized results carry a synthetic Q006.

    The generated corpus is too healthy to trip credit-pressure
    warnings naturally, so the surfacing path is exercised by
    injecting one at the only seam the oracle sees: the compile
    result's diagnostics list.
    """

    def compile(self, program, num_warps):
        result = super().compile(program, num_warps)
        if result.specialized:
            result.diagnostics = list(result.diagnostics) + [
                Diagnostic(
                    rule="WASP-Q006",
                    message="synthetic credit pressure",
                    kernel=program.name,
                    stage=0,
                )
            ]
        return result


@pytest.fixture
def warning_compiler(monkeypatch):
    monkeypatch.setattr(
        "repro.fuzz.oracle.WaspCompiler", _WarningCompiler
    )


def test_healthy_seeds_carry_no_warnings():
    report = run_oracle(generate_spec(0), metamorphic=False)
    assert report.passed
    assert report.warnings == []


def test_oracle_surfaces_warnings_per_variant(warning_compiler):
    spec = generate_spec(1)
    report = run_oracle(spec, metamorphic=False)
    assert report.passed, "warnings must not fail the oracle"
    assert {w.options_name for w in report.warnings} == set(
        report.specialized_under
    )
    for warning in report.warnings:
        assert warning.seed == spec.seed
        assert warning.rule == "WASP-Q006"
        assert warning.location


def test_fuzz_report_aggregates_warnings(warning_compiler):
    report = run_fuzz(seeds=2, jobs=1, shrink=False, metamorphic=False)
    assert report.passed
    assert len(report.warnings) == 2 * len(OPTION_SETS)
    assert report.warning_counts == {
        "WASP-Q006": 2 * len(OPTION_SETS)
    }
    doc = report.to_json()
    assert doc["warning_counts"] == report.warning_counts
    assert len(doc["warnings"]) == len(report.warnings)
    assert {w["rule"] for w in doc["warnings"]} == {"WASP-Q006"}
    text = "\n".join(report.summary_lines())
    assert "verifier warnings" in text
    assert "WASP-Q006" in text
    assert "seed=1" in text


def test_summary_lines_silent_without_warnings():
    report = FuzzReport(seeds_requested=1, seeds_run=1)
    assert all(
        "verifier warnings" not in line
        for line in report.summary_lines()
    )

"""The gate engine and the subcommand CLI built on it.

``repro.gates`` is shared by corediff, racediff, validate, lint and
the corpus replay: one subject enumerator, one report, one exit
policy.  These tests pin the engine's contract (counts, JSON schema,
exit codes, empty runs) and the CLI surface the subcommand parser
exposes, flag for flag.
"""

from __future__ import annotations

import argparse
import json
import re

import pytest

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport
from repro.analysis.lint import LintCheck
from repro.cli import _ARTIFACTS, build_parser, main
from repro.experiments.configs import standard_configs
from repro.experiments.runner import GLOBAL_CACHE
from repro.gates import (
    GATE_SCHEMA,
    GateReport,
    Verdict,
    depth_configs,
    registry_subjects,
    run_gate,
)


@pytest.fixture(autouse=True)
def _restore_cache_store():
    """CLI runs reconfigure the shared trace cache; put it back."""
    saved = GLOBAL_CACHE.store
    try:
        yield
    finally:
        GLOBAL_CACHE.store = saved


# -- the engine ----------------------------------------------------------


def _warning_report() -> DiagnosticReport:
    return DiagnosticReport([Diagnostic(rule="WASP-D003", message="w")])


def test_report_counts_and_exit_policy():
    report = GateReport(LintCheck(), [
        Verdict("a"),
        Verdict("b", skipped="no execution"),
        Verdict("c", report=_warning_report()),
    ])
    assert (report.num_ok, report.num_failed, report.num_skipped) == (3, 0, 1)
    assert report.num_warnings == 1 and report.num_errors == 0
    assert report.exit_code() == 0
    assert report.exit_code(strict=True) == 1
    report.verdicts.append(Verdict("d", ok=False, detail=["broken"]))
    assert report.exit_code() == 1
    text = report.to_text()
    assert "d: FAILED\n  broken" in text
    assert "a: ok" not in text
    assert "a: ok" in report.to_text(verbose=True)


def test_empty_run_fails_and_says_why():
    report = GateReport(LintCheck(), subjects=0)
    assert report.exit_code() == 1
    assert "nothing checked (no subjects to check)" in report.summary_line()
    report.subjects = 3
    assert "none of 3 subject(s) gave a verdict" in report.summary_line()


def test_json_report_schema():
    report = GateReport(LintCheck(), [
        Verdict("a", fields={"num_stages": 2}),
        Verdict("b", ok=False, report=_warning_report()),
    ], subjects=2)
    doc = json.loads(json.dumps(report.to_json()))
    assert doc["schema"] == GATE_SCHEMA
    assert doc["gate"] == "lint"
    assert (doc["num_subjects"], doc["num_verdicts"]) == (2, 2)
    assert (doc["num_ok"], doc["num_failed"]) == (1, 1)
    assert doc["verdicts"][0]["num_stages"] == 2
    assert doc["verdicts"][1]["diagnostics"][0]["rule"] == "WASP-D003"


def test_depth_configs_keep_depth_two_verbatim():
    configs = standard_configs()
    swept = depth_configs(configs, (2, 4))
    assert swept[:len(configs)] == configs
    deeper = swept[len(configs):]
    assert deeper and all(c.name.endswith("@d4") for c in deeper)
    assert all(c.compiler.pipeline_depth == 4 for c in deeper)
    assert len(deeper) == sum(1 for c in configs if c.compiler is not None)


def test_registry_subjects_cross_option_sets_and_depths():
    from repro.analysis.lint import standard_option_sets

    option_sets = standard_option_sets()[:2]
    subjects = list(registry_subjects(
        ["pointnet"], 0.125, option_sets=option_sets, depths=(2, 4),
    ))
    kernels = {s.kernel.name for s in subjects}
    assert len(subjects) == len(kernels) * 2 * 2
    first = subjects[0]
    assert first.label.endswith(f"[{option_sets[0][0]}]@depth2")
    assert first.options.pipeline_depth == 2
    assert subjects[1].options.pipeline_depth == 4


def test_run_gate_counts_subjects():
    report = run_gate(LintCheck(), registry_subjects(["pointnet"], 0.125))
    assert report.subjects == len(report.verdicts) > 0
    assert report.exit_code() == 0


# -- the CLI surface -------------------------------------------------------

_SWEEP_FLAGS = [
    "--benchmarks", "--cache-dir", "--clear-cache", "--help", "--jobs",
    "--metrics-out", "--metrics-prom", "--no-cache", "--profile",
    "--profile-json", "--scale", "--trace-out", "-h",
]
_DIFF_FLAGS = [
    "--cache-dir", "--clear-cache", "--corpus", "--corpus-dir", "--depths",
    "--help", "--json-out", "--metrics-out", "--metrics-prom", "--no-cache",
    "--registry", "--scale", "--seed-base", "--seeds", "-h",
]
#: Every subcommand's option strings, pinned so that no flag is added
#: to or dropped from a command by accident.
_FLAGS = {
    **{name: _SWEEP_FLAGS for name in [*_ARTIFACTS, "list", "all"]},
    "profile": [
        "--cache-dir", "--clear-cache", "--config", "--help", "--json-out",
        "--kernel", "--metrics-out", "--metrics-prom", "--no-cache",
        "--sanitize", "--scale", "--trace-capacity", "--trace-out", "-h",
    ],
    "lint": [
        "--all", "--corpus", "--corpus-dir", "--help", "--json-out",
        "--list-rules", "--sarif", "--scale", "--strict", "--verbose",
        "-h",
    ],
    "validate": [
        "--all", "--corpus", "--corpus-dir", "--depths", "--help",
        "--json-out", "--options", "--sarif", "--scale", "--verbose", "-h",
    ],
    "advise": [
        "--cache-dir", "--clear-cache", "--config", "--help", "--json-out",
        "--margin", "--metrics-out", "--metrics-prom", "--no-cache",
        "--no-simulate", "--scale", "-h",
    ],
    "fuzz": [
        "--corpus", "--corpus-dir", "--expect-failures", "--help",
        "--inject", "--jobs", "--json-out", "--metrics-out",
        "--metrics-prom", "--no-metamorphic", "--no-shrink",
        "--save-corpus", "--seed-base", "--seeds", "--time-budget", "-h",
    ],
    "corediff": _DIFF_FLAGS,
    "racediff": _DIFF_FLAGS,
    "metrics": [
        "--benchmarks", "--cache-dir", "--clear-cache", "--help", "--jobs",
        "--json-out", "--no-cache", "--prom-out", "--scale", "-h",
    ],
    "bench report": [
        "--baseline", "--current", "--dir", "--help", "--json-out",
        "--tolerance", "-h",
    ],
}


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    def children(parser):
        (action,) = [
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        return action.choices

    commands = dict(children(build_parser()))
    commands["bench report"] = children(commands.pop("bench"))["report"]
    return commands


def test_every_subcommand_keeps_its_flags():
    commands = _subcommands()
    assert sorted(commands) == sorted(_FLAGS)
    for name, parser in commands.items():
        flags = sorted(s for a in parser._actions for s in a.option_strings)
        assert flags == _FLAGS[name], name


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--help"])
    assert exc.value.code == 0
    assert "usage: repro" in capsys.readouterr().out


def test_list_renders_every_subcommand(capsys):
    assert main(["list"]) == 0
    listed = {
        line.split()[0] for line in capsys.readouterr().out.splitlines()
    }
    assert listed == set(_FLAGS) - {"bench report"} | {"bench"}


@pytest.mark.parametrize("command", ["racediff", "corediff", "validate"])
@pytest.mark.parametrize("depths", ["2,,4", "", "x", "1", "9", "2,4,2"])
def test_bad_depths_are_usage_errors(command, depths, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--depths", depths])
    assert exc.value.code == 2
    assert "--depths" in capsys.readouterr().err


def test_depths_parse_to_a_tuple():
    args = build_parser().parse_args(["validate", "--depths", "2,4,8"])
    assert args.depths == (2, 4, 8)


# -- one exit policy, one report schema, across the five gates ------------

_GATES = {
    "corediff": (["corediff"], r"corediff: (\d+)/(\d+) comparisons"),
    "racediff": (["racediff"], r"racediff: (\d+)/(\d+) comparisons"),
    "validate": (["validate"], r"transval: (\d+)/(\d+) compiles"),
    "lint": (["lint"], r"verifier: clean across ((\d+)) kernel"),
    "fuzz": (["fuzz"], r"corpus: (\d+)/(\d+) entries hold"),
}


@pytest.mark.parametrize("gate", sorted(_GATES))
def test_empty_corpus_exits_one(gate, tmp_path, capsys):
    argv, _ = _GATES[gate]
    empty = tmp_path / "corpus"
    empty.mkdir()
    assert main([*argv, "--corpus", "--corpus-dir", str(empty)]) == 1
    assert "nothing checked (no subjects to check)" in (
        capsys.readouterr().out
    )


@pytest.mark.parametrize("gate,extra", [
    ("corediff", ["--seeds", "1", "--no-cache"]),
    ("racediff", ["--seeds", "1", "--no-cache"]),
    ("validate", ["pointnet", "--depths", "2,4"]),
    ("lint", ["pointnet"]),
    ("fuzz", ["--corpus"]),
])
def test_json_out_matches_the_text_summary(gate, extra, tmp_path, capsys):
    argv, pattern = _GATES[gate]
    out = tmp_path / "report.json"
    assert main([*argv, *extra, "--json-out", str(out)]) == 0
    match = re.search(pattern, capsys.readouterr().out)
    assert match, gate
    doc = json.loads(out.read_text())
    assert doc["schema"] == GATE_SCHEMA
    assert doc["num_verdicts"] == len(doc["verdicts"]) > 0
    assert (doc["num_ok"], doc["num_verdicts"]) == tuple(
        int(g) for g in match.groups()
    )
    assert re.search(pattern, doc["summary"])

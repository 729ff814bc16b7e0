"""The differential oracle: catches nothing on a healthy compiler and
catches injected corruptions, cross-checked against the verifier."""

from __future__ import annotations

import pytest

from repro.fuzz.oracle import OPTION_SETS, FuzzFailure, run_oracle
from repro.fuzz.spec import generate_spec


@pytest.mark.parametrize("seed", list(range(10)))
def test_healthy_compiler_passes(seed):
    report = run_oracle(generate_spec(seed), metamorphic=False)
    assert report.passed, [f.summary() for f in report.failures]
    # Every option set both compiles and specializes these kernels.
    assert set(report.specialized_under) == {n for n, _o in OPTION_SETS}


def test_failures_cross_checked_against_verifier():
    report = run_oracle(
        generate_spec(3), metamorphic=False, inject="drop-push",
    )
    assert report.failures
    assert any(f.verifier_rules for f in report.failures), (
        "the static verifier saw nothing wrong with a program whose "
        "queue push was dropped"
    )


def test_failure_json_round_trip():
    report = run_oracle(
        generate_spec(3), metamorphic=False, inject="drop-push",
    )
    for failure in report.failures:
        back = FuzzFailure.from_json(failure.to_json())
        assert back.seed == failure.seed
        assert back.spec == failure.spec
        assert back.check == failure.check
        assert back.options_name == failure.options_name
        assert back.verifier_rules == failure.verifier_rules
        assert back.minimized == failure.minimized


def test_summary_mentions_check_and_seed():
    failure = FuzzFailure(
        seed=7, spec=generate_spec(7), check="memory-divergence",
        message="3 words differ", options_name="full",
    )
    text = failure.summary()
    assert "memory-divergence" in text
    assert "seed=7" in text
    assert "full" in text

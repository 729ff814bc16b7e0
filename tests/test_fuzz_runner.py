"""The fuzz fan-out: jobs-determinism, REPRO_JOBS, time budget, and
the ``repro fuzz`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.fuzz.runner import FuzzReport, run_fuzz

SEEDS = 8


def _comparable(report: FuzzReport) -> dict:
    doc = report.to_json()
    # Timing and parallelism legitimately vary between otherwise-
    # identical runs; everything else must match exactly.
    del doc["wall_seconds"]
    del doc["jobs"]
    return doc


def test_jobs_one_and_many_agree():
    serial = run_fuzz(seeds=SEEDS, jobs=1, shrink=False)
    parallel = run_fuzz(seeds=SEEDS, jobs=3, shrink=False)
    assert serial.seeds_run == parallel.seeds_run == SEEDS
    assert serial.passed
    assert _comparable(serial) == _comparable(parallel)


def test_jobs_agree_on_injected_failures():
    serial = run_fuzz(seeds=4, jobs=1, shrink=False, inject="drop-push",
                      metamorphic=False)
    parallel = run_fuzz(seeds=4, jobs=2, shrink=False, inject="drop-push",
                        metamorphic=False)
    assert serial.failures and _comparable(serial) == _comparable(parallel)


def test_repro_jobs_env_is_honored(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    report = run_fuzz(seeds=2, shrink=False, metamorphic=False)
    assert report.jobs == 2


def test_time_budget_stops_early():
    report = run_fuzz(seeds=50, jobs=1, shrink=False, metamorphic=False,
                      time_budget=0.0)
    assert report.budget_exhausted
    assert report.seeds_run < 50


def test_failures_can_persist_to_corpus(tmp_path):
    report = run_fuzz(
        seeds=1, jobs=1, shrink=False, inject="drop-push",
        metamorphic=False, save_corpus=True, corpus_dir=tmp_path,
    )
    assert report.failures
    assert report.corpus_paths
    assert list(tmp_path.glob("*.json"))


def test_report_json_shape():
    doc = run_fuzz(seeds=2, jobs=1, shrink=False,
                   metamorphic=False).to_json()
    assert doc["seeds_requested"] == 2
    assert doc["passed"] is True
    assert set(doc["skeleton_counts"]) <= {
        "streaming", "gather", "tiled", "reduction", "mixed"
    }
    json.dumps(doc)  # must be JSON-clean


def test_summary_lines_mention_failures():
    report = run_fuzz(seeds=1, jobs=1, shrink=False, inject="drop-push",
                      metamorphic=False)
    text = "\n".join(report.summary_lines())
    assert "FAILURES" in text


class TestCli:
    def test_fuzz_clean_run_exits_zero(self, capsys):
        rc = main(["fuzz", "--seeds", "2", "--no-metamorphic"])
        assert rc == 0
        assert "no failures" in capsys.readouterr().out

    def test_fuzz_inject_expect_failures(self, capsys):
        rc = main(["fuzz", "--seeds", "2", "--no-metamorphic",
                   "--no-shrink", "--inject", "drop-push",
                   "--expect-failures"])
        assert rc == 0
        assert "caught the injected bug" in capsys.readouterr().out

    def test_fuzz_expect_failures_needs_a_seed_to_run(self, capsys):
        rc = main(["fuzz", "--seeds", "0", "--inject", "drop-push",
                   "--expect-failures"])
        assert rc == 1
        assert "no seed ran" in capsys.readouterr().out

    def test_fuzz_expect_failures_names_a_mutation_without_sites(
        self, tmp_path, capsys
    ):
        # Seeds 0-3 have no barrier arrive for drop-arrive to remove.
        out = tmp_path / "fuzz.json"
        rc = main(["fuzz", "--seeds", "4", "--no-metamorphic",
                   "--no-shrink", "--inject", "drop-arrive",
                   "--expect-failures", "--json-out", str(out)])
        assert rc == 1
        assert "no site for drop-arrive" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["seeds_run"] == 4 and doc["injected"] == 0

    def test_fuzz_inject_without_expect_exits_nonzero(self):
        rc = main(["fuzz", "--seeds", "2", "--no-metamorphic",
                   "--no-shrink", "--inject", "drop-push"])
        assert rc == 1

    def test_fuzz_unknown_mutation_rejected(self):
        with pytest.raises(SystemExit):
            main(["fuzz", "--seeds", "1", "--inject", "nope"])

    def test_fuzz_json_out(self, tmp_path):
        out = tmp_path / "fuzz.json"
        rc = main(["fuzz", "--seeds", "2", "--no-metamorphic",
                   "--json-out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["seeds_run"] == 2

    def test_fuzz_corpus_replay(self, capsys):
        rc = main(["fuzz", "--corpus"])
        assert rc == 0
        assert "entries hold" in capsys.readouterr().out

"""The failure corpus: every past fuzz failure, forever a regression test.

Layout (``tests/corpus/``)::

    tests/corpus/
        README.md
        <check>-seed<seed>[-<inject>].json     one entry per failure

Each entry is the JSON of a :class:`repro.fuzz.oracle.FuzzFailure`
(minimized spec included when the shrinker ran) plus replay metadata:
the injected mutation, if any, and what the entry *expects* — a clean
pass after the underlying bug was fixed, or a caught failure for
injected corruptions.  ``tests/test_fuzz_corpus.py`` replays every
entry on each test run, and CI's fuzz gate replays them on every PR.

Entries are deliberately tiny, human-readable JSON so a failing seed
can be committed with the fix that resolves it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.fuzz.oracle import FuzzFailure
from repro.fuzz.spec import FuzzSpec
from repro.gates import GateReport, Subject, Verdict

#: Format version for corpus entries.
CORPUS_VERSION = 1


def default_corpus_dir() -> Path:
    """``tests/corpus/`` at the repository root."""
    return Path(__file__).resolve().parents[3] / "tests" / "corpus"


@dataclass
class CorpusEntry:
    """One persisted failure, replayable forever.

    ``expect`` is what replaying the spec should produce today:

    * ``"pass"`` — the bug that produced this failure is fixed; the
      spec must run the full oracle cleanly (the regression test).
    * ``"fail:<check>"`` — the entry encodes an *injected* corruption
      (``inject`` is set); replay must still catch exactly that check.
    """

    spec: FuzzSpec
    check: str
    expect: str
    inject: str | None = None
    note: str = ""
    verifier_rules: list[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        suffix = f"-{self.inject}" if self.inject else ""
        return f"{self.check}-seed{self.spec.seed}{suffix}"

    def to_json(self) -> dict[str, Any]:
        return {
            "version": CORPUS_VERSION,
            "spec": self.spec.to_json(),
            "check": self.check,
            "expect": self.expect,
            "inject": self.inject,
            "note": self.note,
            "verifier_rules": list(self.verifier_rules),
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "CorpusEntry":
        return cls(
            spec=FuzzSpec.from_json(doc["spec"]),
            check=doc["check"],
            expect=doc["expect"],
            inject=doc.get("inject"),
            note=doc.get("note", ""),
            verifier_rules=list(doc.get("verifier_rules", [])),
        )

    def save(self, corpus_dir: Path | None = None) -> Path:
        directory = corpus_dir or default_corpus_dir()
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.name}.json"
        path.write_text(
            json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"
        )
        return path


def save_failure(
    failure: FuzzFailure,
    corpus_dir: Path | None = None,
    inject: str | None = None,
) -> Path:
    """Persist an oracle failure as a corpus entry.

    A genuine failure expects ``pass`` once fixed; an injected one is a
    permanent detector self-test expecting ``fail:<check>``.
    """
    entry = CorpusEntry(
        spec=failure.minimized or failure.spec,
        check=failure.check,
        expect=f"fail:{failure.check}" if inject else "pass",
        inject=inject,
        note=failure.message[:200],
        verifier_rules=list(failure.verifier_rules),
    )
    return entry.save(corpus_dir)


def load_corpus(corpus_dir: Path | None = None) -> list[CorpusEntry]:
    """All committed entries, in deterministic (sorted-name) order."""
    directory = corpus_dir or default_corpus_dir()
    if not directory.is_dir():
        return []
    entries = []
    for path in sorted(directory.glob("*.json")):
        entries.append(CorpusEntry.from_json(json.loads(path.read_text())))
    return entries


def replay_entry(entry: CorpusEntry) -> list[FuzzFailure]:
    """Run the oracle for an entry; returns surviving failures.

    An ``expect == "pass"`` entry replays clean iff the list is empty;
    a ``fail:<check>`` entry is satisfied iff some failure matches the
    expected check.  Callers (tests, the CI gate) make the assertion so
    failure messages point at the entry file.
    """
    from repro.fuzz.oracle import run_oracle

    return run_oracle(entry.spec, inject=entry.inject).failures


class ReplayCheck:
    """``repro fuzz --corpus``: every entry against its expectation."""

    name = "corpus"

    def run(self, subject: Subject) -> list[Verdict]:
        entry = subject.entry
        assert entry is not None
        failures = replay_entry(entry)
        if entry.expect == "pass":
            detail = [f.summary() for f in failures]
        else:
            want = entry.expect.split(":", 1)[1]
            got = sorted({f.check for f in failures})
            detail = [] if want in got else [
                f"expected a {want} failure, got {', '.join(got) or 'a pass'}"
            ]
        return [Verdict(
            entry.name, ok=not detail, detail=detail,
            fields={"failures": [f.to_json() for f in failures]},
        )]

    def summary(self, report: GateReport) -> str:
        return (
            f"corpus: {report.num_ok}/{len(report.verdicts)} entries hold "
            f"({report.wall_s:.1f}s)"
        )

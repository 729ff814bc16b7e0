"""The ``repro fuzz`` fan-out.

Seeds are independent oracle tasks, fanned out over the same process
pool discipline as the experiment sweeps (:mod:`repro.experiments.
parallel`): job count comes from ``--jobs``, else ``REPRO_JOBS``, else
1; every seed is checked afresh (nothing is cached between runs); and
results are assembled **by seed**, so ``--jobs N`` reports exactly what
``--jobs 1`` reports.

Failing seeds are shrunk in the parent (serial — shrinking is a
search, not a map) and optionally persisted to the corpus.  An
optional wall-clock budget makes the nightly CI job time-boxed: seeds
are processed in order and the run stops cleanly once the budget is
spent, reporting how many seeds it actually covered.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.experiments.parallel import _tel_before, _tel_delta, resolve_jobs
from repro.telemetry.registry import TELEMETRY
from repro.fuzz.oracle import (
    FuzzFailure,
    FuzzWarning,
    OracleReport,
    run_oracle,
)
from repro.fuzz.shrink import shrink_spec
from repro.fuzz.spec import generate_spec


@dataclass(frozen=True)
class FuzzTask:
    """One seed's oracle run; plain data so it can cross processes."""

    seed: int
    metamorphic: bool = True
    inject: str | None = None


@dataclass
class FuzzReport:
    """Everything one fuzz run learned."""

    seeds_requested: int = 0
    seeds_run: int = 0
    #: Compiled variants an ``inject`` mutation found a site in.
    injected: int = 0
    jobs: int = 1
    wall_seconds: float = 0.0
    budget_exhausted: bool = False
    #: Compiler option-set name -> number of seeds it specialized.
    specialized_counts: dict[str, int] = field(default_factory=dict)
    skeleton_counts: dict[str, int] = field(default_factory=dict)
    failures: list[FuzzFailure] = field(default_factory=list)
    #: W-level verifier findings on passing seeds (per seed, per
    #: compiled variant) — surfaced, not swallowed; never fail the run.
    warnings: list[FuzzWarning] = field(default_factory=list)
    corpus_paths: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.seeds_run > 0 and not self.failures

    @property
    def warning_counts(self) -> dict[str, int]:
        """Verifier rule id -> number of (seed, variant) hits."""
        counts: dict[str, int] = {}
        for warning in self.warnings:
            counts[warning.rule] = counts.get(warning.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_json(self) -> dict[str, Any]:
        return {
            "seeds_requested": self.seeds_requested,
            "seeds_run": self.seeds_run,
            "injected": self.injected,
            "jobs": self.jobs,
            "wall_seconds": round(self.wall_seconds, 3),
            "budget_exhausted": self.budget_exhausted,
            "specialized_counts": dict(
                sorted(self.specialized_counts.items())
            ),
            "skeleton_counts": dict(sorted(self.skeleton_counts.items())),
            "failures": [f.to_json() for f in self.failures],
            "warnings": [w.to_json() for w in self.warnings],
            "warning_counts": self.warning_counts,
            "corpus_paths": list(self.corpus_paths),
            "passed": self.passed,
        }

    def summary_lines(self) -> list[str]:
        lines = [
            f"fuzz: {self.seeds_run}/{self.seeds_requested} seeds "
            f"(jobs={self.jobs}, {self.wall_seconds:.1f}s"
            + (", budget exhausted" if self.budget_exhausted else "")
            + ")",
            "  skeletons: " + ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.skeleton_counts.items())
            ),
            "  specialized under: " + (", ".join(
                f"{name}={count}"
                for name, count in sorted(self.specialized_counts.items())
            ) or "none"),
        ]
        if self.warnings:
            lines.append(
                "  verifier warnings: " + ", ".join(
                    f"{rule}={count}"
                    for rule, count in self.warning_counts.items()
                )
            )
            lines.extend("    " + w.summary() for w in self.warnings)
        if self.failures:
            lines.append(f"  FAILURES ({len(self.failures)}):")
            lines.extend("    " + f.summary() for f in self.failures)
        else:
            lines.append("  no failures")
        return lines


def _worker_init(telemetry: bool) -> None:
    if telemetry:
        TELEMETRY.enable()


def _run_fuzz_task(task: FuzzTask):
    tel_before = _tel_before()
    report = run_oracle(
        generate_spec(task.seed),
        metamorphic=task.metamorphic,
        inject=task.inject,
    )
    return task.seed, report, _tel_delta(tel_before)


def run_fuzz(
    seeds: int = 100,
    seed_base: int = 0,
    jobs: int | None = None,
    shrink: bool = True,
    inject: str | None = None,
    metamorphic: bool = True,
    time_budget: float | None = None,
    save_corpus: bool = False,
    corpus_dir: Path | None = None,
) -> FuzzReport:
    """Fuzz seeds ``seed_base .. seed_base + seeds - 1``.

    ``inject`` corrupts every specialized program with the named
    mutation — the expected outcome is then *failures on every seed
    that specializes*, which is how CI proves the oracle detects real
    stage-split bugs.  ``time_budget`` (seconds) stops dispatching new
    seeds once exceeded; already-running seeds finish and are counted.
    """
    jobs = resolve_jobs(jobs)
    tasks = [
        FuzzTask(
            seed=seed_base + i,
            metamorphic=metamorphic,
            inject=inject,
        )
        for i in range(seeds)
    ]
    report = FuzzReport(
        seeds_requested=seeds, jobs=jobs,
    )
    start = time.perf_counter()
    results: dict[int, OracleReport] = {}

    def out_of_time() -> bool:
        return (
            time_budget is not None
            and time.perf_counter() - start > time_budget
        )

    if jobs == 1:
        for task in tasks:
            if out_of_time():
                report.budget_exhausted = True
                break
            seed, oracle, _ = _run_fuzz_task(task)
            results[seed] = oracle
    else:
        with ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_worker_init,
            initargs=(TELEMETRY.enabled,),
        ) as pool:
            pending = {pool.submit(_run_fuzz_task, t) for t in tasks}
            try:
                while pending:
                    done, pending = wait(
                        pending, timeout=0.5,
                        return_when=FIRST_COMPLETED,
                    )
                    for future in done:
                        seed, oracle, tel = future.result()
                        results[seed] = oracle
                        if tel is not None:
                            TELEMETRY.merge_snapshot(tel)
                    if out_of_time() and pending:
                        report.budget_exhausted = True
                        break
            finally:
                for future in pending:
                    future.cancel()

    # Assemble by seed so the report is independent of completion order.
    for seed in sorted(results):
        oracle = results[seed]
        report.seeds_run += 1
        report.injected += oracle.injected
        skeleton = oracle.spec.skeleton
        report.skeleton_counts[skeleton] = (
            report.skeleton_counts.get(skeleton, 0) + 1
        )
        for name in oracle.specialized_under:
            report.specialized_counts[name] = (
                report.specialized_counts.get(name, 0) + 1
            )
        report.failures.extend(oracle.failures)
        report.warnings.extend(oracle.warnings)

    if shrink:
        for failure in report.failures:
            minimized = shrink_spec(
                failure.spec, failure.check, inject=inject,
            )
            if minimized != failure.spec:
                failure.minimized = minimized

    if save_corpus and report.failures:
        from repro.fuzz.corpus import save_failure

        seen: set[str] = set()
        for failure in report.failures:
            path = save_failure(failure, corpus_dir=corpus_dir,
                                inject=inject)
            if str(path) not in seen:
                seen.add(str(path))
                report.corpus_paths.append(str(path))

    report.wall_seconds = time.perf_counter() - start
    _harvest_fuzz(report)
    return report


def _harvest_fuzz(report: FuzzReport) -> None:
    """Fold fuzz pool statistics into the registry.

    Seed counts depend on the wall-clock budget, so every series here
    is ``invariant=False``.
    """
    if not TELEMETRY.enabled:
        return
    TELEMETRY.counter(
        "repro_pool_tasks_total", {"phase": "fuzz"},
        help="Sweep tasks completed by phase", invariant=False,
    ).inc(report.seeds_run)
    TELEMETRY.counter(
        "repro_pool_worker_seconds_total", {"phase": "fuzz"},
        help="Wall-clock seconds spent inside sweep tasks",
        invariant=False,
    ).inc(report.wall_seconds)
    TELEMETRY.gauge(
        "repro_pool_jobs", help="Worker processes of the last sweep",
    ).set_max(report.jobs)

"""Command-line interface: regenerate any paper artifact from the shell.

Examples::

    python -m repro list
    python -m repro fig14 --scale 0.5 --jobs 4
    python -m repro table2 --benchmarks pointnet lonestar_bfs
    python -m repro fig18 --scale 0.25 --no-cache
    python -m repro profile gemm --trace-out trace.json
    python -m repro fig14 --profile --trace-out fig14.json
    python -m repro lint --all --json-out lint.json
    python -m repro lint pointnet bert
    python -m repro validate --all --options standard --depths 2,4,8
    python -m repro validate --corpus
    python -m repro fuzz --seeds 200 --jobs 4
    python -m repro fuzz --seeds 50 --inject drop-push --expect-failures
    python -m repro fuzz --corpus
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

_ARTIFACTS = {
    "table2": "Table II — median/max kernel speedups",
    "fig3": "Figure 3 — pointnet utilization timeline",
    "fig14": "Figure 14 — overall speedup (4 configurations)",
    "fig15": "Figure 15 — progressive WASP hardware features",
    "fig16": "Figure 16 — register footprint",
    "fig17": "Figure 17 — scheduling policies",
    "fig18": "Figure 18 — RFQ size sweep",
    "fig19": "Figure 19 — dynamic instruction breakdown",
    "fig20": "Figure 20 — bandwidth sensitivity",
    "fig21": "Figure 21 — L2 utilization",
    "table4": "Table IV — WASP area overhead",
}


# -- the parser ----------------------------------------------------------


def _depths(text: str) -> tuple[int, ...]:
    """``--depths``: distinct ring depths within 2..MAX_PIPELINE_DEPTH."""
    from repro.core.compiler.buffering import MAX_PIPELINE_DEPTH

    try:
        depths = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    outside = [d for d in depths if not 2 <= d <= MAX_PIPELINE_DEPTH]
    if outside:
        raise argparse.ArgumentTypeError(
            f"depth(s) {outside} outside 2..{MAX_PIPELINE_DEPTH}"
        )
    if len(set(depths)) != len(depths):
        raise argparse.ArgumentTypeError(f"duplicate depth in {text!r}")
    return depths


def _shared(
    *,
    cache: bool = False,
    telemetry: bool = False,
    json_out: bool = False,
    scale: bool = False,
    jobs: bool = False,
    benchmarks: bool = False,
    trace: bool = False,
    config: bool = False,
    corpus: bool = False,
    depths: bool = False,
    seeds: bool = False,
    selection: bool = False,
    names: str | None = None,
) -> argparse.ArgumentParser:
    """A parent parser holding the chosen shared flags.

    Every flag that unrelated subcommands share is declared here, once;
    a flag of one command, or of one family built from a single parent
    (the artifacts, corediff/racediff), is declared where that parent
    is built.  argparse shares a parent's actions with all its
    children, so a subcommand that needs another default gets a parent
    of its own and calls ``set_defaults`` on it.
    """
    group = argparse.ArgumentParser(add_help=False)
    if names is not None:
        group.add_argument(
            "benchmarks", nargs=names, help="registered benchmark name(s)"
        )
    if selection:
        group.add_argument(
            "--all", action="store_true",
            help="every registered benchmark (explicit form of the "
                 "no-argument default, for scripts)",
        )
        group.add_argument(
            "--sarif", default=None, metavar="PATH",
            help="also write the findings as a SARIF 2.1.0 log (GitHub "
                 "code scanning / IDE SARIF viewers)",
        )
        group.add_argument(
            "--verbose", action="store_true",
            help="also list the kernels that passed",
        )
    if benchmarks:
        group.add_argument(
            "--benchmarks", nargs="*", default=None,
            help="benchmark subset to sweep (default: %(default)s, "
                 "where None means all twenty)",
        )
    if config:
        group.add_argument(
            "--config", default="WASP_GPU",
            help="evaluation configuration name (default: WASP_GPU)",
        )
    if corpus:
        group.add_argument(
            "--corpus", action="store_true",
            help="use the committed fuzz corpus (tests/corpus/); "
                 "corediff/racediff take corpus and registry when "
                 "neither --corpus nor --registry is given",
        )
        group.add_argument(
            "--corpus-dir", type=Path, default=None, metavar="DIR",
            help="corpus directory (default: tests/corpus/)",
        )
    if seeds:
        group.add_argument(
            "--seeds", type=int, default=0, metavar="N",
            help="number of fresh fuzz seeds (default %(default)s)",
        )
        group.add_argument(
            "--seed-base", type=int, default=0, metavar="B",
            help="first seed; the run covers B .. B+N-1 (default 0)",
        )
    if scale:
        group.add_argument(
            "--scale", type=float, default=0.25,
            help="workload scale factor (1.0 = full size; default "
                 "%(default)s)",
        )
    if depths:
        group.add_argument(
            "--depths", type=_depths, default=(2,), metavar="D[,D...]",
            help="comma-separated circular-buffer ring depths (default "
                 "2; CI sweeps 2,4,8; deeper rings re-derive every "
                 "compiler-enabled config)",
        )
    if jobs:
        group.add_argument(
            "--jobs", type=int, default=None,
            help="worker processes (default: REPRO_JOBS or 1); results "
                 "are identical for any value",
        )
    if trace:
        group.add_argument(
            "--trace-out", default=None, metavar="PATH",
            help="write a Chrome trace_event JSON loadable in "
                 "https://ui.perfetto.dev (artifact commands trace the "
                 "sweep's first benchmark under WASP_GPU)",
        )
    if json_out:
        group.add_argument(
            "--json-out", default=None, metavar="PATH",
            help="write the command's report as machine-readable JSON",
        )
    if telemetry:
        group.add_argument(
            "--metrics-out", default=None, metavar="PATH",
            help="enable telemetry and write a repro-metrics-v1 JSON "
                 "snapshot of the run",
        )
        group.add_argument(
            "--metrics-prom", default=None, metavar="PATH",
            help="also write the metrics snapshot in Prometheus text "
                 "exposition format",
        )
    if cache:
        group.add_argument(
            "--cache-dir", default=None,
            help="trace cache directory (default: REPRO_CACHE_DIR or "
                 ".repro_cache)",
        )
        group.add_argument(
            "--no-cache", action="store_true",
            help="disable the persistent on-disk trace cache",
        )
        group.add_argument(
            "--clear-cache", action="store_true",
            help="delete all persisted trace cache entries before running",
        )
    return group


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser: one subcommand per artifact and tool.

    Each subcommand's ``--help`` description is its run function's
    docstring; ``repro list`` prints the one-line helps.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WASP (HPCA 2024) reproduction: regenerate paper "
                    "tables and figures.",
    )
    commands = parser.add_subparsers(
        dest="command", required=True, metavar="COMMAND",
        help="'repro list' describes them all",
    )

    def command(name, help, run, parent, description=None):
        sub = commands.add_parser(
            name, help=help, description=description or run.__doc__,
            parents=[parent],
        )
        sub.set_defaults(run=run)
        return sub

    sweep = _shared(
        scale=True, benchmarks=True, jobs=True, trace=True, telemetry=True,
        cache=True,
    )
    sweep.set_defaults(scale=0.5)
    sweep.add_argument(
        "--profile", action="store_true",
        help="print the sweep's aggregate stall-cause breakdown",
    )
    sweep.add_argument(
        "--profile-json", default=None, metavar="PATH",
        help="write the sweep's stall/cache statistics as JSON",
    )
    for name, text in sorted(_ARTIFACTS.items()):
        command(name, text, _run_artifact, sweep, description=text)
    command("list", "describe every command", _run_list, sweep)
    command("all", "regenerate every artifact", _run_all, sweep)

    profile = command(
        "profile", "pipeline profiler", _run_profile, _shared(
            config=True, scale=True, trace=True, json_out=True,
            telemetry=True, cache=True,
        ),
    )
    profile.add_argument(
        "benchmark",
        help="registered benchmark name (e.g. pointnet, gemm, spmv1_g3)",
    )
    profile.add_argument(
        "--kernel", default=None,
        help="kernel within the benchmark (default: every kernel)",
    )
    profile.add_argument(
        "--trace-capacity", type=int, default=None,
        help="event ring-buffer size (oldest events drop beyond this)",
    )
    profile.add_argument(
        "--sanitize", action="store_true",
        help="also run the vector-clock SMEM race sanitizer over each "
             "kernel's functional execution and report observed races",
    )

    lint = command(
        "lint", "static pipeline verifier", _run_lint, _shared(
            names="*", selection=True, scale=True, json_out=True,
            corpus=True,
        ),
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on warnings too, not only on errors",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the WASP-C/Q/D/S/R/T rule catalogue (id, severity, "
             "description) and exit without linting anything",
    )

    validate = command(
        "validate", "translation validation certificates", _run_validate,
        _shared(
            names="*", selection=True, scale=True, depths=True,
            corpus=True, json_out=True,
        ),
    )
    validate.add_argument(
        "--options", default="full", metavar="SET[,SET...]",
        help="comma-separated compiler option sets to cross with "
             "--depths: sw-queues, full, two-stage, tiny-queues, or "
             "'standard' for all four (default: full)",
    )

    advise = command(
        "advise", "analytical pipeline advisor", _run_advise, _shared(
            names="+", config=True, scale=True, json_out=True,
            telemetry=True, cache=True,
        ),
    )
    advise.add_argument(
        "--margin", type=float, default=None,
        help="minimum predicted relative gain before suggesting a "
             "non-default configuration (default: the calibrated "
             "SUGGESTION_MARGIN)",
    )
    advise.add_argument(
        "--no-simulate", action="store_true",
        help="skip the per-kernel calibration simulation (pure static "
             "mode; rows carry no predicted-vs-simulated error)",
    )

    fuzz_flags = _shared(
        seeds=True, jobs=True, corpus=True, json_out=True, telemetry=True,
    )
    fuzz_flags.set_defaults(seeds=100)
    fuzz = command(
        "fuzz", "differential fuzzing harness", _run_fuzz, fuzz_flags
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="report failures without minimizing them first",
    )
    fuzz.add_argument(
        "--no-metamorphic", action="store_true",
        help="skip the simulator timing invariants (differential "
             "functional oracle only)",
    )
    fuzz.add_argument(
        "--inject", default=None, metavar="MUTATION",
        help="corrupt every specialized program with a named mutation "
             "(drop-pop, drop-push, arrive-to-wait) — the oracle "
             "self-test; combine with --expect-failures",
    )
    fuzz.add_argument(
        "--expect-failures", action="store_true",
        help="invert the exit code: succeed only when failures were "
             "caught",
    )
    fuzz.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop dispatching new seeds after this much wall-clock time",
    )
    fuzz.add_argument(
        "--save-corpus", action="store_true",
        help="persist (minimized) failures as corpus entries",
    )

    diff = _shared(
        corpus=True, seeds=True, scale=True, depths=True, json_out=True,
        telemetry=True, cache=True,
    )
    diff.add_argument(
        "--registry", action="store_true",
        help="diff every registry kernel under the standard evaluation "
             "configs",
    )
    command("corediff", "reference-vs-event core differential",
            _run_corediff, diff)
    command("racediff", "sanitizer-vs-static race differential",
            _run_racediff, diff)

    metrics_flags = _shared(
        benchmarks=True, scale=True, jobs=True, json_out=True, cache=True
    )
    metrics_flags.set_defaults(benchmarks=["pointnet"])
    metrics = command(
        "metrics", "telemetry snapshot smoke run", _run_metrics,
        metrics_flags,
    )
    metrics.add_argument(
        "--prom-out", default=None, metavar="PATH",
        help="write the Prometheus text exposition here",
    )

    bench = commands.add_parser(
        "bench", help="perf-trajectory dashboard",
        description="Perf-trajectory dashboard (see 'repro bench report').",
    )
    report = bench.add_subparsers(
        dest="bench_command", required=True, metavar="report",
    ).add_parser(
        "report", parents=[_shared(json_out=True)],
        description=_run_bench_report.__doc__,
    )
    report.set_defaults(run=_run_bench_report)
    report.add_argument(
        "--dir", default=".", metavar="DIR",
        help="directory holding the BENCH_*.json files (default: .)",
    )
    report.add_argument(
        "--current", default=None, metavar="PATH",
        help="a freshly measured perf-harness document to diff against "
             "the committed baseline",
    )
    report.add_argument(
        "--baseline", default="BENCH_core", metavar="STEM",
        help="committed file to diff against (default: BENCH_core)",
    )
    report.add_argument(
        "--tolerance", type=float, default=0.2,
        help="normalized regression threshold (default 0.2 = 20%%)",
    )
    return parser


# -- shared plumbing -----------------------------------------------------


def _configure_cache(args: argparse.Namespace) -> None:
    if not hasattr(args, "cache_dir"):
        return
    from repro.experiments.runner import configure_global_cache
    from repro.fexec.trace_store import TraceStore

    if args.clear_cache:
        store = TraceStore(args.cache_dir)
        removed = store.clear()
        print(
            f"[cleared {removed} cached trace entries from "
            f"{store.cache_dir}]"
        )
    configure_global_cache(
        cache_dir=args.cache_dir, enabled=not args.no_cache
    )


def _metrics_requested(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "metrics_out", None)
        or getattr(args, "metrics_prom", None)
    )


def _enable_metrics(args: argparse.Namespace) -> None:
    """Turn the registry on before any instrumented work runs."""
    if _metrics_requested(args):
        from repro.telemetry.registry import TELEMETRY

        TELEMETRY.enable()


def _write_metrics(args: argparse.Namespace) -> None:
    """Emit the end-of-run snapshot for ``--metrics-out`` flags."""
    if _metrics_requested(args):
        _write_snapshot(args.command, args.metrics_out, args.metrics_prom)


def _write_snapshot(
    command: str, json_path: str | None, prom_path: str | None
) -> dict:
    """Write the telemetry snapshot as JSON and/or Prometheus text."""
    from repro.telemetry.registry import TELEMETRY
    from repro.telemetry.snapshot import (
        build_metrics_document,
        write_metrics_outputs,
    )
    from repro.telemetry.spans import SPANS

    doc = build_metrics_document(
        TELEMETRY.snapshot(), command=command, spans=SPANS
    )
    write_metrics_outputs(doc, json_path, prom_path)
    if json_path:
        print(f"[wrote {len(doc['metrics'])} metric series to "
              f"{json_path}]")
    if prom_path:
        print(f"[wrote Prometheus metrics to {prom_path}]")
    return doc


def _dump_json(path: str, doc: object, what: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
    print(f"[wrote {what} to {path}]")


def _known(names: list[str]) -> list[str]:
    """``names``, or exit naming the ones the registry does not know."""
    from repro.workloads.registry import all_benchmarks

    known = set(all_benchmarks())
    unknown = [n for n in names if n not in known]
    if unknown:
        raise SystemExit(
            f"unknown benchmark(s) {unknown}; choose from: "
            + ", ".join(sorted(known))
        )
    return names


def _selected(args: argparse.Namespace) -> list[str] | None:
    """The benchmarks lint/validate run on; ``None`` means all."""
    if args.all or not args.benchmarks:
        return None
    return _known(args.benchmarks)


def _named_config(name: str):
    from repro.experiments.configs import standard_configs

    for config in standard_configs():
        if config.name == name:
            return config
    names = ", ".join(c.name for c in standard_configs())
    raise SystemExit(f"unknown config {name!r}; choose from: {names}")


# -- trust gates ---------------------------------------------------------


def _gate(args: argparse.Namespace, check, subjects,
          strict: bool = False) -> int:
    """Run one gate, print and write its report, return its exit code."""
    from repro.gates import run_gate

    report = run_gate(check, subjects)
    print(report.to_text(verbose=getattr(args, "verbose", False)))
    if args.json_out:
        _dump_json(args.json_out, report.to_json(), f"{check.name} JSON")
    if getattr(args, "sarif", None):
        _dump_json(args.sarif, report.to_sarif(), "SARIF log")
    return report.exit_code(strict)


def _diff_subjects(args: argparse.Namespace, plain: bool,
                   clean_only: bool):
    """corediff/racediff subjects: corpus, then seeds, then registry.

    With none of ``--corpus``, ``--registry`` and ``--seeds`` the
    corpus and the registry are both checked.
    """
    from itertools import chain

    from repro.experiments.configs import standard_configs
    from repro.fuzz.oracle import OPTION_SETS
    from repro.gates import corpus_subjects, registry_subjects, seed_subjects

    everything = not (args.corpus or args.registry or args.seeds)
    return chain(
        corpus_subjects(
            args.corpus_dir, option_sets=OPTION_SETS, plain=plain,
            clean_only=clean_only,
        ) if args.corpus or everything else (),
        seed_subjects(
            range(args.seed_base, args.seed_base + args.seeds),
            option_sets=OPTION_SETS, plain=plain,
        ),
        registry_subjects(
            None, args.scale, configs=standard_configs(),
            depths=args.depths,
        ) if args.registry or everything else (),
    )


def _run_corediff(args: argparse.Namespace) -> int:
    """Reference-vs-event SM core differential: replay the fuzz corpus,
    fresh seeds and/or the kernel registry through both simulator cores
    and demand bit-identical results (CI's core-differential gate)."""
    from repro.sim.differential import CoreDiffCheck

    return _gate(args, CoreDiffCheck(),
                 _diff_subjects(args, plain=True, clean_only=False))


def _run_racediff(args: argparse.Namespace) -> int:
    """Static-vs-dynamic race differential: run the fuzz corpus, fresh
    seeds and/or the kernel registry with the vector-clock SMEM
    sanitizer attached and require every observed race to be flagged
    by the static happens-before engine.  Injected-corruption corpus
    entries are left to the fuzz oracle."""
    from repro.analysis.racediff import RaceDiffCheck

    return _gate(args, RaceDiffCheck(),
                 _diff_subjects(args, plain=False, clean_only=True))


def _run_lint(args: argparse.Namespace) -> int:
    """Static pipeline verification: compile each kernel and run the
    queue-protocol, deadlock, SMEM-race and resource passes without
    executing anything.  Exits non-zero when any error-severity
    diagnostic fires."""
    if args.list_rules:
        from repro.analysis.diagnostics import rules_table_lines

        print("\n".join(rules_table_lines()))
        return 0
    from repro.analysis.lint import LintCheck
    from repro.gates import corpus_subjects, registry_subjects

    subjects = (
        corpus_subjects(args.corpus_dir) if args.corpus
        else registry_subjects(_selected(args), args.scale)
    )
    return _gate(args, LintCheck(), subjects, strict=args.strict)


def _run_validate(args: argparse.Namespace) -> int:
    """Translation validation: prove each WASP compile equivalent to
    its source kernel without executing either.  Exits non-zero on any
    not-equivalent verdict or abstention (an uncertified compile is a
    finding, never a silent pass); with --corpus, injected-corruption
    entries must be flagged not-equivalent."""
    from repro.analysis.lint import ValidateCheck, standard_option_sets
    from repro.gates import corpus_subjects, registry_subjects

    if args.corpus:
        return _gate(args, ValidateCheck(), corpus_subjects(args.corpus_dir))
    standard = dict(standard_option_sets())
    wanted = args.options.split(",")
    if "standard" in wanted:
        wanted = list(standard)
    unknown_sets = [w for w in wanted if w not in standard]
    if unknown_sets:
        raise SystemExit(
            f"unknown option set(s) {unknown_sets}; choose from: "
            + ", ".join([*standard, "standard"])
        )
    subjects = registry_subjects(
        _selected(args), args.scale,
        option_sets=[(w, standard[w]) for w in wanted], depths=args.depths,
    )
    return _gate(args, ValidateCheck(), subjects)


def _run_fuzz(args: argparse.Namespace) -> int:
    """Differential fuzzing: random pipeline kernels run unspecialized
    and after stage-splitting must agree bit for bit and obey the
    simulator's metamorphic timing invariants; failing seeds are
    shrunk.  --corpus replays the committed corpus instead.  Exits
    non-zero on any failure (inverted by --expect-failures)."""
    from repro.fuzz import run_fuzz
    from repro.fuzz.mutate import MUTATIONS

    if args.inject is not None and args.inject not in MUTATIONS:
        raise SystemExit(
            f"unknown mutation {args.inject!r}; choose from: "
            + ", ".join(sorted(MUTATIONS))
        )
    if args.corpus:
        from repro.fuzz.corpus import ReplayCheck
        from repro.gates import corpus_subjects

        return _gate(args, ReplayCheck(), corpus_subjects(args.corpus_dir))

    report = run_fuzz(
        seeds=args.seeds,
        seed_base=args.seed_base,
        jobs=args.jobs,
        shrink=not args.no_shrink,
        inject=args.inject,
        metamorphic=not args.no_metamorphic,
        time_budget=args.time_budget,
        save_corpus=args.save_corpus,
        corpus_dir=args.corpus_dir,
    )
    print("\n".join(report.summary_lines()))
    for path in report.corpus_paths:
        print(f"[saved corpus entry {path}]")
    if args.json_out:
        _dump_json(args.json_out, report.to_json(), "fuzz JSON")
    failed = bool(report.failures) or report.seeds_run == 0
    if args.expect_failures:
        if not report.seeds_run:
            print("[expected failures but no seed ran]")
        elif args.inject is not None and not report.injected:
            print(f"[expected failures but no site for {args.inject} in "
                  f"{report.seeds_run} seed(s) — nothing was injected]")
        elif not report.failures:
            print("[expected failures but every seed passed — the oracle "
                  "missed the injected bug]")
        else:
            print("[expected failures: oracle caught the injected bug]")
            return 0
        return 1
    return 1 if failed else 0


# -- other tools ---------------------------------------------------------


def _run_list(args: argparse.Namespace) -> int:
    """List every subcommand with its one-line help."""
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    width = max(len(choice.dest) for choice in commands._choices_actions)
    for choice in commands._choices_actions:
        print(f"  {choice.dest.ljust(width)}  {choice.help}")
    return 0


def _run_advise(args: argparse.Namespace) -> int:
    """Analytical pipeline advisor: predict each kernel's cycles with
    the static performance model, enumerate candidate configurations,
    and suggest an options delta only when the predicted gain clears
    the margin.  One simulation of the default calibrates each row."""
    from repro.analysis.perfmodel import SUGGESTION_MARGIN, advise_workload

    _known(args.benchmarks)
    config = _named_config(args.config)
    margin = args.margin if args.margin is not None else SUGGESTION_MARGIN

    start = time.time()
    reports = []
    for name in args.benchmarks:
        report = advise_workload(
            name,
            config,
            scale=args.scale,
            margin=margin,
            simulate=not args.no_simulate,
        )
        reports.append(report)
        print(_advise_text(report))
    if args.json_out:
        doc = (
            reports[0].to_json()
            if len(reports) == 1
            else {
                "schema": "repro-advise-report-v1",
                "reports": [r.to_json() for r in reports],
            }
        )
        _dump_json(args.json_out, doc, "advise JSON")
    total = sum(len(r.kernels) for r in reports)
    print(f"[advised {total} kernel(s) in {time.time() - start:.1f}s]")
    return 0


def _advise_text(report) -> str:
    """Human-readable rendering of one workload's advice."""
    from repro.core.compiler.pipeline import options_delta

    lines = [f"advise: {report.workload} [{report.config_name}]"]
    for advice in report.kernels:
        lines.append(f"  {advice.kernel_name}:")
        lines.append(
            f"    predicted {advice.default_cycles:.0f} cycles; "
            f"bottleneck stage "
            f"{advice.default_prediction.bottleneck_stage} "
            f"({advice.default_prediction.bottleneck_cause or 'none'})"
        )
        if advice.simulated_cycles is not None:
            error = advice.predicted_error
            lines.append(
                f"    simulated {advice.simulated_cycles:.0f} cycles "
                f"(model error {error:.1%})"
            )
        for line in advice.default_prediction.explanation:
            lines.append(f"      {line}")
        if advice.suggestion is None:
            lines.append("    suggestion: keep the default options")
            if advice.rejected_suggestion is not None:
                delta = options_delta(
                    advice.default_options,
                    advice.rejected_suggestion.options,
                )
                lines.append(
                    f"      (withheld {delta}: predicted faster but "
                    f"simulated {advice.simulated_suggested_cycles:.0f} "
                    f"cycles, slower than the default)"
                )
        else:
            delta = options_delta(
                advice.default_options, advice.suggestion.options
            )
            lines.append(
                f"    suggestion: {delta} "
                f"(predicted {advice.predicted_gain:.1%} faster)"
            )
            if advice.simulated_suggested_cycles is not None:
                lines.append(
                    f"      verified: simulated "
                    f"{advice.simulated_suggested_cycles:.0f} cycles "
                    f"under the suggestion"
                )
    return "\n".join(lines)


def _run_metrics(args: argparse.Namespace) -> int:
    """Telemetry smoke run: a small sweep with the metrics registry
    enabled, emitting the repro-metrics-v1 snapshot (JSON and/or
    Prometheus text format)."""
    from repro.experiments.configs import standard_configs
    from repro.experiments.parallel import run_sweep
    from repro.telemetry.registry import TELEMETRY
    from repro.telemetry.snapshot import (
        missing_families,
        render_prometheus,
        validate_metrics_document,
    )

    _known(args.benchmarks)
    TELEMETRY.enable()
    start = time.time()
    configs = [
        c for c in standard_configs()
        if c.name in ("BASELINE", "WASP_GPU")
    ] or standard_configs()[:1]
    run_sweep(args.benchmarks, args.scale, configs, jobs=args.jobs)

    doc = _write_snapshot("metrics", args.json_out, args.prom_out)
    problems = validate_metrics_document(doc)
    problems += [
        f"missing required metric family {prefix}*"
        for prefix in missing_families(doc)
    ]
    if not args.json_out and not args.prom_out:
        print(render_prometheus(doc), end="")
    print(
        f"metrics: {len(doc['metrics'])} series, "
        f"{doc['spans']['count']} spans across "
        f"{len(doc['spans']['subsystems'])} subsystems "
        f"({time.time() - start:.1f}s)"
    )
    for problem in problems:
        print(f"INVALID: {problem}")
    return 1 if problems else 0


def _run_bench_report(args: argparse.Namespace) -> int:
    """Perf-trajectory dashboard: read every committed BENCH_*.json
    (plus an optional freshly measured run) and render a per-benchmark
    regression table on calibration-normalized wall-clock."""
    from repro.telemetry.trajectory import (
        build_bench_report,
        render_bench_report,
    )

    current = None
    if args.current:
        with open(args.current, "r", encoding="utf-8") as handle:
            current = json.load(handle)
    report = build_bench_report(
        directory=args.dir,
        current=current,
        baseline_name=args.baseline,
        tolerance=args.tolerance,
    )
    if not report["rows"]:
        print(f"bench report: no BENCH_*.json files under {args.dir}")
        return 1
    print(render_bench_report(report))
    if args.json_out:
        _dump_json(args.json_out, report, "bench report JSON")
    return 1 if report["summary"]["regressions"] else 0


def _run_profile(args: argparse.Namespace) -> int:
    """Profile one workload's pipeline: stall-cause attribution, queue
    occupancy, and an optional Chrome trace for Perfetto."""
    from repro.experiments.runner import GLOBAL_CACHE, profile_kernel
    from repro.profiling import report as profreport
    from repro.telemetry.spans import SPANS
    from repro.workloads import get_benchmark

    config = _named_config(args.config)
    try:
        bench = get_benchmark(args.benchmark, args.scale)
    except KeyError:
        raise SystemExit(f"unknown benchmark {args.benchmark!r}")
    kernels = bench.kernels
    if args.kernel is not None:
        kernels = [bench.kernel(args.kernel)]

    before = GLOBAL_CACHE.stats.snapshot()
    sections = []
    docs = []
    start = time.time()
    for kernel in kernels:
        result, profiler = profile_kernel(
            kernel, config, trace_capacity=args.trace_capacity
        )
        label = f"{bench.name}/{kernel.name}"
        title = (
            f"Stall breakdown: {label} [{config.name}]"
            + (" (specialized)" if result.used_specialized else "")
        )
        print(profreport.profile_text(result.sim, title=title))
        print(_verifier_summary(kernel, config))
        if args.sanitize:
            print(_sanitize_summary(kernel, config))
        if profiler.dropped_events:
            print(
                f"note: ring buffer dropped {profiler.dropped_events} "
                f"of {profiler.events_recorded} trace events "
                f"(raise --trace-capacity to keep more)"
            )
        print()
        sections.append((label, profiler))
        docs.append(
            profreport.profile_json(result.sim, config_name=config.name)
        )

    cache_delta = GLOBAL_CACHE.stats.since(before)
    if args.trace_out:
        _write_trace(args.trace_out, bench, config, args.scale, sections,
                     spans=SPANS)
    if args.json_out:
        _dump_json(args.json_out, {
            "schema": "repro-profile-report-v1",
            "benchmark": bench.name,
            "config": config.name,
            "scale": args.scale,
            "kernels": docs,
            "trace_cache": profreport.cache_stats_json(cache_delta),
        }, "profile JSON")
    print(f"[profiled {len(kernels)} kernel(s) in "
          f"{time.time() - start:.1f}s]")
    return 0


def _sanitize_summary(kernel, config) -> str:
    """Dynamic SMEM-race report for one profiled kernel.

    The race differential's sanitizer run (the cached traces were
    generated without it) over the config's specialized program; an
    unspecialized kernel has no cross-stage accesses to race.
    """
    from repro.analysis.racediff import RaceDiffCheck
    from repro.gates import Subject

    subject = Subject(kernel.name, kernel, config=config)
    verdicts = RaceDiffCheck().run(subject)
    if verdicts and verdicts[0].skipped:
        return f"sanitizer: run failed ({verdicts[0].skipped})"
    races = [race for v in verdicts for race in v.fields["races"]]
    if not races:
        return "sanitizer: no SMEM races observed"
    lines = [f"sanitizer: {len(races)} race(s) observed"]
    lines.extend(f"  {race}" for race in races)
    return "\n".join(lines)


def _verifier_summary(kernel, config) -> str:
    """One-line static-verifier status for a profiled kernel.

    Verifies the program ``kernel`` specializes to under ``config``, or
    the original program when there is none.  The compiler already
    verified it; re-running the passes here is cheap.
    """
    from repro.analysis import verify_program
    from repro.experiments.runner import _compiler_options_for
    from repro.gates import specialize

    options = _compiler_options_for(kernel, config)
    compiled = specialize(kernel, options) if options is not None else None
    program = compiled[0].program if compiled else kernel.program
    return verify_program(program).summary_line()


# -- paper artifacts -----------------------------------------------------


def _run_artifact(args: argparse.Namespace) -> int:
    """Regenerate one paper artifact."""
    _run_one(args.command, args)
    return 0


def _run_all(args: argparse.Namespace) -> int:
    """Regenerate every paper artifact."""
    for key in sorted(_ARTIFACTS):
        _run_one(key, args)
        print()
    return 0


def _run_one(artifact: str, args: argparse.Namespace) -> None:
    from repro.experiments.parallel import last_report
    from repro.experiments.reporting import format_cache_report

    module = importlib.import_module(f"repro.experiments.{artifact}")
    start = time.time()
    if artifact == "table4":
        result = module.run()
    elif artifact == "fig3":
        result = module.run(scale=args.scale, jobs=args.jobs)
    else:
        result = module.run(
            scale=args.scale, benchmarks=args.benchmarks, jobs=args.jobs
        )
    print(result.to_text())
    print(f"\n[{artifact} regenerated in {time.time() - start:.1f}s]")
    if artifact != "table4":
        from repro.analysis.lint import LintCheck
        from repro.gates import registry_subjects, run_gate

        lint = run_gate(
            LintCheck(), registry_subjects(args.benchmarks, args.scale)
        )
        line = lint.summary_line()
        if lint.exit_code():
            line += "  (details: python -m repro lint)"
        print(line)
    report = last_report()
    if report is not None:
        print(format_cache_report(report))
        if args.profile:
            from repro.profiling.report import sweep_stalls_text

            print(sweep_stalls_text(report))
        if args.profile_json:
            from repro.profiling.report import sweep_stalls_json

            doc = sweep_stalls_json(report)
            doc["artifact"] = artifact
            _dump_json(args.profile_json, doc, "sweep profile JSON")
    if args.trace_out:
        _write_representative_trace(args)


def _write_representative_trace(args: argparse.Namespace) -> None:
    """``--trace-out`` on an artifact command: trace one workload.

    Sweeps time dozens of kernel×config pairs unprofiled; a full trace
    of all of them would be unreadable, so this profiles the sweep's
    first benchmark (default: pointnet, the paper's Figure 3 subject)
    under WASP_GPU at the same scale and writes that.
    """
    from repro.experiments.runner import profile_kernel
    from repro.workloads import get_benchmark

    name = args.benchmarks[0] if args.benchmarks else "pointnet"
    bench = get_benchmark(name, args.scale)
    config = _named_config("WASP_GPU")
    sections = [
        (f"{bench.name}/{kernel.name}", profile_kernel(kernel, config)[1])
        for kernel in bench.kernels
    ]
    _write_trace(args.trace_out, bench, config, args.scale, sections)


def _write_trace(path, bench, config, scale, sections, spans=None) -> None:
    """Write profiled ``(label, profiler)`` sections as a Chrome trace."""
    from repro.profiling.chrometrace import write_chrome_trace

    trace = write_chrome_trace(
        path, sections,
        metadata={"benchmark": bench.name, "config": config.name,
                  "scale": scale},
        spans=spans,
    )
    print(
        f"[wrote {len(trace['traceEvents'])} trace events for "
        f"{bench.name} to {path}; open in https://ui.perfetto.dev]"
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_cache(args)
    _enable_metrics(args)
    code = args.run(args)
    _write_metrics(args)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's three workloads: inputs, timed passes and checks.

Every workload is a fixed amount of work derived from ``--seed``:

* ``sweep-cold`` and ``sweep-warm`` run the Figure 14 sweep
  (:func:`repro.experiments.parallel.run_sweep`, the four
  ``standard_configs()``, scale 0.1, ``jobs=1``) over a seeded draw of
  16 of the 23 registry benchmarks, stratified by category.
* ``compile-certify`` compiles 40 seeded fuzz kernels under every
  standard option set at ring depths 2/4/8 with the default verifier
  and translation validator.

Outputs are checked against known answers: simulated cycles against
``expected.json`` (generated with the reference SM core by
``gen_expected.py``), and every compile must specialize and certify
``equivalent`` with no abstention.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import shutil
import signal
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

SCALE = 0.1
SWEEPS = ("sweep-cold", "sweep-warm")
WORKLOADS = (*SWEEPS, "compile-certify")
#: Benchmarks drawn per category (16 of the registry's 23).
CATEGORY_QUOTAS = {
    "ML/Robotics": 5, "cuSPARSE": 4, "HPC": 3, "Graph": 2, "Attention": 2,
}
#: Fuzz kernels per skeleton (40).  Compiles fall into three cost
#: clusters (streaming/gather/reduction, tiled/mixed, deep, about
#: 1:4:8); these quotas put the median and the 90th percentile compile
#: inside a cluster rather than on the edge between two.
SKELETON_QUOTAS = {
    "streaming": 8, "gather": 8, "reduction": 8,
    "tiled": 4, "mixed": 4, "deep": 8,
}
DEPTHS = (2, 4, 8)
EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict[str, Any]:
    return json.loads(EXPECTED_PATH.read_text())


def sweep_draw(seed: int, expected: dict[str, Any]) -> list[str]:
    """The seed's 16 benchmarks: one of the work-matched draws.

    ``expected.json`` lists the category-stratified draws whose task
    count and host cost profile lie within a tolerance of the median
    draw (see ``gen_expected.py``), so seeds change which benchmarks
    run but not how much work a run holds.
    """
    rng = random.Random(f"perfbench-draw-{seed}")
    return list(rng.choice(expected["draws"]))


def certify_seeds(seed: int, expected: dict[str, Any]) -> list[int]:
    """The seed's 40 fuzz seeds: one of the work-matched draws."""
    rng = random.Random(f"perfbench-certify-{seed}")
    return list(rng.choice(expected["certify_draws"]))


def _digest(doc: Any) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Inputs:
    """A workload's generated inputs and their identity.

    ``fingerprint`` digests the input set and ``tasks`` is the number
    of operations one pass runs; together they say which work a result
    measured.  How much internal work the program does for it
    (compiles, simulations, traces generated) is measured, not fixed
    here: a faster program may legitimately do less of it.
    """

    workload: str
    seed: int
    benchmarks: list[str] = field(default_factory=list)
    kernels: list[tuple[int, Any]] = field(default_factory=list)
    num_kernels: int = 0
    fingerprint: str = ""
    tasks: int = 0


def build_inputs(
    workload: str, seed: int, expected: dict[str, Any]
) -> Inputs:
    """Set-up: build the workload's kernels and digest its input set."""
    from repro.experiments import parallel
    from repro.experiments.configs import standard_configs
    from repro.fuzz import generator
    from repro.fuzz.spec import generate_spec

    inputs = Inputs(workload, seed)
    doc: dict[str, Any] = {"workload": workload, "seed": seed}
    if workload in SWEEPS:
        inputs.benchmarks = sweep_draw(seed, expected)
        doc.update(
            scale=SCALE,
            configs=[c.name for c in standard_configs()],
            predict=workload == "sweep-warm",
            kernels={
                name: [
                    k.content_digest()
                    for k in parallel.get_benchmark(name, SCALE).kernels
                ]
                for name in inputs.benchmarks
            },
        )
        inputs.num_kernels = sum(len(v) for v in doc["kernels"].values())
        inputs.tasks = inputs.num_kernels * len(doc["configs"])
    else:
        for fuzz_seed in certify_seeds(seed, expected):
            kernel = generator.build_kernel(generate_spec(fuzz_seed))
            inputs.kernels.append((fuzz_seed, kernel))
        inputs.num_kernels = len(inputs.kernels)
        inputs.tasks = inputs.num_kernels * len(_option_grid())
        doc.update(
            option_sets={n: o.to_json() for n, o in _option_sets()},
            depths=list(DEPTHS),
            kernels={str(s): k.content_digest() for s, k in inputs.kernels},
        )
    inputs.fingerprint = _digest(doc)
    return inputs


def _option_sets() -> list[tuple[str, Any]]:
    from repro.analysis.lint import standard_option_sets

    return standard_option_sets()


def _option_grid() -> list[tuple[str, Any]]:
    return [
        (f"{name}@{depth}", replace(options, pipeline_depth=depth))
        for name, options in _option_sets()
        for depth in DEPTHS
    ]


@dataclass
class PassResult:
    """One timed pass over a workload's inputs."""

    #: ``(start, end)`` of each operation, ``perf_counter`` seconds.
    windows: list[tuple[float, float]]
    #: What each operation was: ``bench/kernel/config`` for a sweep
    #: task, ``fuzz-seed/option-set@depth`` for a compile.
    labels: list[str]
    failures: list[str]
    rows: dict[str, float] = field(default_factory=dict)
    issued: int = 0
    cache: dict[str, int] = field(default_factory=dict)
    prediction_errors: list[float] = field(default_factory=list)

    @property
    def operations(self) -> int:
        return len(self.windows)


def _sweep_rows(result: Any, names: list[str]) -> dict[str, float]:
    from repro.experiments.configs import standard_configs
    from repro.workloads import get_benchmark

    rows = {}
    for name in names:
        for kernel in get_benchmark(name, SCALE).kernels:
            for index, config in enumerate(standard_configs()):
                row = result.kernel_result(name, kernel.name, index)
                rows[f"{name}/{kernel.name}/{config.name}"] = row.cycles
    return rows


def run_sweep_pass(names: list[str], predict: bool) -> PassResult:
    """One ``run_sweep`` over ``names``; latencies from its report."""
    from repro.experiments.configs import standard_configs
    from repro.experiments.parallel import run_sweep

    result = run_sweep(
        names, SCALE, standard_configs(), jobs=1, predict=predict
    )
    end = time.perf_counter()
    report = result.report
    # Tasks run back to back; lay their timings out from the sweep's
    # own start to recover each task's window.
    windows = []
    began = end - report.wall_seconds
    for timing in report.timings:
        windows.append((began, began + timing.seconds))
        began += timing.seconds
    return PassResult(
        windows=windows,
        labels=[
            f"{t.benchmark}/{t.kernel}/{t.config_name}"
            for t in report.timings
        ],
        failures=[],
        rows=_sweep_rows(result, names),
        issued=report.issued_total,
        cache=report.stats.to_json(),
        prediction_errors=[r.error for r in report.prediction_rows],
    )


def run_certify_pass(kernels: list[tuple[int, Any]]) -> PassResult:
    """Compile every kernel under the option grid; check each verdict."""
    from repro.core.compiler import WaspCompiler
    from repro.errors import ReproError

    windows: list[tuple[float, float]] = []
    labels: list[str] = []
    failures: list[str] = []
    grid = _option_grid()
    for fuzz_seed, kernel in kernels:
        for label, options in grid:
            began = time.perf_counter()
            try:
                result = WaspCompiler(options).compile(
                    kernel.program, num_warps=kernel.launch.num_warps
                )
                problem = _certify_problem(result)
            except ReproError as exc:
                problem = f"{type(exc).__name__}: {exc}"
            windows.append((began, time.perf_counter()))
            labels.append(f"{fuzz_seed}/{label}")
            if problem:
                failures.append(f"{fuzz_seed}/{label}: {problem}")
    return PassResult(windows, labels, failures)


def _certify_problem(result: Any) -> str:
    if not result.specialized:
        return f"not specialized ({result.reason})"
    report = result.transval
    if report is None or report.verdict != "equivalent":
        return f"transval verdict {getattr(report, 'verdict', None)}"
    if report.abstentions:
        return f"{len(report.abstentions)} abstention(s)"
    return ""


def check_rows(
    rows: dict[str, float], expected: dict[str, Any], names: list[str]
) -> list[str]:
    """Rows whose simulated cycles differ from the reference core's."""
    failures = []
    for name in names:
        want = expected["benchmarks"][name]["rows"]
        for row, cycles in want.items():
            got = rows.get(f"{name}/{row}")
            if got != cycles:
                failures.append(
                    f"{name}/{row}: {got} cycles, reference {cycles}"
                )
    return failures


def reset_trace_cache(cache_dir: Path | None) -> None:
    """Empty the in-memory trace tier; point the disk tier at ``cache_dir``.

    Gives a second pass in the same process (the traced pass of a
    ``--trace 1`` run) the state a fresh process would see.  ``None``
    keeps the current disk tier.
    """
    from repro.experiments.runner import GLOBAL_CACHE, configure_global_cache

    GLOBAL_CACHE._entries.clear()
    if cache_dir is not None:
        configure_global_cache(cache_dir=str(cache_dir))


def fill_cache(names: list[str], rows_path: str) -> None:
    """Warm-workload set-up, run in a child process: one cold sweep.

    The disk tier named by ``REPRO_CACHE_DIR`` ends up holding every
    trace of the draw; the rows go to ``rows_path`` so the warm run
    can check that it reproduces them.  Set-up is not measured, so it
    uses both cores (sweep results do not depend on ``jobs``).
    """
    from repro.experiments.configs import standard_configs
    from repro.experiments.parallel import run_sweep

    result = run_sweep(names, SCALE, standard_configs(), jobs=2)
    Path(rows_path).write_text(json.dumps(_sweep_rows(result, names)))


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


class HostSpeed:
    """Samples the host's speed during the timed region; rescales time.

    On a shared host the same code runs up to 1.5x slower for seconds
    at a time, with CPU time rising as much as wall time: the core is
    contended, not descheduled.  Every ``interval`` seconds a timer
    signal runs one fixed pure-Python probe loop, whose duration gives
    the host's speed at that moment.  :meth:`seconds` rescales host
    time to a host whose probe takes ``REFERENCE_PROBE_S``, excluding
    the probes' own time.

    The probe shares the measured process's main thread.  Another
    Python thread in that process would slow the probe too (it waits
    for the GIL), and rescaling would divide that cost out.  So each
    probe also counts the process's threads; if any saw more than one,
    :attr:`rescaled` is false and :meth:`seconds` returns plain host
    time instead.
    """

    PROBE_ITERATIONS = 5000
    REFERENCE_PROBE_S = 2.5e-4
    #: Probes this close to an interval also count towards its speed:
    #: one probe is too noisy to rescale a short operation by.
    WINDOW_S = 0.25

    def __init__(self, interval: float = 0.025) -> None:
        self.interval = interval
        self.times: list[float] = []
        self.probes: list[float] = []
        #: Most threads the process ran at any probe.
        self.threads = 1
        self._previous: Any = None

    @property
    def rescaled(self) -> bool:
        """Whether :meth:`seconds` rescales (the probes are trusted)."""
        return bool(self.probes) and self.threads == 1

    def _probe(self, *_: object) -> None:
        began = time.perf_counter()
        total = 0
        for i in range(self.PROBE_ITERATIONS):
            total += i
        self.times.append(began)
        self.probes.append(time.perf_counter() - began)
        self.threads = max(self.threads, threading.active_count())

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self, start: float, end: float) -> list[float]:
        lo = bisect.bisect_left(self.times, start)
        return self.probes[lo:bisect.bisect_right(self.times, end)]

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the host interval ``[start, end]``.

        Plain host seconds, less the probes' own time, when the probes
        cannot be trusted (see :attr:`rescaled`).
        """
        busy = sum(self._between(start, end))
        seconds = max(0.0, end - start - busy)
        if not self.rescaled:
            return seconds
        near = self._between(start - self.WINDOW_S, end + self.WINDOW_S)
        return seconds * (
            self.REFERENCE_PROBE_S / statistics.median(near or self.probes)
        )


class PrivateDir:
    """A private temporary directory inside ``root``, removed on exit."""

    def __init__(self, root: Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=root))

    def fresh(self, name: str) -> Path:
        path = self.path / name
        path.mkdir()
        return path

    def __enter__(self) -> "PrivateDir":
        return self

    def __exit__(self, *exc: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

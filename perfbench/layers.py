"""Per-layer measurement: a span tracer wrapping each toolchain layer.

The benchmark does not rely on the program's own telemetry (which
stays off): it wraps the public functions of each ``repro.*`` layer,
records a span ``{name, start, end, parent}`` per call in memory, and
counts work at the same boundaries.  Names bound with ``from x import
y`` are patched in the module that *uses* them, because patching only
the defining module leaves the caller's binding untouched.

The counts (compiles, simulations, issued and dynamic instructions)
are measured output, never a precondition: a program change that does
less internal work for the same tasks must still be measurable.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

#: ``on_result(counts, args, result)`` updates work counters and may
#: return a tag stored on the span (e.g. ``"hit"`` for a store load).
OnResult = Callable[[Counter, tuple, Any], "str | None"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    tag: str | None = None
    #: ``threading.get_ident()`` of the calling thread.
    thread: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_fexec(counts: Counter, args: tuple, result: Any) -> None:
    counts["fexec.calls"] += 1
    counts["fexec.dyn_instrs"] += sum(
        t.total_instructions() for t in result.traces
    )


def _file_size(store: Any, key: str) -> int:
    return store._path(key).stat().st_size


def _count_save(counts: Counter, args: tuple, result: Any) -> None:
    if result:
        store, key = args[0], args[1]
        counts["fexec.trace_store.saves"] += 1
        counts["fexec.trace_store.bytes_written"] += _file_size(store, key)


def _count_load(counts: Counter, args: tuple, result: Any) -> str | None:
    if result is None:
        return None
    store, key = args[0], args[1]
    counts["fexec.trace_store.loads"] += 1
    counts["fexec.trace_store.bytes_read"] += _file_size(store, key)
    return "hit"


def _count_compile(counts: Counter, args: tuple, result: Any) -> None:
    counts["core.compiler.calls"] += 1
    counts["core.compiler.specialized"] += int(result.specialized)


def _count_verdict(counts: Counter, args: tuple, result: Any) -> None:
    counts[f"analysis.transval.{result.verdict.replace('-', '_')}"] += 1


def _count_sim(counts: Counter, args: tuple, result: Any) -> None:
    counts["sim.calls"] += 1
    counts["sim.issued"] += result.issued_total
    counts["sim.cycles"] += result.cycles


def _count_predict(counts: Counter, args: tuple, result: Any) -> None:
    counts["analysis.perfmodel.calls"] += 1


_PASSES = "repro.core.compiler.pipeline"

#: (module:qualname of the binding to patch, span name, counter).
LAYER_PATCHES: tuple[tuple[str, str, OnResult | None], ...] = (
    ("repro.experiments.parallel:get_benchmark", "workloads.build", None),
    ("repro.fuzz.generator:build_kernel", "workloads.build", None),
    ("repro.experiments.runner:TraceCache.original",
     "experiments.runner.lookup", None),
    ("repro.experiments.runner:TraceCache.specialized",
     "experiments.runner.lookup", None),
    ("repro.experiments.runner:run_functional", "fexec.run",
     _count_fexec),
    ("repro.fexec.trace_store:TraceStore.save",
     "fexec.trace_store.save", _count_save),
    ("repro.fexec.trace_store:TraceStore.load",
     "fexec.trace_store.load", _count_load),
    (f"{_PASSES}:WaspCompiler.compile", "core.compiler.compile",
     _count_compile),
    (f"{_PASSES}:apply_circular_buffering", "core.compiler.buffering",
     None),
    (f"{_PASSES}:build_pdg", "core.compiler.build_pdg", None),
    (f"{_PASSES}:plan_extraction", "core.compiler.plan_extraction",
     None),
    (f"{_PASSES}:build_stage_programs", "core.compiler.stage_split",
     None),
    (f"{_PASSES}:offload_pipeline", "core.compiler.tma_offload", None),
    (f"{_PASSES}:finalize_pipeline", "core.compiler.finalize", None),
    ("repro.analysis.verifier:verify_program", "analysis.verifier.verify",
     None),
    ("repro.analysis.smem:analyze_hb", "analysis.dataflow.hb.solve",
     None),
    ("repro.analysis.dataflow.hb:analyze_hb",
     "analysis.dataflow.hb.solve", None),
    ("repro.analysis.transval.validate:validate_programs",
     "analysis.transval.validate", _count_verdict),
    ("repro.experiments.runner:simulate_kernel", "sim.replay",
     _count_sim),
    ("repro.analysis.perfmodel.model:predict_traces",
     "analysis.perfmodel.predict", _count_predict),
)


def _resolve(target: str) -> tuple[Any, str]:
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span recorder installed by patching layer bindings.

    Use as a context manager: entering patches every target of
    :data:`LAYER_PATCHES`, leaving restores the original objects (also on
    error), so no wrapper outlives the traced region.  Each thread has
    its own stack of open spans, so a call on another thread never
    becomes the child of one on the main thread.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        try:
            for target, name, on_result in LAYER_PATCHES:
                owner, attr = _resolve(target)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, on_result))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(
        self, fn: Callable, name: str, on_result: OnResult | None
    ) -> Callable:
        spans, local = self.spans, self._local

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            open_ = local.__dict__.setdefault("open", [])
            index = len(spans)
            parent = open_[-1] if open_ else None
            spans.append(Span(name, time.perf_counter(), 0.0, parent,
                              thread=threading.get_ident()))
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index].end = time.perf_counter()
            if on_result is not None:
                spans[index].tag = on_result(self.counts, args, result)
            return result

        return wrapper

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def to_json(self) -> list[dict[str, Any]]:
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "tag": s.tag, "thread": s.thread}
            for s in self.spans
        ]


PASS_SPANS = frozenset(
    f"core.compiler.{p}" for p in (
        "buffering", "build_pdg", "plan_extraction", "stage_split",
        "tma_offload", "finalize",
    )
)
_COMPILE_CHAIN = PASS_SPANS | {
    "core.compiler.compile", "analysis.verifier.verify",
    "analysis.dataflow.hb.solve", "analysis.transval.validate",
}
_SWEEP_SPANS = _COMPILE_CHAIN | {
    "workloads.build", "experiments.runner.lookup", "sim.replay",
}
#: Layers each workload must reach: its definition puts them on the
#: path, so a zero there means a wrapper missed its layer.
REQUIRED_SPANS = {
    "sweep-cold": {
        "workloads.build", "experiments.runner.lookup", "fexec.run",
        "fexec.trace_store.save", "core.compiler.compile", "sim.replay",
    },
    "sweep-warm": {
        "workloads.build", "experiments.runner.lookup",
        "fexec.trace_store.load", "analysis.perfmodel.predict",
    },
    "compile-certify": _COMPILE_CHAIN | {"workloads.build"},
}
#: Layers each workload may reach.  A layer outside its set (``fexec``
#: on a warm sweep, the simulator while certifying) means the workload
#: is not what it claims.  Recompiling and simulating on a warm sweep
#: are allowed, not required, so a program that caches them measures.
ALLOWED_SPANS = {
    "sweep-cold": _SWEEP_SPANS | REQUIRED_SPANS["sweep-cold"]
    | {"fexec.trace_store.load"},
    "sweep-warm": _SWEEP_SPANS | REQUIRED_SPANS["sweep-warm"],
    "compile-certify": REQUIRED_SPANS["compile-certify"],
}


class IntegrityError(Exception):
    """The traced run's spans or counts are inconsistent."""


def _recompiles_on_hit(tracer: Tracer) -> int:
    """Cache lookups served from disk that compiled the kernel again."""
    children: dict[int, list[Span]] = {}
    for span in tracer.spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    count = 0
    for index, span in enumerate(tracer.spans):
        if span.name != "experiments.runner.lookup":
            continue
        kids = children.get(index, [])
        if any(k.name == "fexec.trace_store.load" and k.tag == "hit"
               for k in kids) and any(
                   k.name == "core.compiler.compile" for k in kids):
            count += 1
    return count


def _top_level(tracer: Tracer, start: float, end: float) -> list[Span]:
    """Main-thread spans with no parent that start in ``[start, end]``."""
    return [
        s for s in tracer.spans
        if s.parent is None and s.thread == tracer.main_thread
        and start <= s.start <= end
    ]


def _timing_problems(
    tracer: Tracer, region: dict[str, Any]
) -> list[str]:
    """Top-level spans against the operations' own clock.

    Every top-level layer span except the workload build runs inside
    an operation, whose duration the program measures itself
    (``SweepReport.timings``) or the benchmark measures around each
    compile.  So the spans cannot add up to more than the operations;
    if they do, the tracer counts time twice or outside the work.
    """
    spans = [
        s.duration for s in _top_level(tracer, region["start"],
                                       region["end"])
        if s.name != "workloads.build"
    ]
    operations = sum(b - a for a, b in region["pass"].windows)
    if sum(spans) <= operations * (1 + 1e-3) + 1e-3:
        return []
    return [f"{len(spans)} top-level spans last {sum(spans):.6f} s, "
            f"the operations they ran in {operations:.6f} s"]


def per_layer_metrics(
    tracer: Tracer,
    workload: str,
    num_kernels: int,
    untraced: dict[str, Any],
    traced: dict[str, Any],
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced run, after integrity checks.

    Raises :class:`IntegrityError` when a required layer recorded no
    call, a layer outside the workload ran, or the top-level spans
    outlast the operations they ran in.
    """
    t_pass = traced["pass"]
    seen = {s.name for s in tracer.spans}
    problems = [
        f"no call recorded for {n}"
        for n in sorted(REQUIRED_SPANS[workload] - seen)
    ]
    problems += [
        f"unexpected call to {n}"
        for n in sorted(seen - ALLOWED_SPANS[workload])
    ]
    problems += _timing_problems(tracer, traced)
    if problems:
        raise IntegrityError("; ".join(problems))
    # The traced region minus its top-level layer spans: orchestration
    # (sweep bookkeeping, key hashing, the benchmark's own loop).
    parallel_self = (traced["end"] - traced["start"]) - sum(
        s.duration for s in _top_level(tracer, traced["start"],
                                       traced["end"])
    )

    total: Counter = Counter()
    own: Counter = Counter()
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        total[span.name] += span.duration
        own[span.name] += self_s
    c = tracer.counts

    def rate(n: float, seconds: float) -> float:
        return n / seconds if seconds else 0.0

    cache = t_pass.cache
    errors = t_pass.prediction_errors
    overhead = traced["seconds"] - untraced["seconds"]
    calls = c["core.compiler.calls"]
    m: dict[str, tuple[float, str]] = {
        "workloads.build_s": (total["workloads.build"], "s"),
        "workloads.kernels": (num_kernels, "count"),
        "fexec.run_s": (total["fexec.run"], "s"),
        "fexec.calls": (c["fexec.calls"], "count"),
        "fexec.dyn_instrs": (c["fexec.dyn_instrs"], "count"),
        "fexec.dyn_instrs_per_s": (
            rate(c["fexec.dyn_instrs"], total["fexec.run"]), "1/s"
        ),
    }
    for op, verb, direction in (
        ("save", "saves", "written"), ("load", "loads", "read")
    ):
        name = f"fexec.trace_store.{op}"
        m[f"{name}_s"] = (total[name], "s")
        m[f"fexec.trace_store.{verb}"] = (c[f"fexec.trace_store.{verb}"],
                                          "count")
        m[f"fexec.trace_store.bytes_{direction}"] = (
            c[f"fexec.trace_store.bytes_{direction}"], "B"
        )
    for key in ("memory_hits", "disk_hits", "generations"):
        m[f"experiments.runner.{key}"] = (cache.get(key, 0), "count")
    m["experiments.runner.recompiles_on_hit"] = (
        _recompiles_on_hit(tracer), "count"
    )
    m["experiments.runner.self_s"] = (own["experiments.runner.lookup"],
                                      "s")
    m["core.compiler.compile_s"] = (total["core.compiler.compile"], "s")
    m["core.compiler.self_s"] = (own["core.compiler.compile"], "s")
    m["core.compiler.calls"] = (calls, "count")
    m["core.compiler.specialized_ratio"] = (
        rate(c["core.compiler.specialized"], calls), "ratio"
    )
    for name in sorted(PASS_SPANS):
        m[f"{name}_s"] = (total[name], "s")
    m["analysis.verifier.verify_s"] = (total["analysis.verifier.verify"],
                                       "s")
    m["analysis.dataflow.hb.solve_s"] = (
        total["analysis.dataflow.hb.solve"], "s"
    )
    m["analysis.transval.validate_s"] = (
        total["analysis.transval.validate"], "s"
    )
    for verdict in ("equivalent", "abstain", "not_equivalent"):
        key = f"analysis.transval.{verdict}"
        m[key] = (c[key], "count")
    m["sim.replay_s"] = (total["sim.replay"], "s")
    m["sim.calls"] = (c["sim.calls"], "count")
    m["sim.issued"] = (c["sim.issued"], "count")
    m["sim.issued_per_s"] = (rate(c["sim.issued"], total["sim.replay"]),
                             "1/s")
    m["sim.cycles"] = (c["sim.cycles"], "cycles")
    m["analysis.perfmodel.predict_s"] = (
        total["analysis.perfmodel.predict"], "s"
    )
    m["analysis.perfmodel.calls"] = (c["analysis.perfmodel.calls"],
                                     "count")
    m["analysis.perfmodel.mean_abs_err"] = (
        sum(errors) / len(errors) if errors else 0.0, "ratio"
    )
    m["experiments.parallel.self_s"] = (parallel_self, "s")
    m["sim_instrs_per_s"] = (
        rate(untraced["pass"].issued, untraced["seconds"]), "1/s"
    )
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_frac"] = (overhead / untraced["seconds"], "ratio")
    return m


def work_done(tracer: Tracer) -> dict[str, int]:
    """The work the traced pass did, counted at the layer boundaries.

    ``simulated_instrs`` counts every simulation, including a
    specialized variant that lost the opt-in; a sweep's rows (and
    ``sim_instrs_per_s``) count only the variant each row kept.
    """
    c = tracer.counts
    return {
        "simulations": c["sim.calls"],
        "simulated_instrs": c["sim.issued"],
        "dyn_instrs": c["fexec.dyn_instrs"],
        "compiles": c["core.compiler.calls"],
    }

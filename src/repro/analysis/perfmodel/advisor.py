"""Analytical pipeline-options advisor (``repro advise``).

Enumerates candidate pipeline configurations — queue depths, stage
splits, TMA offload on/off — and ranks them by *predicted* cycles from
the static performance model, without simulating any of them.  The
winning candidate becomes a suggestion only when its predicted gain
over the defaults clears :data:`SUGGESTION_MARGIN`; the margin absorbs
model error so small predicted wins inside the noise band never turn
into configuration churn.

With ``simulate=True`` (the CLI default) the advisor additionally
*verifies* its suggestion: the default and the suggested configuration
each get one simulator run, and a suggestion that simulates slower
than the defaults is withheld (reported as ``rejected_suggestion`` in
the artifact).  The model's documented blind spots — divergent gather
tails above all — can inflate a predicted gain, and the verification
gate is what makes "acting on a suggestion is never slower than the
defaults" a property the benchmark suite can assert on every registry
workload rather than a statistical hope.

Each kernel's row also carries the model's predicted-vs-simulated error
for the default configuration: one cheap simulation per kernel keeps
every advise artifact an implicit calibration sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.analysis.perfmodel.model import Prediction, predict_traces
from repro.core.compiler import WaspCompilerOptions
from repro.core.compiler.pipeline import options_delta
from repro.sim.config import GPUConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.configs import EvalConfig
    from repro.experiments.runner import TraceCache
    from repro.workloads.base import Kernel

#: JSON schema tag of the advise report artifact.
ADVICE_SCHEMA = "repro-advise-report-v1"

#: Minimum predicted relative gain before a non-default candidate is
#: suggested.  Sized against the calibrated model error (mean ~2%,
#: tail ~10% on the registry): small predicted wins inside the noise
#: band are not worth a configuration change, and suggesting only
#: clear wins keeps "never slower than the defaults when simulated"
#: true in practice.
SUGGESTION_MARGIN = 0.05

#: Queue depths enumerated per kernel (entries per warp channel).
QUEUE_DEPTHS = (8, 16, 32, 64)

#: ``max_stages`` splits enumerated per kernel.
STAGE_SPLITS = (2, 4, 16)


@dataclass
class Candidate:
    """One enumerated configuration with its prediction."""

    label: str
    options: WaspCompilerOptions
    rfq_size: int
    prediction: Prediction | None = None
    specialized: bool = False
    error: str = ""

    def to_json(
        self, default_options: WaspCompilerOptions
    ) -> dict[str, object]:
        data: dict[str, object] = {
            "label": self.label,
            "options_delta": options_delta(default_options, self.options),
            "rfq_size": self.rfq_size,
            "specialized": self.specialized,
        }
        if self.prediction is not None:
            data["predicted_cycles"] = round(self.prediction.cycles, 2)
        if self.error:
            data["error"] = self.error
        return data


@dataclass
class KernelAdvice:
    """Ranked candidates and the gated suggestion for one kernel."""

    kernel_name: str
    default_options: WaspCompilerOptions
    default_prediction: Prediction
    baseline_prediction: Prediction
    #: Ranked cheapest-first by predicted cycles.
    candidates: list[Candidate] = field(default_factory=list)
    suggestion: Candidate | None = None
    #: Simulated cycles of the default configuration (calibration).
    simulated_cycles: float | None = None
    #: Simulated cycles under the suggestion (the verification gate).
    simulated_suggested_cycles: float | None = None
    #: A candidate that cleared the margin analytically but simulated
    #: slower than the defaults — withheld, kept for transparency.
    rejected_suggestion: Candidate | None = None

    @property
    def default_cycles(self) -> float:
        return min(
            self.default_prediction.cycles, self.baseline_prediction.cycles
        )

    @property
    def predicted_gain(self) -> float:
        """Relative improvement of the suggestion over the defaults."""
        if self.suggestion is None or self.suggestion.prediction is None:
            return 0.0
        best = self.suggestion.prediction.cycles
        default = self.default_cycles
        if default <= 0:
            return 0.0
        return 1.0 - best / default

    @property
    def predicted_error(self) -> float | None:
        """|predicted - simulated| / simulated for the default config."""
        if self.simulated_cycles is None or self.simulated_cycles <= 0:
            return None
        return (
            abs(self.default_cycles - self.simulated_cycles)
            / self.simulated_cycles
        )

    def to_json(self) -> dict[str, object]:
        data: dict[str, object] = {
            "kernel": self.kernel_name,
            "default": {
                "options": self.default_options.to_json(),
                "predicted_cycles": round(self.default_cycles, 2),
                "bottleneck_stage": (
                    self.default_prediction.bottleneck_stage
                ),
                "bottleneck_cause": (
                    self.default_prediction.bottleneck_cause
                ),
                "explanation": list(self.default_prediction.explanation),
            },
            "candidates": [
                c.to_json(self.default_options) for c in self.candidates
            ],
            "suggestion": (
                self.suggestion.to_json(self.default_options)
                if self.suggestion is not None
                else None
            ),
            "predicted_gain": round(self.predicted_gain, 4),
        }
        if self.simulated_cycles is not None:
            data["simulated_cycles"] = round(self.simulated_cycles, 2)
            error = self.predicted_error
            data["predicted_error"] = (
                round(error, 4) if error is not None else None
            )
        if self.simulated_suggested_cycles is not None:
            data["simulated_suggested_cycles"] = round(
                self.simulated_suggested_cycles, 2
            )
        if self.rejected_suggestion is not None:
            data["rejected_suggestion"] = self.rejected_suggestion.to_json(
                self.default_options
            )
        return data


@dataclass
class AdviceReport:
    """The full ``repro advise`` artifact for one workload."""

    workload: str
    config_name: str
    kernels: list[KernelAdvice] = field(default_factory=list)

    def to_json(self) -> dict[str, object]:
        return {
            "schema": ADVICE_SCHEMA,
            "workload": self.workload,
            "config": self.config_name,
            "kernels": [k.to_json() for k in self.kernels],
        }


def enumerate_candidates(
    default: WaspCompilerOptions, gpu: GPUConfig
) -> list[Candidate]:
    """The candidate grid: queue depths, stage splits, TMA toggle.

    One axis varies at a time (the model is cheap but the grid is for
    explainability: each candidate's label names the single knob it
    turns).  The default configuration is always candidate zero.
    """
    candidates = [
        Candidate(
            label="default", options=default, rfq_size=gpu.rfq_size
        )
    ]
    # The simulator reads channel capacity from ``gpu.rfq_size`` for
    # both queue implementations (SMEM queues model the same protocol
    # with bandwidth overhead), so a depth candidate changes both the
    # compiler's queue_size and the mirrored hardware capacity.
    for depth in QUEUE_DEPTHS:
        if depth == default.queue_size:
            continue
        candidates.append(Candidate(
            label=f"queue_size={depth}",
            options=replace(default, queue_size=depth),
            rfq_size=depth,
        ))
    for stages in STAGE_SPLITS:
        if stages == default.max_stages:
            continue
        candidates.append(Candidate(
            label=f"max_stages={stages}",
            options=replace(default, max_stages=stages),
            rfq_size=gpu.rfq_size,
        ))
    if gpu.features.wasp_tma:
        toggled = not default.enable_tma_offload
        candidates.append(Candidate(
            label=f"enable_tma_offload={toggled}",
            options=replace(default, enable_tma_offload=toggled),
            rfq_size=gpu.rfq_size,
        ))
    return candidates


def advise_kernel(
    kernel: "Kernel",
    config: "EvalConfig",
    cache: "TraceCache | None" = None,
    margin: float = SUGGESTION_MARGIN,
    simulate: bool = True,
) -> KernelAdvice:
    """Rank candidate configurations for one kernel by predicted cycles."""
    from repro.errors import CompilerError, ResourceError
    from repro.experiments.runner import (
        GLOBAL_CACHE,
        _compiler_options_for,
        _gpu_for,
        run_kernel,
    )

    store = cache if cache is not None else GLOBAL_CACHE
    gpu = _gpu_for(kernel, config)
    default_options = _compiler_options_for(
        kernel, config
    ) or WaspCompilerOptions()

    baseline = predict_traces(
        store.original(kernel), gpu, kernel_name=kernel.name
    )

    candidates = enumerate_candidates(default_options, gpu)
    default_prediction = baseline
    for candidate in candidates:
        cand_gpu = replace(gpu, rfq_size=candidate.rfq_size)
        try:
            traces = store.specialized(kernel, candidate.options)
        except CompilerError as exc:
            candidate.error = f"compile failed: {exc}"
            candidate.prediction = baseline
            continue
        if traces is None:
            # Does not specialize under these options: the kernel runs
            # unchanged, so the candidate predicts the baseline.
            candidate.prediction = baseline
            continue
        try:
            pipelined = predict_traces(
                traces, cand_gpu, kernel_name=kernel.name
            )
        except (ResourceError, ValueError) as exc:
            candidate.error = f"model failed: {exc}"
            candidate.prediction = baseline
            continue
        # Per-kernel opt-in, applied analytically.
        if pipelined.cycles < baseline.cycles:
            candidate.prediction = pipelined
            candidate.specialized = True
        else:
            candidate.prediction = baseline
        if candidate.label == "default":
            default_prediction = pipelined

    candidates.sort(
        key=lambda c: (
            c.prediction.cycles if c.prediction else float("inf")
        )
    )

    advice = KernelAdvice(
        kernel_name=kernel.name,
        default_options=default_options,
        default_prediction=default_prediction,
        baseline_prediction=baseline,
        candidates=candidates,
    )

    best = candidates[0]
    if (
        best.label != "default"
        and best.prediction is not None
        and not best.error
        and advice.default_cycles > 0
        and (1.0 - best.prediction.cycles / advice.default_cycles)
        >= margin
    ):
        advice.suggestion = best

    if simulate:
        result = run_kernel(kernel, config, store)
        advice.simulated_cycles = result.cycles
        if advice.suggestion is not None:
            suggested = run_kernel(
                kernel, apply_suggestion(config, advice), store
            )
            advice.simulated_suggested_cycles = suggested.cycles
            if suggested.cycles > result.cycles:
                # The model over-promised (its documented blind spots
                # can inflate a gain): withhold the suggestion.
                advice.rejected_suggestion = advice.suggestion
                advice.suggestion = None
    return advice


def advise_workload(
    name: str,
    config: "EvalConfig",
    scale: float = 1.0,
    cache: "TraceCache | None" = None,
    margin: float = SUGGESTION_MARGIN,
    simulate: bool = True,
) -> AdviceReport:
    """Run the advisor over every kernel of one registry workload."""
    from repro.workloads import get_benchmark

    benchmark = get_benchmark(name, scale=scale)
    report = AdviceReport(workload=name, config_name=config.name)
    for kernel in benchmark.kernels:
        report.kernels.append(
            advise_kernel(
                kernel,
                config,
                cache=cache,
                margin=margin,
                simulate=simulate,
            )
        )
    return report


def apply_suggestion(
    config: "EvalConfig", advice: KernelAdvice
) -> "EvalConfig":
    """The config the suggestion describes (identity when none)."""
    if advice.suggestion is None:
        return config
    suggestion = advice.suggestion
    return replace(
        config,
        compiler=suggestion.options,
        gpu=replace(config.gpu, rfq_size=suggestion.rfq_size),
    )

"""simulate_* API surface, SimResult helpers, error types, and the CLI."""

import pytest

import repro
from repro.cli import build_parser, main
from repro.errors import (
    CompilerError,
    DeadlockError,
    ExecutionError,
    IneligibleKernelError,
    IsaError,
    ReproError,
    ResourceError,
    SimulationError,
    ValidationError,
)
from repro.fexec import run_kernel
from repro.isa.opcodes import InstrCategory
from repro.sim import simulate_kernel, simulate_program
from repro.sim.config import baseline_a100


def test_error_hierarchy():
    for exc in (
        IsaError, ValidationError, CompilerError, IneligibleKernelError,
        ExecutionError, DeadlockError, SimulationError, ResourceError,
    ):
        assert issubclass(exc, ReproError)
    assert issubclass(ValidationError, IsaError)
    assert issubclass(DeadlockError, ExecutionError)
    assert issubclass(ResourceError, SimulationError)


def test_public_api_exports():
    assert repro.__version__
    assert callable(repro.WaspCompiler)
    assert callable(repro.simulate_program)
    assert callable(repro.run_kernel)


def test_simulate_program_matches_simulate_kernel(stream_setup):
    program, image_factory, launch, _ = stream_setup
    via_program = simulate_program(
        program, image_factory(), launch, baseline_a100()
    )
    traces = run_kernel(program, image_factory(), launch).traces
    via_traces = simulate_kernel(traces, baseline_a100())
    assert via_program.cycles == via_traces.cycles
    assert via_program.issued_total == via_traces.issued_total


def test_sim_result_category_fraction(stream_setup):
    program, image_factory, launch, _ = stream_setup
    result = simulate_program(
        program, image_factory(), launch, baseline_a100()
    )
    fractions = [
        result.category_fraction(c) for c in InstrCategory
    ]
    assert abs(sum(fractions) - 1.0) < 1e-9
    assert result.category_fraction(InstrCategory.MEMORY) > 0
    assert result.dynamic_instructions == result.issued_total


def test_empty_kernel_list_rejected():
    with pytest.raises(SimulationError):
        simulate_kernel([], baseline_a100())


def test_cli_parser_and_list(capsys):
    parser = build_parser()
    args = parser.parse_args(["fig14", "--scale", "0.1"])
    assert args.command == "fig14" and args.scale == 0.1
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig14" in out and "table4" in out


def test_cli_runs_table4(capsys):
    assert main(["table4"]) == 0
    out = capsys.readouterr().out
    assert "Table IV" in out


def test_cli_runs_small_figure(capsys):
    assert main(["fig16", "--scale", "0.25",
                 "--benchmarks", "pointnet"]) == 0
    out = capsys.readouterr().out
    assert "Figure 16" in out


def test_cli_rejects_unknown_artifact():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig99"])


def test_cli_profile_subcommand(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    json_path = tmp_path / "profile.json"
    assert main([
        "profile", "pointnet", "--scale", "0.1", "--no-cache", "--sanitize",
        "--trace-out", str(trace_path), "--json-out", str(json_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "sanitizer: no SMEM races observed" in out
    assert "Stall breakdown" in out
    assert "active warp-cycles" in out
    assert "perfetto" in out

    import json

    from repro.profiling import validate_chrome_trace

    trace = json.loads(trace_path.read_text())
    assert validate_chrome_trace(trace) == []
    doc = json.loads(json_path.read_text())
    assert doc["schema"] == "repro-profile-report-v1"
    assert doc["kernels"]
    kernel = doc["kernels"][0]
    total = sum(kernel["stalls_by_cause"].values())
    assert total + kernel["issued_total"] == pytest.approx(
        kernel["active_warp_cycles"]
    )


def test_cli_profile_rejects_unknown_names(capsys):
    with pytest.raises(SystemExit):
        main(["profile", "no_such_benchmark", "--no-cache"])
    with pytest.raises(SystemExit):
        main(["profile", "pointnet", "--config", "NOPE", "--no-cache"])


def test_cli_artifact_profile_flags(tmp_path, capsys):
    sweep_json = tmp_path / "sweep.json"
    trace_path = tmp_path / "fig3.json"
    assert main([
        "fig3", "--scale", "0.1", "--no-cache", "--profile",
        "--profile-json", str(sweep_json), "--trace-out", str(trace_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "sweep stalls:" in out

    import json

    doc = json.loads(sweep_json.read_text())
    assert doc["schema"] == "repro-sweep-profile-v1"
    assert doc["artifact"] == "fig3"
    assert "trace_cache" in doc
    assert trace_path.exists()

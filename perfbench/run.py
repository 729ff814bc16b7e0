"""Benchmark of the WASP toolchain, end to end and layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --seed 1                      # all workloads
    python3 perfbench/run.py --workload sweep-cold --seed 1 --trace 1

One run of one workload times one whole pass over the workload and
prints its metrics by name and unit, then, as the last line,
``{"correct", "attempted", "failed", "metrics"}`` as JSON.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
pass once untraced and once traced and reports the per-layer metrics
and the tracing overhead.  The exit code is nonzero
when any output check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench"
#: Environment pinned for every run so the caller's settings cannot
#: change the workload: serial, event core, telemetry off, and a
#: private disk cache (``REPRO_CACHE_DIR`` is set per run).
PINNED_ENV = {
    "REPRO_CACHE": "1",
    "REPRO_JOBS": "1",
    "REPRO_SIM_CORE": "event",
    "REPRO_TELEMETRY": "0",
}
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60.0
FILL_TIMEOUT_S = 120.0
#: How long a child's leftover processes may take to exit once killed.
GROUP_EXIT_TIMEOUT_S = 10.0

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers, workloads  # noqa: E402
from perfbench.workloads import SWEEPS, WORKLOADS, PassResult  # noqa: E402


SRC = ROOT / "src"


def _check_sources() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")


def _import_program(cache_dir: Path) -> None:
    """Pin the environment and import ``repro`` from this checkout."""
    os.environ.update(PINNED_ENV, REPRO_CACHE_DIR=str(cache_dir))
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not {SRC}"
        )


def _run_child(cmd: list[str], timeout: float | None) -> tuple[int, str]:
    """Run ``cmd`` in a session of its own; return its exit code and stdout.

    Whatever the child leaves behind in its process group (pool
    workers, a multiprocessing resource tracker) is killed, and this
    returns only once no process of the group is left, on every path
    out: normal exit, timeout or a signal to this process.
    """
    child = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {cmd[2:]} timed out after {timeout} s")
    finally:
        _stop_group(child)
    return child.returncode, stdout


def _stop_group(child: subprocess.Popen) -> None:
    """Kill the child's process group and wait until it is empty."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    deadline = time.monotonic() + GROUP_EXIT_TIMEOUT_S
    while True:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            raise SystemExit(
                f"perfbench: processes of group {child.pid} did not exit"
            )
        time.sleep(0.01)


def _setup_seconds(args: argparse.Namespace) -> list[float]:
    """Set-up time of fresh processes: start to first timed operation.

    Each child reports how much its host-speed probes rescale its own
    set-up; the wall time measured here is rescaled by that ratio.
    """
    cmd = [
        sys.executable, str(Path(__file__)), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        began = time.perf_counter()
        code, stdout = _run_child(cmd, SETUP_TIMEOUT_S)
        wall = time.perf_counter() - began
        if code != 0:
            raise SystemExit(f"perfbench: set-up sample failed (exit {code})")
        samples.append(wall * float(stdout.split()[-1]))
    return samples


def _fill_warm_cache(names: list[str], private: workloads.PrivateDir):
    """Run the warm workload's cold fill in a child; return its rows.

    The child inherits the pinned environment, so it fills the disk
    cache that ``REPRO_CACHE_DIR`` names.
    """
    rows_path = private.path / "fill-rows.json"
    cmd = [
        sys.executable, str(Path(__file__)), "--fill-rows", str(rows_path),
        *names,
    ]
    code, _ = _run_child(cmd, FILL_TIMEOUT_S)
    if code != 0:
        raise SystemExit(f"perfbench: warm-cache fill failed (exit {code})")
    return json.loads(rows_path.read_text())


class Runner:
    """Runs a pass of one workload and checks its outputs."""

    def __init__(self, inputs, expected, fill_rows) -> None:
        self.inputs = inputs
        self.expected = expected
        self.fill_rows = fill_rows

    def run_pass(self) -> PassResult:
        workload = self.inputs.workload
        if workload == "compile-certify":
            return workloads.run_certify_pass(self.inputs.kernels)
        return workloads.run_sweep_pass(
            self.inputs.benchmarks, predict=workload == "sweep-warm"
        )

    def check(self, result: PassResult) -> None:
        """Append the sweep checks' failures (compiles check inline)."""
        if result.operations != self.inputs.tasks:
            result.failures.append(
                f"pass ran {result.operations} operations, the inputs "
                f"hold {self.inputs.tasks}"
            )
        if self.inputs.workload not in SWEEPS:
            return
        result.failures += workloads.check_rows(
            result.rows, self.expected, self.inputs.benchmarks
        )
        if self.inputs.workload == "sweep-warm":
            if result.cache["generations"]:
                result.failures.append(
                    f"warm pass generated {result.cache['generations']} "
                    "traces"
                )
            result.failures += [
                f"{row}: warm {cycles} cycles, cold "
                f"{self.fill_rows.get(row)}"
                for row, cycles in result.rows.items()
                if self.fill_rows.get(row) != cycles
            ]


def _timed_region(runner: Runner) -> dict[str, Any]:
    """Time one pass; summarize it in reference-host time."""
    with workloads.HostSpeed() as speed:
        start = time.perf_counter()
        result = runner.run_pass()
        end = time.perf_counter()
    runner.check(result)
    windows = result.windows
    attempted = max(len(windows), runner.inputs.tasks)
    return {
        "pass": result,
        "start": start,
        "end": end,
        "seconds": speed.seconds(start, end),
        "latencies": [speed.seconds(a, b) for a, b in windows],
        "raw_seconds": end - start,
        "raw_latencies": [b - a for a, b in windows],
        "attempted": attempted,
        "failed": min(attempted, len(result.failures)),
        "failures": result.failures,
        "speed": speed,
    }


def _unscaled(region: dict[str, Any]) -> dict[str, float]:
    """The gated times before host-speed rescaling."""
    raw = region["raw_latencies"]
    return {
        "tasks_per_s": region["pass"].operations / region["raw_seconds"],
        "task_p50_ms": 1e3 * workloads.percentile(raw, 0.5),
        "task_p90_ms": 1e3 * workloads.percentile(raw, 0.9),
    }


def _end_to_end(region, setup_samples) -> dict[str, tuple[float, str]]:
    latencies = region["latencies"]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "tasks_per_s": (
            region["pass"].operations / region["seconds"], "1/s"
        ),
        "task_p50_ms": (1e3 * workloads.percentile(latencies, 0.5), "ms"),
        "task_p90_ms": (1e3 * workloads.percentile(latencies, 0.9), "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def run_one(args: argparse.Namespace) -> int:
    _check_sources()
    with workloads.PrivateDir(RUN_DIR / "tmp") as private:
        tracer = layers.Tracer()
        with workloads.HostSpeed() as speed:
            began = time.perf_counter()
            _import_program(private.fresh("cache"))
            expected = workloads.load_expected()
            if args.trace:
                with tracer:
                    inputs = workloads.build_inputs(
                        args.workload, args.seed, expected
                    )
            else:
                inputs = workloads.build_inputs(
                    args.workload, args.seed, expected
                )
            ended = time.perf_counter()
        if args.setup_only:
            print(speed.seconds(began, ended) / (ended - began))
            return 0
        setup = [] if args.trace else _setup_seconds(args)
        fill_rows: dict[str, float] = {}
        if args.workload == "sweep-warm":
            fill_rows = _fill_warm_cache(inputs.benchmarks, private)
        runner = Runner(inputs, expected, fill_rows)

        region = _timed_region(runner)
        result = region["pass"]
        record: dict[str, Any] = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "fingerprint": inputs.fingerprint,
            "work": {"tasks": inputs.tasks, "issued_instrs": result.issued},
            "host_speed": _host_speed(region["speed"]),
            "unscaled": _unscaled(region),
        }
        _print_context(region, inputs, record)
        if args.trace:
            # The traced pass starts from the state the untraced one
            # saw: an empty memory tier, and for a cold sweep an empty
            # disk cache.
            workloads.reset_trace_cache(
                private.fresh("cache-traced")
                if args.workload == "sweep-cold" else None
            )
            with tracer:
                traced = _timed_region(runner)
            for key in ("attempted", "failed", "failures"):
                region[key] += traced[key]
            metrics = layers.per_layer_metrics(
                tracer, args.workload, inputs.num_kernels,
                untraced=region, traced=traced,
            )
            record["work"].update(layers.work_done(tracer))
            spans_path = (
                RUN_DIR / "spans" / f"{args.workload}-seed{args.seed}.json"
            )
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps(tracer.to_json()))
            print(f"spans: {len(tracer.spans)} written to {spans_path}")
        else:
            metrics = _end_to_end(region, setup)
    return _report(args, region, metrics, record)


def _host_speed(speed: workloads.HostSpeed) -> dict[str, Any]:
    return {
        "rescaled": speed.rescaled,
        "probes": len(speed.probes),
        "median_probe_s": (
            statistics.median(speed.probes) if speed.probes else None
        ),
        "reference_probe_s": speed.REFERENCE_PROBE_S,
        "max_threads": speed.threads,
    }


def _print_context(region: dict[str, Any], inputs, record) -> None:
    attempted = region["attempted"]
    host = record["host_speed"]
    print(f"fingerprint: {inputs.fingerprint}")
    print("work units: " + " ".join(
        f"{k}={v}" for k, v in sorted(record["work"].items())
    ))
    print(f"timed region: {region['raw_seconds']:.3f} host s = "
          f"{region['seconds']:.3f} reference s, one pass, {attempted} "
          f"operations (p90 over {attempted} samples)")
    if host["rescaled"]:
        print(f"host speed: {host['probes']} probes, median "
              f"{1e6 * host['median_probe_s']:.1f} us (reference "
              f"{1e6 * host['reference_probe_s']:.1f} us)")
    else:
        print(f"host speed: NOT rescaled, the process ran "
              f"{host['max_threads']} threads in the timed region, which "
              "slow the probe too; times are plain host seconds")
    print("unscaled: " + ", ".join(
        f"{name} {value:.4f}" for name, value in record["unscaled"].items()
    ))
    if inputs.workload in SWEEPS:
        rate = region["pass"].issued / region["seconds"]
        print(f"sim_instrs_per_s: {rate:.1f} 1/s (issued instructions "
              "per reference second)")


def _report(args, region, metrics, record) -> int:
    correct = region["failed"] == 0 and not region["failures"]
    for failure in region["failures"][:20]:
        print(f"FAILED: {failure}")
    attempted = region["attempted"]
    print(f"failed_frac: {region['failed'] / attempted} ratio "
          f"({region['failed']}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name}: {value} {unit}")
    record.update(
        correct=correct,
        attempted=attempted,
        failed=region["failed"],
        metrics={n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    )
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": region["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process; one combined result.

    Metrics are keyed ``<workload>.<metric>``.  No combined result is
    printed unless every workload produced one.
    """
    combined: dict[str, Any] = {
        "correct": True, "attempted": 0, "failed": 0, "metrics": {},
    }
    status = 0
    complete = True
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__)), "--workload", workload,
            "--seed", str(args.seed), "--trace", str(args.trace),
        ]
        code, stdout = _run_child(cmd, None)
        lines = stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or code
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{workload}: no result (exit {code})")
            complete = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    if not complete:
        return status or 1
    print(json.dumps(combined))
    return status


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=(*WORKLOADS, "all"), default="all"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float,
        help="accepted for a common benchmark interface and ignored: a "
        "run always times one whole pass of its workload",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", help="write the full result record (fingerprint, work "
        "units, metrics) as JSON; single workload only",
    )
    parser.add_argument(
        "--setup-only", action="store_true", help=argparse.SUPPRESS
    )
    parser.add_argument("--fill-rows", help=argparse.SUPPRESS)
    parser.add_argument("benchmarks", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all" and (args.out or args.setup_only):
        parser.error("--out and --setup-only need a single --workload")
    if args.benchmarks and not args.fill_rows:
        parser.error(f"unexpected arguments: {' '.join(args.benchmarks)}")
    return args


def _terminate(signum: int, _frame: object) -> None:
    # Unwind normally so children are stopped and the private cache
    # directory is removed.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if args.fill_rows:
        _check_sources()
        _import_program(Path(os.environ["REPRO_CACHE_DIR"]))
        workloads.fill_cache(args.benchmarks, args.fill_rows)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

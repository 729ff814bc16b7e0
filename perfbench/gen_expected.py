"""Regenerate ``perfbench/expected.json``.

Usage, from the repository root::

    python3 perfbench/gen_expected.py

Writes, for every registry benchmark at the sweep scale:

* ``rows``: simulated cycles per ``kernel/config`` row, computed with
  the *reference* SM core (never the event core the benchmark runs),
  so the benchmark's cycle check compares two independent cores;
* ``cost_s``: ``[cold, warm]`` reference seconds per row (median of
  ``REPEATS`` sweeps on the event core), used only to pick draws;

then ``draws``: the category-stratified 16-benchmark draws whose task
count, total cost, throughput and median and 90th-percentile task
cost, on both the cold and the warm sweep, lie within
``draw_tolerance`` of the median over all stratified draws; and
``certify_draws``: sets of 40 fuzz seeds from a pool of
``CERTIFY_POOL``, filling the skeleton quotas, whose compile cost
profile lies within ``certify_tolerance`` of the median draw.  Seeds
choose among these, so a seed changes which kernels run but not how
much work the run measures.

Rerun it when the program's simulated results, the registry or the
fuzz generator change; a change only in host speed does not need it.
Takes about ten minutes.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import random
import re
import statistics
import sys
from pathlib import Path
from typing import Any, Callable, Hashable

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402

REPEATS = 3
CERTIFY_POOL = 300
CERTIFY_SAMPLES = 20000
TOLERANCES = (0.02, 0.03, 0.04, 0.05, 0.06, 0.08, 0.1)
MIN_DRAWS = 50
MAX_DRAWS = 256


def _reference_rows(names: list[str]) -> dict[str, dict]:
    from repro.experiments.runner import configure_global_cache

    os.environ["REPRO_SIM_CORE"] = "reference"
    configure_global_cache(enabled=False)
    out = {}
    for name in names:
        result = workloads.run_sweep_pass([name], predict=False)
        out[name] = {
            "rows": {
                row.split("/", 1)[1]: cycles
                for row, cycles in result.rows.items()
            },
        }
        print(f"{name}: {len(result.rows)} rows", flush=True)
    return out


def _add_costs(
    costs: dict[str, list[float]], run: Callable[[], Any]
) -> None:
    """Run one pass; append each operation's reference seconds."""
    with workloads.HostSpeed() as speed:
        result = run()
    if result.failures:
        raise SystemExit(f"failed: {result.failures[:3]}")
    for label, (a, b) in zip(result.labels, result.windows):
        costs.setdefault(label, []).append(speed.seconds(a, b))


def _sweep_costs(names: list[str], private) -> dict[str, list[float]]:
    """Per-row ``[cold, warm]`` reference seconds on the event core."""
    os.environ["REPRO_SIM_CORE"] = "event"
    cold: dict[str, list[float]] = {}
    warm: dict[str, list[float]] = {}
    for repeat in range(REPEATS):
        workloads.reset_trace_cache(private.fresh(f"cache-{repeat}"))
        _add_costs(cold, lambda: workloads.run_sweep_pass(names, False))
        workloads.reset_trace_cache(None)
        _add_costs(warm, lambda: workloads.run_sweep_pass(names, True))
        print(f"sweep costs: repeat {repeat} done", flush=True)
    return {
        row: [statistics.median(cold[row]), statistics.median(warm[row])]
        for row in cold
    }


def _certify_costs() -> dict[int, list[float]]:
    """Per fuzz seed of the pool: reference seconds of its 12 compiles."""
    from repro.fuzz import generator
    from repro.fuzz.spec import generate_spec

    kernels = [
        (s, generator.build_kernel(generate_spec(s)))
        for s in range(CERTIFY_POOL)
    ]
    costs: dict[str, list[float]] = {}
    for repeat in range(2):
        _add_costs(costs, lambda: workloads.run_certify_pass(kernels))
        print(f"certify costs: repeat {repeat} done", flush=True)
    out: dict[int, list[float]] = {}
    for label, values in costs.items():
        seed = int(label.split("/", 1)[0])
        out.setdefault(seed, []).append(statistics.median(values))
    return out


def _profile(values: list[float]) -> list[float]:
    """Operation count, total cost, throughput, median and p90 cost."""
    return [
        len(values), sum(values), len(values) / sum(values),
        workloads.percentile(values, 0.5),
        workloads.percentile(values, 0.9),
    ]


def _matched(
    profiles: dict[Hashable, list[float]],
) -> tuple[float, list[Any]]:
    """The tightest tolerance that keeps ``MIN_DRAWS`` draws, and them."""
    size = len(next(iter(profiles.values())))
    medians = [
        statistics.median(p[i] for p in profiles.values())
        for i in range(size)
    ]
    for tolerance in TOLERANCES:
        kept = [
            list(draw) for draw, p in profiles.items()
            if all(abs(x / m - 1) <= tolerance
                   for x, m in zip(p, medians))
        ]
        if len(kept) >= MIN_DRAWS:
            return tolerance, kept[:MAX_DRAWS]
    raise SystemExit("no tolerance leaves enough matched draws")


def _sweep_draws(
    categories: dict[str, list[str]], costs: dict[str, list[float]]
) -> tuple[float, list[list[str]]]:
    by_bench: dict[str, list[list[float]]] = {}
    for row, (cold, warm) in costs.items():
        entry = by_bench.setdefault(row.split("/", 1)[0], [[], []])
        entry[0].append(cold)
        entry[1].append(warm)
    profiles = {}
    for parts in itertools.product(*(
        itertools.combinations(sorted(categories[c]), k)
        for c, k in workloads.CATEGORY_QUOTAS.items()
    )):
        draw = sum(parts, ())
        profiles[draw] = [
            x for phase in (0, 1)
            for x in _profile([c for b in draw for c in by_bench[b][phase]])
        ]
    return _matched(profiles)


def _certify_draws(
    costs: dict[int, list[float]],
) -> tuple[float, list[list[int]]]:
    from repro.fuzz.spec import generate_spec

    pool: dict[str, list[int]] = {}
    for seed in sorted(costs):
        pool.setdefault(generate_spec(seed).skeleton, []).append(seed)
    rng = random.Random(0)
    profiles = {}
    for _ in range(CERTIFY_SAMPLES):
        draw = tuple(
            seed for skeleton, k in workloads.SKELETON_QUOTAS.items()
            for seed in sorted(rng.sample(pool[skeleton], k))
        )
        profiles[draw] = _profile([c for s in draw for c in costs[s]])
    return _matched(profiles)


def dump(doc: dict[str, Any]) -> str:
    """Indented JSON with every list of scalars kept on one line."""
    text = json.dumps(doc, indent=1)
    return re.sub(
        r"\[\s+([^\[\]{}]*?)\s+\]",
        lambda m: "[" + re.sub(r"\s*\n\s*", " ", m.group(1)) + "]",
        text,
    ) + "\n"


def main() -> None:
    private = workloads.PrivateDir(ROOT / ".perfbench" / "tmp")
    with private:
        os.environ.update(
            REPRO_CACHE_DIR=str(private.fresh("cache")), REPRO_JOBS="1",
            REPRO_TELEMETRY="0",
        )
        from repro.experiments.configs import standard_configs
        from repro.workloads import all_benchmarks, get_benchmark

        names = all_benchmarks()
        benchmarks = _reference_rows(names)
        costs = _sweep_costs(names, private)
        certify = _certify_costs()
    categories: dict[str, list[str]] = {}
    for name in names:
        category = get_benchmark(name, workloads.SCALE).category
        categories.setdefault(category, []).append(name)
        benchmarks[name]["category"] = category
        benchmarks[name]["cost_s"] = {
            row.split("/", 1)[1]: [round(x, 5) for x in cost]
            for row, cost in costs.items()
            if row.startswith(f"{name}/")
        }
    tolerance, draws = _sweep_draws(categories, costs)
    certify_tolerance, certify_draws = _certify_draws(certify)
    doc = {
        "scale": workloads.SCALE,
        "core": "reference",
        "configs": [c.name for c in standard_configs()],
        "cost_host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                     f"Python {platform.python_version()}",
        "draw_tolerance": tolerance,
        "draws": draws,
        "certify_tolerance": certify_tolerance,
        "certify_draws": certify_draws,
        "certify_cost_s": {
            str(s): round(sum(c), 5) for s, c in sorted(certify.items())
        },
        "benchmarks": benchmarks,
    }
    workloads.EXPECTED_PATH.write_text(dump(doc))
    print(f"wrote {workloads.EXPECTED_PATH}: {len(draws)} sweep draws at "
          f"tolerance {tolerance}, {len(certify_draws)} certify draws at "
          f"tolerance {certify_tolerance}")


if __name__ == "__main__":
    main()

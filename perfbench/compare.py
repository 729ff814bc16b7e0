"""Compare two result records written by ``run.py --out``.

Usage, from the repository root::

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both records with the relative change, marking
an end-to-end metric that got worse by more than its bound in
``BENCHMARK.json``, then the times before host-speed rescaling and the
work units each run did.  Two records are comparable only when they
measured the same work in the same mode: the same workload,
``--trace`` value, input fingerprint (a digest of kernel contents,
configurations, option sets, depths, scale and seed) and task count.
Anything else is refused with exit code 2, so a faster number can
never come from a smaller workload.  The other work units (compiles,
simulations, instructions) are what the program did for those tasks;
they may differ, and are shown, not refused.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class Refused(Exception):
    """The two records measured different work."""


def compare(
    base: dict[str, Any],
    new: dict[str, Any],
    bounds: dict[str, tuple[str, float]] | None = None,
) -> list[str]:
    """One line per metric; raises :class:`Refused` on different work."""
    identity = [
        ("workload", base.get("workload"), new.get("workload")),
        ("trace", base.get("trace"), new.get("trace")),
        ("fingerprint", base.get("fingerprint"), new.get("fingerprint")),
        ("tasks", base["work"]["tasks"], new["work"]["tasks"]),
    ]
    for key, old, now in identity:
        if old != now:
            raise Refused(f"different {key}: {old!r} vs {now!r}")
    bounds = bounds or {}
    lines = []
    rescaled = [r.get("host_speed", {}).get("rescaled") for r in (base, new)]
    if rescaled[0] != rescaled[1]:
        lines.append("host speed: only one record is rescaled to the "
                     "reference host; compare the unscaled lines")
    for name, old in base["metrics"].items():
        value = new["metrics"][name]["value"]
        line = f"{name}: {_change(old['value'], value)} {old['unit']}"
        if name in bounds and old["value"]:
            better, bound = bounds[name]
            change = value / old["value"] - 1
            worse = -change if better == "higher" else change
            if worse > bound:
                line += f"  WORSE than its {bound:.0%} bound"
        lines.append(line)
    for name, old in base.get("unscaled", {}).items():
        if name in new.get("unscaled", {}):
            lines.append(f"unscaled {name}: "
                         f"{_change(old, new['unscaled'][name])}")
    for name, old in base["work"].items():
        if name != "tasks" and name in new["work"]:
            lines.append(f"work {name}: {_change(old, new['work'][name])}")
    return lines


def _change(old: float, new: float) -> str:
    change = f" ({new / old - 1:+.1%})" if old else ""
    return f"{old:.6g} -> {new:.6g}{change}"


def _bounds() -> dict[str, tuple[str, float]]:
    if not BENCHMARK_JSON.is_file():
        return {}
    doc = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in doc["end_to_end"]}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    try:
        lines = compare(base, new, _bounds())
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

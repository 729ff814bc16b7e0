"""Greedy spec minimization.

When the oracle fails on a spec, the shrinker searches for the smallest
spec that still fails *the same check*.  It is a classic greedy
delta-debugger over :data:`repro.fuzz.spec.SHRINK_FIELDS`: repeatedly
try the candidate reductions (nearest-to-minimum first) and restart
from any candidate that still reproduces, until no reduction does.

Reproduction means "``run_oracle`` reports a failure with the same
``check`` id" — not byte-identical messages, which legitimately change
as sizes shrink.  The shrinker is deterministic: candidates are tried
in a fixed order and the first reproducing one wins.
"""

from __future__ import annotations

from typing import Callable

from repro.fuzz.spec import FuzzSpec, shrink_candidates

#: Safety valve: maximum oracle invocations per shrink.
MAX_ATTEMPTS = 64


def shrink_spec(
    spec: FuzzSpec,
    check: str,
    reproduce: "Callable[[FuzzSpec], list] | None" = None,
    inject: str | None = None,
    max_attempts: int = MAX_ATTEMPTS,
) -> FuzzSpec:
    """Smallest spec (greedy) whose oracle run still fails ``check``.

    ``reproduce`` maps a spec to its list of failures; the default runs
    the full oracle with ``inject``.
    Returns ``spec`` unchanged when nothing smaller reproduces.
    """
    if reproduce is None:
        from repro.fuzz.oracle import run_oracle

        # The timing relations only matter when that's what failed;
        # otherwise skipping them makes each shrink probe ~5x cheaper.
        metamorphic = check.startswith("timing-")

        def reproduce(candidate: FuzzSpec) -> list:
            return run_oracle(
                candidate, metamorphic=metamorphic, inject=inject,
            ).failures

    attempts = 0
    current = spec
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for candidate in shrink_candidates(current):
            if attempts >= max_attempts:
                break
            attempts += 1
            try:
                failures = reproduce(candidate)
            except Exception:
                continue  # a broken candidate is not a repro
            if any(f.check == check for f in failures):
                current = candidate
                progress = True
                break
    return current

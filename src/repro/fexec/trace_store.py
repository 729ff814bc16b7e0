"""Persistent content-addressed store for functional traces.

Functional trace generation dominates the cost of every figure
reproduction, and the traces themselves are pure functions of (program,
launch, initial memory image, compiler options) and of the code that
generates them.  This module persists them on disk under a content key
so they survive across processes: benchmark files, CI jobs and CLI
invocations all reuse one another's work, and the cache directory can
be shipped as a CI artifact.  The caller owns the key and every
staleness rule in it (:meth:`repro.experiments.runner.TraceCache.key_for`).

Layout: one gzip-compressed JSON file per entry,
``<cache_dir>/<key>.json.gz``, holding ``{"key": ..., "traces": ...}``;
each kernel trace is a table of its distinct records plus one index
list per warp (:mod:`repro.fexec.trace`).  An entry is written with a
single ``json.dumps`` and ``gzip.compress`` call and read back with a
single ``gzip.decompress`` and ``json.loads``.  Any read failure —
missing file, corrupt gzip/JSON, key mismatch, an index outside its
table — is treated as a miss so a bad cache can only cost time, never
correctness.

Environment knobs:

``REPRO_CACHE_DIR``
    Cache directory (default ``.repro_cache`` in the working directory).
``REPRO_CACHE``
    Set to ``0``/``off``/``false`` to disable persistence entirely.
"""

from __future__ import annotations

import gzip
import json
import os
import tempfile
import time
import zlib
from pathlib import Path

from repro.fexec.trace import KernelTrace, decode_traces, encode_traces
from repro.telemetry.registry import TELEMETRY

DEFAULT_CACHE_DIR = ".repro_cache"
_DISABLE_VALUES = {"0", "off", "false", "no"}


def _tel_io(op: str, outcome: str, nbytes: int, seconds: float) -> None:
    """Fold one store operation into the registry (cold path only).

    Disk locality depends on what other processes wrote, so these are
    ``invariant=False`` — excluded from the jobs-invariance contract.
    """
    labels = {"op": op, "outcome": outcome}
    TELEMETRY.counter(
        "repro_tracestore_ops_total", labels,
        help="TraceStore loads/saves by outcome", invariant=False,
    ).inc()
    TELEMETRY.counter(
        "repro_tracestore_bytes_total", labels,
        help="Compressed bytes moved by the TraceStore",
        invariant=False,
    ).inc(nbytes)
    TELEMETRY.counter(
        "repro_tracestore_io_seconds_total", labels,
        help="Wall-clock seconds in TraceStore I/O", invariant=False,
    ).inc(seconds)


def cache_enabled() -> bool:
    """Whether the persistent cache is enabled by the environment."""
    return os.environ.get("REPRO_CACHE", "1").lower() not in _DISABLE_VALUES


def default_cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


class TraceStore:
    """One directory of content-addressed trace files."""

    def __init__(self, cache_dir: str | Path | None = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()

    @classmethod
    def from_env(cls) -> "TraceStore | None":
        """The environment-configured store, or ``None`` if disabled."""
        if not cache_enabled():
            return None
        return cls(default_cache_dir())

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json.gz"

    # -- read/write ---------------------------------------------------------

    def load(self, key: str) -> list[KernelTrace] | None:
        """The traces stored under ``key``, or ``None`` on any failure."""
        path = self._path(key)
        telemetry = TELEMETRY.enabled
        started = time.perf_counter() if telemetry else 0.0
        traces, nbytes = None, 0
        try:
            raw = path.read_bytes()
            envelope = json.loads(gzip.decompress(raw))
            if isinstance(envelope, dict) and envelope.get("key") == key:
                traces = decode_traces(envelope["traces"])
                nbytes = len(raw)
        except (OSError, EOFError, zlib.error, ValueError, KeyError,
                IndexError, TypeError):
            pass
        if telemetry:
            _tel_io("load", "miss" if traces is None else "hit", nbytes,
                    time.perf_counter() - started)
        return traces

    def save(self, key: str, traces: list[KernelTrace]) -> bool:
        """Persist ``traces`` under ``key``.

        The write is atomic (temp file + rename) so concurrent workers
        racing on the same key leave a complete file either way.
        Returns ``False`` if the entry could not be written.
        """
        envelope = {"key": key, "traces": encode_traces(traces)}
        telemetry = TELEMETRY.enabled
        started = time.perf_counter() if telemetry else 0.0
        data = gzip.compress(
            json.dumps(envelope, separators=(",", ":")).encode(), 6
        )
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.cache_dir, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp_name, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            if telemetry:
                _tel_io("save", "written", len(data),
                        time.perf_counter() - started)
            return True
        except OSError:
            if telemetry:
                _tel_io("save", "failed", 0,
                        time.perf_counter() - started)
            return False

    # -- maintenance --------------------------------------------------------

    def entry_count(self) -> int:
        if not self.cache_dir.is_dir():
            return 0
        return sum(1 for _ in self.cache_dir.glob("*.json.gz"))

    def clear(self) -> int:
        """Delete every entry, and the temp files of writers killed
        before their rename; returns the number of entries removed."""
        removed = 0
        if self.cache_dir.is_dir():
            for path in [*self.cache_dir.glob("*.json.gz"),
                         *self.cache_dir.glob("*.tmp")]:
                try:
                    path.unlink()
                except OSError:
                    continue
                removed += path.name.endswith(".json.gz")
        return removed

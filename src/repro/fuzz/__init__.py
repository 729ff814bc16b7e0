"""Differential fuzzing of the compiler → functional executor → simulator stack.

The static verifier (:mod:`repro.analysis`) proves structural protocol
properties of warp-specialized programs; this package hammers the
*semantics*: a randomly generated kernel compiled through
:class:`~repro.core.compiler.WaspCompiler` must compute bit-identical
global memory to its unspecialized original, keep its dynamic
instruction accounting consistent, and obey the simulator's metamorphic
timing invariants.

Pieces:

* :mod:`repro.fuzz.spec` / :mod:`repro.fuzz.generator` — seeded,
  replayable random kernels over the paper's access skeletons
  (streaming, gather, tiled SMEM double-buffer, reduction, mixed
  control flow);
* :mod:`repro.fuzz.oracle` — the differential baseline-vs-WASP oracle;
* :mod:`repro.fuzz.metamorphic` — timing invariants on the simulator;
* :mod:`repro.fuzz.mutate` — deliberate pipeline corruptions used to
  prove the oracle (and the static verifier) actually catch bugs;
* :mod:`repro.fuzz.shrink` — minimizes a failing spec to a small repro;
* :mod:`repro.fuzz.corpus` — persists failures under ``tests/corpus/``
  so every past failure becomes a permanent regression test;
* :mod:`repro.fuzz.runner` — the ``repro fuzz`` fan-out (parallel,
  every seed checked afresh, deterministic across ``--jobs``).
"""

from repro.fuzz.corpus import (
    CorpusEntry,
    default_corpus_dir,
    load_corpus,
    save_failure,
)
from repro.fuzz.generator import build_kernel
from repro.fuzz.metamorphic import check_timing_invariants
from repro.fuzz.mutate import MUTATIONS, apply_mutation
from repro.fuzz.oracle import (
    FuzzFailure,
    FuzzWarning,
    OracleReport,
    run_oracle,
)
from repro.fuzz.runner import FuzzReport, run_fuzz
from repro.fuzz.shrink import shrink_spec
from repro.fuzz.spec import SKELETONS, FuzzSpec, generate_spec

__all__ = [
    "MUTATIONS",
    "SKELETONS",
    "CorpusEntry",
    "FuzzFailure",
    "FuzzReport",
    "FuzzSpec",
    "FuzzWarning",
    "OracleReport",
    "apply_mutation",
    "build_kernel",
    "check_timing_invariants",
    "default_corpus_dir",
    "generate_spec",
    "load_corpus",
    "run_fuzz",
    "run_oracle",
    "save_failure",
    "shrink_spec",
]

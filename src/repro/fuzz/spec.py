"""Seeded, replayable kernel specifications.

A :class:`FuzzSpec` is the *entire* identity of a generated kernel: the
program, its memory image and its launch are pure functions of the spec
(:func:`repro.fuzz.generator.build_kernel`), and the spec itself is a
pure function of an integer seed (:func:`generate_spec`).  Specs are
plain JSON-able data so failing ones can be persisted to the corpus and
mutated by the shrinker without losing replayability.

Randomness uses the stdlib :class:`random.Random` (no third-party
dependency) seeded with the spec seed; the generator's memory contents
use :func:`numpy.random.default_rng` with the same seed.  Both are
stable across processes and platforms.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from typing import Any

#: The access skeletons the paper names (Section II / Table II classes),
#: plus ``deep``: coupled dual-stream tiles shaped for N-stage circular
#: buffering (the attention-class pipeline pattern).
SKELETONS = ("streaming", "gather", "tiled", "reduction", "mixed", "deep")

#: Spec format version; bumped when generated programs change for the
#: same spec, so a stored spec names the generator that built it.
#: v2: deep skeleton added; every sixth seed re-routes to it.
SPEC_VERSION = 2


@dataclass(frozen=True)
class FuzzSpec:
    """Parameters of one generated kernel.

    Every field is drawn by :func:`generate_spec`; fields irrelevant to
    a skeleton keep their canonical minimum so shrinking and hashing
    stay stable.  ``iters`` is the per-warp loop trip count (or tile
    count for the tiled skeleton).
    """

    seed: int
    skeleton: str
    num_warps: int = 2
    warp_width: int = 8
    num_tbs: int = 1
    iters: int = 2
    num_inputs: int = 1
    fp_ops: int = 0
    gather_depth: int = 1
    table_words: int = 64
    tile_elems: int = 64
    inner_trip: int = 2
    scale_imm: float = 1.0
    reduce_op: str = "sum"

    def to_json(self) -> dict[str, Any]:
        doc = asdict(self)
        doc["version"] = SPEC_VERSION
        return doc

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "FuzzSpec":
        fields = {k: v for k, v in doc.items() if k != "version"}
        spec = cls(**fields)
        if spec.skeleton not in SKELETONS:
            raise ValueError(f"unknown skeleton {spec.skeleton!r}")
        return spec

    def describe(self) -> str:
        """Compact one-line rendering for reports."""
        extras = {
            "streaming": f"inputs={self.num_inputs}",
            "gather": f"depth={self.gather_depth} table={self.table_words}",
            "tiled": f"tile={self.tile_elems}",
            "reduction": f"op={self.reduce_op}",
            "mixed": f"inner={self.inner_trip} op={self.reduce_op}",
            "deep": f"tile={self.tile_elems} inputs={self.num_inputs}",
        }[self.skeleton]
        return (
            f"seed={self.seed} {self.skeleton} warps={self.num_warps}"
            f"x{self.warp_width} tbs={self.num_tbs} iters={self.iters} "
            f"fp={self.fp_ops} {extras}"
        )


def generate_spec(seed: int) -> FuzzSpec:
    """The spec for ``seed`` — deterministic and replayable."""
    rng = random.Random(seed)
    # Draw from the original five skeletons so historical seed->spec
    # mappings (pinned test seeds, committed corpus entries) survive
    # the addition of ``deep``; every sixth seed re-routes there
    # deterministically instead of widening the draw.
    skeleton = SKELETONS[rng.randrange(5)]
    if seed % 6 == 5:
        skeleton = "deep"
    spec = FuzzSpec(
        seed=seed,
        skeleton=skeleton,
        num_warps=rng.randint(1, 4),
        warp_width=rng.choice([4, 8]),
        num_tbs=rng.randint(1, 3),
        iters=rng.randint(1, 5),
        fp_ops=rng.randint(0, 4),
        scale_imm=rng.choice([1.0, 0.5, 2.0, -1.5, 1.0009765625]),
    )
    if skeleton == "streaming":
        spec = replace(spec, num_inputs=rng.randint(1, 3))
    elif skeleton == "gather":
        spec = replace(
            spec,
            gather_depth=rng.randint(1, 2),
            table_words=rng.choice([32, 64, 256]),
        )
    elif skeleton == "tiled":
        # Tile must cover all lanes of all warps at least once.
        spec = replace(
            spec,
            tile_elems=spec.num_warps * spec.warp_width
            * rng.choice([1, 2]),
            iters=rng.randint(2, 6),
        )
    elif skeleton == "reduction":
        spec = replace(spec, reduce_op=rng.choice(["sum", "min", "max"]))
    elif skeleton == "mixed":
        spec = replace(
            spec,
            inner_trip=rng.randint(1, 4),
            table_words=rng.choice([32, 64]),
            reduce_op=rng.choice(["sum", "min", "max"]),
        )
    elif skeleton == "deep":
        # Two coupled SMEM streams per tile; enough tiles that a deep
        # circular buffer (pipeline_depth up to 8) turns over fully.
        spec = replace(
            spec,
            tile_elems=spec.num_warps * spec.warp_width
            * rng.choice([1, 2]),
            iters=rng.randint(3, 8),
            num_inputs=2,
        )
    return spec


#: Shrink targets: (field, minimum) in the order the shrinker tries
#: them.  Structural fields (skeleton, seed) never shrink; sizes shrink
#: toward the smallest kernel that still reproduces a failure.
SHRINK_FIELDS: tuple[tuple[str, int], ...] = (
    ("num_tbs", 1),
    ("iters", 1),
    ("num_warps", 1),
    ("fp_ops", 0),
    ("num_inputs", 1),
    ("gather_depth", 1),
    ("inner_trip", 1),
    ("table_words", 32),
    ("warp_width", 4),
)


def shrink_candidates(spec: FuzzSpec) -> list[FuzzSpec]:
    """Strictly smaller specs to try, nearest-to-minimum first.

    For each shrinkable field this proposes the minimum and the halfway
    point; the tiled and deep skeletons keep ``tile_elems`` in lockstep
    with the thread count so the generated program stays well-formed.
    """
    out: list[FuzzSpec] = []
    for field, minimum in SHRINK_FIELDS:
        value = getattr(spec, field)
        for target in (minimum, (value + minimum) // 2):
            if target >= value:
                continue
            candidate = replace(spec, **{field: target})
            if candidate.skeleton in ("tiled", "deep"):
                candidate = replace(
                    candidate,
                    tile_elems=candidate.num_warps * candidate.warp_width,
                )
            out.append(candidate)
    return out

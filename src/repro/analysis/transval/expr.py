"""Normalized symbolic expressions for translation validation.

The validator compares the memory effects of the source kernel and the
warp-specialized program *structurally*: both sides are walked with the
same symbolic evaluator (mirroring :mod:`repro.fexec.machine` semantics
exactly) and every value is rebuilt through the normalizing smart
constructors below, so semantically identical computations collapse to
identical trees and plain ``==`` decides equivalence.

Normal form: n-ary ``add``/``mul`` with constants folded, products
distributed over sums and like terms collected, so affine address
arithmetic — the bread and butter of tile/stream kernels — lands in a
canonical sum-of-products shape.  Everything the machine computes with
floor/bit semantics (``shl``, ``idiv``, …) stays opaque but is folded
exactly when all operands are constant, using the very same formulas as
the functional executor.

Loop-carried structure is expressed with dedicated nodes:

``LoopIdx(loop)``
    The current iteration index of ``loop`` (0-based).  Loop identity is
    the *stripped* head-block label (stage prefix and ``__db<k>`` ring
    suffix removed), which is stable across the source, the stage
    sections and the unrolled ring copies.
``RecPhi(loop, slot)`` / ``RecExit(loop, slot)``
    A genuine loop-carried recurrence value at iteration entry / after
    the loop.  The per-loop recurrence systems (inits + per-copy deltas)
    live in the walk summary, not in the nodes; slots are matched by
    bijection at comparison time.
``Trip(loop)``
    The number of iterations ``loop`` executed (opaque; equal on both
    sides because exit conditions are cloned, and checked separately).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Iterator

__all__ = [
    "Expr",
    "Const",
    "Sym",
    "LoopIdx",
    "Trip",
    "RecPhi",
    "RecExit",
    "Marker",
    "GLoad",
    "SLoad",
    "Op",
    "Unknown",
    "add",
    "mul",
    "op2",
    "cmp",
    "ite",
    "negate",
    "unary",
    "warpsum",
    "subst_loop",
    "rewrite",
    "nodes",
    "contains_marker",
    "first_unknown",
    "stable_repr",
    "digest",
]


class Expr:
    """Base class for all symbolic expression nodes (frozen, hashable).

    Every node carries ``key``, its deterministic structural sort key,
    computed once at construction from its children's keys, so ordering
    a sum or product never re-walks a subtree.  Composite nodes
    (``GLoad``/``SLoad``/``Op``) also cache their hash and compare
    hashes before fields, so unequal trees rarely compare deeply.
    """

    __slots__ = ()
    key: tuple


def _cached() -> Any:
    """A slot filled in ``__post_init__``: not an argument, not compared."""
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float
    key: tuple = _cached()

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (0, self.value))


@dataclass(frozen=True, slots=True)
class Sym(Expr):
    """A free symbolic input: lane id, warp id, thread-block id, …"""

    name: str
    key: tuple = _cached()

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (1, self.name))


@dataclass(frozen=True, slots=True)
class LoopIdx(Expr):
    loop: str
    key: tuple = _cached()

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (2, self.loop))


@dataclass(frozen=True, slots=True)
class Trip(Expr):
    loop: str
    key: tuple = _cached()

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (3, self.loop))


@dataclass(frozen=True, slots=True)
class RecPhi(Expr):
    loop: str
    slot: int
    key: tuple = _cached()

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (4, self.loop, self.slot))


@dataclass(frozen=True, slots=True)
class RecExit(Expr):
    loop: str
    slot: int
    key: tuple = _cached()

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (5, self.loop, self.slot))


@dataclass(frozen=True, slots=True)
class Marker(Expr):
    """Internal loop-entry placeholder used during classification.

    Markers must never survive into a final summary — a leaked marker
    means the walker could not resolve a loop-entry value and the
    validator abstains (WASP-T004).
    """

    tag: str
    key: tuple = _cached()

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (6, self.tag))


@dataclass(frozen=True, slots=True, eq=False)
class GLoad(Expr):
    """A load from (initial) global memory at a symbolic address."""

    addr: "Expr"
    key: tuple = _cached()
    _hash: int = _cached()

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (7, self.addr.key))
        object.__setattr__(self, "_hash", hash((self.addr,)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, GLoad):
            return NotImplemented
        return self._hash == other._hash and self.addr == other.addr


@dataclass(frozen=True, slots=True, eq=False)
class SLoad(Expr):
    """An unresolved shared-memory read.

    Carries the ordered write set of the staging scope it reads from so
    cooperative (lane-partitioned writer vs element-addressed reader)
    staging patterns compare as "same parametric write set" without
    per-element alias reasoning.
    """

    family: str
    addr: "Expr"
    writes: tuple[tuple["Expr", "Expr"], ...]
    key: tuple = _cached()
    _hash: int = _cached()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "key",
            (8, self.family, self.addr.key, len(self.writes),
             tuple((a.key, v.key) for a, v in self.writes)),
        )
        object.__setattr__(
            self, "_hash", hash((self.family, self.addr, self.writes))
        )

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, SLoad):
            return NotImplemented
        return (self._hash == other._hash and self.family == other.family
                and self.addr == other.addr and self.writes == other.writes)


@dataclass(frozen=True, slots=True, eq=False)
class Op(Expr):
    op: str
    args: tuple["Expr", ...]
    key: tuple = _cached()
    _hash: int = _cached()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "key", (9, self.op, tuple([a.key for a in self.args]))
        )
        object.__setattr__(self, "_hash", hash((self.op, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Op):
            return NotImplemented
        return (self._hash == other._hash and self.op == other.op
                and self.args == other.args)


@dataclass(frozen=True, slots=True)
class Unknown(Expr):
    reason: str
    key: tuple = _cached()

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (10, self.reason))


# -- ordering ------------------------------------------------------------

#: Deterministic structural sort key (the node's cached ``key``).
_key = attrgetter("key")


_COMMUTATIVE = frozenset({"add", "mul", "and", "or", "min", "max", "eq", "ne"})

_NEGATED_CMP = {
    "lt": "ge",
    "ge": "lt",
    "le": "gt",
    "gt": "le",
    "eq": "ne",
    "ne": "eq",
}


def _unknown_in(args: tuple[Expr, ...]) -> Unknown | None:
    for a in args:
        if isinstance(a, Unknown):
            return a
    return None


# -- constant folding (exact machine semantics) --------------------------


def _fold(op: str, vals: list[float]) -> float:
    import math

    if op == "idiv":
        b = vals[1] if vals[1] != 0 else 1.0
        return math.floor(vals[0] / b)
    if op == "shl":
        return math.floor(vals[0]) * (2.0 ** math.floor(vals[1]))
    if op == "shr":
        return math.floor(math.floor(vals[0]) / (2.0 ** math.floor(vals[1])))
    if op == "and":
        return float(int(vals[0]) & int(vals[1]))
    if op == "or":
        return float(int(vals[0]) | int(vals[1]))
    if op == "min":
        return min(vals)
    if op == "max":
        return max(vals)
    if op == "frcp":
        return 1.0 / vals[0] if vals[0] != 0 else 0.0
    if op == "not":
        return 0.0 if vals[0] else 1.0
    if op in _NEGATED_CMP:
        a, b = vals
        res = {
            "lt": a < b,
            "le": a <= b,
            "gt": a > b,
            "ge": a >= b,
            "eq": a == b,
            "ne": a != b,
        }[op]
        return 1.0 if res else 0.0
    raise AssertionError(f"unfoldable op {op}")


# -- smart constructors --------------------------------------------------


def add(*args: Expr) -> Expr:
    """Normalized n-ary sum: flatten, fold constants, collect like terms."""
    bad = _unknown_in(tuple(args))
    if bad is not None:
        return bad
    flat: list[Expr] = []
    for a in args:
        if isinstance(a, Op) and a.op == "add":
            flat.extend(a.args)
        else:
            flat.append(a)
    const = 0.0
    # key -> [coefficient, factors, the term itself while seen once]
    terms: dict[tuple, list] = {}
    for a in flat:
        if isinstance(a, Const):
            const += a.value
            continue
        coeff, factors = _term(a)
        k = tuple([f.key for f in factors])
        seen = terms.get(k)
        if seen is None:
            terms[k] = [coeff, factors, a]
        else:
            seen[0] += coeff
            seen[1] = factors
            seen[2] = None
    out: list[Expr] = []
    for coeff, factors, term in terms.values():
        if coeff == 0.0:
            continue
        # A term seen once is already in normal form: reuse it.
        out.append(term if term is not None
                   else _build_term(coeff, factors))
    if const != 0.0 or not out:
        out.append(Const(const))
    out.sort(key=_key)
    if len(out) == 1:
        return out[0]
    return Op("add", tuple(out))


def _term(e: Expr) -> tuple[float, tuple[Expr, ...]]:
    """Decompose into (constant coefficient, sorted non-const factors)."""
    if isinstance(e, Op) and e.op == "mul":
        coeff = 1.0
        factors: list[Expr] = []
        for f in e.args:
            if isinstance(f, Const):
                coeff *= f.value
            else:
                factors.append(f)
        factors.sort(key=_key)
        return coeff, tuple(factors)
    return 1.0, (e,)


def _build_term(coeff: float, factors: tuple[Expr, ...]) -> Expr:
    if not factors:
        return Const(coeff)
    if coeff == 1.0 and len(factors) == 1:
        return factors[0]
    parts: list[Expr] = []
    if coeff != 1.0:
        parts.append(Const(coeff))
    parts.extend(factors)
    if len(parts) == 1:
        return parts[0]
    return Op("mul", tuple(sorted(parts, key=_key)))


def mul(*args: Expr) -> Expr:
    """Normalized n-ary product, fully distributed over sums."""
    bad = _unknown_in(tuple(args))
    if bad is not None:
        return bad
    flat: list[Expr] = []
    for a in args:
        if isinstance(a, Op) and a.op == "mul":
            flat.extend(a.args)
        else:
            flat.append(a)
    const = 1.0
    rest: list[Expr] = []
    for a in flat:
        if isinstance(a, Const):
            const *= a.value
        else:
            rest.append(a)
    if const == 0.0:
        return Const(0.0)
    sums = [a for a in rest if isinstance(a, Op) and a.op == "add"]
    if sums:
        # Distribute: expand the product of sums into a sum of products.
        products: list[list[Expr]] = [[]]
        for a in rest:
            if isinstance(a, Op) and a.op == "add":
                products = [p + [t] for p in products for t in a.args]
            else:
                products = [p + [a] for p in products]
        return add(*[mul(Const(const), *p) for p in products])
    if not rest:
        return Const(const)
    return _build_term(const, tuple(sorted(rest, key=_key)))


def op2(op: str, a: Expr, b: Expr) -> Expr:
    """Opaque binary op (``idiv``/``shl``/``shr``/``and``/``or``/…)."""
    bad = _unknown_in((a, b))
    if bad is not None:
        return bad
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(_fold(op, [a.value, b.value]))
    args = (a, b)
    if op in _COMMUTATIVE:
        args = tuple(sorted(args, key=_key))  # type: ignore[assignment]
    return Op(op, args)


def cmp(op: str, a: Expr, b: Expr) -> Expr:
    bad = _unknown_in((a, b))
    if bad is not None:
        return bad
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(_fold(op, [a.value, b.value]))
    if op in ("eq", "ne"):
        a, b = sorted((a, b), key=_key)
    return Op(op, (a, b))


def ite(c: Expr, t: Expr, f: Expr) -> Expr:
    """``where(bool(c), t, f)`` — models SEL and predicated writeback."""
    if isinstance(c, Unknown):
        return c
    if isinstance(c, Const):
        return t if c.value else f
    if t == f:
        return t
    bad = _unknown_in((t, f))
    if bad is not None:
        return bad
    return Op("ite", (c, t, f))


def negate(e: Expr) -> Expr:
    """Logical negation, pushed into comparisons."""
    if isinstance(e, Unknown):
        return e
    if isinstance(e, Const):
        return Const(0.0 if e.value else 1.0)
    if isinstance(e, Op):
        if e.op in _NEGATED_CMP:
            return Op(_NEGATED_CMP[e.op], e.args)
        if e.op == "not":
            return e.args[0]
    return Op("not", (e,))


def unary(op: str, a: Expr) -> Expr:
    if isinstance(a, Unknown):
        return a
    if isinstance(a, Const) and op in ("frcp", "not"):
        return Const(_fold(op, [a.value]))
    return Op(op, (a,))


def warpsum(a: Expr) -> Expr:
    """REDUX: sum over lanes, broadcast to the warp (opaque)."""
    if isinstance(a, Unknown):
        return a
    return Op("warpsum", (a,))


# -- rewriting -----------------------------------------------------------


def rewrite(e: Expr, fn) -> Expr:
    """Bottom-up rewrite through the normalizing constructors.

    ``fn(node)`` is applied to each *leaf-level* node after its children
    have been rewritten; returning the node unchanged is the common
    case.  Interior ``Op`` nodes are rebuilt via the smart constructors
    so the result stays in normal form.
    """
    if isinstance(e, Op):
        args = [rewrite(a, fn) for a in e.args]
        if e.op == "add":
            return fn(add(*args))
        if e.op == "mul":
            return fn(mul(*args))
        if e.op == "ite":
            return fn(ite(args[0], args[1], args[2]))
        if e.op == "not":
            return fn(negate(args[0]))
        if e.op in ("warpsum", "frcp"):
            built = unary(e.op, args[0]) if e.op == "frcp" else warpsum(args[0])
            return fn(built)
        if len(args) == 2 and e.op in _NEGATED_CMP:
            return fn(cmp(e.op, args[0], args[1]))
        if len(args) == 2:
            return fn(op2(e.op, args[0], args[1]))
        return fn(Op(e.op, tuple(args)))
    if isinstance(e, GLoad):
        return fn(GLoad(rewrite(e.addr, fn)))
    if isinstance(e, SLoad):
        return fn(SLoad(
            e.family,
            rewrite(e.addr, fn),
            tuple(
                (rewrite(a, fn), rewrite(v, fn)) for a, v in e.writes
            ),
        ))
    return fn(e)


def subst_loop(e: Expr, loop: str, repl: Expr) -> Expr:
    """Replace ``LoopIdx(loop)`` with ``repl`` and renormalize.

    ``e`` is in normal form, so without the index it is its own
    rewrite and is returned as is.
    """
    if not any(
        isinstance(node, LoopIdx) and node.loop == loop for node in nodes(e)
    ):
        return e

    def fn(node: Expr) -> Expr:
        if isinstance(node, LoopIdx) and node.loop == loop:
            return repl
        return node

    return rewrite(e, fn)


def nodes(e: Expr) -> Iterator[Expr]:
    """Every node of ``e``, pre-order, children left to right.

    The read-only counterpart of :func:`rewrite` for questions that
    only look at an expression: nothing is rebuilt.  Summary
    expressions are already in normal form (``rewrite(e, lambda n: n)
    == e``), so this visits the same leaves a rebuilding walk would.
    """
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Op):
            stack.extend(reversed(node.args))
        elif isinstance(node, GLoad):
            stack.append(node.addr)
        elif isinstance(node, SLoad):
            for addr, value in reversed(node.writes):
                stack.append(value)
                stack.append(addr)
            stack.append(node.addr)


def contains_marker(e: Expr) -> bool:
    return any(isinstance(node, Marker) for node in nodes(e))


def first_unknown(e: Expr) -> Unknown | None:
    """The first ``Unknown`` node in ``e`` (Unknowns absorb, so it is
    usually ``e`` itself), or ``None``."""
    for node in nodes(e):
        if isinstance(node, Unknown):
            return node
    return None


# -- display -------------------------------------------------------------


def stable_repr(e: Expr) -> str:
    """Deterministic, serializer-independent text form."""
    if isinstance(e, Const):
        v = e.value
        return str(int(v)) if v == int(v) else repr(v)
    if isinstance(e, Sym):
        return e.name.lower()
    if isinstance(e, LoopIdx):
        return f"i[{e.loop}]"
    if isinstance(e, Trip):
        return f"trip[{e.loop}]"
    if isinstance(e, RecPhi):
        return f"rec[{e.loop}#{e.slot}]"
    if isinstance(e, RecExit):
        return f"recout[{e.loop}#{e.slot}]"
    if isinstance(e, Marker):
        return f"<marker:{e.tag}>"
    if isinstance(e, GLoad):
        return f"gmem[{stable_repr(e.addr)}]"
    if isinstance(e, SLoad):
        w = ",".join(
            f"{stable_repr(a)}:={stable_repr(v)}" for a, v in e.writes
        )
        return f"smem<{e.family}>[{stable_repr(e.addr)} | {w}]"
    if isinstance(e, Op):
        inner = " ".join(stable_repr(a) for a in e.args)
        return f"({e.op} {inner})"
    assert isinstance(e, Unknown)
    return f"<unknown:{e.reason}>"


def digest(e: Expr) -> str:
    """Short stable digest of an expression (for reports/telemetry)."""
    return hashlib.sha256(stable_repr(e).encode()).hexdigest()[:12]

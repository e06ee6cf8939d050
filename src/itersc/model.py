"""Core model: processes, global states, snapshots, safe-consensus semantics.

Processes are numbered 1..n.  A global state is only ever materialized at a
round boundary; applying a round schedule to a state yields a fresh state,
so everything here is immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from .errors import (
    InvalidAdversaryError,
    InvalidConfigurationError,
    MissingBoxError,
    NoInvocationsError,
    RoundMismatchError,
    UnresolvedInstanceError,
)
from .values import canonical_json, digest, freeze, jsonable

WOR = "WOR"
WRO = "WRO"
OWR = "OWR"
MODELS = (WOR, WRO, OWR)


@dataclass(frozen=True, slots=True)
class LocalState:
    """Per-process state at a round boundary.

    ``sm`` holds the last snapshot taken (the raw input value before the
    first scan, mirroring the ``sm <- input`` initialization), ``val`` the
    last safe-consensus output, ``dec`` the decision (write-once) and
    ``locals_`` the protocol-specific variables in frozen form.
    """

    pid: int
    rnd: int
    inp: Any
    sm: Any
    val: Any
    dec: Any
    locals_: Any

    def to_jsonable(self) -> dict:
        return {
            "id": self.pid,
            "round": self.rnd,
            "input": jsonable(self.inp),
            "sm": jsonable(self.sm),
            "val": jsonable(self.val),
            "dec": jsonable(self.dec),
            "locals": jsonable(self.locals_),
        }


@dataclass(frozen=True, slots=True)
class SnapshotObject:
    """One-shot snapshot array for a single round."""

    cells: tuple
    updated_by: frozenset
    scanned_by: frozenset

    def to_jsonable(self) -> dict:
        return {
            "cells": [jsonable(c) for c in self.cells],
            "updated_by": sorted(self.updated_by),
            "scanned_by": sorted(self.scanned_by),
        }


def box(members: Iterable[int]) -> frozenset:
    """Boxes are handled as plain frozensets of ids throughout the package."""
    s = frozenset(members)
    if not s:
        raise InvalidConfigurationError("a box must have at least one member")
    return s


@dataclass(frozen=True, slots=True)
class InvocationSpec:
    """The set of boxes of one completed round.  Boxes partition 1..n."""

    boxes: frozenset

    def __iter__(self):
        return iter(sorted(self.boxes, key=lambda b: sorted(b)))

    def __contains__(self, b) -> bool:
        return frozenset(b) in self.boxes

    def __eq__(self, other) -> bool:
        if isinstance(other, InvocationSpec):
            return self.boxes == other.boxes
        return NotImplemented

    def __hash__(self):
        return hash(self.boxes)

    def nontrivial(self) -> list[frozenset]:
        return [b for b in self if len(b) > 1]

    def to_jsonable(self) -> list:
        return [sorted(b) for b in self]


@dataclass(frozen=True, slots=True)
class SafeConsensusInstance:
    """One resolved safe-consensus object invocation.

    ``forced`` records whether Safe-Validity applied (a solo, strictly
    first invoker) as opposed to an adversary-chosen output.
    """

    object_index: Any
    invokers: frozenset
    inputs: tuple  # sorted (pid, value) pairs
    output: Any
    forced: bool

    @property
    def box(self) -> frozenset:
        return self.invokers

    def to_jsonable(self) -> dict:
        return {
            "object": jsonable(self.object_index),
            "invokers": sorted(self.invokers),
            "inputs": [[p, jsonable(v)] for p, v in self.inputs],
            "output": jsonable(self.output),
            "forced": self.forced,
        }


@dataclass(frozen=True, slots=True)
class GlobalState:
    """System state at a round boundary, including the full shared history."""

    n: int
    model: str
    rnd: int
    locals_: tuple  # tuple[LocalState, ...] indexed pid-1
    memory: tuple = field(default=())  # tuple[SnapshotObject, ...] rounds 1..rnd
    instances: tuple = field(default=())  # per-round tuples of SafeConsensusInstance

    def local(self, pid: int) -> LocalState:
        return self.locals_[pid - 1]

    def decisions(self) -> dict[int, Any]:
        return {ls.pid: ls.dec for ls in self.locals_ if ls.dec is not None}

    def all_decided(self) -> bool:
        return all(ls.dec is not None for ls in self.locals_)

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "model": self.model,
            "round": self.rnd,
            "locals": [ls.to_jsonable() for ls in self.locals_],
            "memory": [m.to_jsonable() for m in self.memory],
            "instances": [[i.to_jsonable() for i in rnd] for rnd in self.instances],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_jsonable())

    def digest(self) -> str:
        return digest(self.to_jsonable())


def make_initial_state(n: int, inputs, model: str, proto=None) -> GlobalState:
    """Build the round-0 state: sm holds the raw input, everything else is bottom."""
    if model not in MODELS:
        raise InvalidConfigurationError(f"unknown model {model!r}")
    if n < 2:
        raise InvalidConfigurationError(f"need at least 2 processes, got {n}")
    inputs = list(inputs)
    if len(inputs) != n:
        raise InvalidConfigurationError(f"expected {n} inputs, got {len(inputs)}")
    locals_ = []
    for pid, raw in enumerate(inputs, start=1):
        inp = freeze(raw)
        pl = freeze(proto.init(pid, inp)) if proto is not None else freeze({})
        locals_.append(LocalState(pid=pid, rnd=0, inp=inp, sm=inp, val=None, dec=None, locals_=pl))
    return GlobalState(n=n, model=model, rnd=0, locals_=tuple(locals_))


def resolve_safe_consensus(invokers, inputs, invoke_groups, adversary_choice=None, n: Optional[int] = None):
    """Resolve one safe-consensus instance against an ordered list of invoke groups.

    ``invoke_groups`` is the ordered sequence of concurrency groups of
    invoke events in the round; only groups containing an invoker of this
    object matter.  If the earliest such group holds exactly one invoker,
    Safe-Validity forces its input (invocations return instantaneously, so
    it outputs before anyone else starts).  Otherwise the adversary decides.
    """
    invokers = frozenset(invokers)
    inputs = dict(inputs)
    first_group = None
    for group in invoke_groups:
        hit = invokers & frozenset(group)
        if hit:
            first_group = hit
            break
    if first_group is None:
        raise UnresolvedInstanceError("no invoke event for this instance in the schedule context")
    if len(first_group) == 1:
        (winner,) = first_group
        return inputs[winner], True
    if adversary_choice is None:
        raise UnresolvedInstanceError(
            f"instance with contending invokers {sorted(first_group)} needs an adversary choice")
    if n is not None and not (isinstance(adversary_choice, int) and 1 <= adversary_choice <= n):
        raise InvalidAdversaryError(f"adversary choice {adversary_choice!r} outside 1..{n}")
    return adversary_choice, False


def indistinguishability_set(s: GlobalState, q: GlobalState) -> frozenset:
    """Ids of all processes whose complete local state agrees in both states."""
    if s.rnd != q.rnd:
        raise RoundMismatchError(f"states at rounds {s.rnd} and {q.rnd}")
    if s.n != q.n:
        raise RoundMismatchError("states with different process counts")
    return frozenset(
        ls.pid for ls, lq in zip(s.locals_, q.locals_) if ls == lq
    )


def invocation_spec(s: GlobalState) -> InvocationSpec:
    """Boxes of the round that produced ``s``."""
    if s.rnd < 1 or not s.instances:
        raise NoInvocationsError("round-0 states have no invocation specification")
    return InvocationSpec(boxes=frozenset(inst.box for inst in s.instances[-1]))


def sc_value_of(b, s: GlobalState):
    """Safe-consensus value of box ``b`` in the round that produced ``s``."""
    if s.rnd < 1 or not s.instances:
        raise NoInvocationsError("round-0 states have no invocations")
    target = frozenset(b)
    for inst in s.instances[-1]:
        if inst.box == target:
            return inst.output
    raise MissingBoxError(f"box {sorted(target)} not invoked in round {s.rnd}")


def diff_box_set(q1: GlobalState, q2: GlobalState) -> frozenset:
    """Boxes present in both states' specs whose safe-consensus values differ."""
    spec1 = invocation_spec(q1).boxes
    spec2 = invocation_spec(q2).boxes
    out = set()
    for b in spec1 & spec2:
        if sc_value_of(b, q1) != sc_value_of(b, q2):
            out.add(b)
    return frozenset(out)

"""Core model: processes, global states, snapshots, safe-consensus semantics.

Processes are numbered 1..n.  A global state is only ever materialized at a
round boundary; applying a round schedule to a state yields a fresh state,
so everything here is immutable.  A state holds only its own round's shared
objects: every round uses a fresh snapshot and fresh safe-consensus objects,
and no process reads an earlier round's, so the history of a run lives in
its ``Execution.steps``.

A state stores what a round computes as columns: one tuple per local-state
field, indexed pid-1, plus the raw snapshot cells and one ``resolved`` tuple
per safe-consensus object.  Its JSON is written straight from those columns;
only the per-process ``LocalState`` records are built on read, for JSON,
traces and other cold readers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .errors import (
    InvalidAdversaryError,
    InvalidConfigurationError,
    NoInvocationsError,
    RoundMismatchError,
    UnresolvedInstanceError,
)
from .values import digest, freeze, frozen_record, jsonable

WOR = "WOR"
WRO = "WRO"
OWR = "OWR"
MODELS = (WOR, WRO, OWR)


@frozen_record
@dataclass(frozen=True, slots=True)
class LocalState:
    """Per-process state at a round boundary.

    ``sm`` holds the last snapshot taken (the raw input value before the
    first scan, mirroring the ``sm <- input`` initialization), ``val`` the
    last safe-consensus output, ``dec`` the decision (write-once) and
    ``locals_`` the automaton's own locals record (``freeze({})`` without one).
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


@frozen_record
@dataclass(frozen=True, slots=True)
class GlobalState:
    """System state at a round boundary, as columns.

    ``inp``, ``sm``, ``val``, ``dec`` and ``loc`` (the automaton's locals
    records) hold one entry per process, indexed pid-1.  ``cells`` is the raw
    snapshot array of the round that produced the state (None at round 0) and
    ``resolved`` holds one ``(object, sorted (pid, input) pairs, output,
    forced)`` tuple per safe-consensus object of that round, in resolution
    order; ``forced`` tells Safe-Validity's output (a solo, strictly first
    invoker) from an adversary-chosen one.  ``locals_`` builds the
    per-process records on each read, without a cache."""

    n: int
    model: str
    rnd: int
    inp: tuple
    sm: tuple
    val: tuple
    dec: tuple
    loc: tuple
    cells: Optional[tuple] = None
    resolved: tuple = ()

    @property
    def locals_(self) -> tuple:
        rnd = self.rnd
        return tuple(LocalState(pid, rnd, *fields) for pid, fields in
                     enumerate(zip(*self.locals_key()), start=1))

    def locals_key(self) -> tuple:
        """Every process's local state but its pid and round, which the
        position and the round fix: what indistinguishability compares."""
        return (self.inp, self.sm, self.val, self.dec, self.loc)

    def round_key(self) -> tuple:
        """The columns the next round reads: ``locals_key()`` without ``sm``,
        which the engine withholds until a process's own scan.  States that
        share it, n and the round have equal children: the round memos' key."""
        return (self.inp, self.val, self.dec, self.loc)

    def box_outputs(self) -> list:
        """``(box, output)`` of each safe-consensus object of the round, in resolution order."""
        return [(frozenset([p for p, _ in pairs]), out) for _obj, pairs, out, _f in self.resolved]

    def decisions(self) -> dict[int, Any]:
        return {pid: d for pid, d in enumerate(self.dec, start=1) if d is not None}

    def all_decided(self) -> bool:
        return None not in self.dec

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "model": self.model,
            "round": self.rnd,
            "locals": [ls.to_jsonable() for ls in self.locals_],
            "snapshot": None if self.cells is None else {"cells": [jsonable(c) for c in self.cells]},
            "instances": [{"object": jsonable(obj), "invokers": [p for p, _ in pairs],
                           "inputs": [[p, jsonable(v)] for p, v in pairs],
                           "output": jsonable(out), "forced": forced}
                          for obj, pairs, out, forced in self.resolved],
        }

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
    inp = tuple(freeze(raw) for raw in inputs)
    loc = (tuple(proto.init(pid, x) for pid, x in enumerate(inp, start=1)) if proto is not None
           else (freeze({}),) * n)
    return GlobalState(n, model, 0, inp, inp, (None,) * n, (None,) * n, loc)


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
    if n is not None and not (type(adversary_choice) is int and 1 <= adversary_choice <= n):
        raise InvalidAdversaryError(f"adversary choice {adversary_choice!r} outside 1..{n}")
    return adversary_choice, False


def indistinguishability_set(s: GlobalState, q: GlobalState) -> frozenset:
    """Ids of all processes whose complete local state agrees in both states."""
    if s.rnd != q.rnd:
        raise RoundMismatchError(f"states at rounds {s.rnd} and {q.rnd}")
    if s.n != q.n:
        raise RoundMismatchError("states with different process counts")
    cols = zip(range(1, s.n + 1), *s.locals_key(), *q.locals_key())
    return frozenset(pid for pid, i1, s1, v1, d1, l1, i2, s2, v2, d2, l2 in cols
                     if i1 == i2 and s1 == s2 and v1 == v2 and d1 == d2 and l1 == l2)


def invocation_spec(s: GlobalState) -> frozenset:
    """Boxes of the round that produced ``s``; they partition 1..n."""
    if s.rnd < 1 or not s.resolved:
        raise NoInvocationsError("round-0 states have no invocation specification")
    return frozenset(box for box, _out in s.box_outputs())

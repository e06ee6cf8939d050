"""Protocol automata: coalition bookkeeping, the pairwise-agreement consensus
protocol built from shared-object group rounds, and the model simulations
that translate between the write/scan/invoke orderings.

An automaton is a bundle of deterministic component functions.  The executor
owns the round structure; automata only say which object to pick, what to
write, how to fold a finished round into their locals and when to decide.
Component conventions:

* ``locals`` is the automaton's own frozen dataclass record, read by
  attribute; ``step`` returns a new record.  Components
  take and return immutable values, which the executor stores as they are.
* a write sees its last output ``val`` and its locals, nothing else: every
  model writes before it scans, and the input reaches only ``init``.
* object indices are fresh per round: the executor keys instances by
  (round, index), matching the one-shot discipline of the iterated models.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb
from typing import Any, Callable, Optional

from .errors import (
    DomainError,
    InvalidArgumentError,
    InvalidConfigurationError,
    ModelMismatchError,
    ProtocolInvariantError,
)
from .model import MODELS, OWR, WOR, WRO
from .values import frozen_record

# ---------------------------------------------------------------------------
# coalition arithmetic


def tup(i: int, j: int) -> int:
    """Pairing index used to address coalition agreements: C(i+j+1, 2) + j."""
    if i < 0 or j < 0:
        raise DomainError(f"tup needs non-negative arguments, got ({i}, {j})")
    return comb(i + j + 1, 2) + j


def gamma(n: int, m: int) -> int:
    """Rounds consumed once all groups of span m have run: sum of n-i for i<=m."""
    if not 0 <= m < n:
        raise DomainError(f"gamma defined for 0 <= m < n, got ({n}, {m})")
    return m * n - m * (m + 1) // 2


def coalition_group(n: int, r: int) -> tuple[int, int, int]:
    """(firstid, lastid, step) of the group that shares an object in round r.

    Round r = gamma(n, m-1) + c runs the group {c, ..., c+m}.
    """
    if not 1 <= r <= comb(n, 2):
        raise DomainError(f"round {r} outside 1..C({n},2)")
    for m in range(1, n):
        if r <= gamma(n, m):
            c = r - gamma(n, m - 1)
            return c, c + m, m
    raise DomainError(f"no group for round {r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# coalitions tuples


def validate_coalitions_tuple(entries) -> bool:
    """True iff the entries form a valid g-coalitions tuple.

    (a) no entry is (bottom, bottom); (b) all non-bottom lefts agree, all
    non-bottom rights agree; (c) exactly one entry has right = bottom and
    the last entry is the unique one with left = bottom.
    """
    try:
        pairs = [(e[0], e[1]) for e in entries]
    except (TypeError, IndexError):
        return False
    g = len(pairs)
    if g == 0:
        return False
    if any(left is None and right is None for left, right in pairs):
        return False
    lefts = {left for left, _ in pairs if left is not None}
    rights = {right for _, right in pairs if right is not None}
    if len(lefts) > 1 or len(rights) > 1:
        return False
    lset = {i for i, (left, _) in enumerate(pairs, start=1) if left is not None}
    rset = {i for i, (_, right) in enumerate(pairs, start=1) if right is not None}
    return len(lset - rset) == 1 and rset - lset == {g}


# ---------------------------------------------------------------------------
# the automaton bundle


@dataclass(frozen=True)
class ProtocolAutomaton:
    """Deterministic per-process machine for one iterated model.

    ``init(pid, inp)`` returns the locals record (see the module docstring);
    ``select_object(rnd, pid, sm, val, locals)`` picks this round's object,
    with ``sm`` None unless the process has scanned (WRO); ``write_payload(pid,
    val, locals)`` produces the written value; ``decide(sm, val, locals)`` may
    output; ``step(locals, sm, val)`` folds the finished round into a new
    record.  ``sm_filter``/``val_filter`` run right after the scan/invoke
    events, for the model simulations, which discard one round-1 result.
    """

    model: str
    name: str
    init: Callable[[int, Any], Any]
    select_object: Callable[[int, int, Any, Any, Any], Any]
    decide: Callable[[Any, Any, Any], Any]
    step: Callable[[Any, Any, Any], Any]
    write_payload: Callable[[int, Any, Any], Any]
    sc_input: Optional[Callable[[int, Any], Any]] = None
    sm_filter: Optional[Callable[[int, int, Any, Any], Any]] = None
    val_filter: Optional[Callable[[int, int, Any, Any], Any]] = None
    round_budget: Optional[int] = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise InvalidConfigurationError(f"unknown model {self.model!r}")

    def budget(self) -> int:
        """The rounds within which this automaton decides, which every verdict
        on its decisions runs; an automaton without one is refused."""
        if self.round_budget is None:
            raise InvalidArgumentError(f"protocol {self.name} has no round budget; supply one")
        return self.round_budget


def _choose_side(sm, lo: int, hi: int, side: int):
    """Lowest-index non-bottom left (side 0) or right (side 1) among slots lo..hi."""
    for cell in sm[lo - 1:hi]:
        if isinstance(cell, tuple) and len(cell) == 2 and cell[side] is not None:
            return cell[side]
    return None


# ---------------------------------------------------------------------------
# g-2coalitions-consensus from one safe-consensus object


@frozen_record
@dataclass(frozen=True, slots=True)
class TwoCC:
    """Locals of ``protocol_2cc``: the process's (left, right) input pair."""

    id: int
    pair: Any


def protocol_2cc(g: int) -> ProtocolAutomaton:
    """One-round WOR automaton solving g-2coalitions-consensus.

    Each process writes its (left, right) pair, feeds its id to the single
    shared object and scans.  Output g selects the right fields, anything
    else the left fields; ties break to the lowest slot index.
    """
    if g < 2:
        raise InvalidConfigurationError(f"need at least 2 processes, got g={g}")

    def init(pid, inp):
        return TwoCC(id=pid, pair=inp)

    def select_object(rnd, pid, sm, val, loc):
        return 0

    def write_payload(pid, val, loc):
        return loc.pair

    def decide(sm, val, loc):
        if not isinstance(sm, tuple) or len(sm) != g:
            return None
        side = 1 if val == g else 0
        return _choose_side(sm, 1, g, side)

    def step(loc, sm, val):
        return loc

    return ProtocolAutomaton(
        model=WOR,
        name=f"2cc-{g}",
        init=init,
        select_object=select_object,
        decide=decide,
        step=step,
        write_payload=write_payload,
        round_budget=1,
    )


# ---------------------------------------------------------------------------
# consensus from C(n,2) shared objects (WOR)

GROUP_OBJECT = 0  # per-round index of the group's shared object


class _Unset:
    """The value of a coalition slot with no agreement yet: ``None`` is a
    valid input, so it cannot mark one."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "_UNSET"

    def __reduce__(self):  # a copy or an unpickled state keeps the one instance
        return "_UNSET"


_UNSET = _Unset()


@functools.lru_cache(maxsize=None)
def _coalition_keys(n: int) -> tuple:
    """The ``tup(i, j)`` of every coalition 1 <= i <= j <= n, ascending: the
    ledger's slot order."""
    return tuple(sorted(tup(i, j) for i in range(1, n + 1) for j in range(i, n + 1)))


@frozen_record
@dataclass(frozen=True, slots=True)
class Consensus:
    """Locals of ``protocol_consensus_wor``: rounds done and the agreements,
    one slot per coalition in ``_coalition_keys(n)`` order; the rest of the
    ledger (``step``, ``firstid``, ``lastid``) is a function of ``n`` and
    ``r``, written out only in the JSON form."""

    id: int
    n: int
    r: int
    slots: tuple  # the agreement of each coalition key, or _UNSET

    @property
    def agreements(self) -> tuple:
        """The stored agreements as sorted ``(tup-index, value)`` pairs."""
        return tuple((k, v) for k, v in zip(_coalition_keys(self.n), self.slots) if v is not _UNSET)

    def to_jsonable(self) -> dict:
        last = comb(self.n, 2)
        firstid, _lid, step = coalition_group(self.n, min(self.r + 1, last))
        lastid = coalition_group(self.n, min(self.r, last))[1] if self.r else 1
        return {"id": self.id, "r": self.r,
                "ledger": {"step": step, "firstid": firstid, "lastid": lastid,
                           "agreements": {str(k): v for k, v in self.agreements}}}


def protocol_consensus_wor(n: int) -> ProtocolAutomaton:
    """WOR consensus for n processes in C(n,2) rounds.

    Round r's group runs the 2coalitions step over one fresh shared object:
    members write the pair of agreements addressed by tup(firstid, lastid-1)
    and tup(firstid+1, lastid), invoke with their id, and adopt the right
    field when the object returns lastid, the left field otherwise.
    Non-members invoke throwaway solo objects.  The decision is the
    agreement of the full coalition, read after round C(n,2).

    Inputs must not be bottom (``None``): a written pair spells a missing
    agreement as None, so a ``None`` field reads as absent, and a group whose
    side has only that field to adopt raises ``ProtocolInvariantError``.
    """
    if n < 2:
        raise InvalidConfigurationError(f"need at least 2 processes, got n={n}")
    budget = comb(n, 2)
    last = budget - 1
    slot = {k: s for s, k in enumerate(_coalition_keys(n))}
    # rounds done -> the next round's (membership by pid, left slot, right slot,
    # agreement slot, fid, lid), clamped at the last round: past the budget
    # the window stays (1, n)
    plan = tuple((tuple(fid <= pid <= lid for pid in range(n + 1)),
                  slot[tup(fid, lid - 1)], slot[tup(fid + 1, lid)], slot[tup(fid, lid)], fid, lid)
                 for fid, lid, _step in (coalition_group(n, r) for r in range(1, budget + 1)))
    empty = (_UNSET,) * len(slot)

    def init(pid, inp):
        own = slot[tup(pid, pid)]
        return Consensus(pid, n, 0, empty[:own] + (inp,) + empty[own + 1:])

    def select_object(rnd, pid, sm, val, loc):
        return GROUP_OBJECT if plan[loc.r if loc.r < last else last][0][pid] else pid

    def write_payload(pid, val, loc):
        member, left, right, _key, _fid, _lid = plan[loc.r if loc.r < last else last]
        if member[pid]:
            a, b = loc.slots[left], loc.slots[right]
            return (None if a is _UNSET else a, None if b is _UNSET else b)
        return (None, None)

    def group_choice(sm, val, fid, lid):
        side = 1 if val == lid else 0
        chosen = _choose_side(sm, fid, lid, side)
        if chosen is None:
            raise ProtocolInvariantError(
                f"no candidate field on side {side} for group {fid}..{lid}")
        return chosen

    def decide(sm, val, loc):
        return None if loc.r < last else group_choice(sm, val, 1, n)  # the last group is everyone

    def step(loc, sm, val):
        member, _left, _right, key, fid, lid = plan[loc.r if loc.r < last else last]
        slots = loc.slots
        if member[loc.id]:  # the new agreement wins
            slots = slots[:key] + (group_choice(sm, val, fid, lid),) + slots[key + 1:]
        return Consensus(loc.id, n, loc.r + 1, slots)

    return ProtocolAutomaton(
        model=WOR,
        name=f"consensus-wor-{n}",
        init=init,
        select_object=select_object,
        decide=decide,
        step=step,
        write_payload=write_payload,
        round_budget=budget,
    )


# ---------------------------------------------------------------------------
# model simulations


@frozen_record
@dataclass(frozen=True, slots=True)
class OwrSim:
    """Locals of ``transform_wro_to_owr``: the source's record one round behind,
    the scan it reads with the next output, and its decision once made."""

    id: int
    r: int
    decp: Any
    prev_sm: Any
    inner: Any


@frozen_record
@dataclass(frozen=True, slots=True)
class WroSim:
    """Locals of ``transform_owr_to_wro``: the source's record one round behind,
    the output it reads with the next scan, and its decision once made."""

    id: int
    inp: Any
    r: int
    decp: Any
    prev_val: Any
    inner: Any


def transform_wro_to_owr(proto: ProtocolAutomaton) -> ProtocolAutomaton:
    """Simulate a write-scan-invoke protocol in the invoke-write-scan model.

    Round 1 performs the source's round-1 object selection but discards the
    returned value; from round 2 on, round r replays the source's round r-1,
    so every decision of the source appears exactly one round later.  The
    source's selector must accept round 0 (its value is irrelevant: the
    round-1 output is dropped).  Object inputs are the invoker ids, as in
    the lower-bound analyses.
    """
    if proto.model != WRO:
        raise ModelMismatchError(f"source must be a WRO protocol, got {proto.model}")

    def init(pid, inp):
        return OwrSim(id=pid, r=0, decp=None, prev_sm=inp, inner=proto.init(pid, inp))

    def select_object(rnd, pid, sm, val, loc):
        return proto.select_object(rnd - 1, pid, loc.prev_sm, val, loc.inner)

    def val_filter(rnd, pid, val, loc):
        return None if rnd == 1 else val

    def write_payload(pid, val, loc):
        # round r writes what the source writes in its round r: the fold of
        # the source's round r-1, with its scan from prev_sm, happens on the
        # fly (the stored locals lag).
        inner = loc.inner
        if loc.r >= 1:
            inner = proto.step(inner, loc.prev_sm, val)
        return proto.write_payload(pid, val, inner)

    def decide(sm, val, loc):
        if loc.r == 0 or loc.decp is not None:
            return loc.decp  # None in round 1: step sets decp from round 2 on
        return proto.decide(loc.prev_sm, val, loc.inner)

    def step(loc, sm, val):
        if loc.r >= 1:
            return OwrSim(loc.id, loc.r + 1, decide(sm, val, loc), sm,
                          proto.step(loc.inner, loc.prev_sm, val))
        return OwrSim(loc.id, loc.r + 1, loc.decp, sm, loc.inner)

    return ProtocolAutomaton(
        model=OWR,
        name=f"owr-sim[{proto.name}]",
        init=init,
        select_object=select_object,
        decide=decide,
        step=step,
        write_payload=write_payload,
        val_filter=val_filter,
        round_budget=proto.round_budget + 1 if proto.round_budget else None,
    )


def transform_owr_to_wro(proto: ProtocolAutomaton) -> ProtocolAutomaton:
    """Simulate an invoke-write-scan protocol in the write-scan-invoke model.

    The simulation's round-1 write/scan is discarded (sm is reset to the
    input after the scan); round r's invoke replays the source's round-r
    invoke, and its round r+1 write/scan replays the source's round r.
    Decisions shift one round later.
    """
    if proto.model != OWR:
        raise ModelMismatchError(f"source must be an OWR protocol, got {proto.model}")

    def init(pid, inp):
        return WroSim(id=pid, inp=inp, r=0, decp=None, prev_val=None,
                      inner=proto.init(pid, inp))

    def sm_filter(rnd, pid, sm, loc):
        return loc.inp if rnd == 1 else sm

    def select_object(rnd, pid, sm, val, loc):
        # the source folds its round rnd-1 before selecting in round rnd;
        # replay that fold on the fly (the stored inner lags one round).
        # The source selects before its own scan, so it sees no snapshot.
        inner = loc.inner
        if rnd >= 2:
            inner = proto.step(inner, sm, val)
        return proto.select_object(rnd, pid, None, val, inner)

    def write_payload(pid, val, loc):
        if loc.r == 0:
            return (loc.inp, val)  # scans of round 1 are reset, content irrelevant
        return proto.write_payload(pid, val, loc.inner)

    def decide(sm, val, loc):
        if loc.r == 0 or loc.decp is not None:
            return loc.decp  # None in round 1: step sets decp from round 2 on
        return proto.decide(sm, loc.prev_val, loc.inner)

    def step(loc, sm, val):
        if loc.r >= 1:
            return WroSim(loc.id, loc.inp, loc.r + 1, decide(sm, val, loc), val,
                          proto.step(loc.inner, sm, loc.prev_val))
        return WroSim(loc.id, loc.inp, loc.r + 1, loc.decp, val, loc.inner)

    return ProtocolAutomaton(
        model=WRO,
        name=f"wro-sim[{proto.name}]",
        init=init,
        select_object=select_object,
        decide=decide,
        step=step,
        write_payload=write_payload,
        sm_filter=sm_filter,
        round_budget=proto.round_budget + 1 if proto.round_budget else None,
    )

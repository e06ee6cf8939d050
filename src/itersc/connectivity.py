"""Verified indistinguishability-path constructions, and valency.

Every construction here follows the same discipline: build the successor
states prescribed by the corresponding structural argument, choosing the
safe-consensus outputs of contended instances from an explicit per-box
plan, and append them to one ``PathBuilder``.  Its ``build`` checks each
claimed indistinguishability edge once against the actual local states.
A nested construction (the WRO bridge) appends to its caller's builder
instead of checking a path of its own.  A construction that cannot be
verified raises ConstructionError instead of returning a weaker path.

Every round is named by the key of its sigma schedule in the executor's
process-wide table (``sigma_key``: the ordered blocks as ascending id
tuples, the complement spelled out).  The engines build their keys outside
their loops; the WRO bridge's steps are precomputed per (n, i, j).  Each
public extension call applies its rounds through one private memo, which
lives for that call only.  A round's child state is keyed by ``(rnd,
round_key(), key, values)``, with ``values`` the adversary outputs of the
round's contended instances in resolution order (None for all ones): a
round reads only the ``round_key()`` columns (the locals but the previous
snapshot), the round number and n, and an output sequence ignores the
state, so a hit is exactly the child a fresh round would build.  No probe
runs: the all-ones child shows the boxes, the contention and the forced
values of its round.

The engines return the walk they build; the two demos share one round loop
(``_erased_rounds``), which loop-erases each round's path
(``Path.loop_erased``) before the next round extends it.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .errors import (
    ConstructionError,
    InvalidArgumentError,
    InvalidConfigurationError,
    ModelMismatchError,
    PreconditionViolationError,
)
from .executor import (
    apply_round,
    collect_gamma,
    enumerate_round_schedules,
    explore,
    probe_round,
    sigma_by_key,
    sigma_key,
    sigma_schedule,
)
from .johnson import partition_two_blocks, vertex_set
from .model import (
    WOR,
    GlobalState,
    indistinguishability_set,
    invocation_spec,
    make_initial_state,
)
from .values import jsonable

log = logging.getLogger("itersc")


# ---------------------------------------------------------------------------
# paths


@dataclass(frozen=True)
class Path:
    """States with labelled indistinguishability edges."""

    states: tuple
    labels: tuple  # frozensets, one per edge

    def __post_init__(self):
        if len(self.labels) != max(0, len(self.states) - 1):
            raise InvalidArgumentError("need exactly one label per edge")

    @property
    def first(self) -> GlobalState:
        return self.states[0]

    @property
    def last(self) -> GlobalState:
        return self.states[-1]

    def degree(self) -> Optional[int]:
        if not self.labels:
            return None
        return min(len(x) for x in self.labels)

    def verify(self) -> bool:
        """Re-check every claimed edge against actual local-state equality."""
        for idx, label in enumerate(self.labels):
            s, q = self.states[idx], self.states[idx + 1]
            if not label:
                raise ConstructionError(f"edge {idx} has an empty label")
            actual = indistinguishability_set(s, q)
            if not label <= actual:
                raise ConstructionError(
                    f"edge {idx}: claimed {sorted(label)} but only "
                    f"{sorted(actual)} agree")
        return True

    def loop_erased(self) -> "Path":
        """The same walk with its cycles cut out.

        When a state recurs, the path is cut back to its first visit, and
        the walk goes on from there along the edge that left the recurrence.
        Every kept edge is an edge of this path with its label, both
        endpoints stay and the degree cannot drop.  Each state is hashed
        once; the bookkeeping runs on the integer keys.
        """
        ids: dict = {}
        keys = [ids.setdefault(s, len(ids)) for s in self.states]
        at: dict = {}  # key -> its position in ``kept``
        kept: list = []  # per kept position, the input index of its last visit
        for idx, key in enumerate(keys):
            pos = at.get(key)
            if pos is None:
                at[key] = len(kept)
                kept.append(idx)
                continue
            for dropped in kept[pos + 1:]:
                del at[keys[dropped]]
            del kept[pos + 1:]
            kept[pos] = idx
        return Path(states=tuple(self.states[i] for i in kept),
                    labels=tuple(self.labels[i] for i in kept[:-1]))

    def to_jsonable(self) -> dict:
        return {
            "round": self.states[0].rnd if self.states else None,
            "states": [s.digest() for s in self.states],
            "labels": [sorted(x) for x in self.labels],
            "degree": self.degree(),
        }


class PathBuilder:
    """Grows a path edge by edge; ``build`` checks every label once."""

    def __init__(self, first: GlobalState):
        self.states = [first]
        self.labels: list[frozenset] = []

    @property
    def tail(self) -> GlobalState:
        return self.states[-1]

    def append(self, state: GlobalState, label: Iterable[int]) -> None:
        label = frozenset(label)
        if not label:
            raise ConstructionError("refusing to add an edge with empty label")
        if state == self.tail:
            return  # identical states collapse; nothing to add
        self.states.append(state)
        self.labels.append(label)

    def build(self) -> Path:
        """The path so far, every label checked against the actual states."""
        path = Path(states=tuple(self.states), labels=tuple(self.labels))
        path.verify()
        return path


def is_b_regular(path: Path) -> bool:
    """All states share one invocation specification (round-0 states have none)."""
    specs = {invocation_spec(s) for s in path.states}
    return len(specs) <= 1


# ---------------------------------------------------------------------------
# prescriptive successor construction


def successor_boxes(state: GlobalState, proto) -> frozenset:
    """Boxes the protocol will use in the next round (schedule-independent
    for write-invoke-scan protocols, whose selector sees no snapshot).

    No engine calls it: it probes the round, so it is the independent
    reference that ``_Rounds.boxes`` is checked against."""
    sched = sigma_schedule((), state.n, proto.model)
    return frozenset(b for (_o, b, _c, _f) in probe_round(state, sched, proto))


@functools.lru_cache(maxsize=None)
def _concurrent(n: int) -> tuple:
    """The key of sigma(all): every process in one block."""
    return sigma_key((), n)


class _Rounds:
    """The sigma rounds of one extension call, each named by its schedule
    key and applied once per output sequence (see the module docstring)."""

    def __init__(self, proto):
        self.proto = proto
        self.children: dict = {}

    def child(self, state: GlobalState, key: tuple, values: Optional[tuple] = None) -> GlobalState:
        """The successor under the schedule keyed ``key``.  Contended
        instances output 1, or ``values`` in resolution order."""
        memo = (state.rnd, state.round_key(), key, values)
        child = self.children.get(memo)
        if child is None:
            sched = sigma_by_key(state.n, self.proto.model, key)
            adversary = itertools.repeat(1) if values is None else values
            child = self.children[memo] = apply_round(state, sched, adversary, self.proto)
        return child

    def boxes(self, state: GlobalState) -> frozenset:
        return frozenset(box for box, _out in self.child(state, _concurrent(state.n)).box_outputs())

    def successor(self, state: GlobalState, key: tuple, box_values: dict) -> GlobalState:
        """The ``key`` successor under the per-box output plan ``box_values``:
        a contended box the plan leaves out outputs its smallest id, and
        outputs that Safe-Validity forces must match the plan.  The all-ones
        child is the answer when the plan asks for 1."""
        ones = self.child(state, key)
        values = []
        for _obj, pairs, out, forced in ones.resolved:
            b = frozenset([p for p, _ in pairs])
            want = box_values.get(b)
            if not forced:
                values.append(want if want is not None else min(b))
            elif want is not None and out != want:
                raise ConstructionError(
                    f"box {sorted(b)} is forced to {out} under "
                    f"{sigma_by_key(state.n, self.proto.model, key)}, plan wants {want}")
        if all(v == 1 for v in values):
            return ones
        return self.child(state, key, tuple(values))


# ---------------------------------------------------------------------------
# the two-block engine (partition arguments)


def _partition_plan(boxes, a: frozenset, b_: frozenset, n: int) -> dict:
    """Per-box output plan shared by every state of one extension round."""
    plan = {}
    for bx in boxes:
        if len(bx) == 1:
            continue
        if bx <= a or bx <= b_:
            plan[bx] = min(bx)
            continue
        if len(bx) == n and n >= 3:
            ia, ib = bx & a, bx & b_
            if len(ia) == 1:
                plan[bx] = min(ia)
            elif len(ib) == 1:
                plan[bx] = min(ib)
            else:
                plan[bx] = min(bx)
            continue
        raise PreconditionViolationError(
            f"box {sorted(bx)} is split by the partition "
            f"A={sorted(a)}, B={sorted(b_)}")
    return plan


def _check_partition_args(n: int, a, b_) -> tuple[frozenset, frozenset]:
    a, b_ = frozenset(a), frozenset(b_)
    everyone = frozenset(range(1, n + 1))
    if not a or not b_:
        raise PreconditionViolationError("both partition blocks must be nonempty")
    if a & b_ or (a | b_) != everyone:
        raise PreconditionViolationError("A, B must partition the process ids")
    return a, b_


def connect_partition_round(state: GlobalState, a, b_, proto) -> Path:
    """The three-state bridge  S.sigma(A) -B- S.sigma(all) -A- S.sigma(B):
    the one-round extension of the constant path  S -A- S -B- S.

    Requires every shared box of the coming round to respect the partition
    (the full box is exempt: its output is pinned to the singleton side's
    id when one side is a singleton, and is free otherwise).
    """
    a, b_ = frozenset(a), frozenset(b_)
    return extend_path_partition(Path(states=(state,) * 3, labels=(a, b_)), a, b_, proto)


def extend_path_partition(path: Path, a, b_, proto) -> Path:
    """One-round extension of a path whose labels all equal A or B.

    Same-label edges advance directly; label flips insert the three-state
    bridge  sigma(cur) -x- sigma(all) -cur- sigma(x)  within the base.  The
    output labels again lie in {A, B}.
    """
    n = path.states[0].n
    a, b_ = _check_partition_args(n, a, b_)
    for x in path.labels:
        if x != a and x != b_:
            raise PreconditionViolationError(
                f"label {sorted(x)} is neither A nor B")
    rounds = _Rounds(proto)
    key_of = {a: sigma_key((a,), n), b_: sigma_key((b_,), n)}
    everyone = _concurrent(n)

    def step(s: GlobalState, key: tuple) -> GlobalState:
        return rounds.successor(s, key, _partition_plan(rounds.boxes(s), a, b_, n))

    if not path.labels:
        return Path(states=(step(path.states[0], key_of[a]),), labels=())

    cur = path.labels[0]
    pb = PathBuilder(step(path.states[0], key_of[cur]))
    for idx, x in enumerate(path.labels):
        base, nxt_base = path.states[idx], path.states[idx + 1]
        if x != cur:
            pb.append(step(base, everyone), x)
            pb.append(step(base, key_of[x]), cur)
            cur = x
        pb.append(step(nxt_base, key_of[x]), x)
    return pb.build()


# ---------------------------------------------------------------------------
# the three-process engine without a full box


def extend_path_no3box(path: Path, proto) -> Path:
    """One-round extension for three processes that never share one object.

    A label change bridges within the base through the fully concurrent
    successor, then hops to sigma(x_next) in one edge labelled by its
    complement; the shared pair, if any, keeps the tail's output.  Only an
    x_next that takes one id j of the pair needs the pair to output j.
    """
    n = path.states[0].n
    if n != 3:
        raise InvalidArgumentError("the no-3-box engine is specific to n=3")
    full = frozenset({1, 2, 3})
    rounds = _Rounds(proto)
    if not path.labels:
        return Path(states=(rounds.successor(path.states[0], _concurrent(3), {}),), labels=())

    cur = path.labels[0]
    _require_no_full_box(rounds.boxes(path.states[0]))
    pb = PathBuilder(rounds.successor(path.states[0], sigma_key((cur,), 3), {}))

    for idx, x_next in enumerate(path.labels):
        base, nxt_base = path.states[idx], path.states[idx + 1]
        boxes = rounds.boxes(base)
        _require_no_full_box(boxes)
        pair = next((b for b in boxes if len(b) == 2), None)
        key_next = sigma_key((x_next,), 3)

        if x_next == full:
            # identical bases: reuse the tail's shape on the next base
            plan = dict(pb.tail.box_outputs())
            pb.append(rounds.successor(nxt_base, sigma_key((cur,), 3), plan), full)
            continue

        if x_next == cur:
            plan = {b: v for b, v in pb.tail.box_outputs() if len(b) > 1}
            pb.append(rounds.successor(nxt_base, key_next, plan), x_next)
            continue

        plan = {} if pair is None else {pair: dict(pb.tail.box_outputs()).get(pair, min(pair))}
        if cur != full:
            pb.append(rounds.successor(base, _concurrent(3), plan), full - cur)
        if pair is not None and len(x_next & pair) == 1:
            (j,) = x_next & pair
            solo = full - pair  # the trivial box, as a singleton set
            plan = {pair: j}
            if len(x_next) == 2:
                pb.append(rounds.successor(base, sigma_key(({j},), 3), plan), solo)
                pb.append(rounds.successor(base, sigma_key(({j}, solo), 3), plan), pair)
            pb.append(rounds.successor(base, key_next, plan), solo)
        else:
            pb.append(rounds.successor(base, key_next, plan), full - x_next)
        pb.append(rounds.successor(nxt_base, key_next, plan), x_next)
        cur = x_next

    return pb.build()


def _require_no_full_box(boxes) -> None:
    for b in boxes:
        if len(b) >= 3:
            raise PreconditionViolationError(
                f"a {len(b)}-box {sorted(b)} appears; the engine requires none")


# ---------------------------------------------------------------------------
# valency


class Valency(Enum):
    ZERO = "0-valent"
    ONE = "1-valent"
    BIVALENT = "bivalent"
    UNDECIDED = "undecided"


def bounded_valency(state: GlobalState, proto, horizon: int) -> Valency:
    """Classify a state by extending it to the horizon under every sigma
    schedule and every adversary output.

    A subtree's summary, computed once per distinct ``(depth, round_key())``, is
    its set of decided-value sets and whether some leaf decides nothing.
    """
    if horizon <= 0:
        raise InvalidArgumentError("horizon must be positive")
    inputs = set(state.inp)
    if not inputs <= {0, 1}:
        raise InvalidArgumentError("valency analysis expects binary inputs")
    scheds = list(enumerate_round_schedules(state.n, proto.model, "sigma"))

    def leaf(s: GlobalState, depth: int):
        if not (s.all_decided() or depth == horizon):
            return None
        decided = frozenset(d for d in s.dec if d is not None)
        return (frozenset({decided}), False) if decided else (frozenset(), True)

    def join(parts):
        return (frozenset().union(*(o for _step, (o, _u) in parts)),
                any(u for _step, (_o, u) in parts))

    outcomes, undecided = explore(state, scheds, proto, leaf, join)
    if undecided:
        return Valency.UNDECIDED
    if any(len(d) > 1 for d in outcomes):
        return Valency.BIVALENT
    flat = {next(iter(d)) for d in outcomes}
    if flat == {0}:
        return Valency.ZERO
    if flat == {1}:
        return Valency.ONE
    return Valency.BIVALENT


# ---------------------------------------------------------------------------
# the write-scan-invoke obstruction


@functools.lru_cache(maxsize=None)
def _wro_lead(n: int, j: int) -> tuple:
    """The key of sigma-wro(all-j): every process but j in one block, then j."""
    return sigma_key((frozenset(range(1, n + 1)) - {j},), n)


@functools.lru_cache(maxsize=None)
def _wro_bridge_steps(n: int, i: int, j: int) -> tuple:
    """The (key, label) steps of the bridge from sigma-wro(all-i) to
    sigma-wro(all-j).  Every label has n-1 members.  The keys do not
    depend on the model, so one plan serves every automaton."""
    if i == j:
        return ()
    full = frozenset(range(1, n + 1))
    ls = sorted(full - {i, j}) + [j]  # l_1..l_{n-1} with l_{n-1} = j
    ones = [frozenset({x}) for x in ls]
    steps = []
    # split the leading block into singletons
    for k in range(1, n - 1):
        steps.append((ones[:k] + [full - {i} - set(ls[:k])], full - ones[k - 1]))
    # pair the last element with i, then swap their order
    steps.append((ones[:-1] + [frozenset({ls[-1], i})], full - ones[-1]))
    steps.append((ones[:-1] + [frozenset({i}), ones[-1]], full - {i}))
    # grow the block around i back to all-j
    for k in range(n - 2, 0, -1):
        steps.append((ones[:k - 1] + [frozenset(ls[k - 1:-1]) | {i}, ones[-1]],
                      full - ones[k - 1]))
    return tuple((sigma_key(groups, n), label) for groups, label in steps)


def _wro_bridge(rounds: _Rounds, pb: PathBuilder, state: GlobalState, i: int, j: int) -> None:
    """Append the bridge from sigma-wro(all-i) to sigma-wro(all-j) of
    ``state`` to ``pb``, whose tail must be the bridge's start."""
    if rounds.child(state, _wro_lead(state.n, i)) != pb.tail:
        raise ConstructionError("bridge start does not match the tail")
    for key, label in _wro_bridge_steps(state.n, i, j):
        pb.append(rounds.child(state, key), label)


def wro_extend_round(path: Path, proto) -> Path:
    """One-round extension sustaining degree n-1 (the obstruction engine).

    Every edge of the input path has at least n-1 processes agreeing; the
    extension advances through sigma-wro successors whose leading block
    excludes the lone disagreeing process, bridging within a base whenever
    the excluded process changes.  Every contended instance outputs 1, so
    each successor is the memo's all-ones child.
    """
    n = path.states[0].n
    full = frozenset(range(1, n + 1))

    def excluded(label: frozenset, fallback: int) -> int:
        missing = full - label
        return min(missing) if missing else fallback

    rounds = _Rounds(proto)
    lead_label = {j: full - {j} for j in full}
    cur_excl = excluded(path.labels[0], n) if path.labels else n
    pb = PathBuilder(rounds.child(path.states[0], _wro_lead(n, cur_excl)))
    for idx, x in enumerate(path.labels):
        base, nxt = path.states[idx], path.states[idx + 1]
        j = excluded(x, cur_excl)
        if j != cur_excl:
            _wro_bridge(rounds, pb, base, cur_excl, j)
            cur_excl = j
        pb.append(rounds.child(nxt, _wro_lead(n, j)), lead_label[j])
    out = pb.build()
    if out.degree() is not None and out.degree() < n - 1:
        raise ConstructionError("obstruction path degree fell below n-1")
    if not is_b_regular(out):
        raise ConstructionError("obstruction path is not B-regular")
    return out


def _erased_rounds(proto, engine: str, extend, path: Path, rounds: int):
    """Each demo round's loop-erased path with its report row, logged at
    DEBUG; ``extend`` builds a round's walk from the previous erased path."""
    for r in range(1, rounds + 1):
        raw = extend(path)
        path = raw.loop_erased()
        log.debug("%s %s round %d: raw_states=%d states=%d degree=%s", engine,
                  proto.name, r, len(raw.states), len(path.states), path.degree())
        yield path, {"round": r, "states": len(path.states), "raw_states": len(raw.states),
                     "degree": path.degree()}


def initial_chain(proto, n: int) -> Path:
    """Initial states from all-0 to all-1, flipping one input per edge."""
    if n < 2:
        raise InvalidConfigurationError(f"need at least 2 processes, got {n}")
    full = frozenset(range(1, n + 1))
    states = []
    for k in range(n + 1):
        inputs = [1] * k + [0] * (n - k)
        states.append(make_initial_state(n, inputs, proto.model, proto))
    labels = tuple(full - {k} for k in range(1, n + 1))
    path = Path(states=tuple(states), labels=labels)
    path.verify()
    return path


def wro_obstruction_demo(proto, n: int = 3, rounds: int = 5) -> dict:
    """Sustain B-regular degree-(n-1) paths between successors of the all-0
    and all-1 initial states for the requested number of rounds.  The
    obstruction is the WRO one, which OWR shares; a WOR automaton is refused."""
    if rounds < 1:
        raise InvalidArgumentError(f"the demo needs at least one round, got {rounds}")
    if proto.model == WOR:
        raise ModelMismatchError(f"the WRO obstruction needs a WRO or OWR automaton, "
                                 f"not the {proto.model} automaton {proto.name}")
    per_round = [dict(row, b_regular=is_b_regular(path), labels_verified=path.verify())
                 for path, row in _erased_rounds(proto, "wro-obstruction",
                                                 lambda p: wro_extend_round(p, proto),
                                                 initial_chain(proto, n), rounds)]
    return {
        "protocol": proto.name,
        "rounds": rounds,
        "per_round": per_round,
        "ok": all((p["degree"] is None or p["degree"] >= n - 1) and p["b_regular"]
                  for p in per_round),
    }


# ---------------------------------------------------------------------------
# the n=3 lower-bound demonstration


def lower_bound_demo(proto, rounds: int = 5) -> dict:
    """Reproduce the contradiction shape for a box-deficient 3-process
    automaton: connected successors of the 0- and 1-input states every
    round (5 by default, C(3,2) + 2), with the endpoints certified univalent
    for opposite values within the automaton's round budget, which it must
    have, and decided by every process at both ends of the path.  The bound
    is a WOR one: a WRO or OWR automaton is refused."""
    if rounds < 1:
        raise InvalidArgumentError(f"the demo needs at least one round, got {rounds}")
    horizon = proto.budget()
    if proto.model != WOR:
        raise ModelMismatchError(f"the lower bound needs a WOR automaton, "
                                 f"not the {proto.model} automaton {proto.name}")
    n = 3
    o_state = make_initial_state(n, [0, 0, 0], proto.model, proto)
    u_state = make_initial_state(n, [1, 1, 1], proto.model, proto)

    # engine 1: the two-block partition argument
    a, b_ = partition_two_blocks(vertex_set(n, 2, collect_gamma(proto, n).gamma.get(2, ())))
    ou_inputs = [0 if pid in a else 1 for pid in range(1, n + 1)]
    ou_state = make_initial_state(n, ou_inputs, proto.model, proto)
    part_path = Path(states=(o_state, ou_state, u_state), labels=(frozenset(a), frozenset(b_)))
    part_path.verify()
    erased = list(_erased_rounds(proto, "partition",
                                 lambda p: extend_path_partition(p, a, b_, proto),
                                 part_path, rounds))
    partition_rounds = [dict(row, verified=path.verify()) for path, row in erased]
    last_partition = erased[-1][0]

    # engine 2: the no-full-box extension over the initial chain
    no3_rounds = [dict(row, verified=q.verify())
                  for q, row in _erased_rounds(proto, "no3box",
                                               lambda p: extend_path_no3box(p, proto),
                                               initial_chain(proto, n), rounds)]

    v0 = bounded_valency(o_state, proto, horizon)
    v1 = bounded_valency(u_state, proto, horizon)
    end_dec_0 = last_partition.first.decisions()
    end_dec_1 = last_partition.last.decisions()
    ok = (
        v0 == Valency.ZERO and v1 == Valency.ONE
        and sorted(end_dec_0.values()) == [0] * n
        and sorted(end_dec_1.values()) == [1] * n
        and all(x["verified"] for x in partition_rounds + no3_rounds)
    )
    return {
        "protocol": proto.name,
        "partition": {"A": sorted(a), "B": sorted(b_)},
        "partition_rounds": partition_rounds,
        "no3box_rounds": no3_rounds,
        "valency": {"all-0": v0.value, "all-1": v1.value},
        "endpoint_decisions": {"first": jsonable(end_dec_0), "last": jsonable(end_dec_1)},
        "rounds": rounds,
        "ok": ok,
    }

"""Round schedules, adversaries, and the round/execution engine.

A round schedule is an ordered list of concurrency groups, one event kind
per group.  Applying a schedule to a state walks the groups in order:
writes fill the round's fresh snapshot array, invoke groups resolve
safe-consensus instances (Safe-Validity forces a solo strictly-first
invoker's input; contention defers to the adversary), scans copy the
array.  Decisions and local-state folding happen at the round boundary.

A contended safe-consensus box may output any process id, so an adversary
is just the sequence of its outputs: any iterable of ids in 1..n, consumed
one per contended instance in resolution order, the order in which a round
records its ``choices``.

Every exhaustive check (sweeps, Gamma census, bounded valency) walks the
schedule x adversary tree with ``explore``, which explores each distinct
``(round, round_key())`` subtree once and reuses its summary wherever it recurs.
"""

from __future__ import annotations

import itertools
import logging
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional

from .errors import (
    BudgetExceededError,
    InvalidAdversaryError,
    InvalidArgumentError,
    InvalidInputError,
    InvalidScheduleError,
    UnresolvedInstanceError,
)
from .model import (
    MODELS,
    OWR,
    WOR,
    WRO,
    GlobalState,
    make_initial_state,
)
from .protocols import (
    ProtocolAutomaton,
    protocol_2cc,
    protocol_consensus_wor,
    validate_coalitions_tuple,
)
from .values import canonical_json, digest, freeze, jsonable

log = logging.getLogger("itersc")

W, S, R = "W", "S", "R"
EVENT_ORDER = {WOR: (W, S, R), WRO: (W, R, S), OWR: (S, W, R)}


# ---------------------------------------------------------------------------
# round schedules


@dataclass(frozen=True, slots=True)
class RoundSchedule:
    """Ordered concurrency groups; every process appears once per event kind."""

    model: str
    n: int
    events: tuple  # ((kind, ids in ascending order), ...)

    def part(self, kinds) -> tuple:
        return tuple((k, g) for k, g in self.events if k in kinds)

    def to_jsonable(self) -> list:
        return [[k, list(g)] for k, g in self.events]

    def __str__(self) -> str:
        return ",".join(f"{k}{{{','.join(map(str, g))}}}" for k, g in self.events)


def make_schedule(model: str, n: int, events) -> RoundSchedule:
    """Validate and build a schedule for the given model."""
    if model not in MODELS:
        raise InvalidScheduleError(f"unknown model {model!r}")
    order = EVENT_ORDER[model]
    evs = []
    positions: dict[tuple[int, str], int] = {}
    for pos, (kind, group) in enumerate(events):
        group = frozenset(group)
        if kind not in (W, S, R):
            raise InvalidScheduleError(f"unknown event kind {kind!r}")
        if not group:
            raise InvalidScheduleError("empty concurrency group")
        for pid in group:
            if not 1 <= pid <= n:
                raise InvalidScheduleError(f"process id {pid} outside 1..{n}")
            if (pid, kind) in positions:
                raise InvalidScheduleError(f"process {pid} has two {kind} events")
            positions[(pid, kind)] = pos
        evs.append((kind, tuple(sorted(group))))
    for pid in range(1, n + 1):
        try:
            seq = [positions[(pid, k)] for k in order]
        except KeyError as exc:
            raise InvalidScheduleError(f"process {pid} is missing an event") from exc
        if not seq[0] < seq[1] < seq[2]:
            raise InvalidScheduleError(
                f"process {pid} violates the {model} order {'<'.join(order)}")
    return RoundSchedule(model=model, n=n, events=tuple(evs))


# The process-wide sigma table: (n, model, blocks) -> the schedule, where
# ``blocks`` is the ordered partition the schedule runs, as ascending id
# tuples with the complement spelled out (see ``sigma_key``).  Each entry is
# built once per process by ``_build_sigma``, straight from its key once the
# key is checked: the events of a valid key need no second validation, and
# ``make_schedule`` stays the oracle the tests hold every entry to.  The
# keys' blocks and the schedules' events are interned, so the table holds
# each distinct event once.
_SIGMA: dict[tuple, RoundSchedule] = {}
_INTERNED: dict = {}


def sigma_key(groups, n: int) -> tuple:
    """The canonical blocks of the sigma schedule that runs the disjoint
    ``groups`` in sequence, then the complement: each nonempty group as an
    ascending id tuple, and the complement last when it is not empty."""
    everyone = frozenset(range(1, n + 1))
    blocks = []
    seen: frozenset = frozenset()
    for g in groups:
        g = frozenset(g)
        if not g:
            continue
        if g & seen:
            raise InvalidScheduleError(f"overlapping sigma groups at {sorted(g & seen)}")
        if not g <= everyone:
            raise InvalidScheduleError(f"group {sorted(g)} outside 1..{n}")
        seen |= g
        blocks.append(tuple(sorted(g)))
    if seen != everyone:
        blocks.append(tuple(sorted(everyone - seen)))
    return tuple(blocks)


def sigma_by_key(n: int, model: str, key: tuple) -> RoundSchedule:
    """The table's schedule for a canonical ``key``, built on its first use."""
    sched = _SIGMA.get((n, model, key))
    if sched is None:
        sched = _build_sigma(n, model, key)
        intern = _INTERNED.setdefault
        _SIGMA[(n, model, tuple(intern(b, b) for b in key))] = sched
    return sched


def _build_sigma(n: int, model: str, key: tuple) -> RoundSchedule:
    """The sigma schedule of ``key``, once ``key`` is checked to be an ordered
    partition of 1..n into nonempty ascending blocks: on WOR each block
    writes, invokes and scans in turn; on WRO and OWR each block writes and
    scans, and everyone invokes at once, last or first."""
    order = EVENT_ORDER.get(model)
    if order is None:
        raise InvalidScheduleError(f"unknown model {model!r}")
    seen = [False] * (n + 1)
    for block in key:
        if not isinstance(block, tuple):
            raise InvalidScheduleError(f"block {block!r} is not an id tuple")
        if not block:
            raise InvalidScheduleError("empty concurrency group")
        prev = 0
        for pid in block:
            if not 1 <= pid <= n:
                raise InvalidScheduleError(f"process id {pid} outside 1..{n}")
            if pid <= prev:
                raise InvalidScheduleError(f"block {block} is not ascending")
            if seen[pid]:
                raise InvalidScheduleError(f"process {pid} is in two blocks")
            seen[pid] = True
            prev = pid
    if not all(seen[1:]):
        raise InvalidScheduleError(f"process {seen.index(False, 1)} is in no block")
    intern = _INTERNED.setdefault
    if order[1] == S:
        events = [intern((kind, block), (kind, block)) for block in key for kind in order]
    else:
        events = [intern((kind, block), (kind, block)) for block in key for kind in order if kind != S]
        everyone = (S, tuple(range(1, n + 1)))
        events.insert(0 if order[0] == S else len(events), intern(everyone, everyone))
    return RoundSchedule(model, n, tuple(events))


def sigma_schedule(groups, n: int, model: str = WOR) -> RoundSchedule:
    """The schedule running disjoint groups in sequence, then the complement:
    the table's one object for every spelling of the same blocks."""
    return sigma_by_key(n, model, sigma_key(groups, n))


def ordered_set_partitions(items: tuple) -> Iterator[tuple]:
    """Ordered partitions, any block first, each block an ascending id tuple."""
    items = tuple(items)
    if not items:
        yield ()
        return
    pool = set(items)
    for k in range(1, len(items) + 1):
        for block in itertools.combinations(sorted(pool), k):
            rest = tuple(sorted(pool.difference(block)))
            if not rest:
                yield (block,)
                continue
            for tail in ordered_set_partitions(rest):
                yield (block,) + tail


def enumerate_round_schedules(n: int, model: str, family: str = "sigma") -> Iterator[RoundSchedule]:
    """Duplicate-free stream of schedules from the requested family."""
    if family == "sigma":
        if n > 6:
            raise BudgetExceededError(f"exhaustive sigma family capped at n=6, got {n}")
        for blocks in ordered_set_partitions(tuple(range(1, n + 1))):
            yield sigma_by_key(n, model, blocks)
    elif family == "ordered-partition":
        if n > 3:
            raise BudgetExceededError(f"exhaustive ordered-partition family capped at n=3, got {n}")
        yield from _interleavings(n, model)
    else:
        raise InvalidArgumentError(f"unknown schedule family {family!r}")


def _ready(progress: dict, model: str) -> dict[str, list[int]]:
    """Event kind -> ids (ascending) whose next event in the round is of that
    kind; ``progress`` maps each id to its count of events so far."""
    order = EVENT_ORDER[model]
    ready: dict[str, list[int]] = {}
    for pid in sorted(progress):
        if progress[pid] < 3:
            ready.setdefault(order[progress[pid]], []).append(pid)
    return ready


def _interleavings(n: int, model: str) -> Iterator[RoundSchedule]:
    """All event sequences consistent with the model's per-process order."""

    def rec(progress, acc):
        ready = _ready(progress, model)
        if not ready:
            yield make_schedule(model, n, acc)
            return
        for kind in sorted(ready):
            pool = ready[kind]
            for k in range(1, len(pool) + 1):
                for group in itertools.combinations(pool, k):
                    nxt = dict(progress)
                    for pid in group:
                        nxt[pid] += 1
                    yield from rec(nxt, acc + [(kind, frozenset(group))])

    yield from rec(dict.fromkeys(range(1, n + 1), 0), [])


def random_ordered_partition_schedule(n: int, model: str, rng: random.Random) -> RoundSchedule:
    """Random member of the ordered-partition family: one random ready kind
    and a random nonempty group of its ready ids, until every id is done."""
    progress = dict.fromkeys(range(1, n + 1), 0)
    events = []
    while ready := _ready(progress, model):
        kind = rng.choice(sorted(ready))
        pool = ready[kind]
        group = frozenset(rng.sample(pool, rng.randint(1, len(pool))))
        for pid in group:
            progress[pid] += 1
        events.append((kind, group))
    return make_schedule(model, n, events)


def random_sigma_schedule(n: int, model: str, rng: random.Random) -> RoundSchedule:
    """Uniform-ish random member of the sigma family, from the table."""
    return sigma_by_key(n, model, _sigma_blocks(n, rng))


def _sigma_blocks(n: int, rng: random.Random) -> tuple:
    """The sigma groups of one random draw, each as a sorted id tuple: ``rng.shuffle(ids)``,
    then ``rng.randint(1, n - i)`` per block, spelled as the getrandbits loops they run."""
    getrandbits = rng.getrandbits
    ids = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = i + 1  # until a draw lands in 0..i
        while j > i:
            j = getrandbits((i + 1).bit_length())
        ids[i], ids[j] = ids[j], ids[i]
    blocks = []
    i = 0
    while i < n:
        size = n - i + 1  # until a draw lands in 1..n-i
        while size > n - i:
            size = getrandbits((n - i).bit_length()) + 1
        blocks.append(tuple(sorted(ids[i:i + size])))
        i += size
    return tuple(blocks)


# ---------------------------------------------------------------------------
# adversary outputs


def random_outputs(seed: int, n: int) -> Iterator[int]:
    """Endless adversary outputs, each ``Random(seed).randint(1, n)``."""
    randint = random.Random(seed).randint
    while True:
        yield randint(1, n)


# ---------------------------------------------------------------------------
# applying rounds


def _run_events(state: GlobalState, sched: RoundSchedule, proto: ProtocolAutomaton,
                adversary: Iterator[int]):
    """Walk one round's events, taking the adversary's next output for each
    contended instance; returns the sm and val columns, the snapshot cells,
    the resolved objects and the adversary's choices.  A write gets the last
    output and the locals: every model writes before it scans.  A process's
    ``sm`` is None until its own scan, which only WRO's select follows."""
    n = state.n
    rnd = state.rnd + 1
    loc = state.loc
    cur_sm: list = [None] * n
    cur_val = list(state.val)
    write, select, sc_input = proto.write_payload, proto.select_object, proto.sc_input
    sm_filter, val_filter = proto.sm_filter, proto.val_filter
    cells: list = [None] * n
    invoked: dict[Any, list] = {}  # object -> its (pid, input) pairs so far this round
    outputs: dict[Any, Any] = {}  # in resolution order
    forced: dict[Any, bool] = {}
    choices: list = []

    for kind, group in sched.events:
        if kind == W:
            for pid in group:
                i = pid - 1
                cells[i] = write(pid, cur_val[i], loc[i])
        elif kind == R:
            snap = tuple(cells)
            for pid in group:
                i = pid - 1
                cur_sm[i] = snap if sm_filter is None else sm_filter(rnd, pid, snap, loc[i])
        else:  # invoke
            picks = []
            fresh = []  # objects first invoked in this group: the unresolved ones
            for pid in group:
                i = pid - 1
                obj = select(rnd, pid, cur_sm[i], cur_val[i], loc[i])
                if not isinstance(obj, int) or obj < 0:
                    raise InvalidArgumentError(
                        f"object selector returned {obj!r}; expected a "
                        f"non-negative index")
                picks.append(obj)
                if obj not in invoked:
                    invoked[obj] = []
                    fresh.append(obj)
                invoked[obj].append((pid, pid if sc_input is None else sc_input(pid, loc[i])))
            for obj in sorted(fresh):
                # unresolved so far, so every invoker of obj is in this group
                first = invoked[obj]
                if len(first) == 1:
                    outputs[obj] = first[0][1]
                    forced[obj] = True
                else:
                    v = next(adversary, None)  # a None output counts as missing
                    if v is None:
                        raise UnresolvedInstanceError(
                            f"object {obj!r} contended by {[p for p, _ in first]} "
                            f"needs an adversary output")
                    if type(v) is not int or not 1 <= v <= n:  # bools are not ids
                        raise InvalidAdversaryError(
                            f"adversary chose {v!r} outside 1..{n}")
                    outputs[obj] = v
                    forced[obj] = False
                    choices.append((rnd, obj, v))
            for pid, obj in zip(group, picks):
                v = outputs[obj]
                if val_filter is not None:
                    v = val_filter(rnd, pid, v, loc[pid - 1])
                cur_val[pid - 1] = v

    resolved = []
    for obj, out in outputs.items():
        pairs = invoked[obj]
        if len(pairs) > 1:
            pairs.sort()
        resolved.append((obj, tuple(pairs), out, forced[obj]))
    return cur_sm, cur_val, cells, tuple(resolved), choices


def apply_round(state: GlobalState, sched: RoundSchedule, adversary: Iterable[int],
                proto: ProtocolAutomaton) -> GlobalState:
    """Run one round; returns the successor state at the next round boundary."""
    new_state, _ = apply_round_recorded(state, sched, adversary, proto)
    return new_state


def apply_round_recorded(state: GlobalState, sched: RoundSchedule, adversary: Iterable[int],
                         proto: ProtocolAutomaton):
    """Run one round; returns the successor state and the round's
    ``(rnd, object, output)`` choices.  The contended instances take the
    ``adversary`` outputs in resolution order; an iterator passed in keeps
    the outputs this round leaves over."""
    if sched.model != proto.model or sched.model != state.model:
        raise InvalidScheduleError(
            f"schedule model {sched.model} does not match protocol/state "
            f"({proto.model}/{state.model})")
    if sched.n != state.n:
        raise InvalidScheduleError(f"schedule for n={sched.n}, state has n={state.n}")
    rnd = state.rnd + 1
    cur_sm, cur_val, cells, resolved, choices = _run_events(state, sched, proto,
                                                             iter(adversary))
    decide, step = proto.decide, proto.step
    decs, locs = [], []
    for dec, sm, val, loc in zip(state.dec, cur_sm, cur_val, state.loc):
        decs.append(decide(sm, val, loc) if dec is None else dec)
        locs.append(step(loc, sm, val))
    new_state = GlobalState(state.n, state.model, rnd, state.inp, tuple(cur_sm), tuple(cur_val),
                            tuple(decs), tuple(locs), tuple(cells), resolved)
    return new_state, tuple(choices)


def probe_round(state: GlobalState, sched: RoundSchedule, proto: ProtocolAutomaton):
    """Dry-run one round to learn its instances (box, contended, forced value).

    Returns a list of (object_index, box, contended, forced_output) in
    resolution order; the adversary outputs used for contended instances
    are placeholders.
    """
    probe_state, _ = apply_round_recorded(state, sched, itertools.repeat(1), proto)
    return [(obj, frozenset([p for p, _ in pairs]), not forced, out if forced else None)
            for obj, pairs, out, forced in probe_state.resolved]


# ---------------------------------------------------------------------------
# exploring the schedule x adversary tree


def successors(state: GlobalState, sched: RoundSchedule, proto: ProtocolAutomaton):
    """Yield ``(choices, child)`` for every adversary output of one round.

    ``choices`` are the outputs of the contended instances in resolution
    order, in ``itertools.product`` order, and each child runs on its
    ``choices`` as they stand.  The all-ones run comes first and also
    reveals how many instances are contended, so no probe runs.  Which
    instances are contended, and in which order they resolve, cannot depend
    on the outputs: no selector reads an output of its own round.  A process
    selects at its one invoke of the round, while its ``val`` still holds the
    previous round's output; only WRO scans before invoking, and there every
    cell was written before its writer invoked.
    """
    first, recorded = apply_round_recorded(state, sched, itertools.repeat(1), proto)
    assignments = itertools.product(range(1, state.n + 1), repeat=len(recorded))
    yield next(assignments), first
    for values in assignments:
        yield values, apply_round(state, sched, values, proto)


def explore(root: GlobalState, scheds, proto: ProtocolAutomaton,
            leaf: Callable, join: Callable):
    """Summary of the tree of every schedule in ``scheds`` x every adversary
    output, round after round, below ``root``.

    ``leaf(state, depth)`` returns the summary of a leaf, or None to branch;
    it sees the root and every child state the walk computes.
    ``join(parts)`` folds the ``((sched, choices), summary)`` pairs of a
    node's children, in depth-first order, into the node's summary.

    Identical subtrees are explored once: the summaries of inner nodes are
    memoized by ``(depth, round_key())``.  This is sound because a round
    reads only the ``round_key()`` columns, round number and n of its state
    and the enumerated adversary ignores the state, so states that share the
    key have equal children.  The walk stays depth-first, so counts and
    first counterexamples are exactly those of the plain tree walk.
    """
    memo: dict = {}

    def rec(state: GlobalState, depth: int):
        summary = leaf(state, depth)
        if summary is not None:
            return summary
        key = (depth, state.round_key())
        summary = memo.get(key)
        if summary is None:
            parts = []
            for sched in scheds:
                for choices, child in successors(state, sched, proto):
                    parts.append(((sched, choices), rec(child, depth + 1)))
            summary = memo[key] = join(parts)
        return summary

    return rec(root, 0)


# ---------------------------------------------------------------------------
# executions


@dataclass(frozen=True)
class ExecutionStep:
    schedule: RoundSchedule
    choices: tuple
    state: GlobalState


@dataclass(frozen=True)
class Execution:
    initial: GlobalState
    steps: tuple

    @property
    def final(self) -> GlobalState:
        return self.steps[-1].state if self.steps else self.initial

    @property
    def rounds(self) -> int:
        return len(self.steps)

    def all_choices(self) -> list[int]:
        return [v for step in self.steps for (_, _, v) in step.choices]

    def schedules(self) -> list[RoundSchedule]:
        return [step.schedule for step in self.steps]

    def decision_rounds(self) -> dict[int, tuple[int, Any]]:
        """pid -> (first round with a non-bottom dec, the decided value)."""
        out: dict[int, tuple[int, Any]] = {}
        for idx, step in enumerate(self.steps, start=1):
            for pid, dec in enumerate(step.state.dec, start=1):
                if dec is not None and pid not in out:
                    out[pid] = (idx, dec)
        return out

    def to_jsonl(self) -> str:
        lines = []
        for idx, step in enumerate(self.steps, start=1):
            lines.append(canonical_json({
                "round": idx,
                "schedule": step.schedule.to_jsonable(),
                "choices": [[r, jsonable(o), v] for (r, o, v) in step.choices],
                "locals": [
                    {"id": local["id"], "val": local["val"], "dec": local["dec"],
                     "digest": digest(local)}
                    for local in step.state.locals_jsonable()
                ],
            }))
        return "\n".join(lines) + "\n"


def run_execution(proto: ProtocolAutomaton, inputs, scheds,
                  adversary: Iterable[int]) -> Execution:
    """Fold apply_round over a nonempty schedule list, recording choices.
    One iterator over the ``adversary`` outputs spans the rounds."""
    scheds = list(scheds)
    if not scheds:
        raise InvalidArgumentError("at least one round schedule is required")
    inputs = list(inputs)
    init = make_initial_state(len(inputs), inputs, proto.model, proto)
    state = init
    steps = []
    adversary = iter(adversary)
    for sched in scheds:
        state, choices = apply_round_recorded(state, sched, adversary, proto)
        steps.append(ExecutionStep(schedule=sched, choices=choices, state=state))
    return Execution(initial=init, steps=tuple(steps))


def replay_execution(proto: ProtocolAutomaton, inputs, execution: Execution) -> Execution:
    """Re-run a recorded execution from its schedules and choices."""
    return run_execution(proto, inputs, execution.schedules(), execution.all_choices())


# ---------------------------------------------------------------------------
# task checks


@dataclass(frozen=True)
class Verdict:
    ok: bool
    termination: bool
    agreement: bool
    validity: bool
    horizon: int
    first_violation: Optional[tuple] = None


def _check_decisions(final: GlobalState, horizon: int, valid_outputs) -> Verdict:
    decs = dict(enumerate(final.dec, start=1))
    undecided = sorted(p for p, d in decs.items() if d is None)
    termination = not undecided
    decided = {p: d for p, d in decs.items() if d is not None}
    agreement = len(set(decided.values())) <= 1
    validity = all(d in valid_outputs for d in decided.values())
    violation = None
    if undecided:
        violation = ("termination", undecided[0], f"undecided at round {horizon}")
    elif not agreement:
        by_val: dict[Any, int] = {}
        for p, d in sorted(decided.items()):
            by_val.setdefault(d, p)
        ps = sorted(by_val.values())[:2]
        violation = ("agreement", ps, "distinct outputs")
    elif not validity:
        bad = next(p for p, d in sorted(decided.items()) if d not in valid_outputs)
        violation = ("validity", bad, f"output {decided[bad]!r} not allowed")
    return Verdict(ok=violation is None, termination=termination,
                   agreement=agreement, validity=validity, horizon=horizon,
                   first_violation=violation)


def check_consensus(execution: Execution, inputs) -> Verdict:
    """Termination within the run, Agreement, and Validity against the inputs."""
    return _check_decisions(execution.final, execution.rounds, set(freeze(i) for i in inputs))


def check_2cc(execution: Execution, entries) -> Verdict:
    """2coalitions check: outputs must match some entry's left or right field."""
    if not validate_coalitions_tuple(entries):
        raise InvalidInputError("inputs do not form a valid coalitions tuple")
    allowed = set()
    for left, right in entries:
        if left is not None:
            allowed.add(freeze(left))
        if right is not None:
            allowed.add(freeze(right))
    return _check_decisions(execution.final, execution.rounds, allowed)


# ---------------------------------------------------------------------------
# gamma / nu accounting


@dataclass(frozen=True)
class GammaReport:
    n: int
    gamma: dict  # m -> frozenset of boxes
    nu: dict  # m -> count (m >= 2)
    nu_total: int
    executions: int
    partial: bool

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "gamma": {str(m): sorted(sorted(b) for b in boxes)
                      for m, boxes in sorted(self.gamma.items())},
            "nu": {str(m): c for m, c in sorted(self.nu.items())},
            "nu_total": self.nu_total,
            "executions": self.executions,
            "partial": self.partial,
        }


def collect_gamma(proto: ProtocolAutomaton, n: int, rounds: Optional[int] = None,
                  executions: int = 2000) -> GammaReport:
    """Observe boxes across explored executions of ``rounds`` rounds (default:
    the round budget).  For n <= 4 each sigma schedule's tree runs that one
    schedule in every round against every adversary; above, ``executions``
    random executions draw a fresh sigma schedule per round.

    The exhaustive census stops (``partial``) after the schedule tree that
    reaches ``100 * executions`` leaves, with all that tree's boxes and
    leaves counted.
    """
    rounds = proto.budget() if rounds is None else rounds
    if rounds < 1:
        raise InvalidArgumentError(f"rounds must be at least 1, got {rounds}")
    if executions < 1:
        raise InvalidArgumentError(f"executions must be at least 1, got {executions}")
    boxes: set[frozenset] = set()
    count = 0
    partial = False
    inputs = list(range(n))  # distinct inputs; the box structure does not depend on values

    def leaf(state: GlobalState, depth: int):
        boxes.update(box for box, _out in state.box_outputs())
        return 1 if depth == rounds else None

    if n <= 4:
        init = make_initial_state(n, inputs, proto.model, proto)
        cap = executions * 100
        for sched in enumerate_round_schedules(n, proto.model, "sigma"):
            count += explore(init, [sched], proto, leaf,
                             lambda parts: sum(leaves for _step, leaves in parts))
            if count >= cap:
                partial = True
                break
    else:
        rng = random.Random(0)
        for _ in range(executions):
            scheds = [random_sigma_schedule(n, proto.model, rng) for _ in range(rounds)]
            adversary = random_outputs(rng.randrange(2**31), n)
            state = make_initial_state(n, inputs, proto.model, proto)
            for sched in scheds:
                state = apply_round(state, sched, adversary, proto)
                boxes.update(box for box, _out in state.box_outputs())
            count += 1

    gamma_map: dict[int, set] = {}
    for b in boxes:
        gamma_map.setdefault(len(b), set()).add(b)
    nu = {m: len(bs) for m, bs in gamma_map.items() if m >= 2}
    return GammaReport(
        n=n,
        gamma={m: frozenset(bs) for m, bs in gamma_map.items()},
        nu=nu,
        nu_total=sum(nu.values()),
        executions=count,
        partial=partial,
    )


# ---------------------------------------------------------------------------
# verification sweeps


@dataclass(frozen=True)
class SweepReport:
    n: int
    mode: str
    executions: int
    violations: int
    first_counterexample: Optional[dict]
    gamma: Optional[GammaReport] = None
    jobs: Optional[int] = field(default=None, compare=False)  # as resolved; not a result

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "executions": self.executions,
            "violations": self.violations,
            "ok": self.ok,
            "first_counterexample": jsonable(self.first_counterexample),
            "gamma": self.gamma.to_jsonable() if self.gamma else None,
        }


def _sweep_tree(proto, inputs, scheds, rounds, valid_outputs):
    """Check every leaf of the ``scheds`` x adversary tree of ``rounds`` rounds.

    Returns ``(executions, violations, first)``: the counts take every leaf,
    shared subtrees included; ``first`` is the first violating leaf in
    depth-first order as ``(trail, violation)``, with ``(sched, choices)`` steps.
    """
    def leaf(state, depth):
        if depth < rounds:
            return None
        verdict = _check_decisions(state, rounds, valid_outputs)
        return (1, 0, None) if verdict.ok else (1, 1, ((), jsonable(verdict.first_violation)))

    init = make_initial_state(len(inputs), inputs, proto.model, proto)
    return explore(init, scheds, proto, leaf, _join_sweep)


def _join_sweep(parts):
    executions = violations = 0
    first = None
    for step, (count, bad, found) in parts:
        executions += count
        violations += bad
        if first is None and found is not None:
            first = ((step,) + found[0], found[1])
    return executions, violations, first


def consensus_input_vectors(n: int) -> list[list[int]]:
    """Binary vectors plus one all-distinct vector (stress for Validity)."""
    vecs = [list(bits) for bits in itertools.product((0, 1), repeat=n)]
    vecs.append(list(range(10, 10 + n)))
    return vecs


def verify_consensus_exhaustive(n: int, proto_factory=None,
                                per_round_cross: Optional[bool] = None,
                                inputs_list=None, jobs: Optional[int] = None) -> SweepReport:
    """Exhaustive sigma-family sweep with a fully enumerated adversary.

    For n <= 3 every per-round combination of sigma schedules is explored;
    for n = 4 the sigma schedule is fixed per execution and iterated unless
    ``per_round_cross`` asks for the cross product, still with the full
    adversary enumeration at every round.  ``executions`` counts every leaf
    of each tree, although ``explore`` checks each distinct subtree once.

    Each (input vector, tree) pair is its own ``explore``, so the pairs run
    on up to ``jobs`` worker processes (default: one per usable CPU and per
    ``_MIN_RANGE`` root schedules over all pairs); the counts merge in serial
    order, so any ``jobs`` gives the serial report.
    """
    if n > 4:
        raise BudgetExceededError(
            f"exhaustive verification capped at n=4, got {n}; use sampled mode")
    factory = proto_factory or protocol_consensus_wor
    proto = factory(n)
    rounds = proto.budget()
    scheds = list(enumerate_round_schedules(n, proto.model, "sigma"))
    if per_round_cross is None:
        per_round_cross = n <= 3
    trees = [scheds] if per_round_cross else [[sched] for sched in scheds]
    pairs = [(inputs, t) for inputs in (inputs_list or consensus_input_vectors(n))
             for t in range(len(trees))]
    jobs = _resolve_jobs(jobs, len(pairs) * len(trees[0]))

    def sweep(pair):
        inputs, t = pair
        count, bad, found = _sweep_tree(proto, inputs, trees[t], rounds,
                                        {freeze(i) for i in inputs})
        if found is not None:
            trail, violation = found
            found = {"inputs": list(inputs),
                     "trail": [{"schedule": s.to_jsonable(), "choices": list(c)}
                               for s, c in trail],
                     "violation": violation}
        return count, bad, found

    total, violations, first = _run_sweep(
        sweep, pairs, jobs,
        lambda pair: f"exhaustive {proto.name} inputs {pair[0]} tree {pair[1] + 1}/{len(trees)}")
    return SweepReport(n=n, mode="exhaustive", executions=total,
                       violations=violations, first_counterexample=first,
                       gamma=collect_gamma(proto, n), jobs=jobs)


def verify_consensus_sampled(n: int, executions: int = 10000, seed: int = 0,
                             proto_factory=None, jobs: Optional[int] = None) -> SweepReport:
    """Randomized sweep: fresh sigma schedules and adversary values per round.

    Execution k draws from its own generator, seeded by ``(seed, k)`` alone,
    so any split of ``range(executions)`` reproduces the serial run.  The
    sweep runs as ``jobs`` contiguous index ranges (default: one per usable
    CPU, but at most one per ``_MIN_RANGE`` executions) on at most one
    worker process per usable CPU; the first counterexample is the one of
    lowest index.
    """
    jobs = _resolve_jobs(jobs, executions)
    if executions < 1:
        raise InvalidArgumentError(f"executions must be at least 1, got {executions}")
    factory = proto_factory or protocol_consensus_wor
    proto = factory(n)
    proto.budget()  # refused here, before any worker starts
    chunk = max(1, -(-executions // jobs))
    ranges = [(lo, min(lo + chunk, executions)) for lo in range(0, executions, chunk)]
    _, violations, first = _run_sweep(
        lambda bounds: _sample_range(proto, n, seed, *bounds), ranges, jobs,
        lambda bounds: f"sampled {proto.name} seed {seed} indices {bounds[0]}..{bounds[1] - 1}")
    return SweepReport(n=n, mode="sampled", executions=executions,
                       violations=violations, first_counterexample=first, jobs=jobs)


def _sample_range(proto: ProtocolAutomaton, n: int, seed: int, lo: int, hi: int):
    """``(executions, violations, first counterexample)`` of sampled executions lo..hi-1."""
    rounds = proto.budget()
    violations, first = 0, None
    for k in range(lo, hi):
        rng = random.Random(f"{seed}:{k}")
        inputs = [rng.randint(0, 1) for _ in range(n)]
        scheds = [random_sigma_schedule(n, proto.model, rng) for _ in range(rounds)]
        adversary = random_outputs(rng.randrange(2**31), n)
        state = make_initial_state(n, inputs, proto.model, proto)
        for sched in scheds:
            state = apply_round(state, sched, adversary, proto)
        verdict = _check_decisions(state, rounds, set(inputs))
        if not verdict.ok:
            violations += 1
            if first is None:
                first = {"inputs": inputs, "seed": seed, "index": k,
                         "violation": jsonable(verdict.first_violation)}
    return hi - lo, violations, first


# ---------------------------------------------------------------------------
# running a sweep's items, on forked worker processes where they pay

# The least work per worker, in sampled executions or exhaustive root
# schedules (each pair's tree root has one branch per schedule): a fork pool
# takes about 10 ms to start and join on a 2-core x86 machine with Python
# 3.11, against 0.2-1.5 ms per execution at n = 3..6 and about 0.25 / 0.6 ms
# per root schedule of the memoized n = 3 / 4 trees.
_MIN_RANGE = 100

_task: Optional[Callable] = None  # set only in a worker, by the pool initializer


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _resolve_jobs(jobs: Optional[int], work: int) -> int:
    """``jobs`` as given, or by default one per usable CPU and per
    ``_MIN_RANGE`` units of ``work``; fewer than one job is refused."""
    if jobs is None:
        return max(1, min(_usable_cpus(), work // _MIN_RANGE))
    if jobs < 1:
        raise InvalidArgumentError(f"jobs must be at least 1, got {jobs}")
    return jobs


def _run_sweep(task: Callable, items: list, jobs: int, describe: Callable):
    """Fold ``task(item) -> (executions, violations, first)`` over ``items``:
    the counts summed, ``first`` the first item's that is not None, in item
    order whatever ``jobs``.  Logs one DEBUG line per item, ``describe(item)``
    with its counts and seconds."""
    def timed(item):
        t0 = time.perf_counter()
        return task(item), time.perf_counter() - t0

    executions = violations = 0
    first = None
    for item, ((count, bad, found), seconds) in zip(items, _fan_out(timed, items, jobs)):
        log.debug("%s: %d executions, %d violations, %.3fs", describe(item), count, bad, seconds)
        executions += count
        violations += bad
        if first is None:
            first = found
    return executions, violations, first


def _adopt(task: Callable) -> None:
    global _task
    _task = task


def _run_adopted(item):
    return _task(item)


def _fan_out(task: Callable, items: list, workers: int) -> list:
    """``[task(item) for item in items]``, in item order, on up to ``workers``
    forked processes, and at most one per usable CPU.

    The workers inherit ``task`` (with the automaton it closes over) by
    fork, so only the items and the results are pickled: spawned workers
    could not receive the closures that callers pass as automaton
    factories.  The package starts no thread, and the pool forks its
    workers before it starts its own.  An exception in a worker re-raises
    here with its type and message, and every worker is joined before this
    returns.  With one worker, or where the platform cannot fork, the items
    run here.
    """
    workers = min(workers, len(items), _usable_cpus())
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                       initializer=_adopt, initargs=(task,))
            try:  # batches cut the pipe round trips of many small items (1,275 at n = 4)
                return list(pool.map(_run_adopted, items,
                                     chunksize=max(1, len(items) // (4 * workers))))
            finally:
                pool.shutdown(cancel_futures=True)
    return [task(item) for item in items]


def all_coalitions_tuples(g: int, domain=(5, 7)) -> list[tuple]:
    """Every valid g-coalitions tuple over the given value domain."""
    out = []
    for a in domain:
        for b in domain:
            for c in range(1, g):
                entries = []
                for i in range(1, g + 1):
                    left = a if i != g else None
                    right = b if i != c else None
                    entries.append((left, right))
                out.append(tuple(entries))
    return out


def verify_2cc(g: int, domain=(5, 7), families=("sigma",)) -> SweepReport:
    """Exhaustive schedules x adversary over every valid coalitions tuple,
    each family's schedules built once.  A ``domain`` that is empty (nothing
    to check) or repeats a value (identical trees re-run) is refused."""
    if not domain:
        raise InvalidArgumentError("value domain is empty")
    if len(set(domain)) != len(domain):
        raise InvalidArgumentError(f"value domain {list(domain)} repeats a value")
    proto = protocol_2cc(g)
    scheds = {family: list(enumerate_round_schedules(g, WOR, family)) for family in families}

    def sweep(item):
        entries, family = item
        allowed = {v for pair in entries for v in pair if v is not None}
        count, bad, found = _sweep_tree(proto, entries, scheds[family], 1, allowed)
        if found is not None:
            ((sched, choices),), violation = found
            found = {"entries": jsonable(entries), "schedule": sched.to_jsonable(),
                     "choices": list(choices), "violation": violation}
        return count, bad, found

    items = [(entries, family) for entries in all_coalitions_tuples(g, domain)
             for family in families]
    total, violations, first = _run_sweep(
        sweep, items, 1, lambda item: f"exhaustive {proto.name} entries {item[0]} family {item[1]}")
    return SweepReport(n=g, mode="exhaustive", executions=total,
                       violations=violations, first_counterexample=first)


def protocol_descriptor(proto: ProtocolAutomaton, n: int) -> dict:
    """JSON descriptor: model tag, round budget, and the object-selection
    table observed over the round budget (3 rounds without one)."""
    rounds = proto.round_budget or 3
    state = make_initial_state(n, list(range(n)), proto.model, proto)
    sched = sigma_schedule((), n, proto.model)
    table = []
    for r in range(1, rounds + 1):
        state, _ = apply_round_recorded(state, sched, itertools.repeat(1), proto)
        table.append({
            "round": r,
            "boxes": [sorted(box) for box, _out in state.box_outputs()],
        })
    return {
        "name": proto.name,
        "model": proto.model,
        "round_budget": proto.round_budget,
        "selection_table": table,
        "note": "table observed on a fully concurrent run",
    }

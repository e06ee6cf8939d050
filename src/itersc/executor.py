"""Round schedules, adversaries, and the round/execution engine.

A round schedule is an ordered list of concurrency groups, one event kind
per group.  Applying a schedule to a state walks the groups in order:
writes fill the round's fresh snapshot array, invoke groups resolve
safe-consensus instances (Safe-Validity forces a solo strictly-first
invoker's input; contention defers to the adversary), scans copy the
array.  Decisions and local-state folding happen at the round boundary.

Every exhaustive check (sweeps, Gamma census, bounded valency) walks the
schedule x adversary tree with ``explore``, which explores each distinct
``(round, locals)`` subtree once and reuses its summary wherever it recurs.
"""

from __future__ import annotations

import itertools
import json
import random
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
    LocalState,
    SafeConsensusInstance,
    SnapshotObject,
    make_initial_state,
)
from .protocols import ProtocolAutomaton, validate_coalitions_tuple
from .values import canonical_json, digest, freeze, jsonable, thaw_map

W, S, R = "W", "S", "R"
EVENT_ORDER = {WOR: (W, S, R), WRO: (W, R, S), OWR: (S, W, R)}


# ---------------------------------------------------------------------------
# round schedules


@dataclass(frozen=True, slots=True)
class RoundSchedule:
    """Ordered concurrency groups; every process appears once per event kind."""

    model: str
    n: int
    events: tuple  # ((kind, frozenset), ...)

    def key(self) -> tuple:
        return tuple((k, tuple(sorted(g))) for k, g in self.events)

    def part(self, kinds) -> tuple:
        return tuple((k, g) for k, g in self.events if k in kinds)

    def to_jsonable(self) -> list:
        return [[k, sorted(g)] for k, g in self.events]

    def __str__(self) -> str:
        return ",".join(f"{k}{{{','.join(map(str, sorted(g)))}}}" for k, g in self.events)


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
        evs.append((kind, group))
    for pid in range(1, n + 1):
        try:
            seq = [positions[(pid, k)] for k in order]
        except KeyError as exc:
            raise InvalidScheduleError(f"process {pid} is missing an event") from exc
        if not seq[0] < seq[1] < seq[2]:
            raise InvalidScheduleError(
                f"process {pid} violates the {model} order {'<'.join(order)}")
    return RoundSchedule(model=model, n=n, events=tuple(evs))


def sigma_schedule(groups, n: int, model: str = WOR) -> RoundSchedule:
    """The schedule running disjoint groups in sequence, then the complement.

    WOR interleaves write/invoke/scan per group; WRO runs write/scan per
    group and a single concurrent invoke at the end; OWR is the mirror
    image with the concurrent invoke first.
    """
    blocks: list[frozenset] = []
    seen: set[int] = set()
    for g in groups:
        g = frozenset(g)
        if not g:
            continue
        if g & seen:
            raise InvalidScheduleError(f"overlapping sigma groups at {sorted(g & seen)}")
        if not g <= set(range(1, n + 1)):
            raise InvalidScheduleError(f"group {sorted(g)} outside 1..{n}")
        seen |= g
        blocks.append(g)
    rest = frozenset(range(1, n + 1)) - seen
    if rest:
        blocks.append(rest)
    full = frozenset(range(1, n + 1))
    events: list[tuple[str, frozenset]] = []
    if model == WOR:
        for b in blocks:
            events += [(W, b), (S, b), (R, b)]
    elif model == WRO:
        for b in blocks:
            events += [(W, b), (R, b)]
        events.append((S, full))
    elif model == OWR:
        events.append((S, full))
        for b in blocks:
            events += [(W, b), (R, b)]
    else:
        raise InvalidScheduleError(f"unknown model {model!r}")
    return make_schedule(model, n, events)


def ordered_set_partitions(items: tuple) -> Iterator[tuple]:
    """Ordered partitions where any block may come first (not anchored)."""
    items = tuple(items)
    if not items:
        yield ()
        return
    pool = set(items)
    for k in range(1, len(items) + 1):
        for block in itertools.combinations(sorted(pool), k):
            blk = frozenset(block)
            rest = tuple(sorted(pool - blk))
            if not rest:
                yield (blk,)
                continue
            for tail in ordered_set_partitions(rest):
                yield (blk,) + tail


def enumerate_round_schedules(n: int, model: str, family: str = "sigma") -> Iterator[RoundSchedule]:
    """Duplicate-free stream of schedules from the requested family."""
    if family == "sigma":
        if n > 6:
            raise BudgetExceededError(f"exhaustive sigma family capped at n=6, got {n}")
        for parts in ordered_set_partitions(tuple(range(1, n + 1))):
            yield sigma_schedule(parts, n, model)
    elif family == "ordered-partition":
        if n > 4:
            raise BudgetExceededError(f"exhaustive ordered-partition family capped at n=4, got {n}")
        order = EVENT_ORDER[model]
        yield from _interleavings(n, order)
    else:
        raise InvalidArgumentError(f"unknown schedule family {family!r}")


def _interleavings(n: int, order) -> Iterator[RoundSchedule]:
    """All event sequences consistent with the per-process kind order."""
    model = next(m for m, o in EVENT_ORDER.items() if o == tuple(order))
    start = {pid: 0 for pid in range(1, n + 1)}

    def rec(progress, acc):
        if all(v == 3 for v in progress.values()):
            yield make_schedule(model, n, acc)
            return
        ready: dict[str, list[int]] = {}
        for pid, lvl in progress.items():
            if lvl < 3:
                ready.setdefault(order[lvl], []).append(pid)
        for kind in sorted(ready):
            pool = sorted(ready[kind])
            for k in range(1, len(pool) + 1):
                for group in itertools.combinations(pool, k):
                    nxt = dict(progress)
                    for pid in group:
                        nxt[pid] += 1
                    yield from rec(nxt, acc + [(kind, frozenset(group))])

    yield from rec(start, [])


def random_sigma_schedule(n: int, model: str, rng: random.Random) -> RoundSchedule:
    """Uniform-ish random member of the sigma family."""
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    blocks = []
    i = 0
    while i < len(ids):
        size = rng.randint(1, len(ids) - i)
        blocks.append(ids[i:i + size])
        i += size
    return sigma_schedule(blocks, n, model)


# ---------------------------------------------------------------------------
# adversaries


class AdversaryPolicy:
    """Supplies outputs for contended safe-consensus instances."""

    mode = "abstract"

    def choose(self, rnd: int, obj, invokers, state: GlobalState) -> int:
        raise NotImplementedError


class ScriptedAdversary(AdversaryPolicy):
    """Replays a recorded list of choices; must cover every contended instance."""

    mode = "scripted"

    def __init__(self, choices: Iterable[int]):
        self._choices = list(choices)
        self._pos = 0

    def choose(self, rnd, obj, invokers, state):
        if self._pos >= len(self._choices):
            raise UnresolvedInstanceError(
                f"script exhausted at round {rnd}, object {obj!r}")
        v = self._choices[self._pos]
        self._pos += 1
        return v

    @classmethod
    def from_json(cls, text: str) -> "ScriptedAdversary":
        data = json.loads(text)
        if not isinstance(data, list):
            raise InvalidInputError("adversary script must be a JSON array")
        return cls(data)


class MapAdversary(AdversaryPolicy):
    """Answers by object index within a single round (used by path builders)."""

    mode = "scripted"

    def __init__(self, by_object: dict, default: Optional[Callable] = None):
        self.by_object = by_object
        self.default = default

    def choose(self, rnd, obj, invokers, state):
        if obj in self.by_object:
            return self.by_object[obj]
        if self.default is not None:
            return self.default(obj, invokers)
        raise UnresolvedInstanceError(f"no planned value for object {obj!r}")


class SeededRandomAdversary(AdversaryPolicy):
    mode = "seeded-random"

    def __init__(self, seed: int, n: int):
        self._rng = random.Random(seed)
        self._n = n

    def choose(self, rnd, obj, invokers, state):
        return self._rng.randint(1, self._n)


class FixedAdversary(AdversaryPolicy):
    mode = "scripted"

    def __init__(self, value: int = 1):
        self.value = value

    def choose(self, rnd, obj, invokers, state):
        return self.value


# ---------------------------------------------------------------------------
# applying rounds


def _run_events(state: GlobalState, sched: RoundSchedule, proto: ProtocolAutomaton,
                adversary: Optional[AdversaryPolicy]):
    """Walk one round's events; returns per-process components and instances."""
    n = state.n
    rnd = state.rnd + 1
    cur_sm = [ls.sm for ls in state.locals_]
    cur_val = [ls.val for ls in state.locals_]
    loc = [thaw_map(ls.locals_) for ls in state.locals_]
    cells: list = [None] * n
    selections: dict[int, Any] = {}
    sc_inputs: dict[int, Any] = {}
    outputs: dict[Any, Any] = {}
    forced: dict[Any, bool] = {}
    order: list = []
    choices: list = []

    for kind, group in sched.events:
        if kind == W:
            for pid in sorted(group):
                i = pid - 1
                cells[i] = freeze(proto.payload(pid, state.locals_[i].inp,
                                                cur_sm[i], cur_val[i], loc[i]))
        elif kind == R:
            snap = tuple(cells)
            for pid in sorted(group):
                i = pid - 1
                sm = snap
                if proto.sm_filter is not None:
                    sm = freeze(proto.sm_filter(rnd, pid, sm, loc[i]))
                cur_sm[i] = sm
        else:  # invoke
            here: dict[Any, list[int]] = {}
            for pid in sorted(group):
                i = pid - 1
                obj = proto.select_object(rnd, pid, cur_sm[i], cur_val[i], loc[i])
                if not isinstance(obj, int) or obj < 0:
                    raise InvalidArgumentError(
                        f"object selector returned {obj!r}; expected a "
                        f"non-negative index")
                selections[pid] = obj
                sc_inputs[pid] = freeze(proto.object_input(pid, loc[i]))
                here.setdefault(obj, []).append(pid)
            for obj in sorted(here):
                invokers = here[obj]
                if obj in outputs:
                    continue
                order.append(obj)
                if len(invokers) == 1:
                    outputs[obj] = sc_inputs[invokers[0]]
                    forced[obj] = True
                else:
                    if adversary is None:
                        raise UnresolvedInstanceError(
                            f"object {obj!r} contended by {invokers} needs an adversary")
                    v = adversary.choose(rnd, obj, tuple(invokers), state)
                    if not (isinstance(v, int) and 1 <= v <= n):
                        raise InvalidAdversaryError(
                            f"adversary chose {v!r} outside 1..{n}")
                    outputs[obj] = v
                    forced[obj] = False
                    choices.append((rnd, obj, v))
            for pid in sorted(group):
                i = pid - 1
                v = outputs[selections[pid]]
                if proto.val_filter is not None:
                    v = freeze(proto.val_filter(rnd, pid, v, loc[i]))
                cur_val[i] = v

    by_obj: dict[Any, list[int]] = {}
    for pid, obj in selections.items():
        by_obj.setdefault(obj, []).append(pid)
    instances = tuple(
        SafeConsensusInstance(
            object_index=obj,
            invokers=frozenset(by_obj[obj]),
            inputs=tuple(sorted((p, sc_inputs[p]) for p in by_obj[obj])),
            output=outputs[obj],
            forced=forced[obj],
        )
        for obj in order
    )
    return cur_sm, cur_val, loc, cells, instances, choices


def apply_round(state: GlobalState, sched: RoundSchedule,
                adversary: Optional[AdversaryPolicy],
                proto: ProtocolAutomaton) -> GlobalState:
    """Run one round; returns the successor state at the next round boundary."""
    new_state, _ = apply_round_recorded(state, sched, adversary, proto)
    return new_state


def apply_round_recorded(state: GlobalState, sched: RoundSchedule,
                         adversary: Optional[AdversaryPolicy],
                         proto: ProtocolAutomaton):
    if sched.model != proto.model or sched.model != state.model:
        raise InvalidScheduleError(
            f"schedule model {sched.model} does not match protocol/state "
            f"({proto.model}/{state.model})")
    if sched.n != state.n:
        raise InvalidScheduleError(f"schedule for n={sched.n}, state has n={state.n}")
    rnd = state.rnd + 1
    cur_sm, cur_val, loc, cells, instances, choices = _run_events(
        state, sched, proto, adversary)
    new_locals = []
    for i, ls in enumerate(state.locals_):
        dec = ls.dec
        if dec is None:
            dec = freeze(proto.decide(cur_sm[i], cur_val[i], loc[i]))
        stepped = freeze(proto.step(loc[i], cur_sm[i], cur_val[i]))
        new_locals.append(LocalState(
            pid=ls.pid, rnd=rnd, inp=ls.inp, sm=cur_sm[i], val=cur_val[i],
            dec=dec, locals_=stepped))
    full = frozenset(range(1, state.n + 1))
    snap = SnapshotObject(cells=tuple(cells), updated_by=full, scanned_by=full)
    new_state = GlobalState(
        n=state.n, model=state.model, rnd=rnd,
        locals_=tuple(new_locals),
        memory=state.memory + (snap,),
        instances=state.instances + (instances,),
    )
    return new_state, tuple(choices)


def probe_round(state: GlobalState, sched: RoundSchedule, proto: ProtocolAutomaton):
    """Dry-run one round to learn its instances (box, contended, forced value).

    Returns a list of (object_index, box, contended, forced_output) in
    resolution order; the adversary outputs used for contended instances
    are placeholders.
    """
    probe_state, _ = apply_round_recorded(state, sched, FixedAdversary(1), proto)
    out = []
    for inst in probe_state.instances[-1]:
        out.append((inst.object_index, inst.box, not inst.forced,
                    inst.output if inst.forced else None))
    return out


# ---------------------------------------------------------------------------
# exploring the schedule x adversary tree


def successors(state: GlobalState, sched: RoundSchedule, proto: ProtocolAutomaton):
    """Yield ``(choices, child)`` for every adversary output of one round.

    ``choices`` are the outputs of the contended instances in resolution
    order, in ``itertools.product`` order.  The all-ones run comes first
    and also reveals which instances are contended, so no probe runs.  The
    set of contended instances cannot depend on the outputs: no process
    selects its object after reading an output of the same round, and
    MapAdversary raises on an instance it has no output for.
    """
    first, recorded = apply_round_recorded(state, sched, FixedAdversary(1), proto)
    contended = [obj for (_rnd, obj, _v) in recorded]
    assignments = itertools.product(range(1, state.n + 1), repeat=len(contended))
    yield next(assignments), first
    for values in assignments:
        yield values, apply_round(state, sched, MapAdversary(dict(zip(contended, values))),
                                  proto)


def explore(root: GlobalState, scheds, proto: ProtocolAutomaton,
            leaf: Callable, join: Callable, on_child: Optional[Callable] = None):
    """Summary of the tree of every schedule in ``scheds`` x every adversary
    output, round after round, below ``root``.

    ``leaf(state, depth)`` returns the summary of a leaf, or None to branch.
    ``join(parts)`` folds the ``((sched, choices), summary)`` pairs of a
    node's children, in depth-first order, into the node's summary.
    ``on_child`` sees every child state the walk computes.

    Identical subtrees are explored once: the summaries of inner nodes are
    memoized by ``(depth, locals_)``.  This is sound because a round reads only the
    locals, round number and n of its state, the enumerated adversary
    ignores the state, and ``leaf`` must read only the locals.  The walk
    stays depth-first, so counts and first counterexamples are exactly
    those of the plain tree walk.
    """
    memo: dict = {}

    def rec(state: GlobalState, depth: int):
        summary = leaf(state, depth)
        if summary is not None:
            return summary
        key = (depth, state.locals_)
        summary = memo.get(key)
        if summary is None:
            parts = []
            for sched in scheds:
                for choices, child in successors(state, sched, proto):
                    if on_child is not None:
                        on_child(child)
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
            for ls in step.state.locals_:
                if ls.dec is not None and ls.pid not in out:
                    out[ls.pid] = (idx, ls.dec)
        return out

    def to_jsonl(self) -> str:
        lines = []
        for idx, step in enumerate(self.steps, start=1):
            lines.append(canonical_json({
                "round": idx,
                "schedule": step.schedule.to_jsonable(),
                "choices": [[r, jsonable(o), v] for (r, o, v) in step.choices],
                "locals": [
                    {"id": ls.pid, "val": jsonable(ls.val), "dec": jsonable(ls.dec),
                     "digest": digest(ls.to_jsonable())}
                    for ls in step.state.locals_
                ],
            }))
        return "\n".join(lines) + "\n"


def run_execution(proto: ProtocolAutomaton, inputs, scheds,
                  adversary: Optional[AdversaryPolicy]) -> Execution:
    """Fold apply_round over a nonempty schedule list, recording choices."""
    scheds = list(scheds)
    if not scheds:
        raise InvalidArgumentError("at least one round schedule is required")
    inputs = list(inputs)
    init = make_initial_state(len(inputs), inputs, proto.model, proto)
    state = init
    steps = []
    for sched in scheds:
        state, choices = apply_round_recorded(state, sched, adversary, proto)
        steps.append(ExecutionStep(schedule=sched, choices=choices, state=state))
    return Execution(initial=init, steps=tuple(steps))


def replay_execution(proto: ProtocolAutomaton, inputs, execution: Execution) -> Execution:
    """Re-run a recorded execution from its schedules and choices."""
    return run_execution(proto, inputs, execution.schedules(),
                         ScriptedAdversary(execution.all_choices()))


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

    def to_jsonable(self) -> dict:
        return {
            "ok": self.ok,
            "termination": self.termination,
            "agreement": self.agreement,
            "validity": self.validity,
            "horizon": self.horizon,
            "first_violation": jsonable(self.first_violation),
        }


def _check_decisions(final: GlobalState, horizon: int, valid_outputs) -> Verdict:
    decs = {ls.pid: ls.dec for ls in final.locals_}
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


@dataclass(frozen=True)
class ExplorationBudget:
    rounds: Optional[int] = None
    mode: str = "auto"  # auto | exhaustive | sampled
    max_executions: int = 2000
    seed: int = 0
    inputs: Optional[tuple] = None


def collect_gamma(proto: ProtocolAutomaton, n: int,
                  budget: Optional[ExplorationBudget] = None) -> GammaReport:
    """Observe boxes across explored executions; exhaustive when n is small.

    The exhaustive census stops (``partial``) after the schedule tree that
    reaches ``100 * max_executions`` leaves, with all that tree's boxes.
    """
    budget = budget or ExplorationBudget()
    rounds = budget.rounds or proto.round_budget
    if rounds is None:
        raise InvalidArgumentError("protocol has no round budget; supply one")
    mode = budget.mode
    if mode == "auto":
        mode = "exhaustive" if n <= 4 else "sampled"
    boxes: set[frozenset] = set()
    count = 0
    partial = False
    # distinct default inputs; the box structure does not depend on values
    inputs = list(budget.inputs) if budget.inputs is not None else list(range(n))

    def record(state: GlobalState):
        for inst in state.instances[-1]:
            boxes.add(inst.box)

    if mode == "exhaustive":
        init = make_initial_state(n, inputs, proto.model, proto)
        cap = budget.max_executions * 100
        for sched in enumerate_round_schedules(n, proto.model, "sigma"):
            count += explore(init, [sched], proto,
                             lambda _s, depth: 1 if depth == rounds else None,
                             lambda parts: sum(leaves for _step, leaves in parts),
                             record)
            if count >= cap:
                count, partial = cap, True
                break
    else:
        rng = random.Random(budget.seed)
        for _ in range(budget.max_executions):
            scheds = [random_sigma_schedule(n, proto.model, rng)
                      for _ in range(rounds)]
            adv = SeededRandomAdversary(rng.randrange(2**31), n)
            state = make_initial_state(n, inputs, proto.model, proto)
            for sched in scheds:
                state = apply_round(state, sched, adv, proto)
                record(state)
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
                                inputs_list=None) -> SweepReport:
    """Exhaustive sigma-family sweep with a fully enumerated adversary.

    For n <= 3 every per-round combination of sigma schedules is explored;
    for n = 4 the sigma schedule is fixed per execution and iterated (the
    per-round cross product is astronomically large), still with the full
    adversary enumeration at every round.  ``executions`` counts every leaf
    of each tree, although ``explore`` checks each distinct subtree once.
    """
    from .protocols import protocol_consensus_wor
    if n > 4:
        raise BudgetExceededError(
            f"exhaustive verification capped at n=4, got {n}; use sampled mode")
    factory = proto_factory or protocol_consensus_wor
    proto = factory(n)
    rounds = proto.round_budget
    scheds = list(enumerate_round_schedules(n, proto.model, "sigma"))
    if per_round_cross is None:
        per_round_cross = n <= 3
    total = 0
    violations = 0
    first = None
    trees = [scheds] if per_round_cross else [[sched] for sched in scheds]
    for inputs in (inputs_list or consensus_input_vectors(n)):
        valid = {freeze(i) for i in inputs}
        for tree in trees:
            count, bad, found = _sweep_tree(proto, inputs, tree, rounds, valid)
            total += count
            violations += bad
            if first is None and found is not None:
                trail, violation = found
                first = {"inputs": list(inputs),
                         "trail": [{"schedule": s.to_jsonable(), "choices": list(c)}
                                   for s, c in trail],
                         "violation": violation}
    gamma_report = collect_gamma(proto, n)
    return SweepReport(n=n, mode="exhaustive", executions=total,
                       violations=violations, first_counterexample=first,
                       gamma=gamma_report)


def verify_consensus_sampled(n: int, executions: int = 10000, seed: int = 0,
                             proto_factory=None) -> SweepReport:
    """Randomized sweep: fresh sigma schedules and adversary values per round.

    Execution k draws from its own generator, seeded by ``(seed, k)`` alone,
    so any split of ``range(executions)`` reproduces the serial run.
    """
    from .protocols import protocol_consensus_wor
    factory = proto_factory or protocol_consensus_wor
    violations, first = _sample_range(factory(n), n, seed, 0, executions)
    return SweepReport(n=n, mode="sampled", executions=executions,
                       violations=violations, first_counterexample=first)


def _sample_range(proto: ProtocolAutomaton, n: int, seed: int, lo: int, hi: int):
    """Violation count and first counterexample of sampled executions lo..hi-1."""
    rounds = proto.round_budget
    violations, first = 0, None
    for k in range(lo, hi):
        rng = random.Random(f"{seed}:{k}")
        inputs = [rng.randint(0, 1) for _ in range(n)]
        scheds = [random_sigma_schedule(n, proto.model, rng) for _ in range(rounds)]
        adv = SeededRandomAdversary(rng.randrange(2**31), n)
        exe = run_execution(proto, inputs, scheds, adv)
        verdict = check_consensus(exe, inputs)
        if not verdict.ok:
            violations += 1
            if first is None:
                first = {"inputs": inputs, "seed": seed, "index": k,
                         "violation": jsonable(verdict.first_violation)}
    return violations, first


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
    """Exhaustive schedules x adversary over every valid coalitions tuple."""
    from .protocols import protocol_2cc
    proto = protocol_2cc(g)
    total = 0
    violations = 0
    first = None
    for entries in all_coalitions_tuples(g, domain):
        allowed = {v for pair in entries for v in pair if v is not None}
        for family in families:
            scheds = list(enumerate_round_schedules(g, WOR, family))
            count, bad, found = _sweep_tree(proto, entries, scheds, 1, allowed)
            total += count
            violations += bad
            if first is None and found is not None:
                ((sched, choices),), violation = found
                first = {"entries": jsonable(entries),
                         "schedule": sched.to_jsonable(),
                         "choices": list(choices),
                         "violation": violation}
    return SweepReport(n=g, mode="exhaustive", executions=total,
                       violations=violations, first_counterexample=first)


def protocol_descriptor(proto: ProtocolAutomaton, n: int,
                        rounds: Optional[int] = None) -> dict:
    """JSON descriptor: model tag, round budget, observed object-selection table."""
    rounds = rounds or proto.round_budget or 3
    state = make_initial_state(n, list(range(n)), proto.model, proto)
    sched = sigma_schedule((), n, proto.model)
    table = []
    for r in range(1, rounds + 1):
        state, _ = apply_round_recorded(state, sched, FixedAdversary(1), proto)
        table.append({
            "round": r,
            "boxes": [sorted(inst.box) for inst in state.instances[-1]],
        })
    return {
        "name": proto.name,
        "model": proto.model,
        "round_budget": proto.round_budget,
        "selection_table": table,
        "note": "table observed on a fully concurrent run",
    }

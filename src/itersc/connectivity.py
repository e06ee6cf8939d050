"""Indistinguishability graphs, verified path constructions, and valency.

Every construction here follows the same discipline: build the successor
states prescribed by the corresponding structural argument, choosing the
safe-consensus outputs of contended instances from an explicit per-box
plan, then verify each claimed indistinguishability edge against the
actual local states.  A construction that cannot be verified raises
ConstructionError instead of returning a weaker path.

Each public extension call applies its rounds through one private memo,
which lives for that call only.  A round's outcome (new locals, snapshot,
instances) is keyed by ``(rnd, locals_, groups, script)``: a round reads
only the locals, the round number and n, and the adversaries used here
(all ones, or outputs by object index) ignore the state.  A hit rebuilds
the child on the caller's own history.  No probe runs: the all-ones child
shows the boxes, the contention and the forced values of its round.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional

import networkx as nx

from .errors import (
    BudgetExceededError,
    ConstructionError,
    FullBoxConflictError,
    InvalidArgumentError,
    MissingBoxError,
    NoInvocationsError,
    PreconditionViolationError,
    RoundMismatchError,
)
from .executor import (
    FixedAdversary,
    MapAdversary,
    apply_round,
    enumerate_round_schedules,
    explore,
    probe_round,
    sigma_schedule,
)
from .johnson import vertex_set, zeta
from .model import (
    GlobalState,
    diff_box_set,
    indistinguishability_set,
    invocation_spec,
    make_initial_state,
    sc_value_of,
)
from .values import jsonable


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

    def isets(self) -> frozenset:
        return frozenset(self.labels)

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

    def concat(self, other: "Path") -> "Path":
        if self.last != other.first:
            raise ConstructionError("paths do not share an endpoint")
        return Path(states=self.states + other.states[1:],
                    labels=self.labels + other.labels)

    def to_jsonable(self) -> dict:
        return {
            "round": self.states[0].rnd if self.states else None,
            "states": [s.digest() for s in self.states],
            "labels": [sorted(x) for x in self.labels],
            "degree": self.degree(),
        }

    def to_dot(self, name: str = "path") -> str:
        lines = [f'graph "{name}" {{']
        for i, s in enumerate(self.states):
            lines.append(f'  n{i} [label="{s.digest()}"];')
        for i, x in enumerate(self.labels):
            lbl = ",".join(map(str, sorted(x)))
            lines.append(f'  n{i} -- n{i + 1} [label="{{{lbl}}}"];')
        lines.append("}")
        return "\n".join(lines)


class PathBuilder:
    """Grows a path edge by edge, verifying each label as it is added."""

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
        actual = indistinguishability_set(self.tail, state)
        if not label <= actual:
            raise ConstructionError(
                f"edge {len(self.labels)}: claimed {sorted(label)} but only "
                f"{sorted(actual)} agree")
        if state == self.tail:
            return  # identical states collapse; nothing to add
        self.states.append(state)
        self.labels.append(label)

    def build(self) -> Path:
        return Path(states=tuple(self.states), labels=tuple(self.labels))


def is_b_regular(path: Path) -> bool:
    """All states share one invocation specification."""
    if any(s.rnd < 1 for s in path.states):
        raise NoInvocationsError("round-0 states have no invocation specification")
    specs = {invocation_spec(s) for s in path.states}
    return len(specs) <= 1


# ---------------------------------------------------------------------------
# indistinguishability graph


def build_indist_graph(states) -> nx.Graph:
    states = list(states)
    rounds = {s.rnd for s in states}
    if len(rounds) > 1:
        raise RoundMismatchError(f"states span rounds {sorted(rounds)}")
    g = nx.Graph()
    for s in states:
        g.add_node(s)
    for a, b in itertools.combinations(states, 2):
        x = indistinguishability_set(a, b)
        if x:
            g.add_edge(a, b, label=x)
    return g


def find_path(graph: nx.Graph, s: GlobalState, q: GlobalState,
              min_degree: int = 1) -> Optional[Path]:
    """Shortest path whose labels all have at least ``min_degree`` members."""
    if s not in graph or q not in graph:
        raise InvalidArgumentError("both endpoints must be in the graph")
    if s == q:
        return Path(states=(s,), labels=())
    sub = nx.Graph()
    sub.add_nodes_from(graph.nodes)
    for a, b, data in graph.edges(data=True):
        if len(data["label"]) >= min_degree:
            sub.add_edge(a, b, label=data["label"])
    try:
        nodes = nx.shortest_path(sub, s, q)
    except nx.NetworkXNoPath:
        return None
    labels = tuple(sub.edges[nodes[i], nodes[i + 1]]["label"]
                   for i in range(len(nodes) - 1))
    return Path(states=tuple(nodes), labels=labels)


# ---------------------------------------------------------------------------
# prescriptive successor construction


def successor_boxes(state: GlobalState, proto) -> frozenset:
    """Boxes the protocol will use in the next round (schedule-independent
    for write-invoke-scan protocols, whose selector sees the old snapshot)."""
    sched = sigma_schedule((), state.n, proto.model)
    return frozenset(b for (_o, b, _c, _f) in probe_round(state, sched, proto))


class _Rounds:
    """The sigma rounds of one extension call, each applied once (see the
    module docstring for why the key is sound)."""

    def __init__(self, proto):
        self.proto = proto
        self.deltas: dict = {}

    def child(self, state: GlobalState, groups, script: Optional[tuple] = None) -> GlobalState:
        """The sigma(groups) successor.  Contended instances output 1, or
        the value ``script`` pairs with their object index."""
        groups = tuple(frozenset(g) for g in groups)
        key = (state.rnd, state.locals_, groups, script)
        delta = self.deltas.get(key)
        if delta is None:
            sched = sigma_schedule(groups, state.n, self.proto.model)
            adv = FixedAdversary(1) if script is None else MapAdversary(dict(script))
            child = apply_round(state, sched, adv, self.proto)
            self.deltas[key] = (child.locals_, child.memory[-1], child.instances[-1])
            return child
        locals_, snap, insts = delta
        return GlobalState(n=state.n, model=state.model, rnd=state.rnd + 1, locals_=locals_,
                           memory=state.memory + (snap,), instances=state.instances + (insts,))

    def boxes(self, state: GlobalState) -> frozenset:
        return frozenset(inst.box for inst in self.child(state, ()).instances[-1])

    def successor(self, state: GlobalState, groups, box_values: dict,
                  default: Optional[Callable] = None) -> GlobalState:
        ones = self.child(state, groups)
        script = {}
        for inst in ones.instances[-1]:
            b, want = inst.box, box_values.get(inst.box)
            if not inst.forced:
                script[inst.object_index] = want if want is not None else (default or min)(b)
            elif want is not None and inst.output != want:
                raise ConstructionError(
                    f"box {sorted(b)} is forced to {inst.output} under "
                    f"{sigma_schedule(groups, state.n, self.proto.model)}, plan wants {want}")
        if all(v == 1 for v in script.values()):
            return ones
        return self.child(state, groups, tuple(script.items()))


def build_successor(state: GlobalState, groups, proto, box_values: dict,
                    default: Optional[Callable] = None) -> GlobalState:
    """One sigma-round successor with planned safe-consensus outputs.

    ``box_values`` maps boxes (frozensets) to the output each box must take;
    instances that Safe-Validity forces are checked against the plan.  No
    probe runs: the all-ones round shows the contention and forced values,
    and is itself the answer when the plan gives every contended box 1.
    """
    return _Rounds(proto).successor(state, groups, box_values, default)


def box_values_of(state: GlobalState) -> dict:
    """Actual safe-consensus outputs per box in the state's last round."""
    return {inst.box: inst.output for inst in state.instances[-1]}


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
    """The three-state bridge  S.sigma(A) -B- S.sigma(all) -A- S.sigma(B).

    Requires every shared box of the coming round to respect the partition
    (the full box is exempt: its output is pinned to the singleton side's
    id when one side is a singleton, and is free otherwise).
    """
    n = state.n
    a, b_ = _check_partition_args(n, a, b_)
    rounds = _Rounds(proto)
    plan = _partition_plan(rounds.boxes(state), a, b_, n)
    s_a = rounds.successor(state, (a,), plan)
    s_all = rounds.successor(state, (), plan)
    s_b = rounds.successor(state, (b_,), plan)
    pb = PathBuilder(s_a)
    pb.append(s_all, b_)
    pb.append(s_b, a)
    path = pb.build()
    path.verify()
    return path


def extend_path_partition(path: Path, a, b_, proto) -> Path:
    """One-round extension of a path whose labels all equal A or B.

    Same-label edges advance directly; label flips insert the three-state
    bridge.  The output labels again lie in {A, B}.
    """
    n = path.states[0].n
    a, b_ = _check_partition_args(n, a, b_)
    for x in path.labels:
        if x != a and x != b_:
            raise PreconditionViolationError(
                f"label {sorted(x)} is neither A nor B")
    rounds = _Rounds(proto)

    def step(s: GlobalState, groups) -> GlobalState:
        return rounds.successor(s, groups, _partition_plan(rounds.boxes(s), a, b_, n))

    if not path.labels:
        return Path(states=(step(path.states[0], (a,)),), labels=())

    cur_groups = path.labels[0]
    pb = PathBuilder(step(path.states[0], (cur_groups,)))
    for idx, x in enumerate(path.labels):
        base, nxt_base = path.states[idx], path.states[idx + 1]
        if x != cur_groups:
            # bridge within the current base: sigma(cur) - sigma(all) - sigma(x)
            pb.append(step(base, ()), x)
            pb.append(step(base, (x,)), cur_groups)
            cur_groups = x
        pb.append(step(nxt_base, (x,)), x)
    out = pb.build()
    out.verify()
    return out


# ---------------------------------------------------------------------------
# the three-process engine without a full box


def extend_path_no3box(path: Path, proto) -> Path:
    """One-round extension for three processes that never share one object.

    Implements the two-case bridge: all-solo rounds connect through the
    fully concurrent successor; rounds with one shared pair connect through
    the case split on the next label's size.
    """
    n = path.states[0].n
    if n != 3:
        raise InvalidArgumentError("the no-3-box engine is specific to n=3")
    full = frozenset({1, 2, 3})
    rounds = _Rounds(proto)
    if not path.labels:
        return Path(states=(rounds.successor(path.states[0], (), {}),), labels=())

    cur = path.labels[0]
    _require_no_full_box(rounds.boxes(path.states[0]))
    pb = PathBuilder(rounds.successor(path.states[0], (cur,), {}))

    for idx, x_next in enumerate(path.labels):
        base, nxt_base = path.states[idx], path.states[idx + 1]
        boxes = rounds.boxes(base)
        _require_no_full_box(boxes)
        pair = next((b for b in boxes if len(b) == 2), None)

        if x_next == full:
            # identical bases: reuse the tail's shape on the next base
            plan = dict(box_values_of(pb.tail))
            pb.append(rounds.successor(nxt_base, (cur,), plan), full)
            continue

        if x_next == cur:
            plan = {b: v for b, v in box_values_of(pb.tail).items() if len(b) > 1}
            pb.append(rounds.successor(nxt_base, (x_next,), plan), x_next)
            continue

        if pair is None:
            # three solo objects: memory is the only distinguisher
            if cur != full:
                pb.append(rounds.successor(base, (), {}), full - cur)
            pb.append(rounds.successor(base, (x_next,), {}), full - x_next)
            pb.append(rounds.successor(nxt_base, (x_next,), {}), x_next)
            cur = x_next
            continue

        solo = full - pair  # the trivial box, as a singleton set
        v_tail = sc_value_of(pair, pb.tail) if pair in invocation_spec(pb.tail).boxes \
            else min(pair)
        if cur != full:
            pb.append(rounds.successor(base, (), {pair: v_tail}), full - cur)
        hop_plan: dict
        if len(x_next) == 1:
            if x_next == solo:
                a2 = rounds.successor(base, (x_next,), {pair: v_tail})
                pb.append(a2, pair)
                hop_plan = {pair: v_tail}
            else:
                (j,) = tuple(x_next)
                a2 = rounds.successor(base, (x_next,), {pair: j})
                pb.append(a2, solo)
                hop_plan = {pair: j}
        else:  # |x_next| == 2
            if x_next == pair:
                a2 = rounds.successor(base, (x_next,), {pair: v_tail})
                pb.append(a2, solo)
                hop_plan = {pair: v_tail}
            else:
                (j,) = tuple(x_next & pair)
                pb.append(rounds.successor(base, (frozenset({j}),), {pair: j}), solo)
                pb.append(rounds.successor(base, (frozenset({j}), solo), {pair: j}), pair)
                a2 = rounds.successor(base, (x_next,), {pair: j})
                pb.append(a2, solo)
                hop_plan = {pair: j}
        pb.append(rounds.successor(nxt_base, (x_next,), hop_plan), x_next)
        cur = x_next

    out = pb.build()
    out.verify()
    return out


def _require_no_full_box(boxes) -> None:
    for b in boxes:
        if len(b) >= 3:
            raise PreconditionViolationError(
                f"a {len(b)}-box {sorted(b)} appears; the engine requires none")


# ---------------------------------------------------------------------------
# ladders (the general peel-and-swap machinery)


@dataclass(frozen=True)
class LadderState:
    """Successor built by peeling a target set into <=2-size groups before
    a final block equal to the step box's share of the target set."""

    base: GlobalState
    groups: tuple  # peeled groups, each nonempty of size <= 2
    step_box: frozenset
    tail: frozenset
    state: GlobalState

    @property
    def target(self) -> frozenset:
        out = set(self.tail)
        for g in self.groups:
            out |= g
        return frozenset(out)


def is_ladder_state(lad: LadderState) -> bool:
    peeled: set = set()
    for g in lad.groups:
        if not 1 <= len(g) <= 2 or (g & peeled):
            return False
        peeled |= g
    if peeled & lad.step_box:
        return False
    return lad.tail == lad.step_box & lad.target


def _peel_groups(piece: frozenset) -> list[frozenset]:
    """First a pair (when possible), then singletons, smallest ids first."""
    ids = sorted(piece)
    if not ids:
        return []
    if len(ids) == 1:
        return [frozenset(ids)]
    return [frozenset(ids[:2])] + [frozenset({i}) for i in ids[2:]]


def _ladder_chain(boxes, target: frozenset, step_box: frozenset):
    """The peel chain from sigma(target) to the ladder: (groups, moved) list."""
    others = sorted((b for b in boxes if b != step_box and b & target), key=sorted)
    chain = []
    peeled: list[frozenset] = []
    rem = set(target)
    for bx in others:
        for k in _peel_groups(frozenset(rem) & bx):
            peeled.append(k)
            rem -= k
            groups = tuple(peeled) + ((frozenset(rem),) if rem else ())
            chain.append((groups, k))
    return chain, tuple(peeled)


def _ladder_plan(boxes, target: frozenset) -> dict:
    """Outputs sustainable in every state of a peel chain over ``target``."""
    plan = {}
    for b in boxes:
        if len(b) == 1:
            continue
        piece = b & target
        plan[b] = min(piece) if len(piece) == 1 else min(b)
    return plan


def build_ladder_path(state: GlobalState, x, b, proto) -> tuple[LadderState, Path]:
    """Connect sigma(X) to a ladder state for X with the given step box.

    The other boxes' shares of X are peeled off in groups of at most two,
    so every label has at least n-2 members.
    """
    x = frozenset(x)
    b = frozenset(b)
    if not x:
        raise InvalidArgumentError("the target set must be nonempty")
    rounds = _Rounds(proto)
    boxes = rounds.boxes(state)
    if b not in boxes:
        raise MissingBoxError(f"box {sorted(b)} is not invoked next round")
    plan = _ladder_plan(boxes, x)
    start = rounds.successor(state, (x,), plan)
    if len(boxes) == 1:
        lad = LadderState(base=state, groups=(), step_box=b, tail=x & b, state=start)
        return lad, Path(states=(start,), labels=())
    full = frozenset(range(1, state.n + 1))
    chain, peeled = _ladder_chain(boxes, x, b)
    pb = PathBuilder(start)
    for groups, moved in chain:
        pb.append(rounds.successor(state, groups, plan), full - moved)
    lad = LadderState(base=state, groups=peeled, step_box=b, tail=x & b,
                      state=pb.tail)
    path = pb.build()
    path.verify()
    if path.labels and path.degree() < state.n - 2:
        raise ConstructionError("ladder path degree fell below n-2")
    return lad, path


def _swap_chain(state: GlobalState, c_groups: tuple, b: frozenset,
                x_piece: frozenset, y_piece: frozenset, v1, v2,
                other_plan: dict, rounds: _Rounds, pb: PathBuilder) -> None:
    """Exchange the step box's share of the target: L1 -> L2 through the
    merged state.  When the box's output switches (v1 != v2), the crossing
    edge is labelled by the box's complement."""
    full = frozenset(range(1, state.n + 1))
    plan1 = dict(other_plan)
    plan1[b] = v1
    plan2 = dict(other_plan)
    plan2[b] = v2

    ks = _peel_groups(x_piece)
    # peel the outgoing piece, then sink it into the trailing block
    for j in range(1, len(ks) + 1):
        rem = x_piece - frozenset().union(*ks[:j])
        groups = c_groups + tuple(ks[:j]) + ((rem,) if rem else ())
        pb.append(rounds.successor(state, groups, plan1), full - ks[j - 1])
    for j in range(len(ks) - 1, -1, -1):
        groups = c_groups + tuple(ks[:j])
        pb.append(rounds.successor(state, groups, plan1), full - ks[j])

    if not y_piece:
        if v1 != v2:
            if b == full:
                raise FullBoxConflictError(
                    "cannot switch the full box's output on a path")
            pb.append(rounds.successor(state, c_groups, plan2), full - b)
        return

    kys = _peel_groups(y_piece)
    for j in range(1, len(kys) + 1):
        groups = c_groups + tuple(kys[:j])
        if j == 1 and v1 != v2:
            if b == full:
                raise FullBoxConflictError(
                    "cannot switch the full box's output on a path")
            label = full - b
        else:
            label = full - kys[j - 1]
        pb.append(rounds.successor(state, groups, plan2), label)
    for t in range(len(kys) - 1, 0, -1):
        merged = frozenset().union(*kys[t - 1:])
        groups = c_groups + tuple(kys[:t - 1]) + (merged,)
        pb.append(rounds.successor(state, groups, plan2), full - kys[t - 1])


def connect_one_round_successors(state: GlobalState, x, y, proto,
                                 values_x: Optional[dict] = None,
                                 values_y: Optional[dict] = None) -> Path:
    """Connect sigma(X) and sigma(Y) successors of one state.

    Swaps the boxes' shares of X for their shares of Y one box at a time,
    using the peel/swap ladder machinery.  With equal endpoint outputs the
    degree stays at n-2 or above; every differing box contributes exactly
    one edge labelled by its complement.
    """
    return _connect(_Rounds(proto), state, x, y, values_x, values_y)


def _connect(rounds: _Rounds, state: GlobalState, x, y,
             values_x: Optional[dict], values_y: Optional[dict]) -> Path:
    x, y = frozenset(x), frozenset(y)
    n = state.n
    full = frozenset(range(1, n + 1))
    boxes = rounds.boxes(state)
    q1 = rounds.successor(state, (x,), values_x or {})
    q2 = rounds.successor(state, (y,), values_y or {})
    vx = box_values_of(q1)
    vy = box_values_of(q2)
    diff = diff_box_set(q1, q2)
    if full in diff:
        raise FullBoxConflictError(
            "the full box separates the two target states")
    if q1 == q2:
        return Path(states=(q1,), labels=())

    pb = PathBuilder(q1)
    cur = x
    cur_vals = dict(vx)
    for b in sorted(boxes, key=sorted):
        x_piece = cur & b
        y_piece = y & b
        if x_piece == y_piece and cur_vals[b] == vy[b]:
            continue
        chain, c_groups = _ladder_chain(boxes, cur, b)
        other_plan = {bb: v for bb, v in cur_vals.items() if bb != b and len(bb) > 1}
        # into the ladder
        for groups, moved in chain:
            pb.append(rounds.successor(state, groups, cur_vals), full - moved)
        # swap the piece and the output
        _swap_chain(state, c_groups, b, x_piece, y_piece,
                    cur_vals[b], vy[b], other_plan, rounds, pb)
        # out of the ladder, now aiming at the new target set
        new_cur = (cur - x_piece) | y_piece
        new_vals = dict(cur_vals)
        new_vals[b] = vy[b]
        chain_back, _ = _ladder_chain(boxes, new_cur, b)
        for idx in range(len(chain_back) - 2, -1, -1):
            groups, _moved = chain_back[idx]
            pb.append(rounds.successor(state, groups, new_vals), full - chain_back[idx + 1][1])
        if chain_back:
            pb.append(rounds.successor(state, (new_cur,), new_vals), full - chain_back[0][1])
        cur = new_cur
        cur_vals = new_vals

    if cur != y:
        raise ConstructionError("box sweep did not reach the target set")
    if pb.tail != q2:
        raise ConstructionError("constructed endpoint differs from the target state")
    path = pb.build()
    path.verify()
    _assert_connect_postconditions(path, diff, n)
    return path


def _assert_connect_postconditions(path: Path, diff: frozenset, n: int) -> None:
    deg = path.degree()
    if deg is None:
        return
    if not diff:
        if deg < n - 2:
            raise ConstructionError(f"degree {deg} below n-2 with no differing box")
        return
    bound = min(n - len(b) for b in diff)
    if deg < min(bound, n - 2):
        raise ConstructionError(f"degree {deg} below the differing-box bound {bound}")
    full = frozenset(range(1, n + 1))
    for z in path.isets():
        if len(z) < n - 2 and (full - z) not in diff:
            raise ConstructionError(
                f"small label {sorted(z)} is not the complement of a differing box")


# ---------------------------------------------------------------------------
# general one-round extension (the desk-scale version of the iterated engine)


def beta_set(path: Path, proto, size: Optional[int] = None) -> frozenset:
    """Boxes whose intersection with two different labels is a singleton."""
    return _beta(_Rounds(proto), path, size)


def _beta(rounds: _Rounds, path: Path, size: Optional[int] = None) -> frozenset:
    universe: set = set()
    for s in path.states:
        universe |= rounds.boxes(s)
    out = set()
    for b in universe:
        if len(b) < 2:
            continue
        hits = {x for x in path.isets() if len(x & b) == 1}
        if len(hits) >= 2:
            out.add(b)
    if size is not None:
        out = {b for b in out if len(b) == size}
    return frozenset(out)


def extend_path_general(path: Path, proto, s: Optional[int] = None) -> tuple[Path, dict]:
    """One-round extension preserving high degree (checked, n <= 5).

    Given a round-r path with degree >= s whose labels never meet a box in
    a singleton twice at the full set, produces a round-r+1 path and
    post-verifies: degree >= s when no (n-s+1)-box is doubly hit, degree
    >= s-1 otherwise, small labels are complements of doubly-hit boxes, and
    the doubly-hit boxes of the new path embed in zeta of the old ones.
    """
    n = path.states[0].n
    if n > 5:
        raise BudgetExceededError("general extension is implemented for n <= 5 only")
    rounds = _Rounds(proto)
    if not path.labels:
        return (Path(states=(rounds.successor(path.states[0], (), {}),),
                     labels=()), {"trivial": True})
    if s is None:
        s = path.degree()
    full = frozenset(range(1, n + 1))
    if full in _beta(rounds, path):
        raise PreconditionViolationError("the full box is doubly hit by the labels")

    universe: set = set()
    for st in path.states:
        universe |= rounds.boxes(st)
    value_fn = _phi_value_functions(path.labels, universe)

    def vals_at(pos: int, base: GlobalState) -> dict:
        boxes = rounds.boxes(base)
        return {b: value_fn[b](pos) for b in boxes if len(b) > 1 and b in value_fn}

    labels = path.labels
    pb = PathBuilder(rounds.successor(path.states[0], (labels[0],),
                                      vals_at(1, path.states[0])))
    pb.append(rounds.successor(path.states[1], (labels[0],),
                               vals_at(1, path.states[1])), labels[0])
    for w in range(1, len(labels)):
        base = path.states[w]
        sub = _connect(rounds, base, labels[w - 1], labels[w],
                       vals_at(w, base), vals_at(w + 1, base))
        for idx in range(len(sub.labels)):
            pb.append(sub.states[idx + 1], sub.labels[idx])
        pb.append(rounds.successor(path.states[w + 1], (labels[w],),
                                   vals_at(w + 1, path.states[w + 1])), labels[w])
    out = pb.build()
    out.verify()

    report = _psi_report(path, out, rounds, s, n)
    if not report["ok"]:
        raise ConstructionError(f"extension postconditions failed: {report}")
    return out, report


def _phi_value_functions(labels, universe) -> dict:
    """Per-box output plans indexed by label position (1-based)."""
    out: dict = {}
    ordered = list(labels)
    for b in universe:
        if len(b) < 2:
            continue
        hits = [(i + 1, min(x & b)) for i, x in enumerate(ordered)
                if len(x & b) == 1]
        if not hits:
            out[b] = (lambda v: (lambda pos: v))(min(b))
        elif len({x for _i, x in hits}) == 1 or len(hits) == 1:
            out[b] = (lambda v: (lambda pos: v))(hits[0][1])
        else:
            def make(hs):
                def f(pos):
                    val = hs[0][1]
                    for p, xval in hs:
                        if p <= pos:
                            val = xval
                        else:
                            break
                    return val
                return f
            out[b] = make(hits)
    return out


def _psi_report(old: Path, new: Path, rounds: _Rounds, s: int, n: int) -> dict:
    beta_old = _beta(rounds, old, size=n - s + 1)
    deg = new.degree()
    ok = True
    if not beta_old:
        ok = ok and (deg is None or deg >= s)
    else:
        ok = ok and (deg is None or deg >= s - 1)
    small_ok = True
    full = frozenset(range(1, n + 1))
    for z in new.isets():
        if len(z) == s - 1:
            b = full - z
            pairs = [(x, y) for x in old.isets() for y in old.isets()
                     if x != y and x & y == z]
            if b not in beta_old or not pairs:
                small_ok = False
    beta_new = _beta(rounds, new, size=n - s + 2)
    zeta_ok = True
    if beta_new:
        zeta_in = vertex_set(n, n - s + 1,
                             [tuple(sorted(b)) for b in beta_old]) \
            if beta_old else None
        allowed = set(zeta(zeta_in).vertices) if zeta_in else set()
        zeta_ok = all(tuple(sorted(b)) in allowed for b in beta_new)
    return {
        "ok": bool(ok and small_ok and zeta_ok),
        "degree": deg,
        "beta_old": sorted(sorted(b) for b in beta_old),
        "beta_new": sorted(sorted(b) for b in beta_new),
        "small_labels_ok": small_ok,
        "zeta_containment_ok": zeta_ok,
    }


# ---------------------------------------------------------------------------
# valency


class Valency(Enum):
    ZERO = "0-valent"
    ONE = "1-valent"
    BIVALENT = "bivalent"
    UNDECIDED = "undecided"


def bounded_valency(state: GlobalState, proto, horizon: int,
                    family: str = "sigma", adversary: str = "enumerate") -> Valency:
    """Classify a state by exhaustively extending it to the horizon.

    A subtree's summary, computed once per distinct ``(depth, locals_)``, is
    its set of decided-value sets and whether some leaf decides nothing.
    """
    if horizon <= 0:
        raise InvalidArgumentError("horizon must be positive")
    inputs = {ls.inp for ls in state.locals_}
    if not inputs <= {0, 1}:
        raise InvalidArgumentError("valency analysis expects binary inputs")
    if adversary != "enumerate":
        raise InvalidArgumentError("only the enumerated adversary is supported")
    scheds = list(enumerate_round_schedules(state.n, proto.model, family))

    def leaf(s: GlobalState, depth: int):
        if not (s.all_decided() or depth == horizon):
            return None
        decided = frozenset(d for d in (ls.dec for ls in s.locals_) if d is not None)
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


WRO_PLAN_VALUE = 1  # contended instances in sigma-wro states all output 1


def _wro_successor(rounds: _Rounds, state: GlobalState, groups) -> GlobalState:
    """The sigma-wro successor: every contended instance outputs
    WRO_PLAN_VALUE, which is 1, so this is the memo's all-ones child."""
    return rounds.child(state, groups)


def wro_bridge(state: GlobalState, i: int, j: int, proto) -> Path:
    """Connect sigma-wro(all-i) and sigma-wro(all-j) successors of a state
    with a path whose labels all have n-1 members."""
    return _wro_bridge(_Rounds(proto), state, i, j)


def _wro_bridge(rounds: _Rounds, state: GlobalState, i: int, j: int) -> Path:
    n = state.n
    full = frozenset(range(1, n + 1))
    start = _wro_successor(rounds, state, (full - {i},))
    if i == j:
        return Path(states=(start,), labels=())
    ls = sorted(full - {i, j}) + [j]  # l_1..l_{n-1} with l_{n-1} = j
    pb = PathBuilder(start)
    # split the leading block into singletons
    for k in range(1, n - 1):
        groups = tuple(frozenset({x}) for x in ls[:k])
        mid = full - {i} - set(ls[:k])
        if mid:
            groups += (frozenset(mid),)
        pb.append(_wro_successor(rounds, state, groups), full - {ls[k - 1]})
    # pair the last element with i, then swap their order
    head = tuple(frozenset({x}) for x in ls[:-1])
    pb.append(_wro_successor(rounds, state, head + (frozenset({ls[-1], i}),)),
              full - {ls[-1]})
    pb.append(_wro_successor(rounds, state, head + (frozenset({i}), frozenset({ls[-1]}))),
              full - {i})
    # grow the block around i back to all-j
    for k in range(n - 2, 0, -1):
        groups = tuple(frozenset({x}) for x in ls[:k - 1])
        groups += (frozenset(set(ls[k - 1:-1]) | {i}), frozenset({ls[-1]}))
        pb.append(_wro_successor(rounds, state, groups), full - {ls[k - 1]})
    path = pb.build()
    path.verify()
    return path


def wro_extend_round(path: Path, proto) -> Path:
    """One-round extension sustaining degree n-1 (the obstruction engine).

    Every edge of the input path has at least n-1 processes agreeing; the
    extension advances through sigma-wro successors whose leading block
    excludes the lone disagreeing process, bridging within a base whenever
    the excluded process changes.
    """
    n = path.states[0].n
    full = frozenset(range(1, n + 1))

    def excluded(label: frozenset, fallback: int) -> int:
        missing = full - label
        return min(missing) if missing else fallback

    rounds = _Rounds(proto)
    cur_excl = excluded(path.labels[0], n) if path.labels else n
    pb = PathBuilder(_wro_successor(rounds, path.states[0], (full - {cur_excl},)))
    for idx, x in enumerate(path.labels):
        base, nxt = path.states[idx], path.states[idx + 1]
        j = excluded(x, cur_excl)
        if j != cur_excl:
            bridge = _wro_bridge(rounds, base, cur_excl, j)
            if bridge.states[0] != pb.tail:
                raise ConstructionError("bridge start does not match the tail")
            for k in range(len(bridge.labels)):
                pb.append(bridge.states[k + 1], bridge.labels[k])
            cur_excl = j
        pb.append(_wro_successor(rounds, nxt, (full - {j},)), full - {j})
    out = pb.build()
    out.verify()
    if out.degree() is not None and out.degree() < n - 1:
        raise ConstructionError("obstruction path degree fell below n-1")
    if not is_b_regular(out):
        raise ConstructionError("obstruction path is not B-regular")
    return out


def initial_chain(proto, n: int, lo=0, hi=1) -> Path:
    """Initial states from all-lo to all-hi, flipping one input per edge."""
    full = frozenset(range(1, n + 1))
    states = []
    for k in range(n + 1):
        inputs = [hi] * k + [lo] * (n - k)
        states.append(make_initial_state(n, inputs, proto.model, proto))
    labels = tuple(full - {k} for k in range(1, n + 1))
    path = Path(states=tuple(states), labels=labels)
    path.verify()
    return path


def wro_obstruction_demo(proto, n: int = 3, rounds: int = 5) -> dict:
    """Sustain B-regular degree-(n-1) paths between successors of the all-0
    and all-1 initial states for the requested number of rounds."""
    path = initial_chain(proto, n)
    per_round = []
    for r in range(1, rounds + 1):
        path = wro_extend_round(path, proto)
        per_round.append({
            "round": r,
            "states": len(path.states),
            "degree": path.degree(),
            "b_regular": is_b_regular(path),
            "labels_verified": path.verify(),
        })
    return {
        "protocol": proto.name,
        "rounds": rounds,
        "per_round": per_round,
        "ok": all((p["degree"] is None or p["degree"] >= n - 1) and p["b_regular"]
                  for p in per_round),
    }


# ---------------------------------------------------------------------------
# the n=3 lower-bound demonstration


def lower_bound_demo(proto, rounds: Optional[int] = None,
                     valency_horizon: Optional[int] = None) -> dict:
    """Reproduce the contradiction shape for a box-deficient 3-process
    automaton: connected successors of the 0- and 1-input states every
    round, with the endpoints certified univalent for opposite values."""
    from .johnson import partition_two_blocks, vertex_set as jvs

    n = 3
    rounds = rounds or 5  # C(3,2) + 2
    o_state = make_initial_state(n, [0, 0, 0], proto.model, proto)
    u_state = make_initial_state(n, [1, 1, 1], proto.model, proto)

    # engine 1: the two-block partition argument
    boxes2 = sorted(b for b in _observed_boxes(proto, n) if len(b) == 2)
    u = jvs(n, 2, [tuple(sorted(b)) for b in boxes2])
    a, b_ = partition_two_blocks(u)
    ou_inputs = [0 if pid in a else 1 for pid in range(1, n + 1)]
    ou_state = make_initial_state(n, ou_inputs, proto.model, proto)
    part_path = Path(states=(o_state, ou_state, u_state), labels=(frozenset(a), frozenset(b_)))
    part_path.verify()
    partition_rounds = []
    p = part_path
    for r in range(1, rounds + 1):
        p = extend_path_partition(p, a, b_, proto)
        partition_rounds.append({
            "round": r, "states": len(p.states), "degree": p.degree(),
            "verified": p.verify(),
        })
    part_endpoints = (p.first, p.last)

    # engine 2: the no-full-box extension over the initial chain
    chain = initial_chain(proto, n)
    q = chain
    no3_rounds = []
    for r in range(1, rounds + 1):
        q = extend_path_no3box(q, proto)
        no3_rounds.append({
            "round": r, "states": len(q.states), "degree": q.degree(),
            "verified": q.verify(),
        })

    horizon = valency_horizon or proto.round_budget or 2
    v0 = bounded_valency(o_state, proto, horizon)
    v1 = bounded_valency(u_state, proto, horizon)
    end_dec_0 = part_endpoints[0].decisions()
    end_dec_1 = part_endpoints[1].decisions()
    ok = (
        v0 == Valency.ZERO and v1 == Valency.ONE
        and all(d == 0 for d in end_dec_0.values())
        and all(d == 1 for d in end_dec_1.values())
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


def _observed_boxes(proto, n: int) -> frozenset:
    from .executor import ExplorationBudget, collect_gamma
    report = collect_gamma(proto, n, ExplorationBudget(rounds=proto.round_budget or 4))
    out: set = set()
    for boxes in report.gamma.values():
        out |= boxes
    return frozenset(out)

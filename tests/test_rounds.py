"""Round records: the ``frozen_record`` constructor and the round engine that
builds them, checked against plain frozen dataclasses and the plain engine."""

from __future__ import annotations

import dataclasses
import inspect
import pickle
import random

import pytest
from _reference_round import apply_round_recorded as reference_round

from itersc import executor
from itersc.executor import (
    all_coalitions_tuples,
    enumerate_round_schedules,
    random_outputs,
    random_sigma_schedule,
)
from itersc.model import (
    WOR,
    GlobalState,
    LocalState,
    SafeConsensusInstance,
    SnapshotObject,
    make_initial_state,
)
from itersc.protocols import (
    _UNSET,
    Consensus,
    OwrSim,
    TwoCC,
    WroSim,
    transform_owr_to_wro,
    transform_wro_to_owr,
)
from itersc.samples import (
    Knowledge,
    owr_transform_samples,
    resolve_protocol,
    sample_names,
    wro_transform_samples,
)
from itersc.values import canonical_json, frozen_record, jsonable

# ---------------------------------------------------------------------------
# the record constructor

_KNOWLEDGE = Knowledge(2, 1, (0, 1))
_LOCAL_VALUES = (1, 2, 0, ((0, None), (1, None)), 2, None, _KNOWLEDGE)
_LOCAL = LocalState(*_LOCAL_VALUES)

# one realistic record per decorated class, given as its field values
SAMPLES = {
    LocalState: _LOCAL_VALUES,
    SnapshotObject: (((0, None), (1, 2)),),
    SafeConsensusInstance: (0, frozenset({1, 2}), ((1, 1), (2, 2)), 2, False),
    # n, model, rnd, then the inp, sm, val, dec and loc columns, cells, resolved
    GlobalState: (2, WOR, 1, (0, 1), (((0, None), (1, None)), ((0, None), (1, None))), (2, 2),
                  (None, 2), (_KNOWLEDGE, _KNOWLEDGE), ((0, None), (1, None)),
                  ((0, ((1, 1), (2, 2)), 2, False),)),
    Consensus: (1, 4, 3, (0,) + (_UNSET,) * 8 + (1,)),  # id, n, r, slots
    TwoCC: (2, (5, None)),
    Knowledge: (2, 1, (0, 1)),
    OwrSim: (1, 2, None, ((0,), (1,)), _KNOWLEDGE),
    WroSim: (3, 1, 2, 0, 3, _KNOWLEDGE),
}


def _twin(cls):
    """The same fields and defaults as a plain frozen slotted dataclass."""
    return dataclasses.make_dataclass(
        cls.__name__, [(f.name, f.type, dataclasses.field(default=f.default))
                       for f in dataclasses.fields(cls)], frozen=True, slots=True)


def _kwargs(cls, values) -> dict:
    return {f.name: v for f, v in zip(dataclasses.fields(cls), values)}


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_record_constructs_like_its_dataclass(cls):
    values = SAMPLES[cls]
    rec = cls(*values)
    assert rec == cls(**_kwargs(cls, values))
    assert tuple(getattr(rec, f.name) for f in dataclasses.fields(cls)) == values
    ours, plain = inspect.signature(cls).parameters, inspect.signature(_twin(cls)).parameters
    assert [(p.name, p.kind, p.default) for p in ours.values()] == \
        [(p.name, p.kind, p.default) for p in plain.values()]
    required = [f for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]
    if len(required) < len(values):  # the defaults apply
        short = cls(*values[:len(required)])
        assert all(getattr(short, f.name) == f.default
                   for f in dataclasses.fields(cls)[len(required):])
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, **{dataclasses.fields(cls)[0].name: values[0]})


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_record_compares_hashes_and_prints_like_a_plain_twin(cls):
    values = SAMPLES[cls]
    other = (("other", values[0]),) + values[1:]
    twin = _twin(cls)
    for a, b in ((values, values), (values, other)):
        assert (cls(*a) == cls(*b)) == (twin(*a) == twin(*b))
        assert (cls(*a) != cls(*b)) == (twin(*a) != twin(*b))
    assert hash(cls(*values)) == hash(twin(*values))
    assert repr(cls(*values)) == repr(twin(*values))


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_record_stays_frozen_and_round_trips(cls):
    rec = cls(*SAMPLES[cls])
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, f.name, None)
    first = dataclasses.fields(cls)[0].name
    changed = dataclasses.replace(rec, **{first: 7})
    assert type(changed) is cls and getattr(changed, first) == 7
    assert dataclasses.replace(changed, **{first: getattr(rec, first)}) == rec
    again = pickle.loads(pickle.dumps(rec))
    assert again == rec and type(again) is cls
    assert jsonable(again) == jsonable(rec)
    if not hasattr(cls, "to_jsonable"):  # a locals record gives its fields
        assert jsonable(rec) == {f.name: jsonable(getattr(rec, f.name))
                                 for f in dataclasses.fields(cls)}
    canonical_json(rec)


def _post_init():
    @dataclasses.dataclass(frozen=True, slots=True)
    class Rec:
        a: int

        def __post_init__(self):
            pass
    return Rec


def _default_factory():
    @dataclasses.dataclass(frozen=True, slots=True)
    class Rec:
        a: tuple = dataclasses.field(default_factory=tuple)
    return Rec


def _init_false():
    @dataclasses.dataclass(frozen=True, slots=True)
    class Rec:
        a: int
        b: int = dataclasses.field(init=False, default=0)
    return Rec


def _not_frozen():
    @dataclasses.dataclass(slots=True)
    class Rec:
        a: int
    return Rec


def _not_slotted():
    @dataclasses.dataclass(frozen=True)
    class Rec:
        a: int
    return Rec


def _not_a_dataclass():
    class Rec:
        __slots__ = ("a",)
    return Rec


@pytest.mark.parametrize("shape", [_post_init, _default_factory, _init_false, _not_frozen,
                                   _not_slotted, _not_a_dataclass],
                         ids=lambda shape: shape.__name__.strip("_"))
def test_frozen_record_refuses_unsupported_classes(shape):
    with pytest.raises(TypeError):
        frozen_record(shape())


# ---------------------------------------------------------------------------
# the round engine


def _automata(n: int) -> list:
    """Every bundled automaton at n, and both simulations of each source."""
    protos = [resolve_protocol(name, n) for name in sample_names()]
    protos += [transform_wro_to_owr(p) for p in wro_transform_samples(n).values()]
    protos += [transform_owr_to_wro(p) for p in owr_transform_samples(n).values()]
    return protos


def _inputs(proto, n: int, rng: random.Random) -> list:
    if proto.name.startswith("2cc"):
        return list(rng.choice(all_coalitions_tuples(n)))
    return [rng.randint(0, 1) for _ in range(n)]


def _assert_rounds_agree(state, sched, proto, seed):
    """The engine's successor shows, through its views, the records the
    reference builds (instance order and inputs included), and both record
    the same choices; returns the successor."""
    n = state.n
    got, choices = executor.apply_round_recorded(state, sched, random_outputs(seed, n), proto)
    want = reference_round(state, sched, random_outputs(seed, n), proto)
    assert (got.rnd, got.locals_, got.snapshot, got.instances, choices) == want, \
        (proto.name, str(sched))
    assert (got.n, got.model) == (state.n, state.model)
    return got


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_round_equals_reference_on_random_sigma_schedules(n):
    rng = random.Random(1400 + n)
    for proto in _automata(n):
        for _ in range(3):
            state = make_initial_state(n, _inputs(proto, n, rng), proto.model, proto)
            for _ in range(proto.round_budget or 4):
                sched = random_sigma_schedule(n, proto.model, rng)
                state = _assert_rounds_agree(state, sched, proto, rng.randrange(2**31))


def test_round_equals_reference_on_ordered_partition_schedules():
    n, rng = 3, random.Random(1403)
    family = {model: list(enumerate_round_schedules(n, model, "ordered-partition"))
              for model in ("WOR", "WRO", "OWR")}
    for proto in _automata(n):
        state = make_initial_state(n, _inputs(proto, n, rng), proto.model, proto)
        for _ in range(2):  # from the initial state and from a round-1 state
            scheds = rng.sample(family[proto.model], 150)
            for sched in scheds:
                _assert_rounds_agree(state, sched, proto, rng.randrange(2**31))
            state = _assert_rounds_agree(state, scheds[0], proto, rng.randrange(2**31))


# ---------------------------------------------------------------------------
# the columns behind the views


def _random_runs(n: int, runs: int, seed: int):
    """``(automaton name, state)`` for every state of ``runs`` random sigma runs
    of every bundled automaton at ``n``; each run is built twice, so equal
    states also arrive as distinct objects."""
    out = []
    for proto in _automata(n):
        for k in range(runs):
            for _twice in range(2):
                rng = random.Random(f"{seed}:{proto.name}:{k}")
                state = make_initial_state(n, _inputs(proto, n, rng), proto.model, proto)
                out.append((proto.name, state))
                for _ in range(proto.round_budget or 3):
                    sched = random_sigma_schedule(n, proto.model, rng)
                    state = executor.apply_round(
                        state, sched, random_outputs(rng.randrange(2**31), n), proto)
                    out.append((proto.name, state))
    return out


def _same_round_pairs(states):
    """Every pair of states of one automaton at one round."""
    buckets: dict = {}
    for name, state in states:
        buckets.setdefault((name, state.rnd), []).append(state)
    for bucket in buckets.values():
        for i, a in enumerate(bucket):
            for b in bucket[i + 1:]:
                yield a, b


def _round_two_state():
    n = 3
    proto = resolve_protocol("consensus", n)
    state = make_initial_state(n, [0, 1, 1], proto.model, proto)
    for groups in ([{1}], [{2, 3}]):
        state = executor.apply_round(state, executor.sigma_schedule(groups, n, proto.model),
                                     random_outputs(5, n), proto)
    return state


@pytest.mark.parametrize("column", ["inp", "sm", "val", "dec", "loc"])
def test_memo_key_tells_apart_states_that_differ_in_one_local_column(column):
    state = _round_two_state()
    values = getattr(state, column)
    other = dataclasses.replace(state, **{column: values[:1] + (("other",),) + values[2:]})
    assert other.locals_key() != state.locals_key()
    assert other.locals_ != state.locals_


@pytest.mark.parametrize("change", [{"cells": (None, None, None)}, {"resolved": ()}],
                         ids=["cells", "resolved"])
def test_memo_key_shares_states_that_differ_only_in_shared_objects(change):
    state = _round_two_state()
    other = dataclasses.replace(state, **change)
    assert other != state
    assert other.locals_key() == state.locals_key()
    assert other.locals_ == state.locals_


@pytest.mark.parametrize("n", [3, 4])
def test_memo_key_is_equal_exactly_when_the_locals_views_are(n):
    seen = {True: 0, False: 0}
    for a, b in _same_round_pairs(_random_runs(n, 3, 1700)):
        same = a.locals_key() == b.locals_key()
        assert same == (a.locals_ == b.locals_)
        seen[same] += 1
    assert seen[True] and seen[False]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_states_are_equal_exactly_when_their_views_are(n):
    states = _random_runs(n, 2, 1701)
    seen = {True: 0, False: 0}
    for a, b in _same_round_pairs(states):
        same = a == b
        assert same == ((a.n, a.model, a.rnd, a.locals_, a.snapshot, a.instances)
                        == (b.n, b.model, b.rnd, b.locals_, b.snapshot, b.instances))
        assert not same or hash(a) == hash(b)
        seen[same] += 1
    assert seen[True] and seen[False]
    for _name, state in states:
        again = pickle.loads(pickle.dumps(state))
        assert again == state and hash(again) == hash(state) and again.locals_ == state.locals_

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
    SeededRandomAdversary,
    all_coalitions_tuples,
    enumerate_round_schedules,
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
    GlobalState: (2, WOR, 1, (_LOCAL, dataclasses.replace(_LOCAL, pid=2)),
                  SnapshotObject(((0, None), (1, None))),
                  (SafeConsensusInstance(0, frozenset({1, 2}), ((1, 1), (2, 2)), 2, False),)),
    Consensus: (1, 4, 3, ((4, 0), (8, 1))),  # id, n, r, agreements
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
    """Both engines give the same state (instance order and inputs included)
    and the same recorded choices; returns the successor."""
    n = state.n
    got = executor.apply_round_recorded(state, sched, SeededRandomAdversary(seed, n), proto)
    want = reference_round(state, sched, SeededRandomAdversary(seed, n), proto)
    assert got == want, (proto.name, str(sched))
    return got[0]


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

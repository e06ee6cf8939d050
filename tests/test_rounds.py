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
from itersc.connectivity import (
    Path,
    bounded_valency,
    extend_path_no3box,
    extend_path_partition,
    initial_chain,
    wro_extend_round,
)
from itersc.equivalence import check_transform_correspondence
from itersc.executor import (
    R,
    S,
    W,
    all_coalitions_tuples,
    collect_gamma,
    enumerate_round_schedules,
    random_outputs,
    random_sigma_schedule,
    verify_consensus_exhaustive,
)
from itersc.model import (
    OWR,
    WOR,
    WRO,
    GlobalState,
    LocalState,
    make_initial_state,
)
from itersc.protocols import (
    _UNSET,
    Consensus,
    OwrSim,
    ProtocolAutomaton,
    TwoCC,
    WroSim,
    transform_owr_to_wro,
    transform_wro_to_owr,
)
from itersc.samples import (
    SOLO_BASE,
    Knowledge,
    deficient_wor_samples,
    owr_transform_samples,
    resolve_protocol,
    sample_names,
    wro_obstruction_samples,
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
    """The engine's successor shows, through its ``locals_`` view and its
    ``cells`` and ``resolved`` columns, what the reference builds (instance
    order and inputs included), and both record the same choices; returns
    the successor."""
    n = state.n
    got, choices = executor.apply_round_recorded(state, sched, random_outputs(seed, n), proto)
    want = reference_round(state, sched, random_outputs(seed, n), proto)
    assert (got.rnd, got.locals_, got.cells, got.resolved, choices) == want, \
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
# the columns behind the locals view


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
def test_locals_key_tells_apart_states_that_differ_in_one_local_column(column):
    state = _round_two_state()
    values = getattr(state, column)
    other = dataclasses.replace(state, **{column: values[:1] + (("other",),) + values[2:]})
    assert other.locals_key() != state.locals_key()
    assert other.locals_ != state.locals_


@pytest.mark.parametrize("change", [{"cells": (None, None, None)}, {"resolved": ()}],
                         ids=["cells", "resolved"])
def test_locals_key_shares_states_that_differ_only_in_shared_objects(change):
    state = _round_two_state()
    other = dataclasses.replace(state, **change)
    assert other != state
    assert other.locals_key() == state.locals_key()
    assert other.locals_ == state.locals_


@pytest.mark.parametrize("n", [3, 4])
def test_locals_key_is_equal_exactly_when_the_locals_views_are(n):
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
        assert same == ((a.n, a.model, a.rnd, a.locals_, a.cells, a.resolved)
                        == (b.n, b.model, b.rnd, b.locals_, b.cells, b.resolved))
        assert not same or hash(a) == hash(b)
        seen[same] += 1
    assert seen[True] and seen[False]
    for _name, state in states:
        again = pickle.loads(pickle.dumps(state))
        assert again == state and hash(again) == hash(state) and again.locals_ == state.locals_


# ---------------------------------------------------------------------------
# what a round reads: its own snapshot, never the previous one


def _sm_reader(model: str, log: list) -> ProtocolAutomaton:
    """Writes the ``sm`` it is given and shares object 0 only with a snapshot
    in hand; ``log`` gets ``(callback, round, pid, sm)`` of every write and
    select.  It decides its last scan and output from round 2 on."""

    def write_payload(pid, inp, sm, val, loc):
        log.append(("write", loc.r + 1, pid, sm))
        return (loc.known, sm)

    def select_object(rnd, pid, sm, val, loc):
        log.append(("select", rnd, pid, sm))
        return SOLO_BASE + pid if sm is None else 0

    return ProtocolAutomaton(
        model=model, name=f"sm-reader-{model}",
        init=lambda pid, inp: Knowledge(pid, 0, (inp,)),
        select_object=select_object,
        decide=lambda sm, val, loc: (sm, val) if loc.r >= 1 else None,
        step=lambda loc, sm, val: Knowledge(loc.id, loc.r + 1, (loc.known, sm, val)),
        write_payload=write_payload, round_budget=3)


@pytest.mark.parametrize("model", [WOR, WRO, OWR])
def test_write_and_select_see_this_rounds_snapshot_or_none(model):
    """Engine and reference agree on an automaton that reads the ``sm`` it is
    handed, which is None before the process's own scan in the round and
    that scan after it: only WRO's select comes after the scan."""
    n, rng, log = 3, random.Random(2300), []
    proto = _sm_reader(model, log)
    family = list(enumerate_round_schedules(n, model, "ordered-partition"))
    seen = set()
    for k in range(30):
        state = make_initial_state(n, [rng.randint(0, 1) for _ in range(n)], model, proto)
        for _ in range(proto.round_budget):
            sched = rng.choice(family) if k % 2 else random_sigma_schedule(n, model, rng)
            seed = rng.randrange(2**31)
            del log[:]
            got, choices = executor.apply_round_recorded(state, sched, random_outputs(seed, n), proto)
            calls = log[:]
            del log[:]
            want = reference_round(state, sched, random_outputs(seed, n), proto)
            assert (got.rnd, got.locals_, got.cells, got.resolved, choices) == want
            assert log == calls and len(calls) == 2 * n
            at = {(kind, pid): pos for pos, (kind, group) in enumerate(sched.events)
                  for pid in group}
            for callback, rnd, pid, sm in calls:
                scanned = at[R, pid] < at[W if callback == "write" else S, pid]
                assert rnd == got.rnd
                assert sm == (got.sm[pid - 1] if scanned else None), (callback, str(sched))
                seen.add((callback, scanned))
            state = got
    assert seen == ({("write", False), ("select", True)} if model == WRO
                    else {("write", False), ("select", False)})


@pytest.mark.parametrize("model", [WRO, OWR])
def test_simulations_hand_the_source_what_the_engine_hands_it(model):
    """The simulation of an automaton that writes and selects by its ``sm``
    decides what the automaton decides, one round later."""
    report = check_transform_correspondence(_sm_reader(model, []), 3, executions=60, seed=23)
    assert report.ok, report.first_mismatch


@pytest.mark.parametrize("column", ["inp", "val", "dec", "loc"])
def test_round_key_tells_apart_states_that_differ_in_one_column_but_sm(column):
    state = _round_two_state()
    values = getattr(state, column)
    other = dataclasses.replace(state, **{column: values[:1] + (("other",),) + values[2:]})
    assert other.round_key() != state.round_key()


@pytest.mark.parametrize("n", [3, 4])
def test_round_key_shares_states_that_differ_only_in_sm(n):
    """Such states have equal children under every bundled automaton."""
    protos = {proto.name: proto for proto in _automata(n)}
    rng = random.Random(2301 + n)
    for name, state in _random_runs(n, 1, 2302):
        proto = protos[name]
        other = dataclasses.replace(state, sm=tuple(("other", pid) for pid in range(1, n + 1)))
        assert other.round_key() == state.round_key()
        assert other.locals_key() != state.locals_key()
        for _ in range(2):
            sched = random_sigma_schedule(n, proto.model, rng)
            seed = rng.randrange(2**31)
            child = executor.apply_round(state, sched, random_outputs(seed, n), proto)
            assert executor.apply_round(other, sched, random_outputs(seed, n), proto) == child, \
                (name, state.rnd, str(sched))


# -- the round memos against the full-key memos --------------------------------


def _round_key_and_full_key(monkeypatch, compute):
    """``compute()`` with the round memos keyed on ``round_key()``, then
    keyed on the full ``locals_key()``; each result with its count of
    applied rounds."""
    out = []
    for key in (GlobalState.round_key, GlobalState.locals_key):
        rounds = [0]
        apply = executor.apply_round_recorded

        def counted(*args, apply=apply, rounds=rounds):
            rounds[0] += 1
            return apply(*args)

        with monkeypatch.context() as patched:
            patched.setattr(GlobalState, "round_key", key)
            patched.setattr(executor, "apply_round_recorded", counted)
            out.append((compute(), rounds[0]))
    return out


@pytest.mark.parametrize("name", ["consensus", *sorted(deficient_wor_samples())])
def test_round_key_sweeps_equal_full_key_sweeps(name, monkeypatch):
    proto = resolve_protocol(name, 3)
    (fast, rounds), (full, full_rounds) = _round_key_and_full_key(
        monkeypatch, lambda: verify_consensus_exhaustive(3, proto_factory=lambda n: proto, jobs=1))
    assert fast == full
    assert rounds < full_rounds


def test_round_key_valency_and_census_equal_full_key(monkeypatch):
    automata = [resolve_protocol("consensus", 3), *deficient_wor_samples().values(),
                *wro_transform_samples().values(), *owr_transform_samples().values()]

    def compute():
        out = [collect_gamma(proto, 3) for proto in automata]
        for proto in automata:
            if proto.model == WOR or "val-parity" in proto.name:  # the val-parity selectors read val
                for inputs in ([0, 0, 0], [0, 1, 1]):
                    root = make_initial_state(3, inputs, proto.model, proto)
                    out.append(bounded_valency(root, proto, min(proto.round_budget, 3)))
        return out

    (fast, rounds), (full, full_rounds) = _round_key_and_full_key(monkeypatch, compute)
    assert fast == full
    assert rounds < full_rounds


def _engine_rounds(extend, path: Path, rounds: int = 4) -> list:
    """The JSON of each round's walk, each round extending the last one's
    loop-erased path."""
    out = []
    for _ in range(rounds):
        raw = extend(path)
        out.append(raw.to_jsonable())
        path = raw.loop_erased()
    return out


def test_round_key_paths_equal_full_key_paths(monkeypatch):
    """The WRO, partition and no-full-box engines over four rounds."""
    a, b_ = frozenset({1, 2}), frozenset({3})  # no box of the deficient automata crosses it

    def compute():
        wro = wro_obstruction_samples()
        out = [_engine_rounds(lambda p, proto=wro[name]: wro_extend_round(p, proto),
                              initial_chain(wro[name], 3))
               for name in ("wro-solo", "wro-pair12", "wro-rotating", "wro-val-parity",
                            "wro-share-after-2")]
        for proto in deficient_wor_samples().values():
            ends = [make_initial_state(3, inputs, proto.model, proto)
                    for inputs in ([0, 0, 0], [0, 0, 1], [1, 1, 1])]
            out.append(_engine_rounds(lambda p, proto=proto: extend_path_partition(p, a, b_, proto),
                                      Path(states=tuple(ends), labels=(a, b_))))
            out.append(_engine_rounds(lambda p, proto=proto: extend_path_no3box(p, proto),
                                      initial_chain(proto, 3)))
        return out

    (fast, rounds), (full, full_rounds) = _round_key_and_full_key(monkeypatch, compute)
    assert fast == full
    assert rounds < full_rounds

"""Path constructions, loop erasure and valency analysis."""

from __future__ import annotations

import itertools
import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itersc import connectivity, executor
from itersc.connectivity import (
    Path,
    Valency,
    bounded_valency,
    connect_partition_round,
    extend_path_no3box,
    extend_path_partition,
    initial_chain,
    is_b_regular,
    lower_bound_demo,
    successor_boxes,
    wro_extend_round,
    wro_obstruction_demo,
)
from itersc.errors import (
    ConstructionError,
    InvalidArgumentError,
    InvalidScheduleError,
    NoInvocationsError,
    PreconditionViolationError,
)
from itersc.executor import (
    apply_round,
    enumerate_round_schedules,
    probe_round,
    random_outputs,
    random_sigma_schedule,
    sigma_key,
    sigma_schedule,
)
from itersc.model import (
    OWR,
    WOR,
    WRO,
    indistinguishability_set,
    make_initial_state,
)
from itersc.protocols import protocol_consensus_wor
from itersc.samples import (
    deficient_wor_samples,
    knowledge_automaton,
    sel_solo,
    wro_obstruction_samples,
)

PAIR = deficient_wor_samples()["wor-pair12-min"]
SOLO = deficient_wor_samples()["wor-solo-min"]


# -- B-regularity ------------------------------------------------------------


def test_is_b_regular():
    s = make_initial_state(3, [0, 1, 1], WOR, PAIR)
    x = apply_round(s, sigma_schedule((), 3, WOR), itertools.repeat(1), PAIR)
    y = apply_round(s, sigma_schedule(({1},), 3, WOR), itertools.repeat(1), PAIR)
    assert is_b_regular(Path(states=(x, y), labels=(frozenset({3}),)))
    z = apply_round(s, sigma_schedule((), 3, WOR), itertools.repeat(1), SOLO)
    assert not is_b_regular(Path(states=(x, z), labels=(frozenset({3}),)))
    with pytest.raises(NoInvocationsError):
        is_b_regular(Path(states=(s,), labels=()))


def test_single_state_path_trivially_b_regular():
    s = make_initial_state(3, [0, 1, 1], WOR, PAIR)
    x = apply_round(s, sigma_schedule((), 3, WOR), itertools.repeat(1), PAIR)
    assert is_b_regular(Path(states=(x,), labels=()))


# -- loop erasure ------------------------------------------------------------


@st.composite
def int_paths(draw):
    """Paths over small-int states; ``Path`` checks only the label count."""
    states = draw(st.lists(st.integers(0, 5), min_size=1, max_size=30))
    labels = draw(st.lists(st.frozensets(st.integers(1, 4), min_size=1),
                           min_size=len(states) - 1, max_size=len(states) - 1))
    return Path(states=tuple(states), labels=tuple(labels))


def _triples(p: Path) -> set:
    return set(zip(p.states, p.labels, p.states[1:]))


@settings(max_examples=300, deadline=None)
@given(int_paths())
def test_loop_erased_properties(p):
    out = p.loop_erased()
    assert out.first == p.first and out.last == p.last
    assert len(set(out.states)) == len(out.states)
    assert _triples(out) <= _triples(p)
    if out.labels:
        assert out.degree() >= p.degree()
    assert out.loop_erased() == out


@settings(max_examples=100, deadline=None)
@given(st.permutations(range(8)), st.integers(1, 8), st.data())
def test_loop_erased_keeps_a_simple_path(perm, size, data):
    labels = data.draw(st.lists(st.frozensets(st.integers(1, 3), min_size=1),
                                min_size=size - 1, max_size=size - 1))
    p = Path(states=tuple(perm[:size]), labels=tuple(labels))
    assert p.loop_erased() == p


def test_loop_erased_cuts_back_to_the_first_visit():
    a, b, c = frozenset({1}), frozenset({2}), frozenset({3})
    p = Path(states=(0, 1, 2, 1, 3), labels=(a, b, c, a | b))
    assert p.loop_erased() == Path(states=(0, 1, 3), labels=(a, a | b))
    assert Path(states=(0, 1, 0), labels=(a, b)).loop_erased() == Path(states=(0,), labels=())


def test_loop_erased_wro_round_three_path():
    proto = wro_obstruction_samples()["wro-solo"]
    p = initial_chain(proto, 3)
    for _ in range(3):
        p = wro_extend_round(p, proto)
    out = p.loop_erased()
    assert len(out.states) < len(p.states)
    assert out.first == p.first and out.last == p.last
    assert out.verify()
    assert is_b_regular(out)
    assert out.degree() >= 2


# -- the partition bridge ----------------------------------------------------


def test_partition_bridge_pair_case():
    s = make_initial_state(3, [0, 1, 0], WOR, PAIR)
    p = connect_partition_round(s, {1, 2}, {3}, PAIR)
    assert p.verify()
    assert [sorted(x) for x in p.labels] == [[3], [1, 2]]
    # the shared pair resolves identically in all three states
    vals = {dict(st.box_outputs())[frozenset({1, 2})] for st in p.states}
    assert len(vals) == 1


def test_partition_bridge_full_box_case():
    proto = knowledge_automaton(WOR, "all-share", lambda r, p, sm, v, lo: 0)
    s = make_initial_state(3, [0, 1, 0], WOR, proto)
    p = connect_partition_round(s, {1, 2}, {3}, proto)
    assert p.verify()
    # Safe-Validity pins the box to the singleton side's id everywhere
    assert {dict(st.box_outputs())[frozenset({1, 2, 3})] for st in p.states} == {3}


def test_partition_bridge_solo_case():
    s = make_initial_state(3, [0, 1, 0], WOR, SOLO)
    p = connect_partition_round(s, {2, 3}, {1}, SOLO)
    assert p.verify()


def test_partition_bridge_rejects_empty_side():
    s = make_initial_state(3, [0, 1, 0], WOR, PAIR)
    with pytest.raises(PreconditionViolationError):
        connect_partition_round(s, {1, 2, 3}, set(), PAIR)


def test_partition_bridge_rejects_split_pair():
    s = make_initial_state(3, [0, 1, 0], WOR, PAIR)
    with pytest.raises(PreconditionViolationError):
        connect_partition_round(s, {1, 3}, {2}, PAIR)


def test_extend_partition_round_by_round():
    o = make_initial_state(3, [0, 0, 0], WOR, PAIR)
    ou = make_initial_state(3, [0, 0, 1], WOR, PAIR)
    u = make_initial_state(3, [1, 1, 1], WOR, PAIR)
    a, b = frozenset({1, 2}), frozenset({3})
    p = Path(states=(o, ou, u), labels=(a, b))
    p.verify()
    for _ in range(3):
        p = extend_path_partition(p, a, b, PAIR)
        assert p.verify()
        assert frozenset(p.labels) <= {a, b}
    assert p.first.rnd == 3


def test_extend_partition_base_case_label():
    o = make_initial_state(3, [0, 0, 0], WOR, PAIR)
    q = make_initial_state(3, [0, 0, 1], WOR, PAIR)
    p = Path(states=(o, q), labels=(frozenset({1, 2}),))
    out = extend_path_partition(p, frozenset({1, 2}), frozenset({3}), PAIR)
    assert len(out.states) == 2 and out.labels == (frozenset({1, 2}),)


def test_extend_partition_single_state_path():
    o = make_initial_state(3, [0, 0, 0], WOR, PAIR)
    out = extend_path_partition(Path(states=(o,), labels=()),
                                frozenset({1, 2}), frozenset({3}), PAIR)
    assert len(out.states) == 1 and out.first.rnd == 1


def test_extend_partition_rejects_foreign_labels():
    o = make_initial_state(3, [0, 0, 0], WOR, PAIR)
    q = make_initial_state(3, [1, 0, 0], WOR, PAIR)
    p = Path(states=(o, q), labels=(frozenset({2, 3}),))
    with pytest.raises(PreconditionViolationError):
        extend_path_partition(p, frozenset({1, 2}), frozenset({3}), PAIR)


# -- the no-full-box engine --------------------------------------------------


def test_no3box_engine_all_samples_five_rounds():
    for name, proto in deficient_wor_samples().items():
        q = initial_chain(proto, 3)
        for _ in range(5):
            q = extend_path_no3box(q, proto)
            assert q.verify()
        assert q.first.rnd == 5


def test_no3box_rejects_full_box():
    proto = knowledge_automaton(WOR, "all-share", lambda r, p, sm, v, lo: 0)
    chain = initial_chain(proto, 3)
    with pytest.raises(PreconditionViolationError):
        extend_path_no3box(chain, proto)


def test_no3box_identical_states_trivially_extend():
    o = make_initial_state(3, [0, 0, 0], WOR, SOLO)
    p = Path(states=(o, o), labels=(frozenset({1, 2, 3}),))
    out = extend_path_no3box(p, SOLO)
    assert out.verify()


def test_no3box_requires_three_processes():
    proto = knowledge_automaton(WOR, "solo4", sel_solo)
    chain = initial_chain(proto, 4)
    with pytest.raises(InvalidArgumentError):
        extend_path_no3box(chain, proto)


# -- valency ----------------------------------------------------------------


def test_valency_of_uniform_inputs():
    o = make_initial_state(3, [0, 0, 0], WOR, PAIR)
    u = make_initial_state(3, [1, 1, 1], WOR, PAIR)
    assert bounded_valency(o, PAIR, 2) is Valency.ZERO
    assert bounded_valency(u, PAIR, 2) is Valency.ONE


def test_valency_mixed_inputs_bivalent():
    s = make_initial_state(3, [0, 1, 0], WOR, SOLO)
    assert bounded_valency(s, SOLO, 2) is Valency.BIVALENT


def test_valency_of_decided_state():
    s = make_initial_state(3, [0, 0, 0], WOR, SOLO)
    sched = sigma_schedule((), 3, WOR)
    for _ in range(2):
        s = apply_round(s, sched, (), SOLO)
    assert s.all_decided()
    assert bounded_valency(s, SOLO, 1) is Valency.ZERO


def test_valency_undecided_at_horizon():
    s = make_initial_state(3, [0, 0, 0], WOR, SOLO)
    assert bounded_valency(s, SOLO, 1) is Valency.UNDECIDED


def test_valency_argument_validation():
    s = make_initial_state(3, [0, 0, 0], WOR, SOLO)
    with pytest.raises(InvalidArgumentError):
        bounded_valency(s, SOLO, 0)
    t = make_initial_state(3, [5, 6, 7], WOR, SOLO)
    with pytest.raises(InvalidArgumentError):
        bounded_valency(t, SOLO, 2)


def test_connected_univalent_states_share_valency_instance():
    # valency propagation, desk scale: on a correct protocol, connected
    # decided states never disagree
    proto = protocol_consensus_wor(2)
    states = []
    for inputs in ([0, 1], [1, 1], [0, 0], [1, 0]):
        for sched in enumerate_round_schedules(2, WOR, "sigma"):
            init = make_initial_state(2, inputs, WOR, proto)
            contended = [o for (o, _b, c, _f) in probe_round(init, sched, proto) if c]
            for values in itertools.product((1, 2), repeat=len(contended)):
                states.append(apply_round(init, sched, values, proto))
    for a, b in itertools.combinations(states, 2):
        shared = indistinguishability_set(a, b)
        if shared and a.decisions() and b.decisions():
            for pid in shared:
                assert a.locals_[pid - 1].dec == b.locals_[pid - 1].dec


# -- the write-scan-invoke obstruction ----------------------------------------


def _wro_bridged(proto, state, i, j):
    """The sigma-wro bridge from all-i to all-j of ``state``, built on its own."""
    rounds = connectivity._Rounds(proto)
    pb = connectivity.PathBuilder(rounds.child(state, connectivity._wro_lead(state.n, i)))
    connectivity._wro_bridge(rounds, pb, state, i, j)
    return pb.build()


def _reference_bridge_steps(n, i, j):
    """Reference for ``_wro_bridge_steps``: the bridge's (groups, label)
    steps, spelled out one step at a time."""
    full = frozenset(range(1, n + 1))
    if i == j:
        return []
    steps = []
    ls = sorted(full - {i, j}) + [j]  # l_1..l_{n-1} with l_{n-1} = j
    for k in range(1, n - 1):
        groups = tuple(frozenset({x}) for x in ls[:k])
        mid = full - {i} - set(ls[:k])
        if mid:
            groups += (frozenset(mid),)
        steps.append((groups, full - {ls[k - 1]}))
    head = tuple(frozenset({x}) for x in ls[:-1])
    steps.append((head + (frozenset({ls[-1], i}),), full - {ls[-1]}))
    steps.append((head + (frozenset({i}), frozenset({ls[-1]})), full - {i}))
    for k in range(n - 2, 0, -1):
        groups = tuple(frozenset({x}) for x in ls[:k - 1])
        groups += (frozenset(set(ls[k - 1:-1]) | {i}), frozenset({ls[-1]}))
        steps.append((groups, full - {ls[k - 1]}))
    return steps


@pytest.mark.parametrize("n", [3, 4, 5])
def test_wro_bridge_steps_match_the_inline_reference(n):
    for i, j in itertools.product(range(1, n + 1), repeat=2):
        got = connectivity._wro_bridge_steps(n, i, j)
        want = _reference_bridge_steps(n, i, j)
        assert len(got) == len(want) == (0 if i == j else 2 * n - 2), (i, j)
        assert [label for _key, label in got] == [label for _groups, label in want]
        assert all(type(label) is frozenset for _key, label in got)
        for (key, _l), (groups, _m) in zip(got, want):
            assert key == sigma_key(key, n)  # already canonical
            for model in (WOR, WRO, OWR):
                assert sigma_schedule(key, n, model) == sigma_schedule(groups, n, model)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wro_bridge_equals_the_inline_reference_path(seed):
    rng = random.Random(seed)
    n = 3 + seed % 2
    name, proto = rng.choice(sorted(wro_obstruction_samples(n).items()))
    state = make_initial_state(n, [rng.randint(0, 1) for _ in range(n)], WRO, proto)
    for _ in range(rng.randint(1, 2)):
        state = apply_round(state, random_sigma_schedule(n, WRO, rng), random_outputs(seed, n), proto)
    full = frozenset(range(1, n + 1))
    for i, j in itertools.product(range(1, n + 1), repeat=2):
        def ones(groups):
            return apply_round(state, sigma_schedule(groups, n, WRO), itertools.repeat(1), proto)
        pb = connectivity.PathBuilder(ones((full - {i},)))
        for groups, label in _reference_bridge_steps(n, i, j):
            pb.append(ones(groups), label)
        got = _wro_bridged(proto, state, i, j)
        assert (got.states, got.labels) == (tuple(pb.states), tuple(pb.labels)), (name, i, j)


def test_wro_bridge_labels_and_regularity():
    proto = wro_obstruction_samples()["wro-share-all"]
    s = make_initial_state(3, [0, 1, 0], WRO, proto)
    p = _wro_bridged(proto, s, 1, 3)
    assert p.verify()
    assert p.degree() == 2
    assert is_b_regular(p)


def test_wro_bridge_same_anchor_is_singleton():
    proto = wro_obstruction_samples()["wro-solo"]
    s = make_initial_state(3, [0, 1, 0], WRO, proto)
    assert len(_wro_bridged(proto, s, 2, 2).states) == 1


def test_wro_obstruction_all_samples():
    for name, proto in wro_obstruction_samples().items():
        report = wro_obstruction_demo(proto, 3, 2)
        assert report["ok"], name
        assert all(r["raw_states"] >= r["states"] for r in report["per_round"])


def test_wro_obstruction_long_horizon():
    proto = wro_obstruction_samples()["wro-solo"]
    # guard: a path that kept its loops, or states that kept their round
    # history, would put round 20 out of reach; round 5 fails fast instead
    assert wro_obstruction_demo(proto, 3, 5)["per_round"][-1]["states"] <= 100
    report = wro_obstruction_demo(proto, 3, 20)
    assert report["ok"] and report["rounds"] == 20
    assert [r["round"] for r in report["per_round"]] == list(range(1, 21))
    for row in report["per_round"]:
        assert row["degree"] == 2 and row["labels_verified"] and row["b_regular"]
        assert row["raw_states"] >= row["states"]
    assert report["per_round"][-1]["states"] < 400


@pytest.mark.parametrize("n,rounds,cap", [(4, 5, 130), (5, 3, 200)])
def test_wro_obstruction_beyond_three_processes(n, rounds, cap):
    # the erased paths hold at most 123 (n=4) and 176 (n=5) states; a cap
    # just above makes a regression in path growth fail fast
    for name in ("wro-solo", "wro-share-all"):
        report = wro_obstruction_demo(wro_obstruction_samples(n)[name], n, rounds)
        assert report["ok"] and len(report["per_round"]) == rounds, name
        for row in report["per_round"]:
            assert row["degree"] == n - 1 and row["b_regular"], (name, row)
            assert row["states"] <= cap, (name, row)


@pytest.mark.parametrize("rounds", [0, -1])
def test_demos_refuse_fewer_than_one_round(rounds):
    with pytest.raises(InvalidArgumentError, match="at least one round"):
        wro_obstruction_demo(wro_obstruction_samples()["wro-solo"], 3, rounds)
    with pytest.raises(InvalidArgumentError, match="at least one round"):
        lower_bound_demo(SOLO, rounds=rounds)


def test_lower_bound_demo_refuses_an_automaton_without_a_round_budget_before_any_round(
        monkeypatch):
    calls = []
    apply_round_recorded = executor.apply_round_recorded
    monkeypatch.setattr(executor, "apply_round_recorded",
                        lambda *args: calls.append(args) or apply_round_recorded(*args))
    with pytest.raises(InvalidArgumentError,
                       match="^protocol never has no round budget; supply one$"):
        lower_bound_demo(knowledge_automaton(WOR, "never", sel_solo))
    assert calls == []
    lower_bound_demo(SOLO, rounds=1)
    assert calls  # the counter sees the demo's rounds


def test_demos_log_one_debug_line_per_round(caplog):
    caplog.set_level(logging.DEBUG, logger="itersc")
    wro_obstruction_demo(wro_obstruction_samples()["wro-solo"], 3, 3)
    lines = [r.getMessage() for r in caplog.records if r.name == "itersc"]
    assert len(lines) == 3
    assert lines[2] == ("wro-obstruction wro-solo round 3: "
                        "raw_states=196 states=40 degree=2")
    caplog.clear()
    report = lower_bound_demo(SOLO, rounds=2)
    lines = [r.getMessage() for r in caplog.records if r.name == "itersc"]
    assert len(lines) == 4
    rows = report["partition_rounds"] + report["no3box_rounds"]
    for line, row in zip(lines, rows):
        assert f"raw_states={row['raw_states']} states={row['states']}" in line


def test_wro_extension_keeps_degree_two():
    proto = wro_obstruction_samples()["wro-rotating"]
    p = initial_chain(proto, 3)
    for _ in range(3):
        p = wro_extend_round(p, proto)
        assert p.degree() >= 2
        assert is_b_regular(p)


# -- the full demonstration ---------------------------------------------------


def test_lower_bound_demo_all_deficient_automata():
    for name, proto in deficient_wor_samples().items():
        report = lower_bound_demo(proto, rounds=3)
        assert report["ok"], (name, report)
        assert report["valency"] == {"all-0": "0-valent", "all-1": "1-valent"}
        for row in report["partition_rounds"] + report["no3box_rounds"]:
            assert row["raw_states"] >= row["states"]


def test_lower_bound_demo_needs_every_process_decided_at_both_ends():
    # no process decides in round 1, so one round cannot certify the endpoints
    for name, proto in deficient_wor_samples().items():
        short = lower_bound_demo(proto, rounds=1)
        assert short["endpoint_decisions"] == {"first": {}, "last": {}}, name
        assert not short["ok"], name
        assert lower_bound_demo(proto, rounds=7)["ok"], name


def test_lower_bound_long_horizon():
    # guard: with states that carried their round history, round 7's no-3-box
    # path had 2,260 states and tripled a round; fail fast before trying 20
    assert all(row["states"] <= 30 for row in lower_bound_demo(SOLO, rounds=7)["no3box_rounds"])
    for name, proto in deficient_wor_samples().items():
        report = lower_bound_demo(proto, rounds=20)
        assert report["ok"] and report["rounds"] == 20, name
        rows = report["partition_rounds"] + report["no3box_rounds"]
        assert [r["round"] for r in rows] == 2 * list(range(1, 21)), name
        assert all(r["states"] <= 30 and r["verified"] for r in rows), name


def test_partition_bridge_labels_exactly_a_and_b_everywhere():
    # across all block splits of 1..3 and all deficient automata, the
    # bridge's labels are exactly the two blocks
    for name, proto in deficient_wor_samples().items():
        s = make_initial_state(3, [0, 1, 0], WOR, proto)
        for a_ids in ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}):
            a = frozenset(a_ids)
            b = frozenset({1, 2, 3}) - a
            try:
                p = connect_partition_round(s, a, b, proto)
            except PreconditionViolationError:
                continue  # a split pair: outside the construction's premise
            assert frozenset(p.labels) == {a, b}


# -- the per-extension round memo ---------------------------------------------


def _probe_then_apply_successor(rounds, state, key, box_values):
    """Reference ``_Rounds.successor``: probe the round, then apply the plan."""
    assert key == sigma_key(key, state.n)  # engines pass canonical keys
    sched = sigma_schedule(key, state.n, rounds.proto.model)
    values = []
    for _obj, b, contended, forced_val in probe_round(state, sched, rounds.proto):
        want = box_values.get(b)
        if contended:
            values.append(want if want is not None else min(b))
        elif want is not None and forced_val != want:
            raise ConstructionError(f"box {sorted(b)} is forced to {forced_val}")
    return apply_round(state, sched, values, rounds.proto)


def _probe_then_apply_wro(rounds, state, key):
    """Reference sigma-wro successor: every probed contended instance outputs 1."""
    assert key == sigma_key(key, state.n)
    sched = sigma_schedule(key, state.n, rounds.proto.model)
    values = [1 for _o, _b, contended, _f in probe_round(state, sched, rounds.proto) if contended]
    return apply_round(state, sched, values, rounds.proto)


def _three_rounds(extend, path):
    out = []
    for _ in range(3):
        path = extend(path)
        out.append(path)
    return out


def _engine_cases():
    a, b = frozenset({1, 2}), frozenset({3})
    wro = wro_obstruction_samples()
    cases = [(f"wro {name}", lambda p, proto=wro[name]: wro_extend_round(p, proto),
              initial_chain(wro[name], 3)) for name in ("wro-solo", "wro-rotating")]
    for name, proto in deficient_wor_samples(3).items():
        o, ou, u = (make_initial_state(3, v, WOR, proto) for v in ([0, 0, 0], [0, 0, 1], [1, 1, 1]))
        cases.append((f"partition {name}", lambda p, proto=proto: extend_path_partition(p, a, b, proto),
                      Path(states=(o, ou, u), labels=(a, b))))
        cases.append((f"no3box {name}", lambda p, proto=proto: extend_path_no3box(p, proto),
                      initial_chain(proto, 3)))
    return cases


def test_memoized_engines_equal_probe_then_apply(monkeypatch):
    cases = _engine_cases()
    memoized = {label: _three_rounds(extend, start) for label, extend, start in cases}
    monkeypatch.setattr(connectivity._Rounds, "successor", _probe_then_apply_successor)
    monkeypatch.setattr(connectivity._Rounds, "boxes",
                        lambda rounds, state: successor_boxes(state, rounds.proto))
    # with successor and boxes replaced, only the wro engine calls child itself
    keys = []

    def reference_child(rounds, state, key):
        keys.append(key)
        return _probe_then_apply_wro(rounds, state, key)

    monkeypatch.setattr(connectivity._Rounds, "child", reference_child)
    for label, extend, start in cases:
        keys.clear()
        reference = _three_rounds(extend, start)
        # only the wro cases reach the patched child; the n = 3 lead keys
        # are at most 3, so more distinct keys mean the bridges ran on it too
        assert len(set(keys)) > 3 if label.startswith("wro") else not keys, label
        for r, (got, want) in enumerate(zip(memoized[label], reference), start=1):
            assert got.states == want.states and got.labels == want.labels, (label, r)
    assert sum(label.startswith("wro") for label, _e, _s in cases) == 2


def test_memo_hit_is_the_fresh_child():
    """A state that recurs along a path shares one memo entry per round
    with its first visit, and the stored child is the one a fresh round
    builds: a state holds no history that could tell the visits apart."""
    proto = wro_obstruction_samples()["wro-share-all"]
    p = initial_chain(proto, 3)
    for _ in range(3):
        p = wro_extend_round(p, proto)
    first: dict = {}
    i, j = next((first[s], k) for k, s in enumerate(p.states) if first.setdefault(s, k) != k)
    s1, s2 = p.states[i], p.states[j]
    assert (s1.rnd, s1.locals_) == (s2.rnd, s2.locals_) and i != j
    rounds = connectivity._Rounds(proto)
    all_groups = [(), (frozenset({1}),), (frozenset({2, 3}), frozenset({1}))]
    children = set()
    for groups in all_groups:
        key = sigma_key(groups, 3)
        for parent in (s1, s2):
            sched = sigma_schedule(groups, 3, WRO)
            child = rounds.child(parent, key)
            assert child == apply_round(parent, sched, itertools.repeat(1), proto)
            planned = rounds.successor(parent, key, {frozenset({1, 2, 3}): 3})
            assert planned == apply_round(parent, sched, itertools.repeat(3), proto)
            children.add(child.locals_)
    assert len(children) == len(all_groups)  # the groups lead to different rounds
    assert len(rounds.children) == 2 * len(all_groups)  # both parents share every round


def test_successor_refuses_a_plan_against_a_forced_output():
    """Under sigma({1}), process 1 invokes the pair box {1, 2} before
    process 2, so Safe-Validity forces it to output 1: a plan asking for 2
    is refused, and a plan asking for 1 gets the all-ones child."""
    s = make_initial_state(3, [0, 1, 1], WOR, PAIR)
    rounds = connectivity._Rounds(PAIR)
    key = sigma_key(({1},), 3)
    with pytest.raises(ConstructionError, match="is forced to 1"):
        rounds.successor(s, key, {frozenset({1, 2}): 2})
    child = rounds.successor(s, key, {frozenset({1, 2}): 1})
    assert child is rounds.child(s, key)
    assert child == apply_round(s, sigma_schedule(({1},), 3, WOR), itertools.repeat(1), PAIR)


def _four_round_runs(engine):
    """(extend, start) pairs of one engine at n = 3, over several automata."""
    a, b = frozenset({1, 2}), frozenset({3})
    wro = wro_obstruction_samples()
    if engine == "wro":
        return [(lambda p, proto=wro[name]: wro_extend_round(p, proto), initial_chain(wro[name], 3))
                for name in ("wro-solo", "wro-rotating", "wro-share-all")]
    if engine == "no3box":
        return [(lambda p, proto=proto: extend_path_no3box(p, proto), initial_chain(proto, 3))
                for proto in (PAIR, SOLO)]
    o, ou, u = (make_initial_state(3, v, WOR, PAIR) for v in ([0, 0, 0], [0, 0, 1], [1, 1, 1]))
    return [(lambda p: extend_path_partition(p, a, b, PAIR), Path(states=(o, ou, u), labels=(a, b)))]


@pytest.mark.parametrize("engine", ["wro", "no3box", "partition"])
def test_extension_round_builds_each_sigma_schedule_once(monkeypatch, engine):
    """n = 3 has 13 sigma schedules per model; the process builds each it
    uses once, however many rounds and automata use it."""
    builds = []
    build = executor._build_sigma

    def counting(n, model, key):
        builds.append((n, model, key))
        return build(n, model, key)

    monkeypatch.setattr(executor, "_SIGMA", {})
    monkeypatch.setattr(executor, "_build_sigma", counting)
    for extend, path in _four_round_runs(engine):
        for _ in range(4):
            path = extend(path).loop_erased()
    assert len(builds) == len(set(builds)) == len(executor._SIGMA)
    (model,) = {m for _n, m, _g in builds}
    assert 1 < len(builds) <= 13, model


def test_memo_keys_on_the_schedule_not_its_spelling():
    proto = wro_obstruction_samples()["wro-share-all"]
    s = make_initial_state(3, [0, 1, 0], WRO, proto)
    full = frozenset({1, 2, 3})
    key = sigma_key
    for j in (1, 2, 3):  # a trailing complement
        rounds = connectivity._Rounds(proto)
        spelled = rounds.child(s, key((full - {j}, frozenset({j})), 3))
        short = rounds.child(s, key((full - {j},), 3))
        assert len(rounds.children) == 1
        assert spelled == short == apply_round(s, sigma_schedule((full - {j},), 3, WRO),
                                               itertools.repeat(1), proto)
    rounds = connectivity._Rounds(proto)  # an empty group
    assert key((), 3) == key((full,), 3) == key((set(), full), 3) == ((1, 2, 3),)
    assert key((set(), {1}, set()), 3) == key(({1},), 3) == ((1,), (2, 3))
    assert rounds.child(s, key((set(), full), 3)) == rounds.child(s, key((full,), 3))
    assert len(rounds.children) == 1
    with pytest.raises(InvalidScheduleError):  # an overlap is never dropped
        key(({1, 2}, full), 3)
    with pytest.raises(InvalidScheduleError):  # a key must hold no empty block
        rounds.child(s, ((), (1, 2, 3)))


# -- edge checks ----------------------------------------------------------------


def _engine_calls():
    """One call per engine, each on an input whose output has an edge."""
    a, b = frozenset({1, 2}), frozenset({3})
    wro = wro_obstruction_samples()["wro-rotating"]
    s3 = make_initial_state(3, [0, 1, 0], WOR, PAIR)
    o, ou, u = (make_initial_state(3, v, WOR, PAIR) for v in ([0, 0, 0], [0, 0, 1], [1, 1, 1]))
    part = Path(states=(o, ou, u), labels=(a, b))
    chain_solo, chain_wro = (initial_chain(p, 3) for p in (SOLO, wro))
    return [
        ("connect_partition_round", lambda: connect_partition_round(s3, a, b, PAIR)),
        ("extend_path_partition", lambda: extend_path_partition(part, a, b, PAIR)),
        ("extend_path_no3box", lambda: extend_path_no3box(chain_solo, SOLO)),
        ("_wro_bridge", lambda: _wro_bridged(wro, make_initial_state(3, [0, 1, 0], WRO, wro), 1, 3)),
        ("wro_extend_round", lambda: wro_extend_round(chain_wro, wro)),
    ]


@pytest.mark.parametrize("engine", [name for name, _run in _engine_calls()])
def test_engine_refuses_edges_no_process_agrees_on(monkeypatch, engine):
    run = dict(_engine_calls())[engine]
    assert run().labels  # the input yields at least one edge
    monkeypatch.setattr(connectivity, "indistinguishability_set", lambda s, q: frozenset())
    with pytest.raises(ConstructionError, match="agree"):
        run()


@pytest.mark.parametrize("engine", ["wro_extend_round", "extend_path_no3box",
                                    "extend_path_partition"])
def test_each_edge_is_checked_once(monkeypatch, engine):
    run = dict(_engine_calls())[engine]
    seen = []

    def counted(s, q):
        seen.append((s, q))
        return indistinguishability_set(s, q)

    monkeypatch.setattr(connectivity, "indistinguishability_set", counted)
    out = run()
    assert len(out.labels) > 1
    assert len(seen) == len(out.labels)


"""Indistinguishability graphs, path constructions, valency analysis."""

from __future__ import annotations

import pytest

from itersc import connectivity
from itersc.connectivity import (
    WRO_PLAN_VALUE,
    Path,
    Valency,
    beta_set,
    bounded_valency,
    box_values_of,
    build_indist_graph,
    build_ladder_path,
    connect_one_round_successors,
    connect_partition_round,
    extend_path_general,
    extend_path_no3box,
    extend_path_partition,
    find_path,
    initial_chain,
    is_b_regular,
    is_ladder_state,
    lower_bound_demo,
    successor_boxes,
    wro_bridge,
    wro_extend_round,
    wro_obstruction_demo,
)
from itersc.errors import (
    ConstructionError,
    FullBoxConflictError,
    InvalidArgumentError,
    NoInvocationsError,
    PreconditionViolationError,
    RoundMismatchError,
)
from itersc.executor import (
    FixedAdversary,
    MapAdversary,
    apply_round,
    probe_round,
    sigma_schedule,
)
from itersc.model import WOR, WRO, indistinguishability_set, make_initial_state
from itersc.protocols import protocol_consensus_wor
from itersc.samples import (
    SOLO_BASE,
    deficient_wor_samples,
    knowledge_automaton,
    sel_solo,
    wro_obstruction_samples,
)

PAIR = deficient_wor_samples()["wor-pair12-min"]
SOLO = deficient_wor_samples()["wor-solo-min"]


def _two_pairs_proto():
    def sel(rnd, pid, sm, val, loc):
        return 0 if pid in (1, 2) else 1
    return knowledge_automaton(WOR, "pairs-12-34", sel)


# -- graph layer -------------------------------------------------------------


def test_graph_identical_states_full_edge():
    s = make_initial_state(3, [0, 1, 1], WOR)
    q = make_initial_state(3, [0, 1, 1], WOR)
    g = build_indist_graph([s, q])
    # identical content collapses to one node: a singleton path connects them
    p = find_path(g, s, q)
    assert p is not None and len(p.states) == 1


def test_graph_initial_states_are_connected():
    states = [make_initial_state(3, list(bits), WOR)
              for bits in __import__("itertools").product((0, 1), repeat=3)]
    g = build_indist_graph(states)
    o = states[0]
    u = states[-1]
    p = find_path(g, o, u, min_degree=1)
    assert p is not None and p.verify()
    assert find_path(g, o, u, min_degree=4) is None


def test_graph_round_mismatch():
    s = make_initial_state(3, [0, 1, 1], WOR, SOLO)
    s1 = apply_round(s, sigma_schedule((), 3, WOR), None, SOLO)
    with pytest.raises(RoundMismatchError):
        build_indist_graph([s, s1])


def test_graph_no_edge_between_disjoint_histories():
    a = make_initial_state(3, [0, 0, 0], WOR)
    b = make_initial_state(3, [1, 1, 1], WOR)
    g = build_indist_graph([a, b])
    assert not g.has_edge(a, b)


def test_is_b_regular():
    s = make_initial_state(3, [0, 1, 1], WOR, PAIR)
    x = apply_round(s, sigma_schedule((), 3, WOR), FixedAdversary(1), PAIR)
    y = apply_round(s, sigma_schedule(({1},), 3, WOR), FixedAdversary(1), PAIR)
    assert is_b_regular(Path(states=(x, y), labels=(frozenset({3}),)))
    z = apply_round(s, sigma_schedule((), 3, WOR), FixedAdversary(1), SOLO)
    assert not is_b_regular(Path(states=(x, z), labels=(frozenset({3}),)))
    with pytest.raises(NoInvocationsError):
        is_b_regular(Path(states=(s,), labels=()))


def test_single_state_path_trivially_b_regular():
    s = make_initial_state(3, [0, 1, 1], WOR, PAIR)
    x = apply_round(s, sigma_schedule((), 3, WOR), FixedAdversary(1), PAIR)
    assert is_b_regular(Path(states=(x,), labels=()))


# -- the partition bridge ----------------------------------------------------


def test_partition_bridge_pair_case():
    s = make_initial_state(3, [0, 1, 0], WOR, PAIR)
    p = connect_partition_round(s, {1, 2}, {3}, PAIR)
    assert p.verify()
    assert [sorted(x) for x in p.labels] == [[3], [1, 2]]
    # the shared pair resolves identically in all three states
    vals = {box_values_of(st)[frozenset({1, 2})] for st in p.states}
    assert len(vals) == 1


def test_partition_bridge_full_box_case():
    proto = knowledge_automaton(WOR, "all-share", lambda r, p, sm, v, lo: 0)
    s = make_initial_state(3, [0, 1, 0], WOR, proto)
    p = connect_partition_round(s, {1, 2}, {3}, proto)
    assert p.verify()
    # Safe-Validity pins the box to the singleton side's id everywhere
    assert {box_values_of(st)[frozenset({1, 2, 3})] for st in p.states} == {3}


def test_partition_bridge_solo_case():
    s = make_initial_state(3, [0, 1, 0], WOR, SOLO)
    p = connect_partition_round(s, {2, 3}, {1}, SOLO)
    assert p.verify()


def test_graph_search_rediscovers_the_bridge():
    s = make_initial_state(3, [0, 1, 0], WOR, PAIR)
    bridge = connect_partition_round(s, {1, 2}, {3}, PAIR)
    g = build_indist_graph(list(bridge.states))
    p = find_path(g, bridge.first, bridge.last, min_degree=1)
    assert p is not None and p.verify() and len(p.states) == 3


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
        assert p.isets() <= {a, b}
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


# -- ladders and the general connect -----------------------------------------


def test_ladder_single_box_is_immediate():
    proto = knowledge_automaton(WOR, "all-share", lambda r, p, sm, v, lo: 0)
    s = make_initial_state(3, [0, 1, 0], WOR, proto)
    lad, p = build_ladder_path(s, {1, 2}, {1, 2, 3}, proto)
    assert is_ladder_state(lad)
    assert len(p.states) == 1 and lad.groups == ()


def test_ladder_two_pairs_n4():
    proto = _two_pairs_proto()
    s = make_initial_state(4, [0, 1, 0, 1], WOR, proto)
    lad, p = build_ladder_path(s, {1, 2, 3}, frozenset({1, 2}), proto)
    assert is_ladder_state(lad)
    assert lad.tail == {1, 2}
    assert [sorted(g) for g in lad.groups] == [[3]]
    assert p.verify()
    assert p.degree() is None or p.degree() >= 2


def test_ladder_missing_box():
    from itersc.errors import MissingBoxError
    proto = _two_pairs_proto()
    s = make_initial_state(4, [0, 1, 0, 1], WOR, proto)
    with pytest.raises(MissingBoxError):
        build_ladder_path(s, {1, 2}, frozenset({1, 3}), proto)


def test_ladder_every_n3_spec_has_degree_one():
    for name, proto in deficient_wor_samples().items():
        s = make_initial_state(3, [0, 1, 1], WOR, proto)
        for b in successor_boxes(s, proto):
            for x in ({1, 2}, {1, 2, 3}, {3}, {2}):
                lad, p = build_ladder_path(s, x, b, proto)
                assert is_ladder_state(lad)
                assert p.degree() is None or p.degree() >= 1
                assert p.verify()


def test_connect_singleton_when_targets_match():
    proto = _two_pairs_proto()
    s = make_initial_state(4, [0, 1, 0, 1], WOR, proto)
    p = connect_one_round_successors(s, {1, 2, 3}, {1, 2, 3}, proto)
    assert len(p.states) == 1


def test_connect_no_diff_keeps_degree_n_minus_2():
    proto = _two_pairs_proto()
    s = make_initial_state(4, [0, 1, 0, 1], WOR, proto)
    p = connect_one_round_successors(s, {1, 2, 3}, {2, 3, 4}, proto)
    assert p.verify()
    assert p.degree() >= 2
    assert is_b_regular(p)


def test_connect_differing_three_box_exposes_complement_label():
    def sel(rnd, pid, sm, val, loc):
        return 0 if pid <= 3 else SOLO_BASE + pid
    proto = knowledge_automaton(WOR, "triple-123", sel)
    s = make_initial_state(4, [0, 1, 0, 1], WOR, proto)
    b = frozenset({1, 2, 3})
    p = connect_one_round_successors(s, {1, 2, 4}, {1, 2, 4}, proto,
                                     values_x={b: 1}, values_y={b: 2})
    assert p.verify()
    assert p.degree() == 1  # n - |b|
    assert frozenset({4}) in p.isets()


def test_connect_full_box_conflict():
    proto = knowledge_automaton(WOR, "all-share", lambda r, p, sm, v, lo: 0)
    s = make_initial_state(4, [0, 1, 0, 1], WOR, proto)
    full = frozenset({1, 2, 3, 4})
    with pytest.raises(FullBoxConflictError):
        connect_one_round_successors(s, {1, 2}, {1, 2}, proto,
                                     values_x={full: 1}, values_y={full: 2})


def test_connect_endpoints_match_requested_values():
    proto = _two_pairs_proto()
    s = make_initial_state(4, [0, 1, 0, 1], WOR, proto)
    b = frozenset({1, 2})
    p = connect_one_round_successors(s, {1, 2}, {1, 2, 3}, proto,
                                     values_x={b: 4}, values_y={b: 2})
    assert box_values_of(p.first)[b] == 4
    assert box_values_of(p.last)[b] == 2


# -- the general extension ---------------------------------------------------


def test_general_extension_iterates_with_psi_checks():
    proto = _two_pairs_proto()
    q = initial_chain(proto, 4)
    for _ in range(3):
        q, report = extend_path_general(q, proto)
        assert report["ok"]
        assert q.degree() >= 2
        assert q.verify()


def test_general_extension_n3_engine_alternative():
    q = initial_chain(PAIR, 3)
    for _ in range(3):
        q, report = extend_path_general(q, proto=PAIR, s=1)
        assert report["ok"] and q.verify()


def test_general_extension_budget_guard():
    from itersc.errors import BudgetExceededError
    proto = knowledge_automaton(WOR, "solo6", sel_solo)
    chain = initial_chain(proto, 6)
    with pytest.raises(BudgetExceededError):
        extend_path_general(chain, proto)


def test_beta_set_counts_doubly_hit_boxes():
    q = initial_chain(PAIR, 3)
    # labels {2,3},{1,3},{1,2}; box {1,2} meets {1,3} and {2,3} in singletons
    assert frozenset({1, 2}) in beta_set(q, PAIR)


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
        s = apply_round(s, sched, None, SOLO)
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
    import itertools as it
    from itersc.executor import MapAdversary, probe_round
    states = []
    for inputs in ([0, 1], [1, 1], [0, 0], [1, 0]):
        for sched in __import__("itersc.executor", fromlist=["x"]).enumerate_round_schedules(2, WOR, "sigma"):
            init = make_initial_state(2, inputs, WOR, proto)
            contended = [o for (o, _b, c, _f) in probe_round(init, sched, proto) if c]
            scripts = [dict(zip(contended, vs))
                       for vs in it.product((1, 2), repeat=len(contended))] or [{}]
            for script in scripts:
                states.append(apply_round(init, sched, MapAdversary(script), proto))
    g = build_indist_graph(states)
    for a, b in g.edges:
        da, db = set(a.decisions().values()), set(b.decisions().values())
        if da and db:
            shared = indistinguishability_set(a, b)
            for pid in shared:
                assert a.local(pid).dec == b.local(pid).dec


# -- the write-scan-invoke obstruction ----------------------------------------


def test_wro_bridge_labels_and_regularity():
    proto = wro_obstruction_samples()["wro-share-all"]
    s = make_initial_state(3, [0, 1, 0], WRO, proto)
    p = wro_bridge(s, 1, 3, proto)
    assert p.verify()
    assert p.degree() == 2
    assert is_b_regular(p)


def test_wro_bridge_same_anchor_is_singleton():
    proto = wro_obstruction_samples()["wro-solo"]
    s = make_initial_state(3, [0, 1, 0], WRO, proto)
    assert len(wro_bridge(s, 2, 2, proto).states) == 1


def test_wro_obstruction_all_samples():
    for name, proto in wro_obstruction_samples().items():
        report = wro_obstruction_demo(proto, 3, 2)
        assert report["ok"], name


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


def test_diff_box_set_is_within_both_specs():
    from itersc.model import diff_box_set, invocation_spec
    from itersc.connectivity import build_successor
    proto = PAIR
    s = make_initial_state(3, [0, 1, 0], WOR, proto)
    b = frozenset({1, 2})
    q1 = build_successor(s, ({1, 2, 3},), proto, {b: 1})
    q2 = build_successor(s, ({1, 2, 3},), proto, {b: 3})
    d = diff_box_set(q1, q2)
    assert d == {b}
    assert d <= invocation_spec(q1).boxes & invocation_spec(q2).boxes


def test_partition_bridge_labels_exactly_a_and_b_everywhere():
    # across all block splits of 1..3 and all deficient automata, the
    # bridge's labels are exactly the two blocks
    import itertools as it
    for name, proto in deficient_wor_samples().items():
        s = make_initial_state(3, [0, 1, 0], WOR, proto)
        for a_ids in ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}):
            a = frozenset(a_ids)
            b = frozenset({1, 2, 3}) - a
            try:
                p = connect_partition_round(s, a, b, proto)
            except PreconditionViolationError:
                continue  # a split pair: outside the construction's premise
            assert p.isets() == {a, b}


# -- the per-extension round memo ---------------------------------------------


def _probe_then_apply_successor(rounds, state, groups, box_values, default=None):
    """Reference build_successor: probe the round, then apply the plan."""
    sched = sigma_schedule(groups, state.n, rounds.proto.model)
    script = {}
    for obj, b, contended, forced_val in probe_round(state, sched, rounds.proto):
        want = box_values.get(b)
        if contended:
            script[obj] = want if want is not None else (default or min)(b)
        elif want is not None and forced_val != want:
            raise ConstructionError(f"box {sorted(b)} is forced to {forced_val}")
    return apply_round(state, sched, MapAdversary(script), rounds.proto)


def _probe_then_apply_wro(rounds, state, groups):
    """Reference sigma-wro successor: every probed contended instance outputs 1."""
    sched = sigma_schedule(groups, state.n, rounds.proto.model)
    script = {obj: WRO_PLAN_VALUE
              for obj, _b, contended, _f in probe_round(state, sched, rounds.proto) if contended}
    return apply_round(state, sched, MapAdversary(script), rounds.proto)


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
    cases.append(("general wor-pair12-min",
                  lambda p: extend_path_general(p, PAIR, s=1)[0], initial_chain(PAIR, 3)))
    return cases


def test_memoized_engines_equal_probe_then_apply(monkeypatch):
    cases = _engine_cases()
    memoized = {label: _three_rounds(extend, start) for label, extend, start in cases}
    monkeypatch.setattr(connectivity._Rounds, "successor", _probe_then_apply_successor)
    monkeypatch.setattr(connectivity._Rounds, "boxes",
                        lambda rounds, state: successor_boxes(state, rounds.proto))
    monkeypatch.setattr(connectivity, "_wro_successor", _probe_then_apply_wro)
    for label, extend, start in cases:
        reference = _three_rounds(extend, start)
        for r, (got, want) in enumerate(zip(memoized[label], reference), start=1):
            assert got.states == want.states and got.labels == want.labels, (label, r)


def test_memo_hit_rebuilds_the_callers_history():
    proto = wro_obstruction_samples()["wro-share-all"]
    p = initial_chain(proto, 3)
    for _ in range(3):
        p = wro_extend_round(p, proto)
    by_locals: dict = {}
    for s in p.states:
        by_locals.setdefault((s.rnd, s.locals_), []).append(s)
    s1, s2 = next((x, y) for same in by_locals.values() for x in same for y in same
                  if x.memory != y.memory)
    rounds = connectivity._Rounds(proto)
    all_groups = [(), (frozenset({1}),), (frozenset({2, 3}), frozenset({1}))]
    children = set()
    for groups in all_groups:
        for parent in (s1, s2):
            sched = sigma_schedule(groups, 3, WRO)
            child = rounds.child(parent, groups)
            assert child.memory[:-1] == parent.memory
            assert child.instances[:-1] == parent.instances
            assert child == apply_round(parent, sched, FixedAdversary(1), proto)
            planned = rounds.successor(parent, groups, {frozenset({1, 2, 3}): 3})
            assert planned.memory[:-1] == parent.memory
            assert planned == apply_round(parent, sched, FixedAdversary(3), proto)
            children.add(child.locals_)
    assert len(children) == len(all_groups)  # the groups lead to different rounds
    assert len(rounds.deltas) == 2 * len(all_groups)  # both parents share every round

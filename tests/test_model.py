"""Core model: initial states, safe-consensus resolution, indistinguishability."""

from __future__ import annotations

import itertools

import pytest
from _reference_round import apply_round_recorded as reference_round
from hypothesis import given, settings
from hypothesis import strategies as st

from itersc.errors import (
    InvalidAdversaryError,
    InvalidConfigurationError,
    NoInvocationsError,
    RoundMismatchError,
    UnresolvedInstanceError,
)
from itersc.executor import (
    apply_round,
    random_outputs,
    random_sigma_schedule,
    run_execution,
    sigma_schedule,
)
from itersc.model import (
    WOR,
    indistinguishability_set,
    invocation_spec,
    make_initial_state,
    resolve_safe_consensus,
)
from itersc.samples import deficient_wor_samples, knowledge_automaton, resolve_protocol, sel_solo
from itersc.protocols import protocol_consensus_wor
from itersc.values import canonical_json, jsonable


def test_initial_state_round0_components():
    s = make_initial_state(2, [0, 1], WOR)
    assert s.rnd == 0
    assert [ls.sm for ls in s.locals_] == [0, 1]
    assert all(ls.dec is None and ls.val is None for ls in s.locals_)
    assert s.cells is None and s.resolved == ()


def test_initial_state_all_zero_exists():
    s = make_initial_state(3, [0, 0, 0], WOR)
    assert {ls.inp for ls in s.locals_} == {0}


def test_initial_state_rejects_single_process():
    with pytest.raises(InvalidConfigurationError):
        make_initial_state(1, [0], WOR)
    with pytest.raises(InvalidConfigurationError):
        make_initial_state(3, [0, 1], WOR)


def test_resolve_trivial_box_returns_own_input():
    out, forced = resolve_safe_consensus({2}, {2: 2}, [{2}], None, n=3)
    assert out == 2 and forced


def test_resolve_contended_takes_adversary_value():
    out, forced = resolve_safe_consensus({1, 3}, {1: 1, 3: 3}, [{1, 3}], 2, n=3)
    assert out == 2 and not forced


def test_resolve_solo_first_wins():
    out, forced = resolve_safe_consensus({1, 3}, {1: 1, 3: 3}, [{1}, {3}], None, n=3)
    assert out == 1 and forced


def test_resolve_contended_without_choice_is_an_error():
    with pytest.raises(UnresolvedInstanceError):
        resolve_safe_consensus({1, 3}, {1: 1, 3: 3}, [{1, 3}], None, n=3)


def test_resolve_rejects_out_of_domain_choice():
    with pytest.raises(InvalidAdversaryError):
        resolve_safe_consensus({1, 3}, {1: 1, 3: 3}, [{1, 3}], 9, n=3)


def test_resolve_rejects_a_bool_choice():
    """JSON ``true`` is a bool, and a bool is an int to isinstance."""
    with pytest.raises(InvalidAdversaryError):
        resolve_safe_consensus({1, 3}, {1: 1, 3: 3}, [{1, 3}], True, n=3)


def test_indistinguishability_identical_states():
    s = make_initial_state(3, [0, 1, 2], WOR)
    assert indistinguishability_set(s, s) == {1, 2, 3}


def test_indistinguishability_single_input_flip():
    s = make_initial_state(3, [0, 0, 0], WOR)
    q = make_initial_state(3, [0, 1, 0], WOR)
    assert indistinguishability_set(s, q) == {1, 3}


def test_indistinguishability_round_mismatch():
    proto = deficient_wor_samples()["wor-solo-min"]
    s0 = make_initial_state(3, [0, 1, 0], WOR, proto)
    s1 = apply_round(s0, sigma_schedule((), 3, WOR), (), proto)
    with pytest.raises(RoundMismatchError):
        indistinguishability_set(s0, s1)


def test_invocation_spec_single_shared_object():
    proto = knowledge_automaton(WOR, "all-share", lambda r, p, sm, v, lo: 7)
    s0 = make_initial_state(3, [0, 1, 2], WOR, proto)
    s1 = apply_round(s0, sigma_schedule((), 3, WOR), itertools.repeat(2), proto)
    assert invocation_spec(s1) == {frozenset({1, 2, 3})}


def test_invocation_spec_pair_plus_solo():
    proto = deficient_wor_samples()["wor-pair12-min"]
    s0 = make_initial_state(3, [0, 1, 2], WOR, proto)
    s1 = apply_round(s0, sigma_schedule((), 3, WOR), itertools.repeat(2), proto)
    assert invocation_spec(s1) == {frozenset({1, 2}), frozenset({3})}


def test_invocation_spec_consensus_round1_n4():
    proto = protocol_consensus_wor(4)
    s0 = make_initial_state(4, [0, 1, 2, 3], WOR, proto)
    s1 = apply_round(s0, sigma_schedule((), 4, WOR), itertools.repeat(2), proto)
    assert invocation_spec(s1) == {
        frozenset({1, 2}), frozenset({3}), frozenset({4})}


def test_invocation_spec_requires_a_completed_round():
    s = make_initial_state(3, [0, 1, 2], WOR)
    with pytest.raises(NoInvocationsError):
        invocation_spec(s)


def _reference_json(state, sched, proto, seed) -> str:
    """The successor's JSON, assembled from the reference round's records."""
    rnd, locals_, cells, resolved, _choices = reference_round(
        state, sched, random_outputs(seed, state.n), proto)
    instances = [{"object": obj, "invokers": sorted(p for p, _ in pairs),
                  "inputs": [[p, jsonable(v)] for p, v in pairs],
                  "output": jsonable(out), "forced": forced}
                 for obj, pairs, out, forced in resolved]
    return canonical_json({"n": state.n, "model": state.model, "round": rnd,
                           "locals": [ls.to_jsonable() for ls in locals_],
                           "snapshot": {"cells": [jsonable(c) for c in cells]},
                           "instances": instances})


def test_state_json_is_canonical_and_stable():
    first, second = make_initial_state(2, [0, 1], WOR), make_initial_state(2, [0, 1], WOR)
    assert first is not second
    assert canonical_json(first.to_jsonable()) == canonical_json(second.to_jsonable())
    assert '"dec":null' in canonical_json(first.to_jsonable())
    # rounds 1 and 2 of the engine against the reference round's records, per model
    for name in ("consensus", "wro-pair12-d3", "owr-rotating-d3"):
        proto = resolve_protocol(name, 3)
        state = make_initial_state(3, [0, 1, 1], proto.model, proto)
        for groups, seed in (([{2}], 11), ([{1, 3}], 12)):
            sched = sigma_schedule(groups, 3, proto.model)
            want = _reference_json(state, sched, proto, seed)
            state = apply_round(state, sched, random_outputs(seed, 3), proto)
            assert canonical_json(state.to_jsonable()) == want, (name, state.rnd)
        assert state.rnd == 2 and state.resolved, name


def test_state_json_golden():
    s = make_initial_state(2, [0, 1], WOR)
    assert canonical_json(s.to_jsonable()) == (
        '{"instances":[],"locals":['
        '{"dec":null,"id":1,"input":0,"locals":{},"round":0,"sm":0,"val":null},'
        '{"dec":null,"id":2,"input":1,"locals":{},"round":0,"sm":1,"val":null}],'
        '"model":"WOR","n":2,"round":0,"snapshot":null}'
    )
    assert s.digest() == make_initial_state(2, [0, 1], WOR).digest()
    # round 1 of a WOR automaton: a contended pair box, a forced solo box, a snapshot
    proto = deficient_wor_samples()["wor-pair12-min"]
    sched = sigma_schedule((), 3, WOR)
    s1 = apply_round(make_initial_state(3, [0, 1, 1], WOR, proto), sched, itertools.repeat(2), proto)
    assert canonical_json(s1.to_jsonable()) == (
        '{"instances":['
        '{"forced":false,"inputs":[[1,1],[2,2]],"invokers":[1,2],"object":0,"output":2},'
        '{"forced":true,"inputs":[[3,3]],"invokers":[3],"object":1003,"output":3}],"locals":['
        '{"dec":null,"id":1,"input":0,"locals":{"id":1,"known":[0,1],"r":1},"round":1,'
        '"sm":[[0],[1],[1]],"val":2},'
        '{"dec":null,"id":2,"input":1,"locals":{"id":2,"known":[0,1],"r":1},"round":1,'
        '"sm":[[0],[1],[1]],"val":2},'
        '{"dec":null,"id":3,"input":1,"locals":{"id":3,"known":[0,1],"r":1},"round":1,'
        '"sm":[[0],[1],[1]],"val":3}],'
        '"model":"WOR","n":3,"round":1,"snapshot":{"cells":[[0],[1],[1]]}}'
    )
    assert s1.digest() == "abe8735fecb7"
    exe = run_execution(proto, [0, 1, 1], [sched], itertools.repeat(2))
    assert exe.to_jsonl() == (
        '{"choices":[[1,0,2]],"locals":['
        '{"dec":null,"digest":"a6edc6cf7a95","id":1,"val":2},'
        '{"dec":null,"digest":"4d3fe05599d7","id":2,"val":2},'
        '{"dec":null,"digest":"84e7c5b65108","id":3,"val":3}],'
        '"round":1,"schedule":[["W",[1,2,3]],["S",[1,2,3]],["R",[1,2,3]]]}\n'
    )


# -- property-style checks over random executions ---------------------------


def _random_execution(seed: int, rounds: int = 3):
    import random
    rng = random.Random(seed)
    proto = deficient_wor_samples()["wor-altpair12-min"]
    inputs = [rng.randint(0, 1) for _ in range(3)]
    scheds = [random_sigma_schedule(3, WOR, rng) for _ in range(rounds)]
    return proto, inputs, run_execution(
        proto, inputs, scheds, random_outputs(rng.randrange(2**31), 3))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_indistinguishability_is_symmetric_and_transitive_per_process(seed):
    _, _, exe = _random_execution(seed)
    _, _, exe2 = _random_execution(seed + 1)
    s, q = exe.final, exe2.final
    r = exe.steps[-2].state if exe.rounds >= 2 else exe.initial
    assert indistinguishability_set(s, q) == indistinguishability_set(q, s)
    if r.rnd == s.rnd:
        ab = indistinguishability_set(s, q)
        bc = indistinguishability_set(q, r)
        assert ab & bc <= indistinguishability_set(s, r)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_safe_validity_holds_on_every_instance(seed):
    _, _, exe = _random_execution(seed)
    for step in exe.steps:
        for _obj, pairs, out, forced in step.state.resolved:
            if forced:
                assert out in dict(pairs).values()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_resolution_oracle_agrees_with_the_engine(seed):
    # replay every recorded instance through the standalone resolution rule
    _, _, exe = _random_execution(seed)
    for step in exe.steps:
        invoke_groups = [g for kind, g in step.schedule.events if kind == "S"]
        for _obj, pairs, output, was_forced in step.state.resolved:
            choice = None if was_forced else output
            out, forced = resolve_safe_consensus(
                [p for p, _ in pairs], dict(pairs), invoke_groups, choice, n=3)
            assert forced == was_forced
            assert out == output


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_agreement_all_invokers_store_the_same_val(seed):
    _, _, exe = _random_execution(seed)
    for step in exe.steps:
        for box, out in step.state.box_outputs():
            vals = {step.state.locals_[p - 1].val for p in box}
            assert vals == {out}


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_decision_monotonicity(seed):
    _, _, exe = _random_execution(seed, rounds=4)
    for pid in (1, 2, 3):
        seen = [s.state.locals_[pid - 1].dec for s in exe.steps]
        first = next((i for i, d in enumerate(seen) if d is not None), None)
        if first is not None:
            assert all(d == seen[first] for d in seen[first:])


def test_snapshot_atomicity_scan_equals_prior_writes():
    proto = knowledge_automaton(WOR, "solo", sel_solo)
    s0 = make_initial_state(3, [5, 6, 7], WOR, proto)
    sched = sigma_schedule([{1}, {2}], 3, WOR)
    s1 = apply_round(s0, sched, (), proto)
    # process 1 wrote and scanned before anyone else: sees only itself
    assert s1.locals_[0].sm == ((5,), None, None)
    # process 2 sees 1 and itself; process 3 (the complement) sees everyone
    assert s1.locals_[1].sm == ((5,), (6,), None)
    assert s1.locals_[2].sm == ((5,), (6,), (7,))


def test_scans_in_one_group_agree():
    proto = knowledge_automaton(WOR, "solo", sel_solo)
    s0 = make_initial_state(3, [5, 6, 7], WOR, proto)
    s1 = apply_round(s0, sigma_schedule([{1, 2}], 3, WOR), (), proto)
    assert s1.locals_[0].sm == s1.locals_[1].sm

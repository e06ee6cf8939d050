"""Core model: initial states, safe-consensus resolution, indistinguishability."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itersc.errors import (
    InvalidAdversaryError,
    InvalidConfigurationError,
    MissingBoxError,
    NoInvocationsError,
    RoundMismatchError,
    UnresolvedInstanceError,
)
from itersc.executor import FixedAdversary, apply_round, random_sigma_schedule, run_execution, sigma_schedule
from itersc.model import (
    WOR,
    box,
    indistinguishability_set,
    invocation_spec,
    make_initial_state,
    resolve_safe_consensus,
    sc_value_of,
)
from itersc.samples import deficient_wor_samples, knowledge_automaton, sel_solo
from itersc.protocols import protocol_consensus_wor


def test_initial_state_round0_components():
    s = make_initial_state(2, [0, 1], WOR)
    assert s.rnd == 0
    assert [ls.sm for ls in s.locals_] == [0, 1]
    assert all(ls.dec is None and ls.val is None for ls in s.locals_)
    assert s.memory == ()


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
    s1 = apply_round(s0, sigma_schedule((), 3, WOR), None, proto)
    with pytest.raises(RoundMismatchError):
        indistinguishability_set(s0, s1)


def test_invocation_spec_single_shared_object():
    proto = knowledge_automaton(WOR, "all-share", lambda r, p, sm, v, lo: 7)
    s0 = make_initial_state(3, [0, 1, 2], WOR, proto)
    s1 = apply_round(s0, sigma_schedule((), 3, WOR), FixedAdversary(2), proto)
    assert invocation_spec(s1).boxes == {frozenset({1, 2, 3})}


def test_invocation_spec_pair_plus_solo():
    proto = deficient_wor_samples()["wor-pair12-min"]
    s0 = make_initial_state(3, [0, 1, 2], WOR, proto)
    s1 = apply_round(s0, sigma_schedule((), 3, WOR), FixedAdversary(2), proto)
    assert invocation_spec(s1).boxes == {frozenset({1, 2}), frozenset({3})}


def test_invocation_spec_consensus_round1_n4():
    proto = protocol_consensus_wor(4)
    s0 = make_initial_state(4, [0, 1, 2, 3], WOR, proto)
    s1 = apply_round(s0, sigma_schedule((), 4, WOR), FixedAdversary(2), proto)
    assert invocation_spec(s1).boxes == {
        frozenset({1, 2}), frozenset({3}), frozenset({4})}


def test_invocation_spec_requires_a_completed_round():
    s = make_initial_state(3, [0, 1, 2], WOR)
    with pytest.raises(NoInvocationsError):
        invocation_spec(s)


def test_sc_value_of_trivial_and_adversary_boxes():
    proto = deficient_wor_samples()["wor-pair12-min"]
    s0 = make_initial_state(3, [0, 1, 2], WOR, proto)
    s1 = apply_round(s0, sigma_schedule((), 3, WOR), FixedAdversary(2), proto)
    assert sc_value_of({3}, s1) == 3
    assert sc_value_of({1, 2}, s1) == 2
    with pytest.raises(MissingBoxError):
        sc_value_of({1, 3}, s1)


def test_sc_value_of_unreached_round():
    s = make_initial_state(3, [0, 1, 2], WOR)
    with pytest.raises(NoInvocationsError):
        sc_value_of({1}, s)


def test_box_type_invariants():
    assert box({2}) == frozenset({2}) and len(box({2})) == 1
    assert len(box({1, 2})) == 2
    with pytest.raises(InvalidConfigurationError):
        box(frozenset())


def test_state_json_is_canonical_and_stable():
    s = make_initial_state(2, [0, 1], WOR)
    assert s.to_json() == s.to_json()
    assert '"dec":null' in s.to_json()


def test_state_json_golden():
    s = make_initial_state(2, [0, 1], WOR)
    assert s.to_json() == (
        '{"instances":[],"locals":['
        '{"dec":null,"id":1,"input":0,"locals":{},"round":0,"sm":0,"val":null},'
        '{"dec":null,"id":2,"input":1,"locals":{},"round":0,"sm":1,"val":null}],'
        '"memory":[],"model":"WOR","n":2,"round":0}'
    )
    assert s.digest() == make_initial_state(2, [0, 1], WOR).digest()


# -- property-style checks over random executions ---------------------------


def _random_execution(seed: int, rounds: int = 3):
    import random
    rng = random.Random(seed)
    proto = deficient_wor_samples()["wor-altpair12-min"]
    inputs = [rng.randint(0, 1) for _ in range(3)]
    scheds = [random_sigma_schedule(3, WOR, rng) for _ in range(rounds)]
    from itersc.executor import SeededRandomAdversary
    return proto, inputs, run_execution(
        proto, inputs, scheds, SeededRandomAdversary(rng.randrange(2**31), 3))


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
        for inst in step.state.instances[-1]:
            if inst.forced:
                inputs = dict(inst.inputs)
                assert inst.output in inputs.values()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_resolution_oracle_agrees_with_the_engine(seed):
    # replay every recorded instance through the standalone resolution rule
    _, _, exe = _random_execution(seed)
    for step in exe.steps:
        invoke_groups = [g for kind, g in step.schedule.events if kind == "S"]
        for inst in step.state.instances[-1]:
            choice = None if inst.forced else inst.output
            out, forced = resolve_safe_consensus(
                inst.invokers, dict(inst.inputs), invoke_groups, choice, n=3)
            assert forced == inst.forced
            assert out == inst.output


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_agreement_all_invokers_store_the_same_val(seed):
    _, _, exe = _random_execution(seed)
    for step in exe.steps:
        for inst in step.state.instances[-1]:
            vals = {step.state.local(p).val for p in inst.invokers}
            assert vals == {inst.output}


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_decision_monotonicity(seed):
    _, _, exe = _random_execution(seed, rounds=4)
    for pid in (1, 2, 3):
        seen = [s.state.local(pid).dec for s in exe.steps]
        first = next((i for i, d in enumerate(seen) if d is not None), None)
        if first is not None:
            assert all(d == seen[first] for d in seen[first:])


def test_snapshot_atomicity_scan_equals_prior_writes():
    proto = knowledge_automaton(WOR, "solo", sel_solo)
    s0 = make_initial_state(3, [5, 6, 7], WOR, proto)
    sched = sigma_schedule([{1}, {2}], 3, WOR)
    s1 = apply_round(s0, sched, None, proto)
    # process 1 wrote and scanned before anyone else: sees only itself
    assert s1.local(1).sm == ((5,), None, None)
    # process 2 sees 1 and itself; process 3 (the complement) sees everyone
    assert s1.local(2).sm == ((5,), (6,), None)
    assert s1.local(3).sm == ((5,), (6,), (7,))


def test_scans_in_one_group_agree():
    proto = knowledge_automaton(WOR, "solo", sel_solo)
    s0 = make_initial_state(3, [5, 6, 7], WOR, proto)
    s1 = apply_round(s0, sigma_schedule([{1, 2}], 3, WOR), None, proto)
    assert s1.local(1).sm == s1.local(2).sm

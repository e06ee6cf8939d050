"""Schedules, adversaries, execution running, checking, Gamma collection."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import itertools
import logging
import multiprocessing
import random
import re
from functools import partial
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itersc import executor
from itersc.errors import (
    BudgetExceededError,
    InvalidAdversaryError,
    InvalidArgumentError,
    InvalidInputError,
    InvalidScheduleError,
    ProtocolInvariantError,
    UnresolvedInstanceError,
)
from itersc.executor import (
    EVENT_ORDER,
    GammaReport,
    random_outputs,
    SweepReport,
    _check_decisions,
    all_coalitions_tuples,
    apply_round,
    apply_round_recorded,
    check_2cc,
    check_consensus,
    collect_gamma,
    consensus_input_vectors,
    enumerate_round_schedules,
    make_schedule,
    ordered_set_partitions,
    probe_round,
    random_ordered_partition_schedule,
    random_sigma_schedule,
    replay_execution,
    run_execution,
    sigma_schedule,
    verify_2cc,
    verify_consensus_exhaustive,
    verify_consensus_sampled,
)
from itersc.model import OWR, WOR, WRO, make_initial_state
from itersc.protocols import (
    protocol_2cc,
    protocol_consensus_wor,
    transform_owr_to_wro,
    transform_wro_to_owr,
)
from itersc.samples import (
    deficient_wor_samples,
    knowledge_automaton,
    owr_transform_samples,
    resolve_protocol,
    sample_names,
    sel_solo,
    wro_transform_samples,
)
from itersc.values import canonical_json, freeze, jsonable


def test_sigma_schedule_wor_shape():
    s = sigma_schedule([{1, 3}], 3, WOR)
    assert str(s) == "W{1,3},S{1,3},R{1,3},W{2},S{2},R{2}"


def test_sigma_schedule_empty_prefix_fully_concurrent():
    s = sigma_schedule([], 3, WOR)
    assert str(s) == "W{1,2,3},S{1,2,3},R{1,2,3}"


def test_sigma_schedule_overlap_rejected():
    with pytest.raises(InvalidScheduleError):
        sigma_schedule([{1}, {1}], 3, WOR)


def test_sigma_schedule_wro_shape():
    s = sigma_schedule([{2}], 3, WRO)
    assert str(s) == "W{2},R{2},W{1,3},R{1,3},S{1,2,3}"


def test_sigma_schedule_owr_shape():
    s = sigma_schedule([{2}], 3, OWR)
    assert str(s) == "S{1,2,3},W{2},R{2},W{1,3},R{1,3}"


def test_make_schedule_enforces_model_order():
    events = [("W", {1}), ("R", {1}), ("S", {1})]
    make_schedule(WRO, 1, events)  # write-scan-invoke: fine
    with pytest.raises(InvalidScheduleError):
        make_schedule(WOR, 1, events)  # invoke must precede the scan


def test_make_schedule_requires_every_event():
    with pytest.raises(InvalidScheduleError):
        make_schedule(WOR, 2, [("W", {1, 2}), ("S", {1, 2}), ("R", {1})])


def test_enumerate_sigma_counts():
    # ordered set partitions: 1, 3, 13, 75
    for n, count in ((1, 1), (2, 3), (3, 13), (4, 75)):
        assert len(list(enumerate_round_schedules(n, WOR, "sigma"))) == count


def test_enumerate_sigma_budget_guard():
    with pytest.raises(BudgetExceededError):
        list(enumerate_round_schedules(10, WOR, "sigma"))


def test_enumerate_ordered_partition_family_is_valid_and_duplicate_free():
    seen = set()
    for sched in enumerate_round_schedules(2, WOR, "ordered-partition"):
        assert sched.events not in seen
        seen.add(sched.events)
        order = EVENT_ORDER[WOR]
        pos = {}
        for i, (kind, group) in enumerate(sched.events):
            for pid in group:
                pos[(pid, kind)] = i
        for pid in (1, 2):
            assert pos[(pid, order[0])] < pos[(pid, order[1])] < pos[(pid, order[2])]
    assert len(seen) > 13  # strictly richer than the sigma family


def test_ordered_partition_budget_guard():
    # n=4 has 3,055,843 schedules; the guard must fire before the first one
    for n in (4, 5):
        with pytest.raises(BudgetExceededError):
            next(enumerate_round_schedules(n, WOR, "ordered-partition"))


def test_ordered_set_partitions_fubini():
    assert sum(1 for _ in ordered_set_partitions((1, 2, 3, 4, 5))) == 541


def test_apply_round_determinism():
    proto = protocol_2cc(2)
    init = make_initial_state(2, [(5, None), (None, 7)], WOR, proto)
    sched = sigma_schedule([], 2, WOR)
    s1 = apply_round(init, sched, itertools.repeat(2), proto)
    s2 = apply_round(init, sched, itertools.repeat(2), proto)
    assert s1 == s2
    assert [ls.dec for ls in s1.locals_] == [7, 7]


def test_apply_round_model_mismatch():
    proto = protocol_2cc(2)
    init = make_initial_state(2, [(5, None), (None, 7)], WOR, proto)
    with pytest.raises(InvalidScheduleError):
        apply_round(init, sigma_schedule([], 2, WRO), (), proto)


def test_apply_round_contention_needs_adversary():
    proto = protocol_2cc(2)
    init = make_initial_state(2, [(5, None), (None, 7)], WOR, proto)
    with pytest.raises(UnresolvedInstanceError):
        apply_round(init, sigma_schedule([], 2, WOR), (), proto)


def test_scripted_adversary_must_cover_the_run():
    """One iterator spans the rounds: a script with one output per round
    runs two rounds and runs out in the third."""
    proto = protocol_consensus_wor(2)
    scheds = [sigma_schedule([], 2, WOR)] * 3
    assert run_execution(proto, [0, 1], scheds[:2], [2, 1]).all_choices() == [2, 1]
    with pytest.raises(UnresolvedInstanceError):
        run_execution(proto, [0, 1], scheds, [2, 1])


@pytest.mark.parametrize("output", [0, 3, True, 1.0, "1"])
def test_adversary_output_must_be_a_process_id(output):
    proto = protocol_2cc(2)
    init = make_initial_state(2, [(5, None), (None, 7)], WOR, proto)
    with pytest.raises(InvalidAdversaryError):
        apply_round(init, sigma_schedule([], 2, WOR), [output], proto)


def test_run_execution_requires_rounds():
    with pytest.raises(InvalidArgumentError):
        run_execution(protocol_consensus_wor(2), [0, 1], [], ())


def test_run_execution_and_replay_are_identical():
    import random
    proto = protocol_consensus_wor(3)
    rng = random.Random(3)
    scheds = [random_sigma_schedule(3, WOR, rng) for _ in range(3)]
    exe = run_execution(proto, [0, 1, 1], scheds, random_outputs(9, 3))
    again = replay_execution(proto, [0, 1, 1], exe)
    assert exe.final == again.final
    assert exe.to_jsonl() == again.to_jsonl()


def test_check_consensus_shapes():
    proto = protocol_consensus_wor(2)
    exe = run_execution(proto, [1, 0], [sigma_schedule([{1}], 2, WOR)], ())
    verdict = check_consensus(exe, [1, 0])
    assert verdict.ok and verdict.termination and verdict.agreement and verdict.validity

    # agreement violation: two processes that decide their own inputs
    selfish = knowledge_automaton(WOR, "selfish", sel_solo, decide_round=1)
    import dataclasses
    selfish = dataclasses.replace(selfish, decide=lambda sm, v, lo: lo.known[0])
    exe = run_execution(selfish, [0, 1], [sigma_schedule([], 2, WOR)], ())
    verdict = check_consensus(exe, [0, 1])
    assert not verdict.ok and not verdict.agreement
    assert verdict.first_violation[0] == "agreement"

    # validity violation: decide a constant outside the inputs
    invalid = dataclasses.replace(selfish, decide=lambda sm, v, lo: 7)
    exe = run_execution(invalid, [0, 1], [sigma_schedule([], 2, WOR)], ())
    verdict = check_consensus(exe, [0, 1])
    assert not verdict.ok and verdict.agreement and not verdict.validity
    assert verdict.first_violation[0] == "validity"

    # termination at the horizon
    silent = knowledge_automaton(WOR, "silent", sel_solo)
    exe = run_execution(silent, [0, 1], [sigma_schedule([], 2, WOR)], ())
    verdict = check_consensus(exe, [0, 1])
    assert not verdict.ok and not verdict.termination
    assert verdict.first_violation[0] == "termination"


def test_check_2cc_rejects_invalid_tuple():
    proto = protocol_2cc(2)
    entries = [(5, None), (6, 7)]
    exe = run_execution(proto, entries, [sigma_schedule([{1}], 2, WOR)], ())
    with pytest.raises(InvalidInputError):
        check_2cc(exe, entries)


def test_check_2cc_pass_and_violations():
    proto = protocol_2cc(2)
    entries = [(5, None), (None, 7)]
    exe = run_execution(proto, entries, [sigma_schedule([{1}], 2, WOR)], ())
    assert check_2cc(exe, entries).ok

    import dataclasses
    bad = dataclasses.replace(proto, decide=lambda sm, v, lo: 9)
    exe = run_execution(bad, entries, [sigma_schedule([{1}], 2, WOR)], ())
    verdict = check_2cc(exe, entries)
    assert not verdict.ok and not verdict.validity


def test_collect_gamma_consensus_n4():
    report = collect_gamma(protocol_consensus_wor(4), 4)
    assert report.nu == {2: 3, 3: 2, 4: 1}
    assert report.nu_total == 6


def test_collect_gamma_single_box_protocol():
    report = collect_gamma(protocol_2cc(3), 3, rounds=1)
    assert report.gamma[3] == {frozenset({1, 2, 3})}
    assert report.nu_total == 1


def test_collect_gamma_solo_protocol_counts_nothing():
    proto = deficient_wor_samples()["wor-solo-min"]
    report = collect_gamma(proto, 3, rounds=2)
    assert report.nu_total == 0
    assert all(m == 1 for m in report.gamma)


def test_adversary_enumeration_covers_choice_space():
    proto = deficient_wor_samples()["wor-pair12-min"]
    init = make_initial_state(3, [0, 1, 0], WOR, proto)
    sched = sigma_schedule([], 3, WOR)
    contended = [o for (o, _b, c, _f) in probe_round(init, sched, proto) if c]
    assert len(contended) == 1
    outcomes = set()
    for values in itertools.product((1, 2, 3), repeat=len(contended)):
        nxt = apply_round(init, sched, values, proto)
        outcomes.add(nxt.locals_[0].val)
    assert outcomes == {1, 2, 3}


def test_sampled_consensus_sweep_clean():
    report = verify_consensus_sampled(3, executions=200, seed=7)
    assert report.ok and report.executions == 200


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([WOR, WRO, OWR]))
def test_random_sigma_schedules_are_model_valid(seed, model):
    import random
    rng = random.Random(seed)
    sched = random_sigma_schedule(3, model, rng)
    order = EVENT_ORDER[model]
    pos = {}
    for i, (kind, group) in enumerate(sched.events):
        for pid in group:
            pos[(pid, kind)] = i
    for pid in (1, 2, 3):
        assert pos[(pid, order[0])] < pos[(pid, order[1])] < pos[(pid, order[2])]


def test_trace_jsonl_one_line_per_round():
    proto = protocol_consensus_wor(2)
    exe = run_execution(proto, [0, 1], [sigma_schedule([], 2, WOR)],
                        itertools.repeat(1))
    lines = exe.to_jsonl().strip().split("\n")
    assert len(lines) == 1
    import json
    row = json.loads(lines[0])
    assert row["round"] == 1 and row["schedule"] and "locals" in row


def test_collect_gamma_scales_to_n5_sampled():
    report = collect_gamma(protocol_consensus_wor(5), 5, executions=20)
    assert report.nu == {2: 4, 3: 3, 4: 2, 5: 1}
    assert report.nu_total == 10
    for m, count in report.nu.items():
        assert count > 5 - m  # strictly above the deficiency threshold


@pytest.mark.parametrize("n", [3, 5], ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("kwargs", [
    {"executions": -3}, {"executions": 0}, {"rounds": 0}, {"rounds": -1}],
    ids=["executions-3", "executions0", "rounds0", "rounds-1"])
def test_collect_gamma_refuses_what_it_cannot_honour(n, kwargs):
    ((name, value),) = kwargs.items()
    with pytest.raises(InvalidArgumentError, match=f"^{name} must be at least 1, got {value}$"):
        collect_gamma(protocol_consensus_wor(n), n, **kwargs)


def test_collect_gamma_stops_after_the_tree_that_reaches_its_cap():
    # round 2 shares an object among the processes that heard as many inputs
    # in round 1, so each sigma schedule's tree shows its own boxes
    proto = knowledge_automaton(WOR, "heard-count", lambda rnd, pid, sm, val, loc: len(loc.known),
                                decide_round=2)
    full = collect_gamma(proto, 4)
    assert (full.partial, full.executions, full.nu) == (False, 792, {2: 6, 3: 4, 4: 1})
    capped = collect_gamma(proto, 4, executions=1)
    assert (capped.partial, capped.executions, capped.nu) == (True, 102, {2: 6, 3: 3, 4: 1})
    assert capped.gamma[3] == full.gamma[3] - {frozenset({1, 2, 3})}


def test_collect_gamma_reads_no_rounds_as_the_round_budget():
    proto = protocol_consensus_wor(3)
    assert collect_gamma(proto, 3, rounds=None) == collect_gamma(proto, 3, rounds=proto.round_budget)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweeps_refuse_a_protocol_without_a_round_budget_before_any_pool(monkeypatch, jobs):
    unbounded = knowledge_automaton(WOR, "x", sel_solo)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _refuse_pool)
    monkeypatch.setattr(executor, "_usable_cpus", lambda: 2)
    message = "^protocol x has no round budget; supply one$"
    with pytest.raises(InvalidArgumentError, match=message):
        verify_consensus_exhaustive(3, proto_factory=lambda n: unbounded, jobs=jobs)
    with pytest.raises(InvalidArgumentError, match=message):
        verify_consensus_sampled(3, 10, proto_factory=lambda n: unbounded, jobs=jobs)
    with pytest.raises(InvalidArgumentError, match=message):
        collect_gamma(unbounded, 3)


# -- the memoized explorer against a plain tree walk ---------------------------


def _plain_walk(proto, inputs, scheds, on_child=lambda state: None):
    """Reference sweep without sharing: probe, then apply every assignment."""
    n, rounds = len(inputs), proto.round_budget
    valid = {freeze(i) for i in inputs}
    out = {"executions": 0, "violations": 0, "first": None}
    trail = []

    def rec(state, depth):
        if depth == rounds:
            out["executions"] += 1
            verdict = _check_decisions(state, rounds, valid)
            if not verdict.ok:
                out["violations"] += 1
                out["first"] = out["first"] or {
                    "inputs": list(inputs),
                    "trail": [{"schedule": s.to_jsonable(), "choices": list(c)}
                              for s, c in trail],
                    "violation": jsonable(verdict.first_violation)}
            return
        for sched in scheds:
            contended = [o for (o, _b, c, _f) in probe_round(state, sched, proto) if c]
            for values in itertools.product(range(1, n + 1), repeat=len(contended)):
                child = apply_round(state, sched, values,
                                    proto)
                on_child(child)
                trail.append((sched, values))
                rec(child, depth + 1)
                trail.pop()

    rec(make_initial_state(n, inputs, proto.model, proto), 0)
    return out


def _reference_report(proto, n, inputs_list, per_round_cross):
    scheds = list(enumerate_round_schedules(n, proto.model, "sigma"))
    trees = [scheds] if per_round_cross else [[s] for s in scheds]
    runs = [_plain_walk(proto, inputs, tree) for inputs in inputs_list for tree in trees]
    boxes = set()
    census = sum(_plain_walk(proto, list(range(n)), [sched],
                             lambda st: boxes.update(box for box, _out in st.box_outputs()))
                 ["executions"] for sched in scheds)
    gamma = {m: frozenset(b for b in boxes if len(b) == m) for m in {len(b) for b in boxes}}
    nu = {m: len(bs) for m, bs in gamma.items() if m >= 2}
    return SweepReport(
        n=n, mode="exhaustive", executions=sum(r["executions"] for r in runs),
        violations=sum(r["violations"] for r in runs),
        first_counterexample=next((r["first"] for r in runs if r["first"]), None),
        gamma=GammaReport(n=n, gamma=gamma, nu=nu, nu_total=sum(nu.values()),
                          executions=census, partial=False))


DEFICIENT = deficient_wor_samples(3)
SWEPT = [("consensus", protocol_consensus_wor(3), [[0, 1, 1]])] + [
    (name, proto, consensus_input_vectors(3)) for name, proto in sorted(DEFICIENT.items())]


@pytest.mark.parametrize("per_round_cross", [True, False])
@pytest.mark.parametrize("name, proto, inputs_list", SWEPT, ids=[s[0] for s in SWEPT])
def test_memoized_sweep_equals_plain_tree_walk(name, proto, inputs_list, per_round_cross):
    report = verify_consensus_exhaustive(3, proto_factory=lambda n: proto,
                                         per_round_cross=per_round_cross,
                                         inputs_list=inputs_list)
    assert report == _reference_report(proto, 3, inputs_list, per_round_cross)


def test_exhaustive_n4_per_round_cross_on_one_input_vector():
    """Every sigma schedule in each of the C(4,2) rounds, with every adversary
    output: the round memo shares the subtrees of states that differ only in
    the snapshot they carry, so this runs in about a third of a second."""
    report = verify_consensus_exhaustive(4, per_round_cross=True, inputs_list=[[0, 1, 1, 0]],
                                         jobs=1)
    assert (report.executions, report.violations, report.first_counterexample) == \
        (3_550_229_813_376, 0, None)


# -- adversary outputs by position ---------------------------------------------


def _bundled_automata(n):
    """Every bundled automaton at n, and the simulation of each WRO and OWR one."""
    protos = [resolve_protocol(name, n) for name in sample_names()]
    return protos + [transform_wro_to_owr(p) if p.model == WRO else transform_owr_to_wro(p)
                     for p in protos if p.model != WOR]


@pytest.mark.parametrize("n", [3, 4])
def test_outputs_never_change_which_instances_contend(n):
    """``successors`` hands each child its outputs by position, which is sound
    only if a round's outputs cannot change its instances: no selector reads
    an output of its own round.  On seeded states and sigma schedules, each
    sampled child resolves the same objects, with the same invokers, inputs
    and forced flags, as the all-ones child, and records the outputs given."""
    rng = random.Random(n)
    most_contended = 0
    for proto, _walk in itertools.product(_bundled_automata(n), range(4)):
        inputs = (rng.choice(all_coalitions_tuples(n)) if proto.name.startswith("2cc")
                  else [rng.randint(0, 1) for _ in range(n)])
        state = make_initial_state(n, inputs, proto.model, proto)
        for _ in range(5):
            sched = random_sigma_schedule(n, proto.model, rng)
            ones, recorded = apply_round_recorded(state, sched, itertools.repeat(1), proto)
            shape = [(obj, pairs, forced) for obj, pairs, _out, forced in ones.resolved]
            most_contended = max(most_contended, len(recorded))
            for _ in range(6):
                values = [rng.randint(1, n) for _ in recorded]
                child, choices = apply_round_recorded(state, sched, values, proto)
                assert [(obj, pairs, forced) for obj, pairs, _out, forced
                        in child.resolved] == shape, (proto.name, str(sched))
                assert [v for _rnd, _obj, v in choices] == values
            state = child
    # at n = 4 some rounds contend two objects, so the position of an output matters
    assert most_contended >= n - 2


# -- sampled sweeps against the plain per-execution loop -----------------------


def _sampled_reference(proto, n, executions, seed):
    """Reference sampled sweep: every round draws its schedule afresh."""
    rounds = proto.round_budget
    violations, first = 0, None
    for k in range(executions):
        rng = random.Random(f"{seed}:{k}")
        inputs = [rng.randint(0, 1) for _ in range(n)]
        scheds = [random_sigma_schedule(n, proto.model, rng) for _ in range(rounds)]
        adversary = random_outputs(rng.randrange(2**31), n)
        verdict = check_consensus(run_execution(proto, inputs, scheds, adversary), inputs)
        if not verdict.ok:
            violations += 1
            first = first or {"inputs": inputs, "seed": seed, "index": k,
                              "violation": jsonable(verdict.first_violation)}
    return SweepReport(n=n, mode="sampled", executions=executions,
                       violations=violations, first_counterexample=first)


@pytest.mark.parametrize("n, seed", [(5, 5), (5, 11), (6, 6), (6, 12)])
def test_sampled_sweep_equals_plain_loop(n, seed):
    report = verify_consensus_sampled(n, executions=200, seed=seed)
    assert report == _sampled_reference(protocol_consensus_wor(n), n, 200, seed)


def test_sampled_sweep_splits_equal_plain_loop_with_violations():
    reference = _sampled_reference(DEFICIENT["wor-solo-min"], 3, 60, seed=5)
    assert reference.violations > 0 and reference.first_counterexample["index"] > 0
    for jobs in (1, 2, 4):
        assert verify_consensus_sampled(3, 60, 5, partial(resolve_protocol, "wor-solo-min"),
                                        jobs=jobs) == reference


@pytest.mark.parametrize("name", ["wor-solo-min", "wor-pair12-min", "wor-altpair12-min"])
def test_exhaustive_sweep_report_does_not_depend_on_jobs(name):
    serial = verify_consensus_exhaustive(3, proto_factory=lambda n: DEFICIENT[name], jobs=1)
    assert serial.violations > 0 and serial.first_counterexample is not None
    for jobs in (2, 4):
        assert verify_consensus_exhaustive(3, proto_factory=lambda n: DEFICIENT[name],
                                           jobs=jobs) == serial


def test_fixed_schedule_trees_split_like_the_serial_sweep():
    assert verify_consensus_exhaustive(4, jobs=2) == verify_consensus_exhaustive(4, jobs=1)


class _PoolStarted(Exception):
    pass


def _refuse_pool(*args, **kwargs):
    raise _PoolStarted


@pytest.mark.parametrize("n", [2, 3])
def test_exhaustive_default_starts_no_pool_below_n4(monkeypatch, n):
    """The memoized sweeps take 2-3 ms at n = 2 and about 30 ms at n = 3
    (15 and 117 root schedules), less than a fork pool adds."""
    serial = verify_consensus_exhaustive(n, jobs=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _refuse_pool)
    monkeypatch.setattr(executor, "_usable_cpus", lambda: 2)
    report = verify_consensus_exhaustive(n)
    assert report == serial and report.jobs == 1


@pytest.mark.parametrize("kwargs", [
    {},  # 17 vectors x 75 fixed-schedule trees
    {"per_round_cross": True, "inputs_list": [[0, 1, 1, 0], [1, 0, 0, 1], [0, 0, 1, 1]]},
], ids=["fixed", "cross"])
def test_exhaustive_default_fans_out_at_n4(monkeypatch, kwargs):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _refuse_pool)
    monkeypatch.setattr(executor, "_usable_cpus", lambda: 2)
    with pytest.raises(_PoolStarted):
        verify_consensus_exhaustive(4, **kwargs)


def _broken_consensus(n):
    def step(locals_, sm, val):
        raise ProtocolInvariantError("broken step")
    return dataclasses.replace(protocol_consensus_wor(n), step=step)


@pytest.mark.parametrize("sweep", [
    lambda: verify_consensus_exhaustive(3, proto_factory=_broken_consensus, jobs=2),
    lambda: verify_consensus_sampled(3, 400, 0, proto_factory=_broken_consensus, jobs=2),
], ids=["exhaustive", "sampled"])
def test_worker_error_reraises_with_its_type_and_leaves_no_process(sweep):
    with pytest.raises(ProtocolInvariantError, match="broken step") as caught:
        sweep()
    if executor._usable_cpus() > 1:  # raised in a worker, not in this process
        assert type(caught.value.__cause__).__name__ == "_RemoteTraceback"
    assert multiprocessing.active_children() == []


def _sigma_reference(model, n, blocks):
    """The sigma schedule of ``blocks``, its model's layout spelled by hand
    and built through ``make_schedule`` outside the table."""
    full = set(range(1, n + 1))
    if model == WOR:
        return make_schedule(WOR, n, [(k, b) for b in blocks for k in "WSR"])
    layout = [(k, b) for b in blocks for k in "WR"]
    return make_schedule(model, n, layout + [("S", full)] if model == WRO
                         else [("S", full)] + layout)


@pytest.mark.parametrize("model", [WOR, WRO, OWR])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sigma_table_draws_like_random_sigma_schedule(n, model):
    plain, tabled = random.Random(n), random.Random(n)
    drawn = []
    for _ in range(500):
        want = _sigma_reference(model, n, _sigma_blocks_reference(n, plain))
        before = tabled.getstate()
        got = random_sigma_schedule(n, model, tabled)
        assert got == want and str(got) == str(want) and got.to_jsonable() == want.to_jsonable()
        assert tabled.getstate() == plain.getstate()
        tabled.setstate(before)
        assert random_sigma_schedule(n, model, tabled) is got
        drawn.append(got)
    # interned: one object per distinct (kind, ids) event across the table
    assert len({id(event) for sched in drawn for event in sched.events}) <= 3 * (2**n - 1)


def test_each_sigma_schedule_is_built_once_per_process(monkeypatch):
    """Every sigma walk shares the executor's table: each distinct
    ``(n, model, blocks)`` reaches the table's builder once, whichever verdict
    asks first, and every spelling of one schedule is the same object."""
    from itersc.connectivity import bounded_valency, lower_bound_demo, wro_obstruction_demo
    from itersc.samples import wro_obstruction_samples

    builds = []
    build = executor._build_sigma

    def counting(n, model, key):
        builds.append((model, n, key))
        return build(n, model, key)

    monkeypatch.setattr(executor, "_SIGMA", {})
    monkeypatch.setattr(executor, "_build_sigma", counting)
    solo = deficient_wor_samples()["wor-solo-min"]
    for _ in range(2):
        verify_consensus_sampled(4, 40, seed=3, jobs=1)
        collect_gamma(protocol_consensus_wor(3), 3)
        collect_gamma(protocol_consensus_wor(5), 5, executions=200)
        bounded_valency(make_initial_state(3, [0, 1, 1], WOR, solo), solo, 2)
        lower_bound_demo(solo, rounds=2)
        wro_obstruction_demo(wro_obstruction_samples()["wro-solo"], rounds=2)
    assert len(builds) == len(set(builds)) == len(executor._SIGMA)
    assert {(n, model) for model, n, _e in builds} >= {(3, WOR), (3, WRO), (4, WOR), (5, WOR)}

    full = frozenset({1, 2, 3})
    spellings = [[{2}], [frozenset({2})], ({2}, {1, 3}), [[2], [3, 1]], [set(), {2}, set()],
                 [(2,), (1, 3)]]
    for model in (WOR, WRO, OWR):
        one = sigma_schedule([{2}], 3, model)
        assert all(sigma_schedule(g, 3, model) is one for g in spellings)
        assert executor.sigma_key([{2}], 3) == ((2,), (1, 3))
        assert sigma_schedule([], 3, model) is sigma_schedule([full], 3, model) \
            is sigma_schedule([set(), full], 3, model)
    table = dict(executor._SIGMA)
    for groups in ([{1}, {1, 2}], [{0}], [{2, 4}]):  # overlapping, out of range
        with pytest.raises(InvalidScheduleError):
            sigma_schedule(groups, 3, WOR)
    with pytest.raises(InvalidScheduleError, match="empty concurrency group"):
        executor.sigma_by_key(3, WOR, ((), (1, 2, 3)))
    assert executor._SIGMA == table  # a refused key leaves no entry


@pytest.mark.parametrize("model", [WOR, WRO, OWR])
def test_sigma_table_entries_are_what_make_schedule_builds(monkeypatch, model):
    """``make_schedule`` is the table's oracle: every entry at n <= 4, and every
    key the sampled draws reach at n = 5 and 6, equals the schedule that
    ``make_schedule`` validates and builds from the entry's events."""
    monkeypatch.setattr(executor, "_SIGMA", {})
    keys = [(n, blocks) for n in (2, 3, 4)
            for blocks in ordered_set_partitions(tuple(range(1, n + 1)))]
    for n, seed in itertools.product((5, 6), (0, 1, 2)):
        rng = random.Random(seed)
        keys += [(n, executor._sigma_blocks(n, rng)) for _ in range(300)]
    for n, key in keys:
        entry = executor.sigma_by_key(n, model, key)
        assert entry == make_schedule(model, n, entry.events), (n, key)
        assert entry == _sigma_reference(model, n, key), (n, key)
    assert sum(1 for n, _m, _k in executor._SIGMA if n <= 4) == 3 + 13 + 75  # Fubini numbers


@pytest.mark.parametrize("key, message", [
    (((), (1, 2, 3)), "empty concurrency group"),
    (((1, 2), (2, 3)), "process 2 is in two blocks"),  # overlapping
    (((1, 2), (3, 4)), "process id 4 outside 1..3"),
    (((0, 1), (2, 3)), "process id 0 outside 1..3"),
    (((1,), (3,)), "process 2 is in no block"),  # missing
    (((2, 1), (3,)), r"block \(2, 1\) is not ascending"),
    ((frozenset({1, 2}), (3,)), "is not an id tuple"),
])
def test_sigma_table_refuses_keys_that_are_not_ordered_partitions(monkeypatch, key, message):
    monkeypatch.setattr(executor, "_SIGMA", {})
    for model in (WOR, WRO, OWR):
        with pytest.raises(InvalidScheduleError, match=message):
            executor.sigma_by_key(3, model, key)
    assert executor._SIGMA == {}  # a refused key leaves no entry


def _sigma_blocks_reference(n, rng):
    """The sigma draw as ``random.Random``'s own methods make it."""
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    blocks = []
    i = 0
    while i < n:
        size = rng.randint(1, n - i)
        blocks.append(tuple(sorted(ids[i:i + size])))
        i += size
    return tuple(blocks)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_sigma_blocks_draw_like_shuffle_and_randint(n):
    """The spelled-out draw reads the generator exactly as ``shuffle`` and
    ``randint`` do; a change to ``random.Random`` fails here instead of
    changing which executions a seed samples."""
    ours, theirs = random.Random(n), random.Random(n)
    for _ in range(10_000):
        assert executor._sigma_blocks(n, ours) == _sigma_blocks_reference(n, theirs)
        assert ours.getstate() == theirs.getstate()


def _gamma_reference(proto, n, rounds, executions):
    """Reference sampled Gamma census: fresh schedules, every round's boxes."""
    rng = random.Random(0)
    boxes = set()
    for _ in range(executions):
        scheds = [random_sigma_schedule(n, proto.model, rng) for _ in range(rounds)]
        adversary = random_outputs(rng.randrange(2**31), n)
        state = make_initial_state(n, list(range(n)), proto.model, proto)
        for sched in scheds:
            state = apply_round(state, sched, adversary, proto)
            boxes.update(box for box, _out in state.box_outputs())
    gamma = {m: frozenset(b for b in boxes if len(b) == m) for m in {len(b) for b in boxes}}
    nu = {m: len(bs) for m, bs in gamma.items() if m >= 2}
    return GammaReport(n=n, gamma=gamma, nu=nu, nu_total=sum(nu.values()),
                       executions=executions, partial=False)


@pytest.mark.parametrize("name, n, rounds", [
    ("consensus", 5, 10), ("consensus", 6, 15),
    ("wro-val-parity", 5, 3),  # its boxes follow the adversary outputs
])
def test_sampled_gamma_census_equals_plain_loop(name, n, rounds):
    proto = resolve_protocol(name, n)
    report = collect_gamma(proto, n, rounds, executions=100)
    assert report == _gamma_reference(proto, n, rounds, 100)


def test_sweeps_log_one_debug_line_per_tree_and_range(caplog):
    caplog.set_level(logging.DEBUG, logger="itersc")
    exhaustive = verify_consensus_exhaustive(2)
    verify_consensus_sampled(3, executions=20, seed=1)
    coalitions = verify_2cc(2)
    lines = [r.getMessage() for r in caplog.records if r.name == "itersc"]
    vectors, tuples = len(consensus_input_vectors(2)), len(all_coalitions_tuples(2))
    assert len(lines) == vectors + 1 + tuples
    trees = [re.fullmatch(r"exhaustive consensus-wor-2 inputs \[.*\] tree 1/1: "
                          r"(\d+) executions, 0 violations, [0-9.]+s", line)
             for line in lines[:vectors]]
    assert all(trees) and sum(int(m[1]) for m in trees) == exhaustive.executions
    assert re.fullmatch(r"sampled consensus-wor-3 seed 1 indices 0\.\.19: "
                        r"20 executions, 0 violations, [0-9.]+s", lines[vectors])
    items = [re.fullmatch(r"exhaustive 2cc-2 entries \(\(.*\)\) family sigma: "
                          r"(\d+) executions, 0 violations, [0-9.]+s", line)
             for line in lines[vectors + 1:]]
    assert all(items) and sum(int(m[1]) for m in items) == coalitions.executions


def _verify_2cc_reference(proto, g, domain, families):
    """The 2cc sweep as a per-tuple loop that folds each family's tree by hand."""
    scheds = {family: list(enumerate_round_schedules(g, WOR, family)) for family in families}
    total = violations = 0
    first = None
    for entries in all_coalitions_tuples(g, domain):
        allowed = {v for pair in entries for v in pair if v is not None}
        for family in families:
            count, bad, found = executor._sweep_tree(proto, entries, scheds[family], 1, allowed)
            total += count
            violations += bad
            if first is None and found is not None:
                ((sched, choices),), violation = found
                first = {"entries": jsonable(entries), "schedule": sched.to_jsonable(),
                         "choices": list(choices), "violation": violation}
    return SweepReport(n=g, mode="exhaustive", executions=total,
                       violations=violations, first_counterexample=first)


def _left_field_2cc(g):
    """A broken 2cc automaton: each process decides its own left field, which
    the last process lacks, so every execution leaves it undecided."""
    return dataclasses.replace(protocol_2cc(g), decide=lambda sm, val, loc: loc.pair[0])


@pytest.mark.parametrize("g, families, factory", [
    (2, ("sigma", "ordered-partition"), protocol_2cc),
    (3, ("sigma", "ordered-partition"), protocol_2cc),
    (4, ("sigma",), protocol_2cc),
    (2, ("ordered-partition", "sigma"), _left_field_2cc),
], ids=["g2", "g3", "g4", "g2-broken"])
def test_2cc_sweep_builds_each_family_once(monkeypatch, g, families, factory):
    reference = _verify_2cc_reference(factory(g), g, (5, 7), families)
    assert (reference.violations > 0) == (factory is _left_field_2cc)
    monkeypatch.setattr(executor, "protocol_2cc", factory)
    built = []
    enumerate_ = executor.enumerate_round_schedules

    def counting(n, model, family="sigma"):
        built.append(family)
        return enumerate_(n, model, family)

    monkeypatch.setattr(executor, "enumerate_round_schedules", counting)
    assert verify_2cc(g, families=families) == reference
    assert built == list(families)


# -- negative controls: a sweep that explores nothing cannot pass ---------------


@pytest.mark.parametrize("name, violations", [
    ("wor-solo-min", 159), ("wor-pair12-min", 259), ("wor-altpair12-min", 197)])
def test_box_deficient_automata_fail_as_consensus(name, violations):
    report = verify_consensus_exhaustive(3, proto_factory=lambda n: DEFICIENT[name])
    assert report.violations == violations
    assert report.first_counterexample["violation"][0] == "agreement"


def test_consensus_one_round_short_never_terminates():
    rounds = comb(3, 2) - 1
    report = verify_consensus_exhaustive(
        3, proto_factory=lambda n: dataclasses.replace(protocol_consensus_wor(n),
                                                       round_budget=rounds))
    assert report.executions == report.violations == 3249
    assert report.first_counterexample["violation"] == [
        "termination", 1, f"undecided at round {rounds}"]


def test_first_counterexample_replays_as_an_execution():
    proto = DEFICIENT["wor-solo-min"]
    cex = verify_consensus_exhaustive(3, proto_factory=lambda n: proto).first_counterexample
    scheds = [make_schedule(proto.model, 3, step["schedule"]) for step in cex["trail"]]
    choices = [v for step in cex["trail"] for v in step["choices"]]
    exe = run_execution(proto, cex["inputs"], scheds, choices)
    assert exe.all_choices() == choices
    verdict = check_consensus(exe, cex["inputs"])
    assert not verdict.ok
    assert jsonable(verdict.first_violation) == cex["violation"]


@pytest.mark.parametrize("model", [WOR, WRO, OWR])
@pytest.mark.parametrize("n", [2, 3])
def test_random_ordered_partition_schedules_are_family_members(n, model):
    import random
    family = set(enumerate_round_schedules(n, model, "ordered-partition"))
    rng = random.Random(n)
    draws = [random_ordered_partition_schedule(n, model, rng) for _ in range(200)]
    assert all(sched in family for sched in draws)
    assert len(set(draws)) > 1


# -- locals records ------------------------------------------------------------


def _recorded_runs():
    """name -> (automaton, inputs, sigma groups of each round, adversary seed)."""
    wro, owr = wro_transform_samples(), owr_transform_samples()
    return {
        "consensus": (protocol_consensus_wor(3), [0, 1, 1], [[{1}], [{2, 3}], []], 1),
        "2cc": (protocol_2cc(3), [(5, None), (5, 7), (None, 7)], [[{2}, {1}]], 2),
        "knowledge-wor": (deficient_wor_samples()["wor-pair12-min"], [1, 0, 1],
                          [[{3}], [{1, 2}]], 3),
        "knowledge-wro": (wro["wro-pair12-d3"], [1, 0, 2], [[{3}], [], [{1}, {2}]], 4),
        "owr-sim": (transform_wro_to_owr(wro["wro-rotating-d3"]), [2, 0, 1],
                    [[], [{2}], [{1, 3}], [{3}, {1}]], 5),
        "wro-sim": (transform_owr_to_wro(owr["owr-val-parity-d4"]), [1, 1, 0],
                    [[{1}], [], [{2}], [{3}], [{1, 2}]], 6),
    }


def _recorded_run(name):
    proto, inputs, groups, seed = _recorded_runs()[name]
    n = len(inputs)
    return run_execution(proto, inputs, [sigma_schedule(g, n, proto.model) for g in groups],
                         random_outputs(seed, n))


def test_rounds_freeze_nothing(monkeypatch):
    """Automata keep their locals as records and return immutable values,
    so the engine stores what they return without converting it."""
    def refuse(value):
        raise AssertionError(f"freeze({value!r}) called inside a round")

    monkeypatch.setattr(executor, "freeze", refuse)
    for name, (_proto, _inputs, groups, _seed) in _recorded_runs().items():
        exe = _recorded_run(name)
        assert exe.rounds == len(groups), name
        assert exe.final.all_decided(), name
        assert all(dataclasses.is_dataclass(ls.locals_) for ls in exe.final.locals_), name


# SHA-256 of (to_jsonl(), canonical JSON of final) of each recorded run: pins the
# JSON form of traces, states and locals records.  A state holds only its
# own round's snapshot and instances; traces never held either.
RECORDED_DIGESTS = {
    "consensus": ("3fc3ace026e8cac77d81a1d5ea230128af17887bfd35416d38482e2608dae073",
                  "4f7e7238cc8d754d23ba87805951594c8921e43249fa8f6007693d843d343551"),
    "2cc": ("5f3e9552ef266206437c79a40fd210c5615150ea0746a864f6349e6c36ff91e6",
            "e4e3a2f2101c940a197be3e79bb4b1045f2cdbba724a6bbffa76d0c78d8359fb"),
    "knowledge-wor": ("4e252993d1a591d086b93662a2a58bcfc7a5c48336a6877e40e386d3f11dfeb3",
                      "a191d365041b300a357f0e9810794e4efca09ebd4b378342b4d6a4ddcb637652"),
    "knowledge-wro": ("1bc8f8981c23930a8eb039f2c9dbfcd344ec99ab4a7d7accfebfefea07481e1a",
                      "ec8a542faf3748df36f77f49c05896dc80146dd8f18491745bd8d56ca0739e54"),
    "owr-sim": ("878a9a4d7f9ae8b6c7e55a7d461b1b957c7cfd798f9b0013aa46cb9d2a4fa3c8",
                "829e76e4ba37cf2450dd55d0e93d653c6905443ed835c0c14257f560543c4e4b"),
    "wro-sim": ("f4c4c1d1e8f13082c296da7ee6c797eb4e4244a96a78ac8958fe1fde4f193787",
                "5f7d47488225092140ec658e71c3e84c7d5066d723692eca2acdc3aaf4804c15"),
}


@pytest.mark.parametrize("name", sorted(RECORDED_DIGESTS))
def test_recorded_run_digests_are_stable(name):
    exe = _recorded_run(name)
    digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                    for text in (exe.to_jsonl(), canonical_json(exe.final.to_jsonable())))
    assert digests == RECORDED_DIGESTS[name]

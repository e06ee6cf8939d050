"""Coalition arithmetic, the 2coalitions subroutine, consensus, simulations."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itersc.errors import (
    DomainError,
    InvalidArgumentError,
    InvalidConfigurationError,
    ModelMismatchError,
    ProtocolInvariantError,
)
from itersc.executor import (
    apply_round,
    enumerate_round_schedules,
    make_initial_state,
    probe_round,
    random_outputs,
    random_sigma_schedule,
    run_execution,
    sigma_schedule,
    verify_2cc,
)
from itersc.model import OWR, WOR, WRO
from itersc.protocols import (
    coalition_group,
    gamma,
    protocol_2cc,
    protocol_consensus_wor,
    tup,
    transform_owr_to_wro,
    transform_wro_to_owr,
    tup,
    validate_coalitions_tuple,
)
from itersc.samples import (
    knowledge_automaton,
    owr_transform_samples,
    sel_solo,
    wro_transform_samples,
)
from itersc.values import canonical_json, digest, jsonable


def test_tup_values():
    assert tup(0, 0) == 0
    assert tup(1, 2) == 8
    assert tup(2, 3) == 18


def test_tup_rejects_negatives():
    with pytest.raises(DomainError):
        tup(-1, 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
def test_tup_injective(i, j, k, l):
    if (i, j) != (k, l):
        assert tup(i, j) != tup(k, l)


def test_tup_injective_exhaustive_small():
    seen = {}
    for i in range(0, 101):
        for j in range(0, 101):
            v = tup(i, j)
            assert v not in seen, (i, j, seen[v])
            seen[v] = (i, j)


def test_gamma_values():
    assert gamma(4, 0) == 0
    assert gamma(4, 1) == 3
    assert gamma(4, 3) == 6 == comb(4, 2)
    for n in range(2, 9):
        assert gamma(n, n - 1) == comb(n, 2)


def test_gamma_recurrence_and_domain():
    for n in range(2, 8):
        for m in range(1, n):
            assert gamma(n, m) == gamma(n, m - 1) + n - m
    with pytest.raises(DomainError):
        gamma(4, 4)
    with pytest.raises(DomainError):
        gamma(4, -1)


def test_coalition_group_values():
    assert coalition_group(4, 1) == (1, 2, 1)
    assert coalition_group(4, 4) == (1, 3, 2)
    assert coalition_group(4, 6) == (1, 4, 3)
    with pytest.raises(DomainError):
        coalition_group(4, 7)
    with pytest.raises(DomainError):
        coalition_group(4, 0)


@dataclass(frozen=True)
class Ledger:
    """The consensus protocol's per-process ledger kept incrementally, round by
    round: the reference that the closed form ``coalition_group`` and the JSON
    form of the consensus locals are checked against."""

    agreements: tuple  # sorted ((tup-index, value), ...)
    step: int = 1
    firstid: int = 1
    lastid: int = 1

    def advance(self, n: int, agreement=None) -> "Ledger":
        """End of round: store the ``(key, value)`` agreement, if any; move the window."""
        agreements = self.agreements if agreement is None else tuple(  # the new pair wins
            sorted(dict(self.agreements + (agreement,)).items()))
        fid, stp = self.firstid, self.step
        lid = fid + stp
        if lid < n:
            fid += 1
        elif fid > 1:
            fid = 1
            stp += 1
        return Ledger(agreements, stp, fid, lid)

    def to_jsonable(self) -> dict:
        return {
            "step": self.step,
            "firstid": self.firstid,
            "lastid": self.lastid,
            "agreements": {str(k): v for k, v in self.agreements},
        }


def test_coalition_group_matches_ledger_bookkeeping():
    # the closed form must agree with the incremental ledger advance
    for n in (3, 4, 5, 6):
        led = Ledger(agreements=())
        for r in range(1, comb(n, 2) + 1):
            fid, lid, step = coalition_group(n, r)
            assert (led.firstid, led.firstid + led.step, led.step) == (fid, lid, step)
            led = led.advance(n)


def _advance_reference(led, n, agreement):
    """The ledger update spelled out with a dict and the closed-form window."""
    items = dict(led.agreements)
    if agreement is not None:
        items[agreement[0]] = agreement[1]
    fid, lid, step = led.firstid, led.firstid + led.step, led.step
    if lid < n:
        fid += 1
    elif fid > 1:
        fid, step = 1, step + 1
    return Ledger(tuple(sorted(items.items())), step, fid, lid)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_ledger_advance_folds_the_agreement_in(n):
    """Every window of n: a fresh key, an overwritten key and no agreement."""
    led = Ledger(agreements=((tup(1, 1), 0), (tup(n, n), 1)))
    for r in range(1, comb(n, 2) + 1):
        fid, lid, _step = coalition_group(n, r)
        fresh = (tup(fid, lid), r % 2)
        existing = (led.agreements[r % len(led.agreements)][0], f"new-{r}")
        assert existing[0] in dict(led.agreements) and fresh[0] not in dict(led.agreements)
        for agreement in (fresh, existing, None):
            got = led.advance(n, agreement)
            assert got == _advance_reference(led, n, agreement), (n, r, agreement)
            assert list(got.agreements) == sorted(got.agreements)
        if r < comb(n, 2):
            nxt = coalition_group(n, r + 1)
            assert (got.firstid, got.step) == (nxt[0], nxt[2])
        led = led.advance(n, fresh)
    assert len(led.agreements) == 2 + comb(n, 2)  # one fresh key a round


def test_validate_coalitions_tuple():
    assert validate_coalitions_tuple([(5, None), (None, 7)])
    assert not validate_coalitions_tuple([(5, None), (6, 7)])
    assert not validate_coalitions_tuple([(5, None), (5, None)])
    assert not validate_coalitions_tuple([(None, None), (None, 7)])
    assert not validate_coalitions_tuple([])


def test_validate_coalitions_tuple_g3():
    # left-only must be unique and the right-only process must be the last
    assert validate_coalitions_tuple([(5, None), (5, 7), (None, 7)])
    assert validate_coalitions_tuple([(5, 7), (5, None), (None, 7)])
    assert not validate_coalitions_tuple([(None, 7), (5, 7), (5, None)])


def test_2cc_requires_two_processes():
    with pytest.raises(InvalidConfigurationError):
        protocol_2cc(1)


def _run_2cc(entries, groups, choice=None):
    g = len(entries)
    proto = protocol_2cc(g)
    init = make_initial_state(g, entries, WOR, proto)
    sched = sigma_schedule(groups, g, WOR)
    return apply_round(init, sched, [choice] if choice else [], proto)


def test_2cc_concurrent_adversary_two_picks_right_side():
    final = _run_2cc([(5, None), (None, 7)], (), choice=2)
    assert final.dec == (7, 7)


def test_2cc_concurrent_adversary_one_picks_left_side():
    final = _run_2cc([(5, None), (None, 7)], (), choice=1)
    assert final.dec == (5, 5)


def test_2cc_solo_first_process_decides_its_left():
    final = _run_2cc([(5, None), (None, 7)], ({1},))
    assert final.dec == (5, 5)


def test_2cc_exhaustive_g2_to_g4():
    for g in (2, 3, 4):
        report = verify_2cc(g)
        assert report.ok, report.first_counterexample
        assert report.executions > 0


def test_2cc_valid_outputs_come_from_fields():
    report = verify_2cc(3, domain=(11, 22))
    assert report.ok


@pytest.mark.parametrize("domain", [(5, 5), (5, 7, 5)], ids=["5,5", "5,7,5"])
def test_2cc_refuses_a_domain_that_repeats_a_value(domain):
    """A repeated value only re-runs identical coalitions tuples."""
    with pytest.raises(InvalidArgumentError) as info:
        verify_2cc(3, domain)
    assert str(info.value) == f"value domain {list(domain)} repeats a value"


def test_2cc_refuses_an_empty_domain():
    """An empty domain has no coalitions tuple, so no execution to check."""
    with pytest.raises(InvalidArgumentError) as info:
        verify_2cc(2, ())
    assert str(info.value) == "value domain is empty"


def test_consensus_n2_all_adversary_choices():
    proto = protocol_consensus_wor(2)
    for sched in enumerate_round_schedules(2, WOR, "sigma"):
        init = make_initial_state(2, [0, 1], WOR, proto)
        contended = [o for (o, _b, c, _f) in probe_round(init, sched, proto) if c]
        for values in itertools.product((1, 2), repeat=len(contended)):
            final = apply_round(init, sched, values, proto)
            decs = set(final.dec)
            assert len(decs) == 1 and decs <= {0, 1}


def test_consensus_rejects_single_process():
    with pytest.raises(InvalidConfigurationError):
        protocol_consensus_wor(1)


def test_consensus_object_usage_n4():
    from itersc.executor import collect_gamma
    report = collect_gamma(protocol_consensus_wor(4), 4)
    assert report.gamma[2] == {frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4})}
    assert report.gamma[3] == {frozenset({1, 2, 3}), frozenset({2, 3, 4})}
    assert report.gamma[4] == {frozenset({1, 2, 3, 4})}
    assert report.nu_total == comb(4, 2)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_consensus_coalition_ledger_soundness(n):
    # after round gamma(n, m) every process sits in some span-m coalition
    proto = protocol_consensus_wor(n)
    inputs = [10 + i for i in range(n)]
    state = make_initial_state(n, inputs, WOR, proto)
    sched = sigma_schedule((), n, WOR)
    for r in range(1, comb(n, 2) + 1):
        state = apply_round(state, sched, itertools.repeat(2), proto)
        for m in range(1, n):
            if r != gamma(n, m):
                continue
            for pid in range(1, n + 1):
                led = dict(state.loc[pid - 1].agreements)
                memberships = [
                    (i, led.get(tup(i, i + m)))
                    for i in range(1, n - m + 1)
                    if i <= pid <= i + m and led.get(tup(i, i + m)) is not None
                ]
                assert memberships, (r, m, pid)
                for i, v in memberships:
                    assert v in inputs
                    # every group member agrees on the coalition name
                    for q in range(i, i + m + 1):
                        got = dict(state.loc[q - 1].agreements).get(tup(i, i + m))
                        assert got is None or got == v


def _ledger_step_reference(led, pid, n, sm, val):
    """One consensus round on a stored ledger: a member of the window adopts the
    lowest non-bottom field of its side, and ``Ledger.advance`` folds it in."""
    fid, lid = led.firstid, led.firstid + led.step
    agreement = None
    if fid <= pid <= lid:
        side = 1 if val == lid else 0
        fields = [cell[side] for cell in sm[fid - 1:lid]
                  if isinstance(cell, tuple) and len(cell) == 2 and cell[side] is not None]
        agreement = (tup(fid, lid), fields[0])
    return led.advance(n, agreement)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_consensus_locals_show_the_stored_ledger(n):
    """The agreements and the JSON form of the consensus locals equal a ledger
    advanced round by round, also past the round budget."""
    proto = protocol_consensus_wor(n)
    rng = random.Random(n)
    inputs = [rng.randint(0, 1) for _ in range(n)]
    state = make_initial_state(n, inputs, WOR, proto)
    ledgers = [Ledger(agreements=((tup(pid, pid), inp),))
               for pid, inp in enumerate(inputs, start=1)]
    adversary = random_outputs(n, n)
    for r in range(1, proto.round_budget + 4):
        state = apply_round(state, random_sigma_schedule(n, WOR, rng), adversary, proto)
        ledgers = [_ledger_step_reference(led, pid, n, sm, val)
                   for pid, (led, sm, val) in enumerate(zip(ledgers, state.sm, state.val), start=1)]
        for pid, (led, loc) in enumerate(zip(ledgers, state.loc), start=1):
            assert loc.agreements == led.agreements, (r, pid)
            want = {"id": pid, "r": r, "ledger": jsonable(led)}
            assert jsonable(loc) == want
            assert canonical_json(loc) == canonical_json(want)


def test_consensus_locals_keep_a_none_input_apart_from_an_unset_slot():
    """A ``None`` input is stored like any other value: the JSON form and the
    digest of each consensus locals equal the sparse ledger's, which holds
    ``None`` under the input's key and nothing under an unset one, in every
    round and past the budget.  The group's object outputs its last id every
    round, so no member is left with only the ``None`` field to adopt."""
    n, inputs = 3, [None, 0, 1]
    proto = protocol_consensus_wor(n)
    state = make_initial_state(n, inputs, WOR, proto)
    ledgers = [Ledger(agreements=((tup(pid, pid), inp),))
               for pid, inp in enumerate(inputs, start=1)]
    sched = sigma_schedule((), n, WOR)
    for r in range(proto.round_budget + 4):
        if r:
            lastid = coalition_group(n, min(r, proto.round_budget))[1]
            state = apply_round(state, sched, itertools.repeat(lastid), proto)
            ledgers = [_ledger_step_reference(led, pid, n, sm, val)
                       for pid, (led, sm, val) in enumerate(zip(ledgers, state.sm, state.val), start=1)]
        for pid, (led, loc) in enumerate(zip(ledgers, state.loc), start=1):
            want = {"id": pid, "r": r, "ledger": jsonable(led)}
            assert canonical_json(loc) == canonical_json(want), (r, pid)
            assert digest(loc) == digest(want), (r, pid)
            assert loc.agreements == led.agreements
        first = jsonable(state.loc[0])["ledger"]["agreements"]
        assert first[str(tup(1, 1))] is None  # stored, not dropped as unset
        assert str(tup(1, 1)) not in jsonable(state.loc[1])["ledger"]["agreements"]


def test_consensus_refuses_to_run_on_a_none_input_its_side_must_adopt():
    """Inputs must not be bottom: a written field spells a missing agreement
    as None, so when the ``None`` holder's field is the only one its side
    can adopt, the group finds no candidate."""
    proto = protocol_consensus_wor(3)
    with pytest.raises(ProtocolInvariantError) as caught:
        run_execution(proto, [None, 0, 1], [sigma_schedule([{1}], 3)], itertools.repeat(1))
    assert str(caught.value) == "no candidate field on side 0 for group 1..2"

def test_consensus_full_run_decides_common_input():
    # three fully concurrent rounds, every adversary script
    proto = protocol_consensus_wor(3)
    sched = sigma_schedule((), 3, WOR)
    init = make_initial_state(3, [0, 1, 1], WOR, proto)

    def explore(state, depth):
        if depth == 3:
            decs = set(state.dec)
            assert len(decs) == 1 and decs <= {0, 1}
            return
        contended = [o for (o, _b, c, _f) in probe_round(state, sched, proto) if c]
        for values in itertools.product((1, 2, 3), repeat=len(contended)):
            explore(apply_round(state, sched, values, proto), depth + 1)

    explore(init, 0)


# -- simulations -------------------------------------------------------------


def test_transform_rejects_wrong_model():
    wor = protocol_consensus_wor(2)
    with pytest.raises(ModelMismatchError):
        transform_wro_to_owr(wor)
    owr = owr_transform_samples()["owr-solo-d2"]
    with pytest.raises(ModelMismatchError):
        transform_owr_to_wro(transform_owr_to_wro(owr) if False else wor)


def test_wro_simulation_discards_round_one_value():
    proto = wro_transform_samples()["wro-share-d2"]
    sim = transform_wro_to_owr(proto)
    init = make_initial_state(3, [0, 1, 1], OWR, sim)
    s1 = apply_round(init, sigma_schedule((), 3, OWR), itertools.repeat(2), sim)
    assert s1.val == (None, None, None)
    assert s1.dec == (None, None, None)


def test_owr_simulation_resets_round_one_snapshot():
    proto = owr_transform_samples()["owr-solo-d2"]
    sim = transform_owr_to_wro(proto)
    init = make_initial_state(3, [4, 5, 6], WRO, sim)
    s1 = apply_round(init, sigma_schedule((), 3, WRO), itertools.repeat(2), sim)
    assert s1.sm == (4, 5, 6)


def test_constant_decider_shifts_by_one_round():
    import dataclasses
    # a WRO automaton whose delta returns the process's input at round 1
    proto = dataclasses.replace(
        knowledge_automaton(WRO, "const", sel_solo, decide_round=1),
        decide=lambda sm, val, loc: loc.known[0])
    sim = transform_wro_to_owr(proto)
    from itersc.equivalence import simulate_paired
    import random
    rng = random.Random(0)
    from itersc.executor import random_ordered_partition_schedule
    scheds = [random_ordered_partition_schedule(3, WRO, rng) for _ in range(2)]
    src, simexe = simulate_paired(proto, [7, 8, 9], scheds, random_outputs(1, 3))
    src_dec = src.decision_rounds()
    sim_dec = simexe.decision_rounds()
    for pid in (1, 2, 3):
        assert src_dec[pid][0] == 1
        assert sim_dec[pid][0] == 2
        assert src_dec[pid][1] == sim_dec[pid][1]


def test_double_transform_shifts_by_two_rounds():
    proto = owr_transform_samples()["owr-solo-d2"]
    double = transform_wro_to_owr(transform_owr_to_wro(proto))
    assert double.model == OWR
    from itersc.equivalence import check_transform_correspondence
    inner = check_transform_correspondence(proto, 3, executions=25, seed=3)
    assert inner.ok
    outer = check_transform_correspondence(transform_owr_to_wro(proto), 3,
                                           executions=25, seed=4)
    assert outer.ok


def test_never_deciding_protocol_stays_undecided_through_simulation():
    proto = knowledge_automaton(WRO, "never", sel_solo)  # no decide round
    from itersc.equivalence import simulate_paired
    from itersc.executor import random_ordered_partition_schedule
    import random
    rng = random.Random(5)
    scheds = [random_ordered_partition_schedule(3, WRO, rng) for _ in range(3)]
    src, sim = simulate_paired(proto, [0, 1, 0], scheds, random_outputs(2, 3))
    assert not src.decision_rounds()
    assert not sim.decision_rounds()


def test_budget_is_the_round_budget_or_a_refusal():
    assert protocol_consensus_wor(4).budget() == protocol_consensus_wor(4).round_budget == 6
    deciding = knowledge_automaton(WRO, "d2", sel_solo, decide_round=2)
    assert transform_wro_to_owr(deciding).budget() == 3
    unbounded = knowledge_automaton(WRO, "never", sel_solo)
    for proto, name in ((unbounded, "never"), (transform_wro_to_owr(unbounded), r"owr-sim\[never\]")):
        with pytest.raises(InvalidArgumentError,
                           match=f"^protocol {name} has no round budget; supply one$"):
            proto.budget()

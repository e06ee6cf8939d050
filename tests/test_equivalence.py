"""Schedule correspondence and decision shift for the model simulations."""

from __future__ import annotations

import random

import pytest

from itersc import equivalence
from itersc.equivalence import (
    check_transform_correspondence,
    decisions_shifted_by_one,
    simulate_paired,
    simulating_schedules,
)
from itersc.errors import InvalidArgumentError, ModelMismatchError
from itersc.executor import (
    random_ordered_partition_schedule,
    random_outputs,
    sigma_schedule,
)
from itersc.model import OWR, WOR, WRO
from itersc.samples import (
    deficient_wor_samples,
    owr_transform_samples,
    wro_obstruction_samples,
    wro_transform_samples,
)


def test_wro_to_owr_schedule_shapes():
    scheds = [sigma_schedule(({1},), 3, WRO), sigma_schedule((), 3, WRO)]
    out = simulating_schedules(WRO, scheds, 3)
    assert len(out) == len(scheds) + 1
    for s in out:
        assert s.model == OWR
        pos = {}
        for i, (kind, group) in enumerate(s.events):
            for pid in group:
                pos[(pid, kind)] = i
        for pid in (1, 2, 3):
            w, s_, r = (pos[(pid, k)] for k in ("W", "S", "R"))
            assert s_ < w < r
    # round 2 starts with round 1's invoke groups
    assert out[1].events[0] == scheds[0].events[-1]


def test_owr_to_wro_schedule_shapes():
    scheds = [sigma_schedule(({2},), 3, OWR), sigma_schedule((), 3, OWR)]
    out = simulating_schedules(OWR, scheds, 3)
    assert len(out) == len(scheds) + 1
    for s in out:
        assert s.model == WRO
    # the first simulation round ends with the source's round-1 invoke
    assert out[0].events[-1] == scheds[0].events[0]


def test_schedule_mapping_rejects_wrong_model():
    with pytest.raises(ModelMismatchError):
        simulating_schedules(WRO, [sigma_schedule((), 3, OWR)], 3)
    with pytest.raises(ModelMismatchError):
        simulating_schedules(OWR, [sigma_schedule((), 3, WRO)], 3)
    with pytest.raises(ModelMismatchError, match="no simulation for model WOR"):
        simulating_schedules(WOR, [sigma_schedule((), 3, WOR)], 3)


def test_paired_simulation_shifts_decisions_wro():
    proto = wro_transform_samples()["wro-pair12-d3"]
    rng = random.Random(11)
    scheds = [random_ordered_partition_schedule(3, WRO, rng) for _ in range(4)]
    src, sim = simulate_paired(proto, [0, 1, 0], scheds, random_outputs(5, 3))
    assert decisions_shifted_by_one(src, sim) is None
    assert src.decision_rounds() and sim.decision_rounds()


def test_paired_simulation_shifts_decisions_owr():
    proto = owr_transform_samples()["owr-rotating-d3"]
    rng = random.Random(12)
    scheds = [random_ordered_partition_schedule(3, OWR, rng) for _ in range(4)]
    src, sim = simulate_paired(proto, [1, 0, 1], scheds, random_outputs(6, 3))
    assert decisions_shifted_by_one(src, sim) is None


@pytest.mark.parametrize("name", sorted(wro_transform_samples()))
def test_wro_simulation_replays_the_source_choices_after_its_padding_round(name):
    """The padding round takes a 1 for each of its contended objects, and
    the later rounds take the source's choices, instance for instance."""
    proto = wro_transform_samples()[name]
    rng = random.Random(name)
    for k in range(30):
        scheds = [random_ordered_partition_schedule(3, WRO, rng) for _ in range(3)]
        src, sim = simulate_paired(proto, [rng.randint(0, 1) for _ in range(3)], scheds,
                                   random_outputs(k, 3))
        padding = sim.steps[0]
        assert [v for _r, _o, v in padding.choices] == [1] * sum(
            not forced for *_, forced in padding.state.resolved)
        assert [v for step in sim.steps[1:] for _r, _o, v in step.choices] == src.all_choices()


def test_correspondence_sweep_small():
    for proto in wro_transform_samples().values():
        assert check_transform_correspondence(proto, 3, executions=40, seed=1).ok
    for proto in owr_transform_samples().values():
        assert check_transform_correspondence(proto, 3, executions=40, seed=2).ok


def test_correspondence_refuses_a_negative_count():
    proto = wro_transform_samples()["wro-solo-d2"]
    with pytest.raises(InvalidArgumentError, match="at least 0, got -1"):
        check_transform_correspondence(proto, 3, executions=-1)
    assert check_transform_correspondence(proto, 3, executions=0).executions == 0


@pytest.mark.parametrize("source, simulation", [
    (wro_transform_samples()["wro-solo-d2"], "OWR simulation"),
    (owr_transform_samples()["owr-solo-d2"], "WRO simulation"),
], ids=["wro", "owr"])
def test_correspondence_names_the_simulation_without_runs(source, simulation):
    # the source's model fixes the simulation's, so no run is needed to name it
    report = check_transform_correspondence(source, 3, executions=0)
    assert report.simulation == simulation and report.ok


def test_correspondence_refuses_a_wor_source_without_runs():
    with pytest.raises(ModelMismatchError, match="no simulation for model WOR"):
        check_transform_correspondence(deficient_wor_samples()["wor-solo-min"], 3, executions=0)


@pytest.mark.parametrize("executions", [0, 50])
def test_correspondence_refuses_a_source_without_a_round_budget_before_any_run(
        monkeypatch, executions):
    # a source without a budget need never decide (no bundled one does in 4
    # rounds), so a correspondence over its runs could compare no decision
    def no_run(*args):
        raise AssertionError("a paired run started")

    monkeypatch.setattr(equivalence, "simulate_paired", no_run)
    with pytest.raises(InvalidArgumentError,
                       match="^protocol wro-solo has no round budget; supply one$"):
        check_transform_correspondence(wro_obstruction_samples()["wro-solo"], 3, executions)


def test_correspondence_detects_a_broken_simulation():
    import dataclasses
    from itersc.protocols import transform_wro_to_owr
    proto = wro_transform_samples()["wro-solo-d2"]
    good = transform_wro_to_owr(proto)

    # sabotage: a simulation that decides one round early must show up
    import itersc.equivalence as eq
    sim = dataclasses.replace(good, decide=lambda sm, val, loc: 0)
    src_sim = eq.simulate_paired
    rng = random.Random(3)
    scheds = [random_ordered_partition_schedule(3, WRO, rng) for _ in range(3)]
    src = __import__("itersc.executor", fromlist=["x"]).run_execution(
        proto, [0, 0, 0], scheds, random_outputs(1, 3))
    bad_exe = __import__("itersc.executor", fromlist=["x"]).run_execution(
        sim, [0, 0, 0], simulating_schedules(WRO, scheds, 3),
        random_outputs(1, 3))
    assert decisions_shifted_by_one(src, bad_exe) is not None

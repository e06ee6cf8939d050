"""Serialization surfaces: path exports, traces, parallel sweep merging."""

from __future__ import annotations

import json

from itersc.connectivity import connect_partition_round
from itersc.executor import FixedAdversary, run_execution, sigma_schedule
from itersc.model import WOR, make_initial_state
from itersc.protocols import protocol_consensus_wor
from itersc.samples import deficient_wor_samples


def _bridge_path():
    proto = deficient_wor_samples()["wor-pair12-min"]
    s = make_initial_state(3, [0, 1, 0], WOR, proto)
    return connect_partition_round(s, {1, 2}, {3}, proto)


def test_path_jsonable_digests_and_labels():
    p = _bridge_path()
    data = p.to_jsonable()
    assert len(data["states"]) == 3
    assert data["labels"] == [[3], [1, 2]]
    assert data["degree"] == 1
    json.dumps(data)  # round-trips through the encoder


def test_path_dot_export():
    dot = _bridge_path().to_dot("bridge")
    assert dot.startswith('graph "bridge"')
    assert dot.count(" -- ") == 2
    assert "{3}" in dot


def test_trace_jsonl_replays_via_script_file(tmp_path):
    proto = protocol_consensus_wor(2)
    sched = sigma_schedule([], 2, WOR)
    exe = run_execution(proto, [0, 1], [sched], FixedAdversary(2))
    script = tmp_path / "choices.json"
    script.write_text(json.dumps(exe.all_choices()))
    from itersc.executor import ScriptedAdversary
    adv = ScriptedAdversary.from_json(script.read_text())
    again = run_execution(proto, [0, 1], [sched], adv)
    assert again.final == exe.final


def test_parallel_sampled_sweep_matches_serial_counts():
    from itersc.cli import _sampled_sweep
    serial = _sampled_sweep(3, 60, seed=5, jobs=1, protocol="wor-solo-min")
    assert serial.violations > 0 and serial.first_counterexample["index"] > 0
    for jobs in (2, 4):  # with 4 chunks the first counterexample lies past the first
        assert _sampled_sweep(3, 60, seed=5, jobs=jobs, protocol="wor-solo-min") == serial


def test_path_concat_and_label_count_validation():
    import pytest
    from itersc.connectivity import Path
    from itersc.errors import ConstructionError, InvalidArgumentError
    p = _bridge_path()
    left = Path(states=p.states[:2], labels=p.labels[:1])
    right = Path(states=p.states[1:], labels=p.labels[1:])
    glued = left.concat(right)
    assert glued.states == p.states and glued.labels == p.labels
    with pytest.raises(ConstructionError):
        right.concat(left)
    with pytest.raises(InvalidArgumentError):
        Path(states=p.states, labels=p.labels[:1])

"""Serialization surfaces: path exports, traces, parallel sweep merging."""

from __future__ import annotations

import json
from functools import partial

from itersc.connectivity import connect_partition_round
from itersc.executor import (
    run_execution,
    sigma_schedule,
    verify_consensus_sampled,
)
from itersc.model import WOR, make_initial_state
from itersc.protocols import protocol_consensus_wor
from itersc.samples import deficient_wor_samples, resolve_protocol


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


def test_trace_jsonl_replays_via_script_file(tmp_path):
    proto = protocol_consensus_wor(2)
    sched = sigma_schedule([], 2, WOR)
    exe = run_execution(proto, [0, 1], [sched], [2])
    script = tmp_path / "choices.json"
    script.write_text(json.dumps(exe.all_choices()))
    again = run_execution(proto, [0, 1], [sched], json.loads(script.read_text()))
    assert again.final == exe.final


def test_parallel_sampled_sweep_matches_serial_counts():
    factory = partial(resolve_protocol, "wor-solo-min")
    serial = verify_consensus_sampled(3, 60, seed=5, proto_factory=factory, jobs=1)
    assert serial.violations > 0 and serial.first_counterexample["index"] > 0
    for jobs in (2, 4):  # with 4 chunks the first counterexample lies past the first
        assert verify_consensus_sampled(3, 60, seed=5, proto_factory=factory,
                                        jobs=jobs) == serial


def test_path_concat_and_label_count_validation():
    import pytest
    from itersc.connectivity import Path
    from itersc.errors import InvalidArgumentError
    p = _bridge_path()
    with pytest.raises(InvalidArgumentError):
        Path(states=p.states, labels=p.labels[:1])

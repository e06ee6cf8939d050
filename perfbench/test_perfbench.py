"""The benchmark's own tests: its verdict gate can fail, and the tracer
attributes and restores what it patches."""

from __future__ import annotations

from itersc import connectivity, executor
from itersc.executor import verify_consensus_exhaustive, verify_consensus_sampled
from itersc.model import make_initial_state
from itersc.protocols import protocol_consensus_wor
from itersc.samples import deficient_wor_samples

from tracer import Tracer
from workloads import check_exhaustive_n3, check_lower_bound


def test_negative_control_is_flagged():
    """wor-solo-min is short on shared objects, so sweeping it as the
    consensus protocol must report agreement violations."""
    report = verify_consensus_exhaustive(
        3, proto_factory=lambda n: deficient_wor_samples(n)["wor-solo-min"])
    assert report.violations == 159
    problems = check_exhaustive_n3(report)
    assert "159 violations" in problems
    assert any(p.startswith("counterexample") for p in problems)


def test_lower_bound_check_flags_swapped_valency():
    report = {"protocol": "wor-solo-min", "ok": True, "rounds": 7,
              "valency": {"all-0": "1-valent", "all-1": "0-valent"},
              "endpoint_decisions": {"first": {"1": 0, "2": 0, "3": 0},
                                     "last": {"1": 1, "2": 1, "3": 1}},
              "partition_rounds": [{"round": r, "degree": 1, "verified": True}
                                   for r in range(1, 8)],
              "no3box_rounds": [{"round": r, "degree": 1, "verified": True}
                                for r in range(1, 8)]}
    assert check_lower_bound(report, "wor-solo-min") == [
        "valency {'all-0': '1-valent', 'all-1': '0-valent'}"]


def test_tracer_attributes_spans_and_restores():
    originals = (executor.apply_round_recorded, connectivity.probe_round,
                 connectivity.Path.verify)
    tracer = Tracer()
    proto = protocol_consensus_wor(3)
    with tracer.installed():
        report = verify_consensus_sampled(
            3, executions=5, seed=0, proto_factory=lambda n: tracer.wrap_proto(proto))
        connectivity.successor_boxes(make_initial_state(3, [0, 1, 1], proto.model, proto),
                                     tracer.wrap_proto(proto))
    assert report.ok
    assert (executor.apply_round_recorded, connectivity.probe_round,
            connectivity.Path.verify) == originals
    layers = tracer.layer_metrics()
    # 5 executions of C(3,2) rounds, plus the one round probed by successor_boxes
    assert layers["executor.round.calls"] == 5 * 3 + 1
    assert layers["executor.probe.calls"] == 1
    assert layers["connectivity.successor_boxes.calls"] == 1
    assert layers["values.freeze.calls"] > 0 and layers["protocols.callback.calls"] > 0
    # self times are disjoint slices of the traced time
    total_self = sum(rec[2] for rec in tracer.totals.values())
    top_level = sum(rec[1] for (parent, _n), rec in tracer.totals.items() if parent is None)
    assert total_self > 0 and abs(total_self - top_level) < 1e-6

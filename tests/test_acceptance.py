"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criterion 1, which holds the heavy sweeps (exhaustive n=4, randomized
n=5/6), takes about 5 s on 2 cores, and the whole file about 12 s.
"""

from __future__ import annotations

import itertools
import random
import time
from math import comb

from itersc.connectivity import (
    lower_bound_demo,
    wro_obstruction_demo,
)
from itersc.equivalence import check_transform_correspondence
from itersc.executor import (
    random_outputs,
    random_sigma_schedule,
    replay_execution,
    run_execution,
    verify_2cc,
    verify_consensus_exhaustive,
    verify_consensus_sampled,
)
from itersc.johnson import (
    check_partition,
    partition_two_blocks,
    verify_zeta_vanishing,
    vertex_set,
)
from itersc.protocols import protocol_consensus_wor
from itersc.samples import (
    deficient_wor_samples,
    owr_transform_samples,
    wro_obstruction_samples,
    wro_transform_samples,
)


def _verdict(criterion: str, ok: bool, detail: str, t0: float) -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {mark} ({detail}, {time.time() - t0:.1f}s)")


def test_criterion_1_upper_bound():
    """Exhaustive small-n sweeps plus randomized n=5,6; object counts."""
    t0 = time.time()
    details = []
    for n in (2, 3, 4):
        report = verify_consensus_exhaustive(n)
        assert report.ok, report.first_counterexample
        assert report.gamma.nu_total == comb(n, 2)
        for m in range(2, n + 1):
            assert report.gamma.nu[m] == n - m + 1
        details.append(f"n={n}:{report.executions}x")
    for n in (5, 6):
        report = verify_consensus_sampled(n, executions=10000, seed=n)
        assert report.ok, report.first_counterexample
        assert report.executions >= 10**4
        details.append(f"n={n}:{report.executions}x")
    _verdict("1 upper bound", True, " ".join(details), t0)


def test_criterion_2_coalitions_consensus():
    """Every valid coalitions tuple over {5,7}, exhaustive schedules/adversary."""
    t0 = time.time()
    total = 0
    for g in (2, 3, 4):
        families = ("sigma", "ordered-partition") if g <= 3 else ("sigma",)
        report = verify_2cc(g, domain=(5, 7), families=families)
        assert report.ok, report.first_counterexample
        total += report.executions
    _verdict("2 coalitions consensus", True, f"{total} executions, 0 violations", t0)


def test_criterion_3_lower_bound_instances():
    """Three box-deficient automata: connected successors for C(3,2)+2 rounds
    while the endpoints stay univalent for opposite values."""
    t0 = time.time()
    rounds = comb(3, 2) + 2
    names = []
    for name, proto in deficient_wor_samples().items():
        t1 = time.time()
        report = lower_bound_demo(proto, rounds=rounds)
        assert report["ok"], (name, report)
        assert report["valency"] == {"all-0": "0-valent", "all-1": "1-valent"}
        assert len(report["partition_rounds"]) == rounds
        assert len(report["no3box_rounds"]) == rounds
        assert all(r["verified"] for r in report["partition_rounds"])
        assert all(r["verified"] for r in report["no3box_rounds"])
        assert time.time() - t1 < 120, "per-automaton budget exceeded"
        names.append(name)
    _verdict("3 lower-bound instances", True,
             f"{len(names)} automata x {rounds} rounds", t0)


def test_criterion_4_johnson_combinatorics():
    """Vanishing exhaustively for n<=6; two-block partitions for n<=7."""
    t0 = time.time()
    checked = 0
    for n in range(2, 7):
        for m in range(2, n + 1):
            report = verify_zeta_vanishing(n, m, mode="exhaustive")
            assert report.ok, (n, m, report.counterexamples)
            checked += report.checked
    partitions = 0
    for n in range(2, 8):
        vs = list(itertools.combinations(range(1, n + 1), 2))
        for k in range(0, n - 1):
            for combo in itertools.combinations(vs, k):
                u = vertex_set(n, 2, combo)
                a, b = partition_two_blocks(u)
                assert check_partition(u, a, b), (n, combo)
                partitions += 1
    _verdict("4 johnson combinatorics", True,
             f"{checked} vanishing cases, {partitions} partitions", t0)


def test_criterion_5_wro_obstruction():
    """Ten WRO automata sustain B-regular degree-2 paths for 5 rounds."""
    t0 = time.time()
    samples = wro_obstruction_samples(3)
    assert len(samples) == 10
    for name, proto in samples.items():
        report = wro_obstruction_demo(proto, n=3, rounds=5)
        assert report["ok"], (name, report)
        for row in report["per_round"]:
            assert row["degree"] >= 2 and row["b_regular"] and row["labels_verified"]
    _verdict("5 wro obstruction", True, f"{len(samples)} automata x 5 rounds", t0)


def test_criterion_6_model_equivalence():
    """Simulations reproduce decisions with a +1 round shift, 10^3 runs each."""
    t0 = time.time()
    total = 0
    for name, proto in {**wro_transform_samples(3), **owr_transform_samples(3)}.items():
        report = check_transform_correspondence(proto, 3, executions=1000, seed=42)
        assert report.ok, (name, report.first_mismatch)
        total += report.executions
    _verdict("6 model equivalence", True, f"{total} paired executions, 0 mismatches", t0)


def test_criterion_7_property_suites_and_determinism():
    """Replays of 100 recorded executions are byte-identical.

    The module-level invariant suites live in the other test files; running
    the whole directory covers them.
    """
    t0 = time.time()
    rng = random.Random(2024)
    protos = [(protocol_consensus_wor(3), 3), (protocol_consensus_wor(4), 4),
              (deficient_wor_samples()["wor-altpair12-min"], 3),
              (wro_transform_samples()["wro-rotating-d3"], 3),
              (owr_transform_samples()["owr-val-parity-d4"], 3)]
    replays = 0
    for k in range(100):
        proto, n = protos[k % len(protos)]
        rounds = proto.round_budget or 3
        inputs = [rng.randint(0, 1) for _ in range(n)]
        scheds = [random_sigma_schedule(n, proto.model, rng) for _ in range(rounds)]
        exe = run_execution(proto, inputs, scheds,
                            random_outputs(rng.randrange(2**31), n))
        again = replay_execution(proto, inputs, exe)
        assert exe.to_jsonl() == again.to_jsonl()
        assert exe.final == again.final
        replays += 1
    _verdict("7 property suites", True, f"{replays} byte-identical replays", t0)

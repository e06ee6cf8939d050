"""The benchmark's workloads and their verdict checks.

Each workload is one pass of verdict calls into the public ``itersc`` API:
``sweeps`` runs the exhaustive n=3 and the sampled n=6 consensus sweeps,
``paths`` the WRO obstruction and the lower-bound path constructions.
The seed only orders or seeds those calls; the program sees nothing else.
Every check returns a list of problems, empty when the verdict is right.
Path state counts are deliberately not pinned: loop erasure on the paths
must stay legal, so they are reported as per-layer metrics only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from itersc.connectivity import lower_bound_demo, wro_obstruction_demo
from itersc.executor import (
    consensus_input_vectors,
    verify_consensus_exhaustive,
    verify_consensus_sampled,
)
from itersc.protocols import protocol_consensus_wor
from itersc.samples import deficient_wor_samples, wro_obstruction_samples

EXHAUSTIVE_N = 3
EXHAUSTIVE_EXECUTIONS = 68229  # every sigma schedule per round x every adversary output
EXHAUSTIVE_NU = {2: 2, 3: 1}  # C(3,2) shared objects: two 2-boxes, one 3-box
SAMPLED_N = 6
SAMPLED_EXECUTIONS = 3000
WRO_N = 3
WRO_ROUNDS = 5
LOWER_BOUND_ROUNDS = 7  # acceptance uses 5, which is too short to time


@dataclass(frozen=True)
class Call:
    """One verdict call: ``run()`` returns the report that ``check`` judges
    and ``units`` counts (executions, or automaton-rounds for the paths)."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    units: Callable[[object], int]


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    build: Callable[[], object]  # the automata a CLI command builds
    calls: Callable[[random.Random, Callable], list]  # (rng, wrap_proto) -> [Call]


# -- checks ---------------------------------------------------------------


def check_exhaustive_n3(report) -> list:
    problems = []
    if report.executions != EXHAUSTIVE_EXECUTIONS:
        problems.append(f"executions {report.executions} != {EXHAUSTIVE_EXECUTIONS}")
    if report.violations != 0:
        problems.append(f"{report.violations} violations")
    if report.first_counterexample is not None:
        problems.append(f"counterexample {report.first_counterexample}")
    nu = report.gamma.nu if report.gamma is not None else None
    if nu != EXHAUSTIVE_NU:
        problems.append(f"nu {nu} != {EXHAUSTIVE_NU}")
    return problems


def check_sampled(report, executions: int) -> list:
    problems = []
    if report.executions != executions:
        problems.append(f"executions {report.executions} != {executions}")
    if report.violations != 0:
        problems.append(f"{report.violations} violations")
    return problems


def check_wro(report, name: str, n: int = WRO_N, rounds: int = WRO_ROUNDS) -> list:
    problems = []
    if report["protocol"] != name:
        problems.append(f"report for {report['protocol']!r}, expected {name!r}")
    if not report["ok"]:
        problems.append("not ok")
    if len(report["per_round"]) != rounds:
        problems.append(f"{len(report['per_round'])} rounds reported, expected {rounds}")
    for r in report["per_round"]:
        if r["degree"] is None or r["degree"] < n - 1:
            problems.append(f"round {r['round']}: degree {r['degree']} < {n - 1}")
        if r["b_regular"] is not True:
            problems.append(f"round {r['round']}: not B-regular")
        if r["labels_verified"] is not True:
            problems.append(f"round {r['round']}: labels not verified")
    return problems


def check_lower_bound(report, name: str, rounds: int = LOWER_BOUND_ROUNDS) -> list:
    problems = []
    if report["protocol"] != name:
        problems.append(f"report for {report['protocol']!r}, expected {name!r}")
    if not report["ok"]:
        problems.append("not ok")
    if report["valency"] != {"all-0": "0-valent", "all-1": "1-valent"}:
        problems.append(f"valency {report['valency']}")
    ends = report["endpoint_decisions"]
    if sorted(ends["first"].values()) != [0, 0, 0]:
        problems.append(f"first endpoint decides {ends['first']}")
    if sorted(ends["last"].values()) != [1, 1, 1]:
        problems.append(f"last endpoint decides {ends['last']}")
    for engine in ("partition_rounds", "no3box_rounds"):
        if len(report[engine]) != rounds:
            problems.append(f"{engine}: {len(report[engine])} rounds, expected {rounds}")
        for r in report[engine]:
            if r["verified"] is not True:
                problems.append(f"{engine} round {r['round']}: labels not verified")
            if r["degree"] is None or r["degree"] < 1:
                problems.append(f"{engine} round {r['round']}: degree {r['degree']}")
    return problems


# -- workloads --------------------------------------------------------------


def _executions(report) -> int:
    return report.executions


def _rounds(report) -> int:
    return len(report["per_round"])


def _exhaustive_calls(rng, wrap):
    vectors = consensus_input_vectors(EXHAUSTIVE_N)
    rng.shuffle(vectors)
    return [Call(
        label=f"verify_consensus_exhaustive({EXHAUSTIVE_N})",
        run=lambda: verify_consensus_exhaustive(
            EXHAUSTIVE_N, proto_factory=lambda n: wrap(protocol_consensus_wor(n)),
            inputs_list=vectors),
        check=check_exhaustive_n3,
        units=_executions)]


def _sampled_calls(rng, wrap):
    seed = rng.randrange(2**31)
    return [Call(
        label=f"verify_consensus_sampled({SAMPLED_N}, seed={seed})",
        run=lambda: verify_consensus_sampled(
            SAMPLED_N, executions=SAMPLED_EXECUTIONS, seed=seed,
            proto_factory=lambda n: wrap(protocol_consensus_wor(n))),
        check=lambda report: check_sampled(report, SAMPLED_EXECUTIONS),
        units=_executions)]


def _shuffled(registry: dict, rng) -> list:
    names = sorted(registry)
    rng.shuffle(names)
    return [(name, registry[name]) for name in names]


def _wro_calls(rng, wrap):
    return [Call(
        label=f"wro_obstruction_demo({name})",
        run=lambda proto=proto: wro_obstruction_demo(wrap(proto), WRO_N, WRO_ROUNDS),
        check=lambda report, name=name: check_wro(report, name),
        units=_rounds)
        for name, proto in _shuffled(wro_obstruction_samples(WRO_N), rng)]


def _lower_bound_calls(rng, wrap):
    return [Call(
        label=f"lower_bound_demo({name})",
        run=lambda proto=proto: lower_bound_demo(wrap(proto), rounds=LOWER_BOUND_ROUNDS),
        check=lambda report, name=name: check_lower_bound(report, name),
        units=lambda report: report["rounds"])
        for name, proto in _shuffled(deficient_wor_samples(3), rng)]


WORKLOADS = {w.name: w for w in (
    Workload("sweeps", "execution",
             lambda: (protocol_consensus_wor(EXHAUSTIVE_N), protocol_consensus_wor(SAMPLED_N)),
             lambda rng, wrap: _exhaustive_calls(rng, wrap) + _sampled_calls(rng, wrap)),
    Workload("paths", "automaton-round",
             lambda: (wro_obstruction_samples(WRO_N), deficient_wor_samples(3)),
             lambda rng, wrap: _wro_calls(rng, wrap) + _lower_bound_calls(rng, wrap)),
)}

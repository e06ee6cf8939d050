"""Execution correspondence between a protocol and its model simulation.

A write-scan-invoke (WRO) execution with round schedules pi_1..pi_k maps to
an invoke-write-scan (OWR) execution of the simulation with schedules

    pi'_1   = S(all), pi_1[W,R]
    pi'_l   = pi_{l-1}[S], pi_l[W,R]      (2 <= l <= k)
    pi'_k+1 = pi_k[S], W(all), R(all)

and symmetrically for the other direction.  With the adversary choices
replayed instance-for-instance, the simulation decides exactly what the
source decides, one round later.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidArgumentError, ModelMismatchError
from .executor import (
    EVENT_ORDER,
    RoundSchedule,
    Execution,
    apply_round_recorded,
    make_schedule,
    make_initial_state,
    random_ordered_partition_schedule,
    random_outputs,
    run_execution,
)
from .model import OWR, WRO
from .protocols import ProtocolAutomaton, transform_owr_to_wro, transform_wro_to_owr


def _simulated_in(model: str) -> str:
    """The model of a ``model`` source's simulation; a WOR source has none."""
    if model not in (WRO, OWR):
        raise ModelMismatchError(f"no simulation for model {model}")
    return OWR if model == WRO else WRO


def simulating_automaton(proto: ProtocolAutomaton) -> ProtocolAutomaton:
    """The simulation of ``proto``, in the model that its own model fixes."""
    transform = transform_wro_to_owr if _simulated_in(proto.model) == OWR else transform_owr_to_wro
    return transform(proto)


def simulating_schedules(model: str, scheds: list[RoundSchedule], n: int) -> list[RoundSchedule]:
    """Schedules of the simulating run for the schedules of a ``model`` run.

    The source's late part, the kinds that the simulation's order puts before
    the source's first kind, moves one round later: a WRO source's invoke, or
    an OWR source's write and scan."""
    sim = _simulated_in(model)
    order = EVENT_ORDER[sim]
    cut = order.index(EVENT_ORDER[model][0])
    late, early = order[:cut], order[cut:]
    full = frozenset(range(1, n + 1))
    out = []
    prev: tuple = tuple((kind, full) for kind in late)
    for sched in scheds:
        if sched.model != model:
            raise ModelMismatchError(f"source schedules must be {model}")
        out.append(make_schedule(sim, n, prev + sched.part(early)))
        prev = sched.part(late)
    out.append(make_schedule(sim, n, prev + tuple((kind, full) for kind in early)))
    return out


@dataclass(frozen=True)
class CorrespondenceReport:
    source: str
    simulation: str
    executions: int
    mismatches: int
    first_mismatch: Optional[dict]

    @property
    def ok(self) -> bool:
        return self.mismatches == 0

    def to_jsonable(self) -> dict:
        return {
            "source": self.source,
            "simulation": self.simulation,
            "executions": self.executions,
            "mismatches": self.mismatches,
            "ok": self.ok,
            "first_mismatch": self.first_mismatch,
        }


def simulate_paired(proto: ProtocolAutomaton, inputs, scheds,
                    adversary) -> tuple[Execution, Execution]:
    """Run the source and its simulation on corresponding schedules.

    The simulation replays the source's recorded adversary choices; the
    extra instances of its padding round get a fixed choice of 1 (their
    outputs are discarded by the simulation).
    """
    n = len(inputs)
    sim_proto = simulating_automaton(proto)
    sim_scheds = simulating_schedules(proto.model, list(scheds), n)
    src = run_execution(proto, inputs, scheds, adversary)
    choices = src.all_choices()
    if proto.model == WRO:
        # the simulation's first round invokes fresh (discarded) objects: one
        # choice per contended one, counted on an all-ones run of that round
        init = make_initial_state(n, inputs, sim_proto.model, sim_proto)
        _, padding = apply_round_recorded(init, sim_scheds[0], itertools.repeat(1), sim_proto)
        script = [1] * len(padding) + choices
    else:
        # the trailing padding round may invoke fresh contended objects
        script = choices + [1] * n
    sim = run_execution(sim_proto, inputs, sim_scheds, script)
    return src, sim


def decisions_shifted_by_one(src: Execution, sim: Execution) -> Optional[dict]:
    """None if every source decision appears in the simulation one round
    later with the same value (and nothing else is decided early)."""
    src_dec = src.decision_rounds()
    sim_dec = sim.decision_rounds()
    for pid in range(1, src.final.n + 1):
        a = src_dec.get(pid)
        b = sim_dec.get(pid)
        if a is None:
            if b is not None and b[0] <= src.rounds:
                return {"pid": pid, "source": None, "simulation": list(b)}
            continue
        if b is None or b[0] != a[0] + 1 or b[1] != a[1]:
            return {"pid": pid, "source": list(a),
                    "simulation": list(b) if b else None}
    return None


def check_transform_correspondence(proto: ProtocolAutomaton, n: int,
                                   executions: int = 1000, seed: int = 0) -> CorrespondenceReport:
    """Randomized schedules/adversaries over the source's round budget and
    one round more; count decision-shift mismatches.  A source without a
    budget, which need decide nothing in its runs, is refused before any run."""
    if executions < 0:
        raise InvalidArgumentError(f"executions must be at least 0, got {executions}")
    simulated_in = _simulated_in(proto.model)
    rounds = proto.budget() + 1
    rng = random.Random(seed)
    mismatches = 0
    first = None
    for k in range(executions):
        inputs = [rng.randint(0, 1) for _ in range(n)]
        scheds = [random_ordered_partition_schedule(n, proto.model, rng)
                  for _ in range(rounds)]
        adversary = random_outputs(rng.randrange(2**31), n)
        src, sim = simulate_paired(proto, inputs, scheds, adversary)
        bad = decisions_shifted_by_one(src, sim)
        if bad is not None:
            mismatches += 1
            if first is None:
                first = {"index": k, "inputs": inputs, "detail": bad}
    return CorrespondenceReport(
        source=proto.name,
        simulation=f"{simulated_in} simulation",
        executions=executions,
        mismatches=mismatches,
        first_mismatch=first,
    )

"""Sample automata: knowledge-gossip protocols with varied object wiring.

Each sample writes the set of inputs it has heard of, merges what it scans,
and (optionally) decides the minimum known input at a fixed round.  The
object wiring (who shares which safe-consensus object, per round) is the
interesting axis: it determines the boxes and hence which connectivity
arguments apply.

Selectors take the standard (round, id, sm, val, locals) arguments but only
depend on round/id/val, so they are well-defined at round 0 as well (the
invoke-first simulation queries round 0 and discards the result).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import InvalidArgumentError
from .model import OWR, WOR, WRO
from .protocols import ProtocolAutomaton, protocol_2cc, protocol_consensus_wor
from .values import frozen_record

SOLO_BASE = 1000  # solo object for process i uses index SOLO_BASE + i


@frozen_record
@dataclass(frozen=True, slots=True)
class Knowledge:
    """Locals of a knowledge automaton: rounds done, sorted inputs heard of."""

    id: int
    r: int
    known: tuple


def knowledge_automaton(model: str, name: str, select: Callable,
                        decide_round: Optional[int] = None) -> ProtocolAutomaton:
    """Gossip automaton: payload = sorted tuple of known inputs."""

    def init(pid, inp):
        return Knowledge(id=pid, r=0, known=(inp,))

    def write_payload(pid, val, loc):
        return loc.known

    def merge(loc, sm):
        known = set(loc.known)
        if isinstance(sm, tuple):
            for cell in sm:
                if isinstance(cell, tuple):
                    known.update(cell)
        return tuple(sorted(known))

    def decide(sm, val, loc):
        if decide_round is None or loc.r + 1 < decide_round:
            return None
        return min(merge(loc, sm))

    def step(loc, sm, val):
        return Knowledge(loc.id, loc.r + 1, merge(loc, sm))

    return ProtocolAutomaton(
        model=model,
        name=name,
        init=init,
        select_object=select,
        decide=decide,
        step=step,
        write_payload=write_payload,
        round_budget=decide_round,
    )


# --------------------------------------------------------------------------
# selector shapes


def sel_solo(rnd, pid, sm, val, loc):
    return SOLO_BASE + pid


def sel_share_all(rnd, pid, sm, val, loc):
    return 0


def sel_pair(pair):
    pair = frozenset(pair)

    def sel(rnd, pid, sm, val, loc):
        return 0 if pid in pair else SOLO_BASE + pid

    return sel


def sel_rotating_pair(n):
    def sel(rnd, pid, sm, val, loc):
        r = max(rnd, 1)
        pair = {((r - 1) % n) + 1, (r % n) + 1}
        return 0 if pid in pair else SOLO_BASE + pid

    return sel


def sel_alternating(rnd, pid, sm, val, loc):
    # odd rounds share one object, even rounds run solo
    return 0 if rnd % 2 == 1 else SOLO_BASE + pid


def sel_pair_alternating(pair):
    pair = frozenset(pair)

    def sel(rnd, pid, sm, val, loc):
        if rnd % 2 == 1 and pid in pair:
            return 0
        return SOLO_BASE + pid

    return sel


def sel_val_parity(rnd, pid, sm, val, loc):
    if val is None:
        return SOLO_BASE + pid
    return 100 + (val % 2)


def sel_share_after(k):
    def sel(rnd, pid, sm, val, loc):
        return 0 if rnd > k else SOLO_BASE + pid

    return sel


# --------------------------------------------------------------------------
# registries

# n=3 WOR automata that are deliberately short on boxes: nu(3,3) = 0 and
# nu(3,2) <= 1, so both lower-bound connectivity engines apply.
def deficient_wor_samples(n: int = 3) -> dict[str, ProtocolAutomaton]:
    return {
        "wor-solo-min": knowledge_automaton(WOR, "wor-solo-min", sel_solo, decide_round=2),
        "wor-pair12-min": knowledge_automaton(WOR, "wor-pair12-min", sel_pair({1, 2}), decide_round=2),
        "wor-altpair12-min": knowledge_automaton(
            WOR, "wor-altpair12-min", sel_pair_alternating({1, 2}), decide_round=2),
    }


def wro_obstruction_samples(n: int = 3) -> dict[str, ProtocolAutomaton]:
    """Ten WRO automata for the connectivity-obstruction demonstration."""
    return {
        "wro-solo": knowledge_automaton(WRO, "wro-solo", sel_solo),
        "wro-share-all": knowledge_automaton(WRO, "wro-share-all", sel_share_all),
        "wro-pair12": knowledge_automaton(WRO, "wro-pair12", sel_pair({1, 2})),
        "wro-pair13": knowledge_automaton(WRO, "wro-pair13", sel_pair({1, 3})),
        "wro-pair23": knowledge_automaton(WRO, "wro-pair23", sel_pair({2, 3})),
        "wro-rotating": knowledge_automaton(WRO, "wro-rotating", sel_rotating_pair(n)),
        "wro-alternating": knowledge_automaton(WRO, "wro-alternating", sel_alternating),
        "wro-val-parity": knowledge_automaton(WRO, "wro-val-parity", sel_val_parity),
        "wro-share-after-2": knowledge_automaton(WRO, "wro-share-after-2", sel_share_after(2)),
        "wro-solo-d6": knowledge_automaton(WRO, "wro-solo-d6", sel_solo, decide_round=6),
    }


def wro_transform_samples(n: int = 3) -> dict[str, ProtocolAutomaton]:
    """Five deciding WRO sources for the simulation-equivalence checks."""
    return {
        "wro-solo-d2": knowledge_automaton(WRO, "wro-solo-d2", sel_solo, decide_round=2),
        "wro-share-d2": knowledge_automaton(WRO, "wro-share-d2", sel_share_all, decide_round=2),
        "wro-pair12-d3": knowledge_automaton(WRO, "wro-pair12-d3", sel_pair({1, 2}), decide_round=3),
        "wro-rotating-d3": knowledge_automaton(WRO, "wro-rotating-d3", sel_rotating_pair(n), decide_round=3),
        "wro-val-parity-d4": knowledge_automaton(WRO, "wro-val-parity-d4", sel_val_parity, decide_round=4),
    }


def owr_transform_samples(n: int = 3) -> dict[str, ProtocolAutomaton]:
    """Five deciding OWR sources for the simulation-equivalence checks."""
    return {
        "owr-solo-d2": knowledge_automaton(OWR, "owr-solo-d2", sel_solo, decide_round=2),
        "owr-share-d2": knowledge_automaton(OWR, "owr-share-d2", sel_share_all, decide_round=2),
        "owr-pair12-d3": knowledge_automaton(OWR, "owr-pair12-d3", sel_pair({1, 2}), decide_round=3),
        "owr-rotating-d3": knowledge_automaton(OWR, "owr-rotating-d3", sel_rotating_pair(n), decide_round=3),
        "owr-val-parity-d4": knowledge_automaton(OWR, "owr-val-parity-d4", sel_val_parity, decide_round=4),
    }


def resolve_protocol(spec: str, n: int) -> ProtocolAutomaton:
    """Look up a protocol by CLI name: 'consensus', '2cc', or a sample name."""
    if spec == "consensus":
        return protocol_consensus_wor(n)
    if spec == "2cc":
        return protocol_2cc(n)
    for registry in (deficient_wor_samples(n), wro_obstruction_samples(n),
                     wro_transform_samples(n), owr_transform_samples(n)):
        if spec in registry:
            return registry[spec]
    raise InvalidArgumentError(f"unknown protocol {spec!r}")


def sample_names() -> list[str]:
    names = ["consensus", "2cc"]
    for registry in (deficient_wor_samples(), wro_obstruction_samples(),
                     wro_transform_samples(), owr_transform_samples()):
        names.extend(registry)
    return names

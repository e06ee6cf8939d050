"""One SHA-256 over the bytes of the verdicts that walk sigma schedules.

The composite covers the WRO obstruction, the lower-bound paths round by
round, both sweeps and the sampled Gamma census.  A refactor of how
schedules are built, named or kept must leave every byte of it unchanged;
the digest is the same under any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib

from itersc.connectivity import (
    extend_path_no3box,
    initial_chain,
    lower_bound_demo,
    wro_extend_round,
    wro_obstruction_demo,
)
from itersc.executor import collect_gamma, verify_consensus_exhaustive, verify_consensus_sampled
from itersc.protocols import protocol_consensus_wor
from itersc.samples import deficient_wor_samples, wro_obstruction_samples
from itersc.values import canonical_json

PINNED = "fe682da95b1286a132fa9bafee882c47343ff21be46e7d09a6045d6f7c261fa7"

WRO_AUTOMATA = ("wro-solo", "wro-val-parity", "wro-share-after-2")


def _erased_rounds(extend, path, rounds=4):
    out = []
    for _ in range(rounds):
        path = extend(path).loop_erased()
        out.append(path.to_jsonable())
    return out


def pinned_verdicts() -> dict:
    wro = wro_obstruction_samples()
    deficient = deficient_wor_samples()
    solo_min = deficient["wor-solo-min"]
    return {
        "wro_obstruction": [wro_obstruction_demo(wro[name]) for name in WRO_AUTOMATA],
        "wro_rounds": [_erased_rounds(lambda p, proto=wro[name]: wro_extend_round(p, proto),
                                      initial_chain(wro[name], 3)) for name in WRO_AUTOMATA],
        "no3box_rounds": [_erased_rounds(lambda p, proto=proto: extend_path_no3box(p, proto),
                                         initial_chain(proto, 3))
                          for _name, proto in sorted(deficient.items())],
        "lower_bound": [lower_bound_demo(proto, rounds=5)
                        for _name, proto in sorted(deficient.items())],
        "exhaustive": [verify_consensus_exhaustive(3, jobs=1).to_jsonable(),
                       verify_consensus_exhaustive(3, proto_factory=lambda n: solo_min,
                                                   jobs=1).to_jsonable()],
        "sampled": verify_consensus_sampled(
            5, 300, seed=7, proto_factory=lambda n: deficient_wor_samples(n)["wor-solo-min"],
            jobs=1).to_jsonable(),
        "gamma": collect_gamma(protocol_consensus_wor(5), 5).to_jsonable(),
    }


def test_verdict_bytes_are_pinned():
    text = canonical_json(pinned_verdicts())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED

"""The round engine as it stood before its records were built the fast way.

It reads the local-state columns of its input state and returns the parts
of the successor state, not a state: one ``(inp, sm, val, dec, loc)`` tuple
per process, the snapshot cells and the ``resolved`` tuples.
``tests/test_rounds.py`` checks that the ``locals_`` tuples and the ``cells``
and ``resolved`` columns of the state that ``executor.apply_round_recorded``
returns are exactly these, instance order and inputs included, with the same
recorded adversary choices.  Like the engine, it hands ``write_payload``
only the last output and the locals, and ``select_object`` a process's
``sm`` only once the process has scanned in this round, and None before.
It reads a schedule only through its ``model``, ``n`` and ``(kind, group)``
events, so it needs nothing of the executor.
"""

from __future__ import annotations

from typing import Any, Iterable

from itersc.errors import (
    InvalidAdversaryError,
    InvalidArgumentError,
    InvalidScheduleError,
    UnresolvedInstanceError,
)
from itersc.model import GlobalState
from itersc.protocols import ProtocolAutomaton

W, R = "W", "R"  # write and scan events; the rest invoke


def run_events(state: GlobalState, sched, proto: ProtocolAutomaton,
               adversary: Iterable[int]):
    """Walk one round's events; returns per-process components, cells and
    resolved objects.  Each contended instance takes the next of the
    ``adversary`` outputs."""
    n = state.n
    rnd = state.rnd + 1
    cur_sm: list = [None] * n  # the previous snapshot stays hidden
    cur_val = list(state.val)
    loc = list(state.loc)
    write, select, sc_input = proto.write_payload, proto.select_object, proto.sc_input
    sm_filter, val_filter = proto.sm_filter, proto.val_filter
    cells: list = [None] * n
    invoked: dict[Any, list] = {}  # object -> its (pid, input) pairs so far this round
    outputs: dict[Any, Any] = {}  # in resolution order
    forced: dict[Any, bool] = {}
    choices: list = []
    adversary = iter(adversary)

    for kind, group in sched.events:
        if kind == W:
            for pid in group:
                i = pid - 1
                cells[i] = write(pid, cur_val[i], loc[i])
        elif kind == R:
            snap = tuple(cells)
            for pid in group:
                i = pid - 1
                cur_sm[i] = snap if sm_filter is None else sm_filter(rnd, pid, snap, loc[i])
        else:  # invoke
            picks = []
            for pid in group:
                i = pid - 1
                obj = select(rnd, pid, cur_sm[i], cur_val[i], loc[i])
                if not isinstance(obj, int) or obj < 0:
                    raise InvalidArgumentError(
                        f"object selector returned {obj!r}; expected a "
                        f"non-negative index")
                picks.append(obj)
                invoked.setdefault(obj, []).append(
                    (pid, pid if sc_input is None else sc_input(pid, loc[i])))
            for obj in sorted(set(picks)):
                if obj in outputs:
                    continue
                # unresolved so far, so every invoker of obj is in this group
                first = invoked[obj]
                if len(first) == 1:
                    outputs[obj] = first[0][1]
                    forced[obj] = True
                else:
                    pids = [p for p, _ in first]
                    v = next(adversary, None)
                    if v is None:
                        raise UnresolvedInstanceError(
                            f"object {obj!r} contended by {pids} needs an adversary output")
                    if not (type(v) is int and 1 <= v <= n):
                        raise InvalidAdversaryError(
                            f"adversary chose {v!r} outside 1..{n}")
                    outputs[obj] = v
                    forced[obj] = False
                    choices.append((rnd, obj, v))
            for pid, obj in zip(group, picks):
                v = outputs[obj]
                if val_filter is not None:
                    v = val_filter(rnd, pid, v, loc[pid - 1])
                cur_val[pid - 1] = v

    resolved = tuple((obj, tuple(sorted(invoked[obj])), out, forced[obj])
                     for obj, out in outputs.items())
    return cur_sm, cur_val, loc, cells, resolved, choices


def apply_round_recorded(state: GlobalState, sched,
                         adversary: Iterable[int],
                         proto: ProtocolAutomaton):
    if sched.model != proto.model or sched.model != state.model:
        raise InvalidScheduleError(
            f"schedule model {sched.model} does not match protocol/state "
            f"({proto.model}/{state.model})")
    if sched.n != state.n:
        raise InvalidScheduleError(f"schedule for n={sched.n}, state has n={state.n}")
    rnd = state.rnd + 1
    cur_sm, cur_val, loc, cells, resolved, choices = run_events(
        state, sched, proto, adversary)
    decide, step = proto.decide, proto.step
    new_locals = []
    for i, (inp, dec) in enumerate(zip(state.inp, state.dec)):
        sm, val = cur_sm[i], cur_val[i]
        if dec is None:
            dec = decide(sm, val, loc[i])
        new_locals.append((inp, sm, val, dec, step(loc[i], sm, val)))
    return rnd, tuple(new_locals), tuple(cells), resolved, tuple(choices)

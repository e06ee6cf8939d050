"""Per-layer tracing from outside the program.

The tracer patches the public functions of each ``itersc`` module (= layer)
for the duration of one traced pass and records a span around every call.
Nothing under ``src/`` knows about it.

* A function is patched in every ``itersc`` module namespace that holds it,
  so ``connectivity``'s own ``apply_round``/``probe_round`` imports are
  covered as well as the defining module. ``Path.verify`` is patched on the
  class, and automaton callbacks are wrapped per automaton by ``wrap_proto``.
* Functions are grouped into named spans. A call made while a span of the
  same name is open runs unwrapped, so each span counts outermost calls only
  (``freeze`` recurses; ``random_sigma_schedule`` calls ``sigma_schedule``).
* Spans are aggregated in memory by (parent span, span): calls, inclusive
  seconds and self seconds, where self time excludes the nested wrapped
  spans. A traced sweep opens millions of spans, too many to keep one by
  one; the aggregate keeps the causal structure at a fixed size.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
import time

CALLBACK_FIELDS = ("init", "select_object", "decide", "step", "write_payload",
                   "sc_input", "sm_filter", "val_filter")

# span name -> (defining module, function names)
SPANS = {
    "round": ("itersc.executor", ("apply_round_recorded",)),
    "probe": ("itersc.executor", ("probe_round",)),
    "run_execution": ("itersc.executor", ("run_execution",)),
    "schedule": ("itersc.executor", ("enumerate_round_schedules", "random_sigma_schedule",
                                     "sigma_schedule", "make_schedule")),
    # _check_decisions is the check the exhaustive sweep calls at every leaf
    "check": ("itersc.executor", ("check_consensus", "check_2cc", "_check_decisions")),
    "collect_gamma": ("itersc.executor", ("collect_gamma",)),
    "freeze": ("itersc.values", ("freeze",)),
    "indistinguishability_set": ("itersc.model", ("indistinguishability_set",)),
    "wro_extend_round": ("itersc.connectivity", ("wro_extend_round",)),
    "wro_bridge": ("itersc.connectivity", ("wro_bridge",)),
    "extend_path_no3box": ("itersc.connectivity", ("extend_path_no3box",)),
    "extend_path_partition": ("itersc.connectivity", ("extend_path_partition",)),
    "build_successor": ("itersc.connectivity", ("build_successor",)),
    "successor_boxes": ("itersc.connectivity", ("successor_boxes",)),
    "bounded_valency": ("itersc.connectivity", ("bounded_valency",)),
}
GENERATORS = {"enumerate_round_schedules"}
PATH_EXTENSIONS = {"wro_extend_round", "extend_path_no3box", "extend_path_partition"}


class Tracer:
    """Span aggregator for one traced pass; see the module docstring."""

    def __init__(self):
        self.stack: list = []  # open spans: [name, seconds spent in wrapped children]
        self.active: dict = {}  # span name -> 1 while open
        self.totals: dict = {}  # (parent, name) -> [calls, inclusive_s, self_s]
        self.probe_rounds = 0
        self.children: set = set()  # hashes of (automaton, rnd, locals_) of non-probe rounds
        self.path_states = 0
        self.path_distinct = 0

    # -- wrapping --------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        stack, active, totals, clock = self.stack, self.active, self.totals, time.perf_counter

        def wrapper(*args, **kwargs):
            if active.get(name):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            active[name] = 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[name] = 0
                if stack:
                    stack[-1][1] += dt
                rec = totals.get((parent, name))
                if rec is None:
                    rec = totals[(parent, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn):
        """Each resumption of the generator is one span of ``name``."""
        step = self.wrap(name, next)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        return wrapper

    def wrap_proto(self, proto):
        """Copy of an automaton whose callbacks run inside ``callback`` spans."""
        fields = {f: self.wrap("callback", getattr(proto, f)) for f in CALLBACK_FIELDS
                  if getattr(proto, f) is not None}
        return dataclasses.replace(proto, **fields)

    def _on_round(self, args, kwargs, result):
        if self.active.get("probe"):
            self.probe_rounds += 1
            return
        proto = args[3] if len(args) > 3 else kwargs["proto"]
        state = result[0]
        self.children.add(hash((proto.name, state.rnd, state.locals_)))

    def _on_path(self, args, kwargs, path):
        self.path_states += len(path.states)
        self.path_distinct += len(set(path.states))

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "itersc" or name.startswith("itersc."))]
        undo = []
        try:
            for span, (home, names) in SPANS.items():
                on_result = (self._on_round if span == "round"
                             else self._on_path if span in PATH_EXTENSIONS else None)
                for fname in names:
                    orig = getattr(sys.modules[home], fname, None)
                    if orig is None:
                        continue
                    wrapped = (self.wrap_generator(span, orig) if fname in GENERATORS
                               else self.wrap(span, orig, on_result))
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is orig:
                                setattr(mod, key, wrapped)
                                undo.append((mod, key, orig))
            path_cls = sys.modules["itersc.connectivity"].Path
            orig_verify = vars(path_cls)["verify"]
            path_cls.verify = self.wrap("path_verify", orig_verify)
            undo.append((path_cls, "verify", orig_verify))
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    # -- results ---------------------------------------------------------

    def _sum(self, name: str, col: int) -> float:
        return sum((rec[col] for (_p, n), rec in self.totals.items() if n == name), 0.0)

    def calls(self, name: str) -> int:
        return int(self._sum(name, 0))

    def inclusive(self, name: str) -> float:
        return self._sum(name, 1)

    def self_time(self, name: str) -> float:
        return self._sum(name, 2)

    def layer_metrics(self) -> dict:
        """Per-layer values of one traced pass; see perfbench/README.md."""
        rounds = self.calls("round")
        applied = rounds - self.probe_rounds
        return {
            "executor.round.calls": rounds,
            "executor.round.s": self.self_time("round"),
            "executor.round.us": _ratio(self.inclusive("round") * 1e6, rounds),
            "executor.probe.calls": self.probe_rounds,
            "executor.probe.s": self.inclusive("probe"),
            "executor.probe_share": _ratio(self.probe_rounds, rounds),
            "executor.distinct_child_ratio": _ratio(len(self.children), applied),
            "executor.run_execution.s": self.inclusive("run_execution"),
            "executor.schedule.s": self.self_time("schedule"),
            "executor.check.s": self.self_time("check"),
            "executor.collect_gamma.s": self.inclusive("collect_gamma"),
            "values.freeze.calls": self.calls("freeze"),
            "values.freeze.s": self.self_time("freeze"),
            "protocols.callback.calls": self.calls("callback"),
            "protocols.callback.s": self.self_time("callback"),
            "model.indistinguishability_set.calls": self.calls("indistinguishability_set"),
            "model.indistinguishability_set.s": self.self_time("indistinguishability_set"),
            "connectivity.path_verify.calls": self.calls("path_verify"),
            "connectivity.path_verify.s": self.inclusive("path_verify"),
            "connectivity.wro_extend_round.s": self.inclusive("wro_extend_round"),
            "connectivity.wro_bridge.calls": self.calls("wro_bridge"),
            "connectivity.path_states": self.path_states,
            "connectivity.path_distinct_ratio": _ratio(self.path_distinct, self.path_states),
            "connectivity.extend_path_no3box.s": self.inclusive("extend_path_no3box"),
            "connectivity.extend_path_partition.s": self.inclusive("extend_path_partition"),
            "connectivity.build_successor.calls": self.calls("build_successor"),
            "connectivity.build_successor.s": self.inclusive("build_successor"),
            "connectivity.successor_boxes.calls": self.calls("successor_boxes"),
            "connectivity.successor_boxes.s": self.inclusive("successor_boxes"),
            "connectivity.bounded_valency.s": self.inclusive("bounded_valency"),
        }

    def spans(self) -> list:
        """The aggregated span table, for writing out at the end of a run."""
        return [{"parent": parent, "span": name, "calls": rec[0],
                 "inclusive_s": rec[1], "self_s": rec[2]}
                for (parent, name), rec in sorted(self.totals.items(), key=lambda kv: -kv[1][1])]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

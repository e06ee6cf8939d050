"""Command-line interface: batch verification and simulation with JSON reports.

Machine-readable JSON goes to stdout (or --out FILE); a one-line human
summary goes to stderr.  Exit codes: 0 all checks passed, 1 a violation or
counterexample was found, 2 usage/configuration errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import random
import sys
import time
from math import comb
from typing import Any, Optional

from . import __version__
from .equivalence import check_transform_correspondence, simulating_automaton
from .errors import BudgetExceededError, InvalidArgumentError, InvalidInputError, IterscError
from .executor import (
    collect_gamma,
    protocol_descriptor,
    random_ordered_partition_schedule,
    random_outputs,
    random_sigma_schedule,
    run_execution,
    sigma_schedule,
    verify_2cc,
    verify_consensus_exhaustive,
    verify_consensus_sampled,
)
from .connectivity import (
    connect_partition_round,
    lower_bound_demo,
    wro_obstruction_demo,
)
from .johnson import (
    components,
    partition_two_blocks,
    check_partition,
    vertex_set,
    verify_zeta_vanishing,
    zeta_iter,
)
from .model import make_initial_state
from .samples import resolve_protocol, sample_names, wro_obstruction_samples
from .values import jsonable

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _parse_ids(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:  # int() names the bad item
        raise InvalidArgumentError(f"ids must be integers in {text!r}: {exc}") from None


def _parse_groups(text: str) -> list[list[int]]:
    return [_parse_ids(part) for part in text.split("|") if part.strip()]


def _parse_vertices(text: str) -> list[tuple[int, ...]]:
    return [tuple(_parse_ids(part)) for part in text.split(";") if part.strip()]


def _emit(args, command: str, config: dict, result: dict, ok: bool, t0: float) -> int:
    report = {
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "version": __version__,
        "wall_time_s": round(time.time() - t0, 3),
        "ok": ok,
        "result": jsonable(result),
    }
    _write(getattr(args, "out", None), json.dumps(report, sort_keys=True, indent=2) + "\n")
    print(f"[itersc] {command}: {'pass' if ok else 'FAIL'} "
          f"({report['wall_time_s']}s)", file=sys.stderr)
    return EXIT_OK if ok else EXIT_VIOLATION


def _write(path: Optional[str], text: str) -> None:
    """Write to ``path``, or to stdout without one; an unwritable path is a usage error."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write --out {path!r}: {exc}") from exc


def _read_json(path: str, what: str):
    """The JSON value in a file; an unreadable file is a usage error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"cannot read {what} {path!r}: {exc}") from exc


def _make_adversary(spec: str, seed: int, n: int):
    """The adversary outputs: random ids from the seed, or a JSON array."""
    if spec == "random":
        return random_outputs(seed, n)
    if spec.startswith("script:"):
        outputs = _read_json(spec.split(":", 1)[1], "adversary script")
        if not isinstance(outputs, list):
            raise InvalidInputError("adversary script must be a JSON array")
        return outputs
    raise InvalidArgumentError(f"unknown adversary {spec!r}")


def cmd_simulate(args) -> int:
    proto = resolve_protocol(args.protocol, args.n)
    inputs = _parse_ids(args.inputs) if args.inputs else list(range(args.n))
    if len(inputs) != args.n:
        raise InvalidArgumentError(f"--inputs has {len(inputs)} values, but --n is {args.n}")
    rounds = args.horizon if args.horizon is not None else proto.round_budget or 3
    rng = random.Random(args.seed)
    if args.groups:
        scheds = [sigma_schedule(_parse_groups(args.groups), args.n, proto.model)
                  for _ in range(rounds)]
    elif args.family == "ordered-partition":
        scheds = [random_ordered_partition_schedule(args.n, proto.model, rng)
                  for _ in range(rounds)]
    else:
        scheds = [random_sigma_schedule(args.n, proto.model, rng)
                  for _ in range(rounds)]
    exe = run_execution(proto, inputs, scheds, _make_adversary(args.adversary, args.seed, args.n))
    _write(args.out, exe.to_jsonl())
    decs = {p: v for p, (r, v) in exe.decision_rounds().items()}
    print(f"[itersc] simulate: {rounds} rounds, decisions {decs}", file=sys.stderr)
    return EXIT_OK


def cmd_verify_consensus(args) -> int:
    t0 = time.time()
    mode = args.mode
    if mode == "auto":
        mode = "exhaustive" if args.n <= 4 else "sampled"
    config = {"n": args.n, "mode": mode}
    if mode == "exhaustive":
        report = verify_consensus_exhaustive(args.n, jobs=args.jobs)
    else:
        config.update(executions=args.executions, seed=args.seed)
        report = verify_consensus_sampled(args.n, args.executions, args.seed, jobs=args.jobs)
    config["jobs"] = report.jobs
    return _emit(args, "verify-consensus", config, report.to_jsonable(), report.ok, t0)


def cmd_verify_2cc(args) -> int:
    t0 = time.time()
    domain = tuple(_parse_ids(args.values)) if args.values else (5, 7)
    config = {"g": args.g, "values": list(domain)}
    report = verify_2cc(args.g, domain)
    return _emit(args, "verify-2cc", config, report.to_jsonable(), report.ok, t0)


def cmd_count_objects(args) -> int:
    t0 = time.time()
    proto = resolve_protocol(args.protocol, args.n)
    config = {"protocol": args.protocol, "n": args.n}
    report = collect_gamma(proto, args.n)
    expected = comb(args.n, 2) if args.protocol == "consensus" else None
    ok = not report.partial and (expected is None or report.nu_total == expected)
    result = report.to_jsonable()
    result["expected_total"] = expected
    return _emit(args, "count-objects", config, result, ok, t0)


def cmd_transform(args) -> int:
    t0 = time.time()
    proto = resolve_protocol(args.source, args.n)
    sim = simulating_automaton(proto)
    config = {"direction": f"{proto.model}2{sim.model}".lower(), "source": args.source,
              "n": args.n, "check": args.check, "seed": args.seed}
    result: dict[str, Any] = {
        "source": protocol_descriptor(proto, args.n),
        "simulation": protocol_descriptor(sim, args.n),
    }
    ok = True
    if args.check:
        rep = check_transform_correspondence(proto, args.n, args.check, args.seed)
        result["correspondence"] = rep.to_jsonable()
        ok = rep.ok
    return _emit(args, "transform", config, result, ok, t0)


def cmd_connectivity(args) -> int:
    t0 = time.time()
    config = {"demo": args.demo, "automaton": args.automaton, "n": args.n,
              "rounds": args.horizon}
    rounds = {} if args.horizon is None else {"rounds": args.horizon}
    if args.demo != "partition-round":
        for flag, value in (("--block-a", args.block_a), ("--block-b", args.block_b)):
            if value is not None:
                raise InvalidArgumentError(f"the {args.demo} demo builds no partition "
                                           f"round; it takes no {flag}")
    if args.demo == "lower-bound":
        if args.n != 3:
            raise InvalidArgumentError(f"the lower-bound demo runs 3 processes, not --n {args.n}")
        proto = resolve_protocol(args.automaton or "wor-pair12-min", args.n)
        result = lower_bound_demo(proto, **rounds)
        return _emit(args, "connectivity", config, result, result["ok"], t0)
    if args.demo == "wro-obstruction":
        reports = []
        if args.automaton:
            protos = {args.automaton: resolve_protocol(args.automaton, args.n)}
        else:
            protos = wro_obstruction_samples(args.n)
        for name, proto in protos.items():
            reports.append(wro_obstruction_demo(proto, args.n, **rounds))
        ok = all(r["ok"] for r in reports)
        return _emit(args, "connectivity", config, {"samples": reports}, ok, t0)
    # partition-round: argparse's choices admit no other demo
    if args.horizon is not None:
        raise InvalidArgumentError("the partition-round demo builds one round; "
                                   "it takes no --horizon")
    proto = resolve_protocol(args.automaton or "wor-pair12-min", args.n)
    a = _parse_ids(args.block_a or "1,2")
    b = _parse_ids(args.block_b or "3")
    state = make_initial_state(args.n, list(range(args.n)), proto.model, proto)
    path = connect_partition_round(state, a, b, proto)
    result = {"path": path.to_jsonable(), "verified": path.verify()}
    return _emit(args, "connectivity", config, result, True, t0)


def cmd_johnson(args) -> int:
    t0 = time.time()
    config = {"op": args.op, "n": args.n, "m": args.m, "mode": args.mode,
              "set": args.set, "iterations": args.iterations, "seed": args.seed}
    if args.op == "vanish":
        report = verify_zeta_vanishing(args.n, args.m, args.mode, seed=args.seed)
        return _emit(args, "johnson", config, report.to_jsonable(), report.ok, t0)
    if args.op == "zeta":
        u = vertex_set(args.n, args.m, _parse_vertices(args.set or ""))
        v = args.iterations if args.iterations is not None else 1
        out = zeta_iter(u, v)
        return _emit(args, "johnson", config, out.to_jsonable(), True, t0)
    if args.op == "components":
        u = vertex_set(args.n, args.m, _parse_vertices(args.set or ""))
        comps = [c.to_jsonable() for c in components(u)]
        return _emit(args, "johnson", config, {"components": comps}, True, t0)
    # partition: argparse's choices admit no other op
    u = vertex_set(args.n, 2, _parse_vertices(args.set or ""))
    a, b = partition_two_blocks(u)
    ok = check_partition(u, a, b)
    result = {"A": sorted(a), "B": sorted(b), "checked": ok}
    return _emit(args, "johnson", config, result, ok, t0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itersc",
        description="Iterated shared-memory models with safe-consensus objects")
    sub = parser.add_subparsers(dest="command")
    shared = {
        "n": dict(type=int, default=3, help="number of processes"),
        "adversary": dict(default="random", help="random | script:FILE"),
        "seed": dict(type=int, default=0, help="seed of every random draw"),
        "horizon": dict(type=int, default=None, help="number of rounds"),
        "jobs": dict(type=int, default=None, help="index ranges or (input, tree) pairs, "
                     "default one per usable CPU"),
    }

    def command(name, summary, func, *flags):
        """A subcommand with --config, --out and the shared ``flags`` it reads."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--out", default=None, help="write the JSON report here")
        for flag in flags:
            p.add_argument(f"--{flag}", **shared[flag])
        p.set_defaults(func=func)
        return p

    p = command("simulate", "run one execution and dump its trace", cmd_simulate,
                "n", "adversary", "seed", "horizon")
    p.add_argument("--protocol", default="consensus")
    p.add_argument("--inputs", default=None, help="comma-separated input values")
    schedules = p.add_mutually_exclusive_group()
    schedules.add_argument("--family", choices=["sigma", "ordered-partition"], default=None,
                           help="family of the random round schedules (default sigma)")
    schedules.add_argument("--groups", default=None,
                           help="sigma groups like '1,2|3' (fixed per round)")

    p = command("verify-consensus", "sweep the consensus protocol", cmd_verify_consensus,
                "n", "seed", "jobs")
    p.add_argument("--mode", choices=["auto", "exhaustive", "sampled"], default="auto")
    p.add_argument("--executions", type=int, default=10000)

    p = command("verify-2cc", "sweep the 2coalitions subroutine", cmd_verify_2cc)
    p.add_argument("--g", type=int, default=2)
    p.add_argument("--values", default=None, help="value domain, e.g. '5,7'")

    p = command("count-objects", "Gamma/nu table for a protocol", cmd_count_objects, "n")
    p.add_argument("--protocol", default="consensus")

    p = command("transform", "model simulation descriptors", cmd_transform, "n", "seed")
    p.add_argument("--source", required=True, help="source protocol name")
    p.add_argument("--check", type=int, default=0,
                   help="verify decision correspondence over N random runs")

    p = command("connectivity", "path constructions and demos", cmd_connectivity,
                "n", "horizon")
    p.add_argument("--demo", choices=["lower-bound", "wro-obstruction",
                                      "partition-round"], required=True)
    p.add_argument("--automaton", default=None)
    p.add_argument("--block-a", default=None)
    p.add_argument("--block-b", default=None)

    p = command("johnson", "Johnson graph combinatorics", cmd_johnson, "n", "seed")
    p.add_argument("--op", choices=["vanish", "zeta", "components", "partition"],
                   required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--set", default=None, help="vertices like '1,2;2,3'")
    p.add_argument("--iterations", type=int, default=None)

    p = sub.add_parser("samples", help="list the bundled protocol names")
    p.set_defaults(func=lambda args: (print(json.dumps(sample_names(), indent=2)), EXIT_OK)[1])
    return parser


_ID_LIST_FLAGS = ("--values", "--inputs", "--block-a", "--block-b")
_NESTED_FORMS = {"--groups": "1,2|3", "--set": "1,2;2,3"}


def _config_text(key: str, flag: str, value) -> str:
    """A config value as its flag's command-line text: a flat array of ints
    or strings for a comma-separated flag joins with commas; any other array
    or object is refused."""
    if not isinstance(value, (list, dict)):
        return str(value)
    if flag in _ID_LIST_FLAGS and isinstance(value, list) \
            and all(type(v) in (int, str) for v in value):  # bools are not ids
        return ",".join(map(str, value))
    form = f' "{_NESTED_FORMS[flag]}"' if flag in _NESTED_FORMS else ""
    raise InvalidInputError(f"config key {key!r} takes the command-line text of {flag}{form}, "
                            f"not {json.dumps(value)}")


def _apply_config_file(parser, argv):
    """flags > config file > defaults; a null value leaves its flag at the default."""
    ns, _ = parser.parse_known_args(argv)
    if not getattr(ns, "config", None):
        return argv
    cfg = _read_json(ns.config, "config file")
    if not isinstance(cfg, dict):
        raise InvalidInputError("config file must hold a JSON object")
    extra: list[str] = []
    given = {a.split("=")[0] for a in argv if a.startswith("--")}
    for key, value in cfg.items():
        flag = f"--{key.replace('_', '-')}"
        if value is None or flag in given:
            continue
        extra += [flag, _config_text(key, flag, value)]
    return argv + extra


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    level = os.environ.get("ITERSC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        stream=sys.stderr)
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config_file(parser, argv))
        if not getattr(args, "command", None):
            parser.print_help(file=sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except BudgetExceededError as exc:
        print(f"[itersc] budget exceeded: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IterscError as exc:
        print(f"[itersc] error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

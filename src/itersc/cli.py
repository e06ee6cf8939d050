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
import sys
import time
from functools import partial
from typing import Any, Optional

from . import __version__
from .equivalence import check_transform_correspondence
from .errors import BudgetExceededError, InvalidArgumentError, IterscError
from .executor import (
    ScriptedAdversary,
    SeededRandomAdversary,
    SweepReport,
    _sample_range,
    collect_gamma,
    protocol_descriptor,
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
from .protocols import transform_owr_to_wro, transform_wro_to_owr
from .samples import resolve_protocol, sample_names
from .values import jsonable

log = logging.getLogger("itersc")

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _parse_ids(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


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
    text = json.dumps(report, sort_keys=True, indent=2)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"[itersc] {command}: {'pass' if ok else 'FAIL'} "
          f"({report['wall_time_s']}s)", file=sys.stderr)
    return EXIT_OK if ok else EXIT_VIOLATION


def _make_adversary(spec: str, seed: int, n: int):
    if spec == "random":
        return SeededRandomAdversary(seed, n)
    if spec.startswith("script:"):
        with open(spec.split(":", 1)[1]) as fh:
            return ScriptedAdversary.from_json(fh.read())
    raise InvalidArgumentError(f"unknown adversary {spec!r}")


def cmd_simulate(args) -> int:
    t0 = time.time()
    proto = resolve_protocol(args.protocol, args.n)
    inputs = _parse_ids(args.inputs) if args.inputs else list(range(args.n))
    rounds = args.horizon or proto.round_budget or 3
    import random as _random
    rng = _random.Random(args.seed)
    if args.groups:
        scheds = [sigma_schedule(_parse_groups(args.groups), args.n, proto.model)
                  for _ in range(rounds)]
    elif args.family == "partition":
        from .equivalence import _random_general_schedule
        scheds = [_random_general_schedule(args.n, proto.model, rng)
                  for _ in range(rounds)]
    else:
        scheds = [random_sigma_schedule(args.n, proto.model, rng)
                  for _ in range(rounds)]
    adv = _make_adversary(args.adversary, args.seed, args.n)
    exe = run_execution(proto, inputs, scheds, adv)
    trace = exe.to_jsonl()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(trace)
    else:
        sys.stdout.write(trace)
    decs = {p: v for p, (r, v) in exe.decision_rounds().items()}
    print(f"[itersc] simulate: {rounds} rounds, decisions {decs}", file=sys.stderr)
    return EXIT_OK


def cmd_verify_consensus(args) -> int:
    t0 = time.time()
    config = {"n": args.n, "mode": args.mode, "executions": args.executions,
              "seed": args.seed, "jobs": args.jobs}
    if args.mode == "auto":
        args.mode = "exhaustive" if args.n <= 4 else "sampled"
        config["mode"] = args.mode
    if args.mode == "exhaustive":
        if args.n > 4:
            print(f"[itersc] exhaustive verification is capped at n=4 "
                  f"(got n={args.n}); rerun with --mode sampled", file=sys.stderr)
            return EXIT_USAGE
        report = verify_consensus_exhaustive(args.n)
    else:
        report = _sampled_sweep(args.n, args.executions, args.seed, args.jobs)
    return _emit(args, "verify-consensus", config, report.to_jsonable(), report.ok, t0)


def _sampled_sweep(n: int, executions: int, seed: int, jobs: int, protocol: str = "consensus"):
    """Sampled sweep over ``jobs`` index ranges; every split gives the serial report."""
    if jobs <= 1:
        return verify_consensus_sampled(n, executions, seed, partial(resolve_protocol, protocol))
    from concurrent.futures import ProcessPoolExecutor
    chunk = max(1, -(-executions // jobs))
    specs = [(protocol, n, seed, lo, min(lo + chunk, executions))
             for lo in range(0, executions, chunk)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = list(pool.map(_sampled_worker, specs))
    firsts = [first for _bad, first in parts if first is not None]
    return SweepReport(n=n, mode="sampled", executions=executions,
                       violations=sum(bad for bad, _first in parts),
                       first_counterexample=min(firsts, key=lambda f: f["index"], default=None))


def _sampled_worker(spec):
    protocol, n, seed, lo, hi = spec
    return _sample_range(resolve_protocol(protocol, n), n, seed, lo, hi)


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
    from math import comb
    expected = comb(args.n, 2) if args.protocol == "consensus" else None
    ok = not report.partial and (expected is None or report.nu_total == expected)
    result = report.to_jsonable()
    result["expected_total"] = expected
    return _emit(args, "count-objects", config, result, ok, t0)


def cmd_transform(args) -> int:
    t0 = time.time()
    proto = resolve_protocol(args.source, args.n)
    config = {"direction": args.direction, "source": args.source, "n": args.n,
              "check": args.check, "seed": args.seed}
    if args.direction == "wro2owr":
        sim = transform_wro_to_owr(proto)
    else:
        sim = transform_owr_to_wro(proto)
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
              "rounds": args.horizon, "seed": args.seed}
    if args.demo == "lower-bound":
        proto = resolve_protocol(args.automaton or "wor-pair12-min", args.n)
        result = lower_bound_demo(proto, rounds=args.horizon or 5)
        return _emit(args, "connectivity", config, result, result["ok"], t0)
    if args.demo == "wro-obstruction":
        from .samples import wro_obstruction_samples
        reports = []
        if args.automaton:
            protos = {args.automaton: resolve_protocol(args.automaton, args.n)}
        else:
            protos = wro_obstruction_samples(args.n)
        for name, proto in protos.items():
            reports.append(wro_obstruction_demo(proto, args.n, args.horizon or 5))
        ok = all(r["ok"] for r in reports)
        return _emit(args, "connectivity", config, {"samples": reports}, ok, t0)
    if args.demo == "partition-round":
        proto = resolve_protocol(args.automaton or "wor-pair12-min", args.n)
        a = _parse_ids(args.block_a or "1,2")
        b = _parse_ids(args.block_b or "3")
        state = make_initial_state(args.n, list(range(args.n)), proto.model, proto)
        path = connect_partition_round(state, a, b, proto)
        result = {"path": path.to_jsonable(), "verified": path.verify()}
        return _emit(args, "connectivity", config, result, True, t0)
    print(f"[itersc] unknown connectivity demo {args.demo!r}", file=sys.stderr)
    return EXIT_USAGE


def cmd_johnson(args) -> int:
    t0 = time.time()
    config = {"op": args.op, "n": args.n, "m": args.m, "mode": args.mode,
              "set": args.set, "iterations": args.iterations, "seed": args.seed}
    if args.op == "vanish":
        report = verify_zeta_vanishing(args.n, args.m, args.mode, seed=args.seed or 0)
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
    if args.op == "partition":
        u = vertex_set(args.n, 2, _parse_vertices(args.set or ""))
        a, b = partition_two_blocks(u)
        ok = check_partition(u, a, b)
        result = {"A": sorted(a), "B": sorted(b), "checked": ok}
        return _emit(args, "johnson", config, result, ok, t0)
    print(f"[itersc] unknown johnson op {args.op!r}", file=sys.stderr)
    return EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itersc",
        description="Iterated shared-memory models with safe-consensus objects")
    parser.add_argument("--config", help="JSON config file (flags override it)")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--family", choices=["sigma", "partition"], default="sigma")
        p.add_argument("--adversary", default="random",
                       help="random | script:FILE")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--horizon", type=int, default=None)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("simulate", help="run one execution and dump its trace")
    common(p)
    p.add_argument("--protocol", default="consensus")
    p.add_argument("--inputs", default=None, help="comma-separated input values")
    p.add_argument("--groups", default=None,
                   help="sigma groups like '1,2|3' (fixed per round)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify-consensus", help="sweep the consensus protocol")
    common(p)
    p.add_argument("--mode", choices=["auto", "exhaustive", "sampled"], default="auto")
    p.add_argument("--executions", type=int, default=10000)
    p.set_defaults(func=cmd_verify_consensus)

    p = sub.add_parser("verify-2cc", help="sweep the 2coalitions subroutine")
    common(p)
    p.add_argument("--g", type=int, default=2)
    p.add_argument("--values", default=None, help="value domain, e.g. '5,7'")
    p.set_defaults(func=cmd_verify_2cc)

    p = sub.add_parser("count-objects", help="Gamma/nu table for a protocol")
    common(p)
    p.add_argument("--protocol", default="consensus")
    p.set_defaults(func=cmd_count_objects)

    p = sub.add_parser("transform", help="model simulation descriptors")
    common(p)
    p.add_argument("--direction", choices=["wro2owr", "owr2wro"], required=True)
    p.add_argument("--source", required=True, help="source protocol name")
    p.add_argument("--check", type=int, default=0,
                   help="verify decision correspondence over N random runs")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("connectivity", help="path constructions and demos")
    common(p)
    p.add_argument("--demo", choices=["lower-bound", "wro-obstruction",
                                      "partition-round"], required=True)
    p.add_argument("--automaton", default=None)
    p.add_argument("--block-a", default=None)
    p.add_argument("--block-b", default=None)
    p.set_defaults(func=cmd_connectivity)

    p = sub.add_parser("johnson", help="Johnson graph combinatorics")
    common(p)
    p.add_argument("--op", choices=["vanish", "zeta", "components", "partition"],
                   required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--set", default=None, help="vertices like '1,2;2,3'")
    p.add_argument("--iterations", type=int, default=None)
    p.set_defaults(func=cmd_johnson)

    p = sub.add_parser("samples", help="list the bundled protocol names")
    p.set_defaults(func=lambda args: (print(json.dumps(sample_names(), indent=2)), EXIT_OK)[1])
    return parser


def _apply_config_file(parser, argv):
    """flags > config file > defaults."""
    ns, _ = parser.parse_known_args(argv)
    if not getattr(ns, "config", None):
        return argv
    with open(ns.config) as fh:
        cfg = json.load(fh)
    extra: list[str] = []
    given = {a.split("=")[0] for a in argv if a.startswith("--")}
    for key, value in cfg.items():
        flag = f"--{key.replace('_', '-')}"
        if flag in given or flag in argv:
            continue
        extra += [flag, str(value)]
    return argv + extra


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    level = os.environ.get("ITERSC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        stream=sys.stderr)
    parser = build_parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if not getattr(args, "command", None):
        parser.print_help(file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"[itersc] budget exceeded: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IterscError as exc:
        print(f"[itersc] error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

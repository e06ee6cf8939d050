"""CLI contract: exit codes, report envelopes, reproducibility."""

from __future__ import annotations

import argparse
import concurrent.futures
import json

import pytest

from itersc import executor
from itersc.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, build_parser, main
from itersc.executor import enumerate_round_schedules, make_schedule, verify_consensus_sampled


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_johnson_vanish_report(capsys):
    code, out, err = run_cli(capsys, "johnson", "--op", "vanish", "--n", "4", "--m", "2")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["ok"] and report["command"] == "johnson"
    assert report["result"]["counterexamples"] == []
    assert "version" in report and "wall_time_s" in report
    assert "pass" in err


def test_johnson_partition_and_zeta(capsys):
    code, out, _ = run_cli(capsys, "johnson", "--op", "partition", "--n", "4",
                           "--set", "1,2;3,4")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["result"] == {"A": [1, 2], "B": [3, 4], "checked": True}

    code, out, _ = run_cli(capsys, "johnson", "--op", "zeta", "--n", "3",
                           "--m", "2", "--set", "1,2;2,3")
    assert json.loads(out)["result"]["vertices"] == [[1, 2, 3]]


def test_count_objects_consensus(capsys):
    code, out, _ = run_cli(capsys, "count-objects", "--protocol", "consensus",
                           "--n", "3")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["result"]["nu_total"] == 3 == rep["result"]["expected_total"]


def test_verify_consensus_small(capsys):
    code, out, _ = run_cli(capsys, "verify-consensus", "--n", "2")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["result"]["violations"] == 0


def test_verify_consensus_budget_guard(capsys):
    for n in ("5", "7"):
        code, _, err = run_cli(capsys, "verify-consensus", "--n", n,
                               "--mode", "exhaustive")
        assert code == EXIT_USAGE
        assert "sampled" in err  # points at the sampled mode


def test_verify_2cc(capsys):
    code, out, _ = run_cli(capsys, "verify-2cc", "--g", "2")
    assert code == EXIT_OK
    assert json.loads(out)["result"]["violations"] == 0


def test_transform_descriptor_and_check(capsys):
    code, out, _ = run_cli(capsys, "transform", "--source", "wro-solo-d2", "--n", "3",
                           "--check", "20")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["result"]["source"]["model"] == "WRO"
    assert rep["result"]["simulation"]["model"] == "OWR"
    assert rep["result"]["correspondence"]["mismatches"] == 0


def test_connectivity_lower_bound(capsys):
    code, out, _ = run_cli(capsys, "connectivity", "--demo", "lower-bound",
                           "--automaton", "wor-solo-min", "--horizon", "2")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["result"]["valency"] == {"all-0": "0-valent", "all-1": "1-valent"}


def test_connectivity_lower_bound_one_round_is_too_short(capsys):
    code, out, _ = run_cli(capsys, "connectivity", "--demo", "lower-bound", "--horizon", "1")
    assert code == EXIT_VIOLATION
    result = json.loads(out)["result"]
    assert not result["ok"] and result["endpoint_decisions"] == {"first": {}, "last": {}}


def test_connectivity_wro_obstruction_single(capsys):
    code, out, _ = run_cli(capsys, "connectivity", "--demo", "wro-obstruction",
                           "--automaton", "wro-solo", "--horizon", "2")
    assert code == EXIT_OK


def test_connectivity_wro_obstruction_long_horizon(capsys):
    # guard: paths that grew every round would put round 20 out of reach
    code, out, _ = run_cli(capsys, "connectivity", "--demo", "wro-obstruction",
                           "--automaton", "wro-solo", "--horizon", "5")
    assert json.loads(out)["result"]["samples"][0]["per_round"][-1]["states"] <= 100
    code, out, _ = run_cli(capsys, "connectivity", "--demo", "wro-obstruction",
                           "--automaton", "wro-solo", "--horizon", "20")
    assert code == EXIT_OK
    (report,) = json.loads(out)["result"]["samples"]
    assert len(report["per_round"]) == 20
    assert all(r["raw_states"] >= r["states"] for r in report["per_round"])


def test_connectivity_lower_bound_long_horizon(capsys):
    # guard: a no-3-box path that grew threefold a round would put round 20
    # out of reach; round 7 fails fast instead
    code, out, _ = run_cli(capsys, "connectivity", "--demo", "lower-bound", "--horizon", "7")
    assert all(r["states"] <= 30 for r in json.loads(out)["result"]["no3box_rounds"])
    code, out, _ = run_cli(capsys, "connectivity", "--demo", "lower-bound", "--horizon", "20")
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["ok"] and result["rounds"] == 20
    for engine in ("partition_rounds", "no3box_rounds"):
        assert len(result[engine]) == 20
        assert all(r["states"] <= 30 for r in result[engine])


@pytest.mark.parametrize("demo,horizon", [("wro-obstruction", "-1"), ("lower-bound", "-2"),
                                          ("wro-obstruction", "0"), ("lower-bound", "0")])
def test_connectivity_demo_refuses_fewer_than_one_round(capsys, demo, horizon):
    code, out, err = run_cli(capsys, "connectivity", "--demo", demo, "--horizon", horizon)
    assert code == EXIT_USAGE and out == ""
    assert "at least one round" in err


@pytest.mark.parametrize("n", ["-1", "0", "1"])
@pytest.mark.parametrize("automaton", [(), ("--automaton", "wro-solo")], ids=["samples", "one"])
def test_connectivity_wro_obstruction_needs_two_processes(capsys, n, automaton):
    code, out, err = run_cli(capsys, "connectivity", "--demo", "wro-obstruction",
                             "--n", n, *automaton)
    assert code == EXIT_USAGE and out == ""
    assert err == f"[itersc] error: need at least 2 processes, got {n}\n"


@pytest.mark.parametrize("automaton", ["wor-solo-min", "consensus"])
def test_connectivity_wro_obstruction_refuses_a_wor_automaton(capsys, automaton):
    code, out, err = run_cli(capsys, "connectivity", "--demo", "wro-obstruction",
                             "--automaton", automaton)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("[itersc] error: the WRO obstruction needs a WRO or OWR automaton, "
                          "not the WOR automaton ") and len(err.splitlines()) == 1


def test_connectivity_wro_obstruction_runs_an_owr_automaton(capsys):
    # the WRO obstruction carries over to OWR, the model WRO is equivalent to
    code, out, _ = run_cli(capsys, "connectivity", "--demo", "wro-obstruction",
                           "--automaton", "owr-solo-d2")
    assert code == EXIT_OK
    (report,) = json.loads(out)["result"]["samples"]
    assert [(r["degree"], r["b_regular"]) for r in report["per_round"]] == [(2, True)] * 5


@pytest.mark.parametrize("horizon", ["-3", "2"])
def test_connectivity_partition_round_refuses_horizon(capsys, horizon):
    code, out, err = run_cli(capsys, "connectivity", "--demo", "partition-round",
                             "--horizon", horizon)
    assert code == EXIT_USAGE and out == ""
    assert "no --horizon" in err
    code, out, _ = run_cli(capsys, "connectivity", "--demo", "partition-round")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["config"]["rounds"] is None and report["result"]["verified"]


@pytest.mark.parametrize("flag", ["--block-a", "--block-b"])
@pytest.mark.parametrize("demo", ["lower-bound", "wro-obstruction"])
def test_connectivity_path_demos_refuse_blocks(capsys, demo, flag):
    # only partition-round reads the blocks, so a malformed value cannot pass unseen
    for value in ("a,b", "9", "1,2"):
        code, out, err = run_cli(capsys, "connectivity", "--demo", demo, flag, value,
                                 "--horizon", "2")
        assert code == EXIT_USAGE and out == ""
        assert err == f"[itersc] error: the {demo} demo builds no partition round; " \
                      f"it takes no {flag}\n"


@pytest.mark.parametrize("n", ["2", "4"])
def test_connectivity_lower_bound_is_three_process(capsys, n):
    code, out, err = run_cli(capsys, "connectivity", "--demo", "lower-bound",
                             "--n", n, "--horizon", "1")
    assert code == EXIT_USAGE and out == ""
    assert "3 processes" in err


def test_simulate_trace(capsys, tmp_path):
    out_file = tmp_path / "trace.jsonl"
    code, _, err = run_cli(capsys, "simulate", "--protocol", "consensus",
                           "--n", "3", "--inputs", "0,1,1", "--seed", "5",
                           "--out", str(out_file))
    assert code == EXIT_OK
    lines = out_file.read_text().strip().split("\n")
    assert len(lines) == 3
    assert all("schedule" in json.loads(line) for line in lines)


def test_simulate_refuses_zero_rounds(capsys):
    """``--horizon 0`` asks for no round, not for the protocol's round budget."""
    code, out, err = run_cli(capsys, "simulate", "--n", "6", "--horizon", "0")
    assert code == EXIT_USAGE and out == ""
    assert "at least one round schedule is required" in err


def test_enumerate_adversary_is_rejected(capsys):
    code, _, err = run_cli(capsys, "simulate", "--adversary", "enumerate")
    assert code == EXIT_USAGE
    assert "unknown adversary 'enumerate'" in err


SIMULATE_CONTENDED = ("simulate", "--n", "3", "--inputs", "0,1,1", "--seed", "3")


def test_simulate_script_replays_a_random_run_byte_for_byte(capsys, tmp_path):
    code, trace, _ = run_cli(capsys, *SIMULATE_CONTENDED, "--adversary", "random")
    assert code == EXIT_OK
    choices = [v for line in trace.splitlines() for _r, _o, v in json.loads(line)["choices"]]
    assert choices == [1, 3]  # two contended rounds: the script spans them
    script = tmp_path / "choices.json"
    script.write_text(json.dumps(choices))
    code, replayed, _ = run_cli(capsys, *SIMULATE_CONTENDED, "--adversary", f"script:{script}")
    assert code == EXIT_OK and replayed == trace


@pytest.mark.parametrize("text, message", [
    ('{"not": "a list"}', "adversary script must be a JSON array"),
    ("[true, true, true]", "adversary chose True outside 1..3"),  # a bool is not an id
], ids=["not-an-array", "booleans"])
def test_simulate_refuses_a_malformed_script(capsys, tmp_path, text, message):
    script = tmp_path / "script.json"
    script.write_text(text)
    code, out, err = run_cli(capsys, "simulate", "--n", "3", "--groups", "1,2,3",
                             "--inputs", "0,1,1", "--horizon", "3",
                             "--adversary", f"script:{script}")
    assert code == EXIT_USAGE and out == ""
    assert message in err


@pytest.mark.parametrize("text", [None, "[1, 2"], ids=["missing", "not-json"])
@pytest.mark.parametrize("argv", [("simulate", "--adversary", "script:{}"),
                                  ("verify-2cc", "--config", "{}")], ids=["script", "config"])
def test_unreadable_file_is_a_usage_error(capsys, tmp_path, argv, text):
    path = tmp_path / "file.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli(capsys, *(arg.format(path) for arg in argv))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("[itersc] error: cannot read") and str(path) in err


@pytest.mark.parametrize("argv", [("verify-2cc",), ("simulate", "--horizon", "1")],
                         ids=["verify-2cc", "simulate"])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv):
    out_path = tmp_path / "no-such-dir" / "report.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == EXIT_USAGE and out == "" and not out_path.parent.exists()
    assert err.startswith("[itersc] error: cannot write --out") and str(out_path) in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, item", [
    (("simulate", "--n", "3", "--inputs", "a,b,c"), "'a'"),
    (("simulate", "--n", "3", "--groups", "1,x"), "'x'"),
    (("johnson", "--op", "zeta", "--n", "4", "--set", "1,2;2,y"), "'y'"),
], ids=["inputs", "groups", "johnson-set"])
def test_non_integer_id_is_a_usage_error(capsys, argv, item):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("[itersc] error: ids must be integers") and item in err


@pytest.mark.parametrize("argv, message", [
    (("transform", "--source", "wro-solo-d2", "--check", "-1"),
     "executions must be at least 0, got -1"),
    (("simulate", "--n", "3", "--inputs", "0,1"), "--inputs has 2 values, but --n is 3"),
    (("simulate", "--n", "2", "--inputs", "0,1,1"), "--inputs has 3 values, but --n is 2"),
    (("verify-2cc", "--values", "5,5"), "value domain [5, 5] repeats a value"),
], ids=["negative-check", "too-few-inputs", "too-many-inputs", "repeated-2cc-value"])
def test_count_mismatch_is_a_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err == f"[itersc] error: {message}\n"


@pytest.mark.parametrize("source, direction", [
    ("wro-solo-d2", "wro2owr"), ("owr-solo-d2", "owr2wro")], ids=["wro", "owr"])
def test_transform_reads_its_direction_off_the_source_model(capsys, source, direction):
    code, out, _ = run_cli(capsys, "transform", "--source", source)
    assert code == EXIT_OK and json.loads(out)["config"]["direction"] == direction


def test_transform_refuses_a_wor_source(capsys):
    code, out, err = run_cli(capsys, "transform", "--source", "wor-solo-min")
    assert code == EXIT_USAGE and out == ""
    assert err == "[itersc] error: no simulation for model WOR\n"


def test_config_naming_the_derived_direction_exits_2(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"direction": "wro2owr", "source": "wro-solo-d2"}))
    code, out, err = run_cli(capsys, "transform", "--config", str(cfg))
    assert code == EXIT_USAGE and out == "" and "usage:" in err


def test_transform_check_zero_runs_no_check(capsys):
    code, out, _ = run_cli(capsys, "transform", "--source", "wro-solo-d2", "--check", "0")
    assert code == EXIT_OK and "correspondence" not in json.loads(out)["result"]


def test_config_must_be_an_object(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[2]")
    code, out, err = run_cli(capsys, "verify-2cc", "--config", str(cfg))
    assert code == EXIT_USAGE and out == ""
    assert "config file must hold a JSON object" in err


def test_unknown_command_exits_2(capsys):
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_config_file_precedence(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "m": 2, "op": "vanish"}))
    code, out, _ = run_cli(capsys, "johnson", "--config", str(cfg), "--op", "vanish")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["config"]["n"] == 4  # the config file supplied n

    # an explicit flag wins over the config file
    code, out, _ = run_cli(capsys, "johnson", "--config", str(cfg),
                           "--op", "vanish", "--n", "3")
    assert json.loads(out)["config"]["n"] == 3


def test_config_goes_after_the_subcommand(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2}))
    code, out, _ = run_cli(capsys, "verify-consensus", "--config", str(cfg))
    assert code == EXIT_OK and json.loads(out)["config"]["n"] == 2
    code, out, err = run_cli(capsys, "--config", str(cfg), "verify-consensus")
    assert code == EXIT_USAGE and out == "" and "usage:" in err


def test_report_is_reproducible_from_config(capsys):
    _, out1, _ = run_cli(capsys, "johnson", "--op", "vanish", "--n", "4", "--m", "2")
    _, out2, _ = run_cli(capsys, "johnson", "--op", "vanish", "--n", "4", "--m", "2")
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_time_s"), r2.pop("wall_time_s")
    assert r1 == r2


COMMON = {"--config", "--out"}
FLAGS = {
    "simulate": COMMON | {"--n", "--family", "--adversary", "--seed", "--horizon",
                          "--protocol", "--inputs", "--groups"},
    "verify-consensus": COMMON | {"--n", "--seed", "--jobs", "--mode", "--executions"},
    "verify-2cc": COMMON | {"--g", "--values"},
    "count-objects": COMMON | {"--n", "--protocol"},
    "transform": COMMON | {"--n", "--seed", "--source", "--check"},
    "connectivity": COMMON | {"--n", "--horizon", "--demo", "--automaton",
                              "--block-a", "--block-b"},
    "johnson": COMMON | {"--n", "--seed", "--op", "--m", "--mode", "--set", "--iterations"},
    "samples": set(),
}


def test_each_command_accepts_exactly_the_flags_it_reads():
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    accepted = {name: {flag for action in sub._actions for flag in action.option_strings}
                - {"-h", "--help"} for name, sub in commands.items()}
    assert accepted == FLAGS
    assert sum(len(flags) for flags in accepted.values()) == 48


@pytest.mark.parametrize("argv", [
    ("verify-2cc", "--n", "3"),
    ("verify-2cc", "--jobs", "4"),
    ("connectivity", "--demo", "lower-bound", "--seed", "1"),
    ("count-objects", "--horizon", "2"),
    ("johnson", "--op", "vanish", "--family", "sigma"),
    ("transform", "--direction", "wro2owr", "--source", "wro-solo-d2"),
])
def test_unread_flag_exits_2(capsys, argv):
    assert main(list(argv)) == EXIT_USAGE
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("transform", "--source", "wro-solo", "--check", "50"),
    ("connectivity", "--demo", "lower-bound", "--automaton", "wro-solo"),
    ("count-objects", "--protocol", "wro-solo"),
], ids=["transform-check", "lower-bound", "count-objects"])
def test_a_verdict_refuses_an_automaton_without_a_round_budget(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "[itersc] error: protocol wro-solo has no round budget; supply one\n"


def test_connectivity_config_holds_only_read_settings(capsys):
    code, out, _ = run_cli(capsys, "connectivity", "--demo", "wro-obstruction",
                           "--automaton", "wro-solo", "--horizon", "1")
    assert code == EXIT_OK
    report = json.loads(out)
    assert "seed" not in report["config"] and report["seed"] is None


@pytest.mark.parametrize("argv", [
    ("--groups", "1,2|3", "--family", "ordered-partition"),
    ("--family", "ordered-partition", "--groups", "1,2|3"),
], ids=["groups-first", "family-first"])
def test_simulate_refuses_groups_with_family(capsys, argv):
    """``--groups`` fixes every round's schedule, so no family is drawn from."""
    code, out, err = run_cli(capsys, "simulate", "--n", "3", "--horizon", "1", *argv)
    assert code == EXIT_USAGE and out == ""
    assert "usage:" in err and "not allowed with argument" in err


def test_simulate_ordered_partition_family(capsys, tmp_path):
    out_file = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(capsys, "simulate", "--n", "3", "--family", "ordered-partition",
                         "--seed", "3", "--out", str(out_file))
    assert code == EXIT_OK
    family = set(enumerate_round_schedules(3, "WOR", "ordered-partition"))
    sigma = set(enumerate_round_schedules(3, "WOR", "sigma"))
    scheds = [make_schedule("WOR", 3, json.loads(line)["schedule"])
              for line in out_file.read_text().splitlines()]
    assert len(scheds) == 3
    assert all(sched in family for sched in scheds)
    assert not all(sched in sigma for sched in scheds)  # 13 of the 7,117 are sigma


def test_sampled_sweep_starts_at_most_one_worker_per_cpu(monkeypatch):
    """``jobs`` sets the split, not the pool size; the fake pool maps in
    this process, so no worker starts even when the bound is missing."""
    workers = []

    class FakePool:
        def __init__(self, max_workers, mp_context=None, initializer=None, initargs=()):
            workers.append(max_workers)
            initializer(*initargs)

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(executor, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(executor, "_task", None)
    report = verify_consensus_sampled(3, 20, 0, jobs=10_000)
    assert workers and max(workers) <= 3
    assert report == verify_consensus_sampled(3, 20, 0, jobs=1)


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_consensus_refuses_fewer_than_one_job(capsys, mode, jobs):
    code, _, err = run_cli(capsys, "verify-consensus", "--n", "3", "--mode", mode,
                           "--executions", "10", "--jobs", jobs)
    assert code == EXIT_USAGE
    assert f"jobs must be at least 1, got {jobs}" in err


@pytest.mark.parametrize("executions", ["0", "-5"])
def test_verify_consensus_refuses_fewer_than_one_sampled_execution(capsys, executions):
    code, out, err = run_cli(capsys, "verify-consensus", "--n", "3", "--mode", "sampled",
                             "--executions", executions)
    assert code == EXIT_USAGE and out == ""
    assert f"executions must be at least 1, got {executions}" in err


def test_verify_consensus_config_holds_only_read_settings(capsys, monkeypatch):
    monkeypatch.setattr(executor, "_usable_cpus", lambda: 3)
    code, out, _ = run_cli(capsys, "verify-consensus", "--n", "2", "--executions", "-5",
                           "--seed", "9")
    assert code == EXIT_OK
    report = json.loads(out)
    # without --jobs, the job count the sweep resolved: 15 schedule sequences make one range
    assert report["config"] == {"n": 2, "mode": "exhaustive", "jobs": 1}
    assert report["seed"] is None
    code, out, _ = run_cli(capsys, "verify-consensus", "--n", "2", "--mode", "sampled",
                           "--executions", "5", "--seed", "9", "--jobs", "1")
    assert code == EXIT_OK
    assert json.loads(out)["config"] == {"n": 2, "mode": "sampled", "executions": 5,
                                         "seed": 9, "jobs": 1}


def test_verify_consensus_exhaustive_result_does_not_depend_on_jobs(capsys):
    results = []
    for jobs in ("1", "2"):
        code, out, _ = run_cli(capsys, "verify-consensus", "--mode", "exhaustive",
                               "--n", "3", "--jobs", jobs)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["config"]["jobs"] == int(jobs)
        results.append(report["result"])
    assert results[0] == results[1]

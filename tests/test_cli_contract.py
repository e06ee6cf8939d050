"""The CLI contract as a property over command lines drawn from the parser.

Every subcommand's flags, value types and ``choices`` come from
``build_parser()``; each drawn value is an edge value or a malformed text.
Whatever the command line, ``main`` returns 0, 1 or 2 without letting an
exception escape; exit 2 prints one ``[itersc]`` error line or argparse's
usage, and exits 0 and 1 print one JSON document (JSON lines for
``simulate``).  A ``--config`` file drawn the same way, with JSON scalars,
flat and nested arrays, objects, nulls and booleans per flag, runs exactly as
the command line its values stand for, and a value that stands for none
exits 2 naming its key.  Sizes stay desk-small: n <= 4, at most 50
executions, at most 3 rounds and one job.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from itersc.cli import EXIT_USAGE, build_parser, main
from itersc.samples import sample_names

SUBCOMMANDS = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
EDGES = (-1, 0, 1, 2, 3, 7)
INTS = {  # the flags whose edge values are capped to keep each call small
    "--n": range(-1, 5),
    "--executions": (-1, 0, 1, 2, 3, 7, 50),
    "--horizon": range(-1, 4),
    "--jobs": (-1, 0, 1),
}
IDS = ("", ",", "1,2", "3", "0,1,1", "1,,2", "-1,7", "a,b", "1 2")
TEXTS = {  # every free-text flag, with well-formed, empty and malformed values
    "--protocol": sample_names() + ["bogus"],
    "--automaton": sample_names() + ["bogus"],
    "--source": sample_names() + ["bogus"],
    "--inputs": IDS,
    "--values": IDS,
    "--block-a": IDS,
    "--block-b": IDS,
    "--groups": ("1,2|3", "1|2|3", "", "|", "1|x", "4,5"),
    "--set": ("1,2;2,3", "1,2;1,3;2,3", "", ";", "1;2", "1,2;2,y"),
    "--adversary": ("random", "script:no-such-script.json", "enumerate"),
}
ALWAYS = {"--jobs"}  # absent, it starts one worker per CPU
SKIPPED = {"--help", "--config", "--out"}  # files; covered in test_cli
ID_LISTS = {"--inputs", "--values", "--block-a", "--block-b"}  # a flat array joins with commas
CONFIGURED = sorted(name for name, sub in SUBCOMMANDS.items()
                    if any("--config" in a.option_strings for a in sub._actions))


def _values(action) -> st.SearchStrategy:
    flag = action.option_strings[-1]
    if action.choices:
        return st.sampled_from(sorted(action.choices) + ["bogus"])
    if action.type is int:
        return st.sampled_from([str(v) for v in INTS.get(flag, EDGES)])
    return st.sampled_from(TEXTS[flag])


@st.composite
def command_lines(draw) -> list:
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [name]
    for action in SUBCOMMANDS[name]._actions:
        flag = action.option_strings[-1]
        if flag in SKIPPED:
            continue
        if action.required or flag in ALWAYS or draw(st.booleans()):
            argv += [flag, draw(_values(action))]
    return argv


def _json_values(action) -> st.SearchStrategy:
    """A config value for the flag: its command-line texts as JSON scalars,
    flat and nested arrays, an object, null or a boolean."""
    flag = action.option_strings[-1]
    scalars = _values(action)
    if action.type is int:
        scalars = st.one_of(scalars, st.sampled_from(INTS.get(flag, EDGES)))
    items = st.sampled_from([0, 1, 2, 5, 7, -1, "1", "x"])
    return st.one_of(scalars, st.lists(items, max_size=3), st.just([[1, 2], [3]]),
                     st.just({"a": 1}), st.sampled_from([None, True, False]))


def _as_text(flag: str, value):
    """The command-line text a config value stands for; None if it has none."""
    if isinstance(value, list) and flag in ID_LISTS \
            and all(isinstance(v, (int, str)) and not isinstance(v, bool) for v in value):
        return ",".join(str(v) for v in value)
    return None if isinstance(value, (list, dict)) else str(value)


@st.composite
def config_runs(draw) -> tuple:
    """A parseable command line (the required flags and --jobs) and a config
    dict over the other flags."""
    name = draw(st.sampled_from(CONFIGURED))
    argv, cfg = [name], {}
    for action in SUBCOMMANDS[name]._actions:
        flag = action.option_strings[-1]
        if flag in SKIPPED:
            continue
        if action.required:  # a config file cannot supply it
            argv += [flag, draw(st.sampled_from(sorted(action.choices or sample_names())))]
        elif flag in ALWAYS:
            argv += [flag, draw(st.sampled_from(["0", "1"]))]
        elif draw(st.booleans()):
            cfg[flag[2:].replace("-", "_")] = draw(_json_values(action))
    return argv, cfg


def _run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    if code == EXIT_USAGE:
        assert out == "", argv
        lines = err.splitlines()
        assert "usage:" in err or (len(lines) == 1 and lines[0].startswith("[itersc] ")), argv
    elif argv[0] == "simulate":
        assert out and all(json.loads(line) for line in out.splitlines()), argv
    else:
        json.loads(out)
    return code, out, err


def _report(out: str) -> str:
    """A report without its wall time; JSON lines and no output stay as they are."""
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return out
    report.pop("wall_time_s", None)
    return json.dumps(report, sort_keys=True)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(command_lines())
@example(["connectivity", "--demo", "wro-obstruction", "--n", "-1"])
@example(["connectivity", "--demo", "wro-obstruction", "--automaton", "consensus"])
def test_every_command_line_keeps_the_exit_contract(argv):
    _run(argv)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(config_runs())
@example((["verify-2cc"], {"values": [5, 7]}))
@example((["simulate"], {"groups": [[1, 2], [3]], "n": 3}))
def test_every_config_file_keeps_the_exit_contract(run):
    argv, cfg = run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        code, out, err = _run(argv + ["--config", path])
    texts = {key: _as_text(f"--{key.replace('_', '-')}", value)
             for key, value in cfg.items() if value is not None}
    bad = [key for key, text in texts.items() if text is None]
    if bad:
        assert code == EXIT_USAGE and err.startswith(f"[itersc] error: config key {bad[0]!r} "), \
            (argv, cfg, err)
        return
    flags = [a for key, text in texts.items() for a in (f"--{key.replace('_', '-')}", text)]
    want_code, want_out, _ = _run(argv + flags)
    assert (code, _report(out)) == (want_code, _report(want_out)), (argv, cfg)

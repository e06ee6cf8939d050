"""The CLI contract as a property over command lines drawn from the parser.

Every subcommand's flags, value types and ``choices`` come from
``build_parser()``; each drawn value is an edge value or a malformed text.
Whatever the command line, ``main`` returns 0, 1 or 2 without letting an
exception escape; exit 2 prints one ``[itersc]`` error line or argparse's
usage, and exits 0 and 1 print one JSON document (JSON lines for
``simulate``).  Sizes stay desk-small: n <= 4, at most 50 executions, at most
3 rounds and one job.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json

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


@settings(max_examples=100, derandomize=True, deadline=None)
@given(command_lines())
@example(["connectivity", "--demo", "wro-obstruction", "--n", "-1"])
@example(["connectivity", "--demo", "wro-obstruction", "--automaton", "consensus"])
def test_every_command_line_keeps_the_exit_contract(argv):
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

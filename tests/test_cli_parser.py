"""Snapshot of the command-line parser: every command keeps its flags, their
defaults and whether they are required."""

import argparse

import pytest

from causalcorr.cli import _build_parser, run


# every command's (flag, required, default) triples, in the order the help lists the commands
PARSER_SNAPSHOT = {
    "graph-validate": {("--graph", True, None)},
    "check-correlation": {("--graph", True, None), ("--dist", True, None), ("--tol", False, 1e-09)},
    "eval-classical": {("--model", True, None), ("--out", False, None)},
    "eval-quantum": {("--model", True, None), ("--out", False, None)},
    "eval-hbn": {("--hbn", True, None), ("--out", False, None)},
    "to-hbn": {("--model", True, None), ("--out", False, None)},
    "from-hbn": {("--hbn", True, None), ("--out", False, None)},
    "push-determinism": {("--model", True, None), ("--out", False, None)},
    "embed-quantum": {("--model", True, None), ("--out", False, None)},
    "lift-edge": {("--model", True, None), ("--src", True, None), ("--dst", True, None),
                  ("--edge-id", False, None), ("--out", False, None)},
    "reroute-edge": {("--model", True, None), ("--edge", True, None), ("--via", True, None), ("--out", False, None)},
    "bell-gen": {("--parties", True, None), ("--settings", False, "2"), ("--outcomes", False, "2"),
                 ("--source-outcomes", False, 1), ("--out", False, None)},
    "bell-check-ns": {("--dist", True, None), ("--tol", False, 1e-09)},
    "bell-local": {("--dist", True, None), ("--tol", False, 1e-07), ("--exact", False, False)},
    "bell-quantum": {("--model", True, None), ("--out", False, None)},
    "chsh": {("--dist", True, None)},
    "poset-closure": {("--graph", True, None), ("--out", False, None)},
    "compress-cg": {("--dist", True, None), ("--cg", True, None), ("--eps", True, None), ("--out", False, None)},
}


class TestParser:
    def test_every_command_keeps_its_flags_and_defaults(self):
        [sub] = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == list(PARSER_SNAPSHOT)
        for name, command in sub.choices.items():
            flags = {(a.option_strings[-1], a.required, a.default) for a in command._actions if a.dest != "help"}
            assert flags == PARSER_SNAPSHOT[name], name
            assert all(a.help is None for a in command._actions if a.dest not in ("help", "exact")), name

    @pytest.mark.parametrize("command", list(PARSER_SNAPSHOT))
    def test_help_exits_0(self, command, capsys):
        assert run([command, "--help"]) == 0
        assert f"usage: causalcorr {command}" in capsys.readouterr().out

"""Robustness fuzz of the command line, in process.

Hypothesis mutates a valid model config (a value replaced by arbitrary
JSON, a key deleted, a key added) and draws an argument list from the
commands' own flags, spelled in full or in shapes only argparse parses,
and a small pool of good and bad values. Whatever it draws, ``cli.main``
returns one of the documented exit codes 0-3 and raises nothing, and a
nonzero exit writes exactly one ``error:`` line to stderr.

It also draws canonical command lines from the flag table, which
``cli.main`` parses without argparse, and checks that they parse to what
argparse's parser makes of them.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_cli import BASE
from toepfree import cli, commands
from toepfree.ncpoly import parse_rational

#: keys the config knows, and a few it does not
_KEYS = ["N", "degree_cap", "families", "variables", "name", "generators",
         "id", "distribution", "kind", "variance", "rate", "cumulants",
         "entries", "s", "s,p", "a~/b", ""]

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats()
    | st.text(alphabet="sp01/*+-, ()~XY", max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3),
    max_leaves=8,
)

_VARS = ["X", "X,Y", "Y,X", "C", "X,C", "Z", "", " ,X"]
#: each command with its flags, and the good and bad values a flag takes
_COMMANDS = {
    "moments": {"--vars": _VARS},
    "cumulants": {"--vars": _VARS},
    "rtransform": {"--vars": _VARS},
    "boxconv": {"--left": _VARS, "--right": _VARS},
    "check-free": {"--a": _VARS, "--b": _VARS},
    "check-even": {"--var": _VARS},
    "sparsity": {"--var": _VARS},
    "compress": {"--var": _VARS, "--alpha": ["1/2", "2", "0", "x"]},
    "nc list": {"--n": ["3", "1", "0", "99", "x"]},
    "nc mobius": {"--n": ["3", "1", "0", "99", "x"]},
    "bogus": {},
}


def _paths(node, at=()):
    """Every path into a JSON value below its root."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield (*at, key)
        yield from _paths(child, (*at, key))


@st.composite
def _configs(draw):
    config = json.loads(json.dumps(BASE))
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(config)) or [()]))
        if not path:
            break
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            parent[path[-1]] = draw(_JSON)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(_KEYS))] = draw(_JSON)
        else:
            parent.append(draw(_JSON))
    return config


def _spelled(draw, flag, values):
    """flag with one of values, as a pair or now and then as an
    abbreviation, one --flag=value token or given twice (the last value
    wins): shapes the CLI leaves to argparse."""
    value = draw(st.sampled_from(values))
    shape = draw(st.integers(0, 9))
    if shape == 7:
        return [flag[: max(3, len(flag) - 2)], value]
    if shape == 8:
        return [f"{flag}={value}"]
    if shape == 9:
        return [flag, draw(st.sampled_from(values)), flag, value]
    return [flag, value]


@st.composite
def _argvs(draw, config_path):
    command = draw(st.sampled_from(list(_COMMANDS)))
    argv = command.split()
    for flag, values in _COMMANDS[command].items():
        if draw(st.integers(0, 9)) < 9:  # now and then a flag is missing
            argv += _spelled(draw, flag, values)
    if draw(st.booleans()):
        argv += _spelled(draw, "--format", ["json", "csv", "xml"])
    if argv[0] != "nc":
        # a small degree keeps every drawn query fast; an over-cap one is
        # refused before any work
        argv += _spelled(draw, "--degree", ["2", "4", "9", "0", "-1"])
        if draw(st.integers(0, 9)) < 9:
            argv += _spelled(draw, "--config", [config_path])
    if draw(st.integers(0, 9)) == 0:  # an unknown flag
        argv += ["--bogus", "1"]
    return argv


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_cli_never_crashes_on_mutated_configs_and_argv(tmp_path, data):
    """Exit code in 0-3, no exception, and a nonzero exit writes exactly
    one error line."""
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(data.draw(_configs()), allow_nan=True))
    argv = data.draw(_argvs(str(path)))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    if code:
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        assert lines[0].endswith("\n"), (argv, lines)
    assert "Traceback" not in err.getvalue()


def _canonical_values(flag):
    """Values that the flag's type and choices accept, none starting with
    a dash."""
    if flag.choices:
        return st.sampled_from(flag.choices)
    if flag.type is int:
        return st.integers(0, 10**6).map(str)
    if flag.type is parse_rational:
        return st.integers(0, 99).map(str) | st.builds(
            "{}/{}".format, st.integers(0, 99), st.integers(1, 99)
        )
    return st.text(alphabet="XYZab,= /-.~", max_size=6).filter(
        lambda text: not text.startswith("-")
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_canonical_parse_matches_argparse(data):
    """For every command, a canonical command line (its flags in any order,
    any subset of the optional ones, valid values) parses straight from the
    flag table to the attributes argparse's parser gives it: the same
    names, the same values, the defaults of absent flags."""
    command = data.draw(st.sampled_from(list(cli._COMMANDS)))
    flags = cli._COMMANDS[command][1]
    chosen = [flag for flag in flags if flag.required or data.draw(st.booleans())]
    argv = command.split()
    for flag in data.draw(st.permutations(chosen)):
        argv += [flag.name, data.draw(_canonical_values(flag))]
    direct = cli._parse_canonical(argv)
    assert direct is not None, argv
    assert vars(direct) == vars(commands.build_parser().parse_args(argv)), argv


def test_other_command_lines_are_left_to_argparse():
    """Help, abbreviations, --flag=value, a value starting with a dash, a
    repeated, unknown or missing flag, a value its type or choices refuse
    and an unknown command are not canonical."""
    config = ["--config", "c.json"]
    for argv in (
        [],
        ["-h"],
        ["moments", "-h", *config],
        ["moments", "--vars", "X", "--deg", "3", *config],
        ["moments", "--vars=X", *config],
        ["moments", "--vars", "X", "--degree", "-1", *config],
        ["moments", "--vars", "X", "--vars", "Y", *config],
        ["moments", "--vars", "X", "--bogus", "1", *config],
        ["moments", "--vars", "X"],
        ["moments", "--vars", "X", "--degree", "x", *config],
        ["moments", "--vars", "X", "--format", "xml", *config],
        ["compress", "--var", "X", "--alpha", "1/0", *config],
        ["moments", "--vars", "X", "--config"],
        ["nc", "--n", "3"],
        ["nc", "list", "--n", "3", "--vars", "X"],
        ["bogus", "--n", "3"],
    ):
        assert cli._parse_canonical(argv) is None, argv

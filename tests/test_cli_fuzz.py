"""Robustness fuzz of the command line, in process.

Hypothesis mutates a valid model config (a value replaced by arbitrary
JSON, a key deleted, a key added) and draws an argument list from the
commands' own flags and a small pool of good and bad values. Whatever it
draws, ``cli.main`` returns one of the documented exit codes 0-3 and
raises nothing, and a nonzero exit writes exactly one ``error:`` line to
stderr.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_cli import BASE
from toepfree import cli

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


@st.composite
def _argvs(draw, config_path):
    command = draw(st.sampled_from(list(_COMMANDS)))
    argv = command.split()
    for flag, values in _COMMANDS[command].items():
        if draw(st.integers(0, 9)) < 9:  # now and then a flag is missing
            argv += [flag, draw(st.sampled_from(values))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "csv", "xml"]))]
    if argv[0] != "nc":
        # a small degree keeps every drawn query fast; an over-cap one is
        # refused before any work
        argv += ["--degree", draw(st.sampled_from(["2", "4", "9", "0", "-1"]))]
        if draw(st.integers(0, 9)) < 9:
            argv += ["--config", config_path]
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

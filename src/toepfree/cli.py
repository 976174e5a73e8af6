"""Command-line interface: config ingestion, dispatch, table emission.

Configs are JSON: a Toeplitz order N, an optional scalar degree cap, the
generator families with their distributions, and named variables whose N
entries are expression strings over the generators. Commands emit JSON
(default) or CSV tables with exact rational values; output is
deterministic byte-for-byte for identical inputs.

Exit codes: 0 success, 1 usage error, 2 configuration error, 3
mathematical domain error (zero trace, degree cap exceeded, ...). Every
failure prints a single machine-parsable line ``error: <slug>: <message>``
on the error stream.

This module runs the moments, cumulants, rtransform and check-free
commands. The other commands, help, and command lines that argparse must
parse or refuse are in ``commands``, imported only when one of them runs.
The series calculus and NC(n) are bound lazily (``_lazy``): only
``moments`` and ``boxconv`` execute ``series``, and no hot query executes
``nc_lattice``, so the others never compile them.
"""

from __future__ import annotations

import importlib.util
import io
import json
import os
import re
import sys
from itertools import product
from types import ModuleType, SimpleNamespace
from typing import Callable, Iterable, Mapping, Sequence, TypeAlias

from .errors import ConfigError, DimensionMismatch, EngineError
from .ncpoly import ExpressionError, _parse_ratio, parse_expr, parse_rational
from .scalar_space import DEFAULT_DEGREE, MAX_DEGREE, MomentFunctional, build_space
from .toeplitz_core import (
    TVariable,
    _json_entries,
    check_freeness,
    check_series_request,
    r_transform,
    t_cumulants,
)


def _lazy(name: str) -> ModuleType:
    """The package module ``name``, put in sys.modules now and executed
    on the first read of one of its attributes (the lazy-import recipe of
    the importlib documentation). A module already in sys.modules is
    returned as it is, executed or not, so every importer shares it."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        loader = spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
    return module


series = _lazy("series")
# unused here: perfbench/tracer.py wraps the compute modules it finds in
# sys.modules after importing this module, NC(n) among them
nc_lattice = _lazy("nc_lattice")

ENV_DEGREE_CAP = "TOEPFREE_DEGREE_CAP"

_TABLE_HEADER = ("query", "word", "entry", "value")


class UsageError(EngineError):
    """A bad command line: unknown names, malformed flags, shape misuse."""


def _slug(exc: BaseException) -> str:
    name = type(exc).__name__
    if name.endswith("Error") and name != "Error":
        name = name[: -len("Error")]
    return re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------


class Config:
    """A validated run configuration: the functional, and the variables by
    name, each of the configured order N."""

    __slots__ = ("functional", "variables")

    def __init__(self, functional: MomentFunctional,
                 variables: dict[str, TVariable]):
        self.functional, self.variables = functional, variables


def _pointer(*parts: object) -> str:
    """A JSON pointer (RFC 6901) to parts, with ~ and / in each part
    escaped as ~0 and ~1; a first part of several that starts with / is a
    pointer, which is extended as it is."""
    head = ""
    if len(parts) > 1 and str(parts[0]).startswith("/"):
        head, parts = str(parts[0]), parts[1:]
    return head + "".join(
        "/" + str(p).replace("~", "~0").replace("/", "~1") for p in parts
    )


def _config_fail(pointer: str, message: str) -> ConfigError:
    return ConfigError(f"at {pointer}: {message}")


def _want_int(value: object, pointer: str, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _config_fail(pointer, f"expected an integer, got {value!r}")
    if value < minimum:
        raise _config_fail(pointer, f"expected an integer >= {minimum}, got {value}")
    return value


def _want_str(value: object, pointer: str) -> str:
    if not isinstance(value, str) or not value:
        raise _config_fail(pointer, f"expected a nonempty string, got {value!r}")
    return value


def _want_list(value: object, pointer: str) -> list[object]:
    if not isinstance(value, list):
        raise _config_fail(pointer, f"expected a list, got {type(value).__name__}")
    return value


def _want_obj(value: object, pointer: str) -> dict[str, object]:
    if not isinstance(value, dict):
        raise _config_fail(pointer, f"expected an object, got {type(value).__name__}")
    return value


def _want_rational(value: object, pointer: str) -> object:
    """Distribution parameters must be exact: integers or 'p/q' strings,
    returned parsed, a string as integers (p, q)."""
    if isinstance(value, bool):
        raise _config_fail(pointer, "expected an exact rational, got a boolean")
    if isinstance(value, float):
        raise _config_fail(
            pointer, "floating-point values are not accepted; use 'p/q' strings"
        )
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return _parse_ratio(value)
        except (ValueError, ExpressionError) as exc:
            raise _config_fail(pointer, str(exc)) from None
    raise _config_fail(pointer, f"expected an exact rational, got {value!r}")


def _default_degree_cap() -> int:
    raw = os.environ.get(ENV_DEGREE_CAP)
    if raw is None:
        return DEFAULT_DEGREE
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigError(
            f"{ENV_DEGREE_CAP} must be an integer, got {raw!r}" if len(raw) <= 80
            else f"{ENV_DEGREE_CAP} must be an integer in 1..{MAX_DEGREE}, got "
            f"a value of {len(raw)} characters"
        ) from None
    if not 1 <= cap <= MAX_DEGREE:
        raise ConfigError(
            f"{ENV_DEGREE_CAP} must be in 1..{MAX_DEGREE}, got {cap}"
        )
    return cap


def _parse_distribution(
    dist: dict[str, object], pointer: str
) -> dict[str, object]:
    out = {"kind": _want_str(dist.get("kind"), _pointer(pointer, "kind"))}
    for key, value in dist.items():
        at = _pointer(pointer, key)
        if key == "cumulants":
            parsed: dict[tuple[str, ...], object] = {}
            for raw_key, raw_val in _want_obj(value, at).items():
                ids = tuple(part.strip() for part in raw_key.split(","))
                if not all(ids):
                    raise _config_fail(
                        _pointer(at, raw_key),
                        "expected comma-separated generator ids",
                    )
                parsed[ids] = _want_rational(raw_val, _pointer(at, raw_key))
            out[key] = parsed
        elif key != "kind":
            out[key] = _want_rational(value, at)
    return out


def load_config(path: str) -> Config:
    """Read, validate, and assemble a Config; every expression is parsed
    eagerly so malformed configs fail before any computation starts."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ConfigError("invalid JSON: nested too deeply") from None
    except ValueError:  # an integer over the interpreter's digit limit
        from .commands import long_integer_error

        raise long_integer_error(text) from None
    top = _want_obj(root, "/")

    known = {"N", "degree_cap", "families", "variables"}
    for key in top:
        if key not in known:
            raise _config_fail(_pointer(key), "unknown configuration key")

    order = _want_int(top.get("N"), "/N")
    degree_cap = (_want_int(top["degree_cap"], "/degree_cap")
                  if "degree_cap" in top else _default_degree_cap())
    if degree_cap > MAX_DEGREE:
        raise _config_fail(
            "/degree_cap",
            f"expected an integer <= {MAX_DEGREE}, got {degree_cap}",
        )

    family_tables: dict[str, dict[str, dict[str, object]]] = {}
    gen_ids: list[str] = []
    families = _want_list(top.get("families"), "/families")
    for f_at, raw_family in enumerate(families):
        f_ptr = _pointer("/families", f_at)
        family = _want_obj(raw_family, f_ptr)
        name = _want_str(family.get("name"), _pointer(f_ptr, "name"))
        if name in family_tables:
            raise _config_fail(
                _pointer(f_ptr, "name"), f"duplicate family {name!r}"
            )
        table: dict[str, dict[str, object]] = {}
        generators = _want_list(
            family.get("generators"), _pointer(f_ptr, "generators")
        )
        for g_at, raw_gen in enumerate(generators):
            g_ptr = _pointer(f_ptr, "generators", g_at)
            gen = _want_obj(raw_gen, g_ptr)
            gen_id = _want_str(gen.get("id"), _pointer(g_ptr, "id"))
            if gen_id in gen_ids:
                raise _config_fail(
                    _pointer(g_ptr, "id"), f"duplicate generator id {gen_id!r}"
                )
            gen_ids.append(gen_id)
            dist = _want_obj(
                gen.get("distribution"), _pointer(g_ptr, "distribution")
            )
            table[gen_id] = _parse_distribution(
                dist, _pointer(g_ptr, "distribution")
            )
        family_tables[name] = table

    try:
        functional = build_space(family_tables, degree_cap)
    except ValueError as exc:
        raise ConfigError(f"in families: {exc}") from None

    variables: dict[str, TVariable] = {}
    raw_vars = _want_list(top.get("variables"), "/variables")
    for v_at, raw_var in enumerate(raw_vars):
        v_ptr = _pointer("/variables", v_at)
        var = _want_obj(raw_var, v_ptr)
        name = _want_str(var.get("name"), _pointer(v_ptr, "name"))
        if any(ch.isspace() for ch in name) or "," in name:
            raise _config_fail(
                _pointer(v_ptr, "name"),
                f"variable name {name!r} may not contain spaces or commas",
            )
        if name in variables:
            raise _config_fail(
                _pointer(v_ptr, "name"), f"duplicate variable {name!r}"
            )
        entries = _want_list(var.get("entries"), _pointer(v_ptr, "entries"))
        if len(entries) != order:
            raise _config_fail(
                _pointer(v_ptr, "entries"),
                f"expected exactly N={order} entries, got {len(entries)}",
            )
        polys = []
        for e_at, raw_entry in enumerate(entries):
            e_ptr = _pointer(v_ptr, "entries", e_at)
            source = _want_str(raw_entry, e_ptr)
            try:
                polys.append(parse_expr(source, gen_ids))
            except ExpressionError as exc:
                raise _config_fail(
                    e_ptr, f"{exc} (column {exc.position + 1})"
                ) from None
        variables[name] = TVariable.of(polys)

    return Config(functional, variables)


# --------------------------------------------------------------------------
# emission
# --------------------------------------------------------------------------

Row = tuple[str, str, int, str]


#: one command's result: a JSON payload, and a function that builds its
#: flat 4-column rows, called only for CSV output
Emission: TypeAlias = "tuple[object, Callable[[], list[Row]]]"


def _compact(obj: object) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _series_rows(query: str, items: Iterable[Mapping[str, object]]) -> list[Row]:
    """One row per entry of each {"word", "value"} item."""
    rows: list[Row] = []
    for item in items:
        word = _compact(item["word"])
        for at, value in enumerate(item["value"], start=1):  # type: ignore[arg-type]
            rows.append((query, word, at, value))
    return rows


def _emit(args: SimpleNamespace, emission: Emission) -> None:
    payload, rows = emission
    if args.format == "csv":
        import csv  # JSON is the default; only CSV output loads csv

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_TABLE_HEADER)
        writer.writerows(rows())
        text = buffer.getvalue()
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        stdout = sys.stdout
        if stdout is None:  # the process started with descriptor 1 closed
            raise OSError("standard output is closed")
        try:
            stdout.write(text)
            stdout.flush()
        except OSError:
            # what the stream still holds would fail again when the
            # interpreter flushes it at exit: point the descriptor at
            # os.devnull, the recipe of the signal module's documentation
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout.fileno())
            os.close(devnull)
            raise


# --------------------------------------------------------------------------
# command handlers
# --------------------------------------------------------------------------


def _resolve_vars(config: Config, spec: str, flag: str) -> list[TVariable]:
    names = [part.strip() for part in spec.split(",")]
    if not all(names):
        raise UsageError(f"{flag} expects comma-separated variable names")
    missing = [name for name in names if name not in config.variables]
    if missing:
        raise UsageError(
            f"unknown variable {missing[0]!r}; config declares "
            f"{', '.join(sorted(config.variables))}"
        )
    return [config.variables[name] for name in names]


def _degree_table(config: Config, args: SimpleNamespace) -> Emission:
    """The moments or cumulants table of args.command at one degree."""
    query = args.command
    vars_ = _resolve_vars(config, args.vars, "--vars")
    order, degree = check_series_request(config.functional, vars_, args.degree)
    words = list(product(range(1, len(vars_) + 1), repeat=degree))
    if query == "cumulants":
        values = (_json_entries(*value)
                  for value in t_cumulants(config.functional, vars_, words))
    else:  # the moments of the words of one degree, off the series' terms
        terms = series.moment_series(config.functional, vars_, degree)._terms
        values = (_json_entries(*terms.get(w, (1, [0] * order))) for w in words)
    out_rows = [{"word": list(w), "value": v} for w, v in zip(words, values)]
    payload = {
        "query": query,
        "s": len(vars_),
        "N": order,
        "degree": degree,
        "rows": out_rows,
    }
    return (payload, lambda: _series_rows(query, out_rows))


def _series_emission(query: str, series) -> Emission:
    obj = series.to_json_obj()
    return (obj, lambda: _series_rows(query, obj["coefficients"]))


def _cmd_rtransform(config: Config, args: SimpleNamespace) -> Emission:
    vars_ = _resolve_vars(config, args.vars, "--vars")
    series = r_transform(config.functional, vars_, args.degree)
    return _series_emission("rtransform", series)


def _cmd_check_free(config: Config, args: SimpleNamespace) -> Emission:
    group_a = _resolve_vars(config, args.a, "--a")
    group_b = _resolve_vars(config, args.b, "--b")
    report = check_freeness(config.functional, group_a, group_b, args.degree)
    witness = list(report.witness) if report.witness else None
    payload = {"query": "check-free", "free": report.free, "witness": witness}
    return (payload, lambda: [
        (
            "check-free",
            _compact(witness if witness is not None else []),
            0,
            "true" if report.free else "false",
        )
    ])


# --------------------------------------------------------------------------
# argument parsing and dispatch
# --------------------------------------------------------------------------


class _Flag:
    """One command-line flag, as both parsers read it."""

    __slots__ = ("name", "metavar", "type", "required", "default", "choices",
                 "help")

    def __init__(self, name: str, metavar: str | None = None,
                 type: Callable[[str], object] | None = None,
                 required: bool = False, default: object = None,
                 choices: tuple[str, ...] | None = None,
                 help: str | None = None):
        self.name, self.metavar, self.type, self.required = (
            name, metavar, type, required)
        self.default, self.choices, self.help = default, choices, help


_N = _Flag("--n", "K", int, True)
_VARS = _Flag("--vars", "X,Y", required=True)
_OUTPUT_FLAGS = (
    _Flag("--format", choices=("json", "csv"), default="json",
          help="output format (default json)"),
    _Flag("--out", "PATH", help="write output to PATH instead of stdout"),
)
_CONFIG_FLAGS = (
    _Flag("--config", "PATH", required=True, help="JSON configuration file"),
    _Flag("--degree", "N", int,
          help="truncation degree (default: the configured cap)"),
    *_OUTPUT_FLAGS,
)

#: every command in help order, with its help text and its flags in order
#: (a config command's own, then _CONFIG_FLAGS): the one place a flag is
#: declared, read by _parse_canonical and by commands.build_parser
_COMMANDS: dict[str, tuple[str, tuple[_Flag, ...]]] = {
    "nc list": ("enumerate NC(n)", (_N, *_OUTPUT_FLAGS)),
    "nc mobius": ("full Moebius table of NC(n)", (_N, *_OUTPUT_FLAGS)),
} | {
    command: (help_text, (*flags, *_CONFIG_FLAGS))
    for command, help_text, *flags in [
        ("moments", "moment table at one degree", _VARS),
        ("cumulants", "cumulant table at one degree", _VARS),
        ("rtransform", "R-transform series up to a degree", _VARS),
        ("boxconv", "boxed convolution of two R-transforms",
         _Flag("--left", "X,...", required=True),
         _Flag("--right", "Y,...", required=True)),
        ("check-free", "do all mixed cumulants across two groups vanish",
         _Flag("--a", "X,...", required=True),
         _Flag("--b", "Y,...", required=True)),
        ("check-even", "do all odd moments and cumulants vanish",
         _Flag("--var", "X", required=True)),
        ("compress", "R-transform after compression by a projection",
         _Flag("--var", "X", required=True),
         _Flag("--alpha", "p/q", parse_rational, True,
               help="trace of the projection (must be nonzero)")),
        ("sparsity", "R-transform sparsity pattern of a free-generator tuple",
         _Flag("--var", "A", required=True)),
    ]
}


def _parse_canonical(argv: list[str]) -> SimpleNamespace | None:
    """argv parsed straight from _COMMANDS if it is canonical, else None.

    Canonical: a command, then only ``--flag value`` pairs, each a flag of
    that command spelled in full and given once with a value not starting
    with ``-`` that converts by its type into its choices, every required
    flag present. Such a line gets argparse's attributes: command,
    nc_command for nc, and each flag's dest, its default when absent."""
    head = 2 if argv[:1] == ["nc"] else 1
    command = " ".join(argv[:head])
    if command not in _COMMANDS or (len(argv) - head) % 2:
        return None
    flags = {flag.name: flag for flag in _COMMANDS[command][1]}
    values: dict[str, object] = {}
    for name, text in zip(argv[head::2], argv[head + 1 :: 2]):
        flag = flags.get(name)
        if flag is None or name in values or text.startswith("-"):
            return None
        try:
            value = flag.type(text) if flag.type else text
        except (ValueError, ExpressionError):
            return None
        if flag.choices and value not in flag.choices:
            return None
        values[name] = value
    if any(flag.required and name not in values for name, flag in flags.items()):
        return None
    args = SimpleNamespace(command=argv[0])
    if head == 2:
        args.nc_command = argv[1]
    for name, flag in flags.items():
        setattr(args, name[2:], values.get(name, flag.default))
    return args


#: the handlers of the hot commands; commands.py holds the others
_HANDLERS = {
    "moments": _degree_table,
    "cumulants": _degree_table,
    "rtransform": _cmd_rtransform,
    "check-free": _cmd_check_free,
}


def _dispatch(args: SimpleNamespace) -> Emission:
    handler = _HANDLERS.get(args.command)
    if handler is None:  # a cold command: only now is its module compiled
        from . import commands

        if args.command == "nc":
            return commands.run_nc(args)
        handler = commands.HANDLERS[args.command]
    config = load_config(args.config)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if args.degree is not None and args.degree < 1:
        raise UsageError(f"--degree must be positive, got {args.degree}")
    return handler(config, args)


def _fail(exc: BaseException, code: int) -> int:
    sys.stderr.write(f"error: {_slug(exc)}: {exc}\n")
    return code


def main(argv: Sequence[str] | None = None) -> int:
    # a config is read under the interpreter's limit on the digits of an
    # integer (CPython 3.10.7 on); _dispatch lifts it once the config is
    # read, so that a result prints exactly, however long, and it is put
    # back here (int() is 0: no limit to put back)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _parse_canonical(argv)
        if args is None:  # help, or a line argparse must parse or refuse
            from .commands import build_parser

            args = SimpleNamespace(**vars(build_parser().parse_args(argv)))
        emission = _dispatch(args)
        try:
            _emit(args, emission)
        except OSError as exc:
            sys.stderr.write(f"error: io: {exc}\n")
            return 1
        return 0
    except (UsageError, DimensionMismatch) as exc:
        return _fail(exc, 1)
    except (ConfigError, ExpressionError) as exc:
        return _fail(exc, 2)
    except EngineError as exc:
        return _fail(exc, 3)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)

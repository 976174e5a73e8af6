"""The command-line commands that no moments, cumulants, rtransform or
check-free query runs, help, and the error of a config that holds an
integer too long to read.

``cli`` parses a canonical command line from its flag table and runs the
four commands above itself. It imports this module only for ``nc list``,
``nc mobius``, ``boxconv``, ``check-even``, ``compress`` and
``sparsity``, and for help and any command line that argparse must parse
or refuse, so that no other query compiles them.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from . import nc_lattice
from .cli import (
    _COMMANDS,
    Config,
    Emission,
    UsageError,
    _compact,
    _config_fail,
    _pointer,
    _resolve_vars,
    _series_emission,
    _series_rows,
)
from .errors import ConfigError, DegreeCapExceeded
from .ncpoly import ExpressionError, parse_rational
from .toeplitz_core import TVariable, r_transform

NC_MOBIUS_CAP = 7


def long_integer_error(text: str) -> ConfigError:
    """The error of a JSON config that json.loads refused for an integer
    over the interpreter's digit limit, the first problem it met: at the
    pointer of that integer, with its digits. The pointer is / if a later
    JSON error or a repeated key leaves no document to find it in."""
    limit, found = sys.get_int_max_str_digits(), []

    def parse_int(literal: str) -> object:
        try:
            return int(literal)
        except ValueError:
            found.append((literal,))  # a JSON value is never a tuple
            return found[-1]

    try:
        root = json.loads(text, parse_int=parse_int)
    except (ValueError, RecursionError):
        root = None
    pointer, stack = "/", [("", root)]
    while stack:  # depth first, in document order
        at, node = stack.pop()
        if node is found[0]:
            pointer = at
            break
        items = (node.items() if isinstance(node, dict) else
                 enumerate(node) if isinstance(node, list) else ())
        stack += reversed([(at + _pointer(key), value) for key, value in items])
    digits = len(found[0][0].lstrip("-"))
    return _config_fail(pointer, f"integer of {digits} digits exceeds the "
                                 f"limit of {limit} digits")


def _resolve_var(config: Config, spec: str) -> TVariable:
    vars_ = _resolve_vars(config, spec, "--var")
    if len(vars_) != 1:
        raise UsageError(f"--var takes one variable, got {len(vars_)}")
    return vars_[0]


def _require_positive_n(n: int) -> None:
    if n < 1:
        raise UsageError(f"--n must be positive, got {n}")


def _cmd_nc_list(args: SimpleNamespace) -> Emission:
    _require_positive_n(args.n)
    partitions = nc_lattice.enumerate_nc(args.n)
    out_rows = [
        {"word": pi.to_json_obj(), "entry": at, "value": len(pi.blocks)}
        for at, pi in enumerate(partitions, start=1)
    ]
    payload = {
        "query": "nc-list",
        "n": args.n,
        "count": len(partitions),
        "rows": out_rows,
    }
    return (payload, lambda: [
        ("nc-list", _compact(row["word"]), row["entry"], str(row["value"]))
        for row in out_rows
    ])


def _cmd_nc_mobius(args: SimpleNamespace) -> Emission:
    _require_positive_n(args.n)
    if args.n > NC_MOBIUS_CAP:
        raise DegreeCapExceeded(
            f"mobius table for n = {args.n} exceeds the cap n <= "
            f"{NC_MOBIUS_CAP}"
        )
    out_rows = [
        {
            "word": [lo.to_json_obj(), hi.to_json_obj()],
            "entry": 0,
            "value": str(mu),  # an int
        }
        for lo, hi, mu in nc_lattice.mobius_intervals(args.n)
    ]
    payload = {"query": "nc-mobius", "n": args.n, "rows": out_rows}
    return (payload, lambda: [
        ("nc-mobius", _compact(row["word"]), 0, row["value"])
        for row in out_rows
    ])


def run_nc(args: SimpleNamespace) -> Emission:
    """The emission of ``nc list`` or ``nc mobius``, which read no config."""
    return (_cmd_nc_list if args.nc_command == "list" else _cmd_nc_mobius)(args)


def _cmd_boxconv(config: Config, args: SimpleNamespace) -> Emission:
    from .series import boxed_convolution

    left = _resolve_vars(config, args.left, "--left")
    right = _resolve_vars(config, args.right, "--right")
    if len(left) != len(right):
        raise UsageError(
            f"--left names {len(left)} variables but --right names "
            f"{len(right)}; boxed convolution needs equally long lists"
        )
    f = r_transform(config.functional, left, args.degree)
    g = r_transform(config.functional, right, args.degree)
    return _series_emission("boxconv", boxed_convolution(f, g))


def _cmd_check_even(config: Config, args: SimpleNamespace) -> Emission:
    from .extras import check_even

    var = _resolve_var(config, args.var)
    result = check_even(config.functional, var, args.degree)
    payload = {"query": "check-even", "even": result}
    return (payload, lambda: [
        ("check-even", "[]", 0, "true" if result else "false")
    ])


def _cmd_compress(config: Config, args: SimpleNamespace) -> Emission:
    from .extras import compress_r_transform, nonzero_trace

    var = _resolve_var(config, args.var)
    alpha = nonzero_trace(args.alpha)  # refused before any cumulant is summed
    base = r_transform(config.functional, [var], args.degree)
    return _series_emission("compress", compress_r_transform(base, alpha))


def _cmd_sparsity(config: Config, args: SimpleNamespace) -> Emission:
    from .extras import free_family_sparsity

    var = _resolve_var(config, args.var)
    series, pattern = free_family_sparsity(config.functional, var, args.degree)
    series_obj = series.to_json_obj()
    pattern_obj = [row.to_json_obj() for row in pattern]
    payload = {"query": "sparsity", "series": series_obj, "pattern": pattern_obj}
    return (payload, lambda: _series_rows(
        "sparsity", series_obj["coefficients"]
    ) + [
        ("sparsity-pattern", _compact([row["degree"], row["source"]]),
         row["entry"], row["value"])
        for row in pattern_obj
    ])


#: the handlers of the config commands this module holds
HANDLERS = {
    "boxconv": _cmd_boxconv,
    "check-even": _cmd_check_even,
    "compress": _cmd_compress,
    "sparsity": _cmd_sparsity,
}


def build_parser():
    """The argparse parser of every command, built from cli._COMMANDS; it
    serves help and every command line that is not canonical."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """Reports usage problems through UsageError."""

        def error(self, message: str) -> None:  # type: ignore[override]
            raise UsageError(message)

    def rational_flag(text: str):
        try:
            return parse_rational(text)
        except (ValueError, ExpressionError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    def int_flag(text: str) -> int:
        """int(text), refused in argparse's words, or by its length when
        it is long."""
        try:
            return int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}" if len(text) <= 80
                else f"invalid int value of {len(text)} characters") from None

    parser = Parser(prog="toepfree", description=(
        "Exact engine for moments, cumulants, R-transforms, and boxed "
        "convolution over Toeplitz matricial algebras."
    ))
    commands = parser.add_subparsers(dest="command", required=True)
    nc = commands.add_parser("nc", help="noncrossing partition lattice queries")
    groups = {"": commands, "nc": nc.add_subparsers(dest="nc_command", required=True)}
    for command, (help_text, flags) in _COMMANDS.items():
        group, _, name = command.rpartition(" ")
        sub = groups[group].add_parser(name, help=help_text)
        for flag in flags:
            sub.add_argument(
                flag.name, metavar=flag.metavar, required=flag.required,
                type={parse_rational: rational_flag, int: int_flag}.get(
                    flag.type, flag.type),
                default=flag.default, choices=flag.choices, help=flag.help,
            )
    return parser

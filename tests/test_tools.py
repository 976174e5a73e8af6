"""The repository's tools: the summary of tools/bench_pairs.py and the
counts of tools/compiled_nodes.py."""

import ast
import importlib.util
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool(name):
    path = ROOT / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_counts_wins_and_quartiles():
    """A pair is won by the side better in the metric's direction, a tie
    by neither; each side's median and quartiles are printed, and one run
    is its own median and quartiles."""
    tool = _tool("bench_pairs")
    parent = [4.0, 5.0, 6.0, 7.0, 8.0]
    change = [3.0, 5.0, 7.0, 6.0, 1.0]  # lower wins pairs 1, 4 and 5
    assert tool.summary("run_s", "lower", parent, change) == (
        "run_s        parent 6 [4.5, 7.5]  change 5 [2, 6.5]  -16.7%  won 3/5")
    assert tool.summary("rate", "higher", parent, change).endswith("won 1/5")
    assert tool.spread([2.0]) == (2.0, 2.0, 2.0)


#: the modules that no cumulants, rtransform or check-free query executes
#: (a moments query executes series)
COLD = {"toepfree.commands", "toepfree.extras", "toepfree.library",
        "toepfree.nc_lattice", "toepfree.series"}


def test_compiled_nodes_lists_what_a_query_executes(capsys):
    """A cumulants query on a golden config executes the CLI and the
    cumulant path but no cold module: neither the series calculus, nor
    NC(n), nor the library's views; each listed module's count is that of
    its source, and the total is their sum."""
    tool = _tool("compiled_nodes")
    config = ROOT / "tests" / "golden" / "moments_config.json"
    assert tool.main(["cumulants", "--vars", "X,Y", "--degree", "2",
                      "--config", str(config), "--out", os.devnull]) == 0
    lines = capsys.readouterr().out.splitlines()
    *rows, total = (line.split() for line in lines)
    counts = {name: int(count) for name, count in rows}
    assert {"toepfree.cli", "toepfree.toeplitz_core"} <= set(counts)
    assert COLD & set(counts) == set()
    source = ROOT / "src" / "toepfree" / "toeplitz_core.py"
    assert counts["toepfree.toeplitz_core"] == tool.nodes(source)
    assert total == ["total", str(sum(counts.values()))]


def test_over_cap_refusal_executes_no_cold_module():
    """The benchmark's over-cap probe, an rtransform whose scalar words
    outgrow the degree cap, here on a golden config: it exits 3 having
    executed the modules of a cumulants query and no cold one."""
    tool = _tool("compiled_nodes")
    config = str(ROOT / "tests" / "golden" / "moments_config.json")
    refused = tool.executed(["rtransform", "--vars", "X,Z", "--degree", "5",
                             "--config", config], status=3)
    hot = tool.executed(["cumulants", "--vars", "X,Y", "--degree", "2",
                         "--config", config, "--out", os.devnull])
    assert set(refused) == set(hot)
    assert COLD & set(refused) == set()


def test_compiled_nodes_lists_what_a_query_never_calls(capsys):
    """With --uncalled, the tool lists each function of the executed
    modules that the command compiled and never called, with the nodes of
    its definition: on a golden config with its own degree cap, the
    environment's cap is never read, and main, which every query calls,
    is not listed; nothing of a cold module is listed, and the total is
    the listed nodes' sum."""
    tool = _tool("compiled_nodes")
    config = ROOT / "tests" / "golden" / "moments_config.json"
    argv = ["cumulants", "--vars", "X,Y", "--degree", "2",
            "--config", str(config), "--out", os.devnull]
    assert tool.main(["--uncalled", *argv]) == 0
    *rows, total = (line.split() for line in capsys.readouterr().out.splitlines())
    sizes = {(module, name): int(size) for module, name, size in rows}
    source = (ROOT / "src" / "toepfree" / "cli.py").read_text(encoding="utf-8")
    cap = next(node for node in ast.parse(source).body
               if getattr(node, "name", None) == "_default_degree_cap")
    assert sizes[("toepfree.cli", "_default_degree_cap")] == sum(
        1 for _ in ast.walk(cap))
    assert ("toepfree.cli", "main") not in sizes
    assert {module for module, _ in sizes} <= set(tool.executed(argv))
    assert total == ["total", str(sum(sizes.values()))]


#: the most AST nodes each hot query may compile, the package's share of a
#: query's start-up: a change may lower a ceiling, and then pins the new
#: total here, but may not raise one
NODE_CEILINGS = {"cumulants": 10_695, "rtransform": 10_695,
                 "check-free": 10_695, "moments": 13_290,
                 "cumulants --format csv": 10_695,
                 "moments --format csv": 13_290, "nc list": 13_286}


def test_hot_queries_compile_no_more_nodes_than_their_ceilings():
    """tools/compiled_nodes.py on each hot command over a golden config,
    in JSON and, for cumulants and moments, in CSV, and on ``nc list``:
    the total nodes of the package modules it executes
    stay at or under the ceiling pinned for that command."""
    tool = _tool("compiled_nodes")
    golden = ROOT / "tests" / "golden"
    moments, k3 = golden / "moments_config.json", golden / "k3_config.json"
    lines = {
        "cumulants": ["--vars", "X,Y", "--degree", "3", "--config", moments],
        "rtransform": ["--vars", "X,Y", "--degree", "3", "--config", moments],
        "check-free": ["--a", "A1,A2", "--b", "A3", "--config", k3],
        "moments": ["--vars", "X,Y", "--degree", "3", "--config", moments],
        "nc list": ["--n", "3"],
    }
    for command in ("cumulants", "moments"):
        lines[f"{command} --format csv"] = lines[command]
    totals = {
        command: sum(map(tool.nodes, tool.executed(
            [*command.split(), *map(str, argv), "--out", os.devnull]
        ).values()))
        for command, argv in lines.items()
    }
    assert {c: t for c, t in totals.items() if t > NODE_CEILINGS[c]} == {}

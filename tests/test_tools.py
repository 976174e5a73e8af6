"""The repository's tools: the summary of tools/bench_pairs.py and the
counts of tools/compiled_nodes.py."""

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


def test_compiled_nodes_lists_what_a_query_executes(capsys):
    """A cumulants query on a golden config executes the CLI and the
    cumulant path but neither the series calculus nor NC(n); each listed
    module's count is that of its source, and the total is their sum."""
    tool = _tool("compiled_nodes")
    config = ROOT / "tests" / "golden" / "moments_config.json"
    assert tool.main(["cumulants", "--vars", "X,Y", "--degree", "2",
                      "--config", str(config), "--out", os.devnull]) == 0
    lines = capsys.readouterr().out.splitlines()
    *rows, total = (line.split() for line in lines)
    counts = {name: int(count) for name, count in rows}
    assert {"toepfree.cli", "toepfree.toeplitz_core"} <= set(counts)
    assert {"toepfree.series", "toepfree.nc_lattice"} & set(counts) == set()
    source = ROOT / "src" / "toepfree" / "toeplitz_core.py"
    assert counts["toepfree.toeplitz_core"] == tool.nodes(source)
    assert total == ["total", str(sum(counts.values()))]


#: the most AST nodes each hot query may compile, the package's share of a
#: query's start-up: a change may lower a ceiling, and then pins the new
#: total here, but may not raise one
NODE_CEILINGS = {"cumulants": 12_525, "rtransform": 12_525,
                 "check-free": 12_525, "moments": 15_120}


def test_hot_queries_compile_no_more_nodes_than_their_ceilings():
    """tools/compiled_nodes.py on each hot command over a golden config:
    the total nodes of the package modules it executes stay at or under
    the ceiling pinned for that command."""
    tool = _tool("compiled_nodes")
    golden = ROOT / "tests" / "golden"
    moments, k3 = golden / "moments_config.json", golden / "k3_config.json"
    lines = {
        "cumulants": ["--vars", "X,Y", "--degree", "3", "--config", moments],
        "rtransform": ["--vars", "X,Y", "--degree", "3", "--config", moments],
        "check-free": ["--a", "A1,A2", "--b", "A3", "--config", k3],
        "moments": ["--vars", "X,Y", "--degree", "3", "--config", moments],
    }
    totals = {
        command: sum(map(tool.nodes, tool.executed(
            [command, *map(str, argv), "--out", os.devnull]).values()))
        for command, argv in lines.items()
    }
    assert {c: t for c, t in totals.items() if t > NODE_CEILINGS[c]} == {}

"""The repository's tools: the summary of tools/bench_pairs.py."""

import importlib.util
from pathlib import Path


def _bench_pairs():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_counts_wins_and_quartiles():
    """A pair is won by the side better in the metric's direction, a tie
    by neither; each side's median and quartiles are printed, and one run
    is its own median and quartiles."""
    tool = _bench_pairs()
    parent = [4.0, 5.0, 6.0, 7.0, 8.0]
    change = [3.0, 5.0, 7.0, 6.0, 1.0]  # lower wins pairs 1, 4 and 5
    assert tool.summary("run_s", "lower", parent, change) == (
        "run_s        parent 6 [4.5, 7.5]  change 5 [2, 6.5]  -16.7%  won 3/5")
    assert tool.summary("rate", "higher", parent, change).endswith("won 1/5")
    assert tool.spread([2.0]) == (2.0, 2.0, 2.0)

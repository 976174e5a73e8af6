"""Alternated benchmark pairs: a parent revision against the working tree.

    python tools/bench_pairs.py --parent REV --workload lib_series \\
        --seed 901 --seconds 8 --pairs 10

Exports REV with ``git archive`` into a temporary directory, and copies
the working tree's files (tracked, or untracked and not ignored) into
another, so that no build output of either side, such as a stale
``__pycache__``, is read; both are removed when done. It runs
``perfbench/run.py`` in each once per pair, with the same --workload,
--seed and --seconds; odd pairs run the parent first, even pairs the
working tree. For each end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles, the change of
the medians, and how many pairs the working tree won (ties count for
neither side), then the failed operations of each side. Both sides run
the benchmark code of their own tree. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def export(revision: str, dest: Path) -> None:
    """Write the files of revision, as git archive gives them, under dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", revision],
                         cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)


def copy_tree(dest: Path) -> None:
    """Copy the working tree's files, as git lists them, under dest."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True).stdout
    for name in listed.decode().split("\0"):
        if name and (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run_bench(tree: Path, args: argparse.Namespace) -> dict:
    """One perfbench run in tree; its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench exited {proc.returncode} in {tree}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float]:
    """The median and the quartiles of values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def summary(name: str, better: str, parent: list[float],
            change: list[float]) -> str:
    """One metric's line: median [q1, q3] of each side, the change of the
    medians, and the pairs the change won."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    (pm, p1, p3), (cm, c1, c3) = spread(parent), spread(change)
    moved = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
    return (f"{name:<12} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
            f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  {moved}  "
            f"won {wins}/{len(parent)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True,
                        help="the git revision to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    # on SIGTERM, stop the running benchmark and remove both copies
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        parent, change = Path(scratch, "parent"), Path(scratch, "change")
        export(args.parent, parent)
        copy_tree(change)
        for pair in range(args.pairs):
            sides = [("parent", parent), ("change", change)]
            for side, tree in sides if pair % 2 == 0 else sides[::-1]:
                runs[side].append(run_bench(tree, args))
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s runs, "
          f"{args.pairs} pairs, parent {args.parent}: median [q1, q3]")
    for metric in metrics:
        name = metric["name"]
        print(summary(name, metric["better"],
                      [run["metrics"][name]["value"] for run in runs["parent"]],
                      [run["metrics"][name]["value"] for run in runs["change"]]))
    for side, done in runs.items():
        print(f"{side} failed {sum(run['failed'] for run in done)} of "
              f"{sum(run['attempted'] for run in done)} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The toepfree modules one command line executes, and their AST nodes.

    python tools/compiled_nodes.py cumulants --vars X,Y --degree 3 \\
        --config tests/golden/moments_config.json --out /dev/null

Runs ``python -m toepfree ARGS`` in a fresh interpreter, with the
repository's ``src`` first on PYTHONPATH and PYTHONDONTWRITEBYTECODE=1, as
a benchmark query runs. Started with -i, the interpreter reads a probe
from stdin once the command has exited. The probe lists the package
modules that were executed: a module bound lazily and never read is in
sys.modules, but keeps the lazy loader's module type and was never
compiled. For each executed module the tool prints the number of nodes
of its source's abstract syntax tree, the code the query compiled, then
their total. It exits 1 if the command does not exit 0. Standard library
only.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: prints the package modules of the exact module type, with their files
PROBE = (
    "import sys; print('EXECUTED', *(f'{name}={module.__file__}' "
    "for name, module in sys.modules.items() "
    "if name.split('.')[0] == 'toepfree' and type(module) is type(sys)))\n"
)


def executed(argv: list[str]) -> dict[str, Path]:
    """The package modules ``python -m toepfree argv`` executed, by name,
    with their source files; the entry point, run as __main__, is
    toepfree.__main__."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-i", "-m", "toepfree", *argv],
                          input=PROBE, capture_output=True, text=True, env=env)
    if "SystemExit: 0\n" not in proc.stderr:
        raise SystemExit(f"toepfree {' '.join(argv)} did not exit 0:\n"
                         f"{proc.stderr}")
    line = next(line for line in reversed(proc.stdout.splitlines())
                if line.startswith("EXECUTED"))
    modules = dict(item.split("=", 1) for item in line.split()[1:])
    modules["toepfree.__main__"] = str(Path(modules["toepfree"]).parent
                                       / "__main__.py")
    return {name: Path(file) for name, file in sorted(modules.items())}


def nodes(path: Path) -> int:
    """The number of nodes of the abstract syntax tree of path's source."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sum(1 for _ in ast.walk(tree))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    counts = {name: nodes(path) for name, path in executed(argv).items()}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}} {count:>7}")
    print(f"{'total':<{width}} {sum(counts.values()):>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

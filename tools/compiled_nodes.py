"""The toepfree modules one command line executes, and their AST nodes.

    python tools/compiled_nodes.py cumulants --vars X,Y --degree 3 \\
        --config tests/golden/moments_config.json --out /dev/null
    python tools/compiled_nodes.py --uncalled cumulants --vars X,Y ...

Runs ``python -m toepfree ARGS`` in a fresh interpreter, with the
repository's ``src`` first on PYTHONPATH and PYTHONDONTWRITEBYTECODE=1, as
a benchmark query runs. Started with -i, the interpreter reads a probe
from stdin once the command has exited. The probe lists the package
modules that were executed: a module bound lazily and never read is in
sys.modules, but keeps the lazy loader's module type and was never
compiled. For each executed module the tool prints the number of nodes
of its source's abstract syntax tree, the code the query compiled, then
their total. It exits 1 if the command does not exit 0.

With ``--uncalled`` first, it runs the command under a profile hook
instead (the entry point run by ``runpy``, so it raises SystemExit where
``python -m`` would end with ``os._exit``) and lists each function of the
executed modules that was compiled and never called: its module, its
qualified name and the nodes of its definition, then their total. A
function inside one never called is not listed apart; two lambdas on one
line count as called if either is. Standard library only.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: the package modules of the exact module type, by name, with their files
MODULES = (
    "{name: module.__file__ for name, module in sys.modules.items() "
    "if name.split('.')[0] == 'toepfree' and type(module) is type(sys)}"
)

#: prints the package modules that were executed
PROBE = f"import sys; print('EXECUTED', *(f'{{n}}={{f}}' for n, f in {MODULES}.items()))\n"

#: runs the entry point under a profile hook, then prints the exit code,
#: the executed modules and every code object called, as one JSON line
PROFILED = f"""
import json, runpy, sys
called = set()
def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno, code.co_name))
sys.setprofile(hook)
try:
    runpy.run_module("toepfree", run_name="__main__", alter_sys=True)
    status = 0
except SystemExit as exc:
    status = exc.code
sys.setprofile(None)
print("PROFILED", json.dumps([status, {MODULES}, sorted(called)]))
"""


def _env() -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}


def _with_main(modules: dict[str, str]) -> dict[str, Path]:
    """modules, with the entry point, run as __main__, as
    toepfree.__main__, sorted by name."""
    modules["toepfree.__main__"] = str(Path(modules["toepfree"]).parent
                                       / "__main__.py")
    return {name: Path(file) for name, file in sorted(modules.items())}


def executed(argv: list[str], status: int = 0) -> dict[str, Path]:
    """The package modules ``python -m toepfree argv`` executed, by name,
    with their source files; the command must exit with status."""
    proc = subprocess.run([sys.executable, "-i", "-m", "toepfree", *argv],
                          input=PROBE, capture_output=True, text=True,
                          env=_env())
    if f"SystemExit: {status}\n" not in proc.stderr:
        raise SystemExit(f"toepfree {' '.join(argv)} did not exit {status}:\n"
                         f"{proc.stderr}")
    line = next(line for line in reversed(proc.stdout.splitlines())
                if line.startswith("EXECUTED"))
    return _with_main(dict(item.split("=", 1) for item in line.split()[1:]))


def nodes(path: Path) -> int:
    """The number of nodes of the abstract syntax tree of path's source."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sum(1 for _ in ast.walk(tree))


def uncalled(argv: list[str]) -> list[tuple[str, str, int]]:
    """(module, qualified name, nodes) of each function that ``toepfree
    argv`` compiled and never called, in source order by module; the
    command must exit 0."""
    proc = subprocess.run([sys.executable, "-c", PROFILED, *argv],
                          capture_output=True, text=True, env=_env())
    line = next((line for line in reversed(proc.stdout.splitlines())
                 if line.startswith("PROFILED ")), None)
    if line is None or json.loads(line[9:])[0] != 0:
        raise SystemExit(f"toepfree {' '.join(argv)} did not exit 0:\n"
                         f"{proc.stderr}")
    _, modules, called = json.loads(line[9:])
    called = {(file, first, name) for file, first, name in called}
    found = []
    for module, path in _with_main(modules).items():
        file = str(path)

        def visit(node: ast.AST, qualname: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.Lambda)):
                    name = getattr(child, "name", "<lambda>")
                    first = min([child.lineno, *(d.lineno for d in
                                 getattr(child, "decorator_list", ()))])
                    if (file, first, name) in called:
                        visit(child, f"{qualname}{name}.")
                    else:
                        size = sum(1 for _ in ast.walk(child))
                        found.append((module, qualname + name, size))
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{qualname}{child.name}.")
                else:
                    visit(child, qualname)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--uncalled"]:
        rows = [(f"{module} {name}", size) for module, name, size
                in uncalled(argv[1:])]
    else:
        rows = [(name, nodes(path)) for name, path in executed(argv).items()]
    width = max(map(len, (label for label, _ in rows)), default=5)
    for label, size in rows:
        print(f"{label:<{width}} {size:>7}")
    print(f"{'total':<{width}} {sum(size for _, size in rows):>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

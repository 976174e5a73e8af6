"""End-to-end CLI tests: every subcommand, both formats, all exit codes.

Each case runs ``python -m toepfree`` in a fresh subprocess, so argument
parsing, config loading, computation, emission, and the documented exit
codes are all exercised exactly as a user would hit them. This works from
a checkout on ``PYTHONPATH`` as well as from an installed package.
"""

import ast
import csv
import errno
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import toepfree
from oracles import (
    boxed_convolution_kreweras,
    oracle_moment_series,
    t_cumulant_mobius,
)
from toepfree.cli import load_config
from toepfree.errors import ConfigError
from toepfree.series import BSeries, all_index_words
from toepfree.toeplitz_core import BScalar, b_mul

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.parent / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"

BASE = {
    "N": 2,
    "degree_cap": 6,
    "families": [
        {
            "name": "semi",
            "generators": [
                {
                    "id": "s",
                    "distribution": {"kind": "semicircular", "variance": 1},
                }
            ],
        },
        {
            "name": "pois",
            "generators": [
                {
                    "id": "p",
                    "distribution": {"kind": "free_poisson", "rate": "1/2"},
                }
            ],
        },
    ],
    "variables": [
        {"name": "X", "entries": ["s", "0"]},
        {"name": "Y", "entries": ["p", "1 + p"]},
        {"name": "C", "entries": ["2", "1/3"]},
    ],
}

SPARSE = {
    "N": 4,
    "degree_cap": 6,
    "families": [
        {
            "name": f"f{i}",
            "generators": [
                {
                    "id": f"a{i}",
                    "distribution": {"kind": "free_poisson", "rate": 1},
                }
            ],
        }
        for i in range(1, 5)
    ],
    "variables": [{"name": "A", "entries": ["a1", "a2", "a3", "a4"]}],
}


def run(
    *argv: str,
    env: dict | None = None,
    command: tuple = (sys.executable, "-m", "toepfree"),
):
    full_env = dict(os.environ)
    full_env.pop("TOEPFREE_DEGREE_CAP", None)
    if env:
        full_env.update(env)
    proc = subprocess.run(
        [*command, *argv],
        capture_output=True,
        text=True,
        env=full_env,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def cfg(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("cli") / "base.json"
    path.write_text(json.dumps(BASE))
    return str(path)


@pytest.fixture(scope="module")
def cfg_sparse(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("cli") / "sparse.json"
    path.write_text(json.dumps(SPARSE))
    return str(path)


# --------------------------------------------------------------------------
# lattice queries
# --------------------------------------------------------------------------


def test_nc_list_json_and_csv():
    code, out, err = run("nc", "list", "--n", "4")
    assert code == 0, err
    obj = json.loads(out)
    assert obj["query"] == "nc-list"
    assert obj["count"] == 14
    assert len(obj["rows"]) == 14
    assert obj["rows"][0] == {"word": [[1], [2], [3], [4]], "entry": 1, "value": 4}

    code, out, _ = run("nc", "list", "--n", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "query,word,entry,value"
    assert len(lines) == 15


def test_nc_list_is_deterministic():
    first = run("nc", "list", "--n", "5")
    second = run("nc", "list", "--n", "5")
    assert first == second


def test_nc_mobius_table():
    code, out, err = run("nc", "mobius", "--n", "3")
    assert code == 0, err
    obj = json.loads(out)
    assert obj["query"] == "nc-mobius"
    values = {
        (json.dumps(theta), json.dumps(pi)): row["value"]
        for row in obj["rows"]
        for theta, pi in [row["word"]]
    }
    bottom, top = json.dumps([[1], [2], [3]]), json.dumps([[1, 2, 3]])
    assert values[(bottom, top)] == "2"
    assert values[(top, top)] == "1"


def test_nc_commands_respect_caps():
    code, _, err = run("nc", "mobius", "--n", "9")
    assert code == 3 and err.startswith("error: degree-cap-exceeded:")
    code, _, err = run("nc", "list", "--n", "11")
    assert code == 3 and err.startswith("error: degree-cap-exceeded:")
    code, _, err = run("nc", "list", "--n", "0")
    assert code == 1


# --------------------------------------------------------------------------
# tables and series
# --------------------------------------------------------------------------


def test_moments_table(cfg):
    code, out, err = run("moments", "--vars", "X", "--degree", "2", "--config", cfg)
    assert code == 0, err
    obj = json.loads(out)
    assert obj["query"] == "moments"
    assert obj["rows"] == [{"word": [1, 1], "value": ["1", "0"]}]


def test_moments_goldens():
    """The degree-4 moments table of an N = 3 model with affine entries and
    a 2*s*p - p*s entry, in JSON and in CSV, and the up-front refusal of a
    pair whose scalar words outgrow the cap, are byte-identical to the
    frozen files. Every frozen value is the oracle's: per-word chains of
    matrix products with phi summed over NC(n)."""
    config = str(GOLDEN / "moments_config.json")
    argv = [sys.executable, "-m", "toepfree", "moments", "--degree", "4",
            "--config", config]
    for fmt in ("json", "csv"):
        proc = subprocess.run(
            [*argv, "--vars", "X,Y", "--format", fmt], capture_output=True
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == (GOLDEN / f"moments_d4.{fmt}").read_bytes()
    proc = subprocess.run([*argv, "--vars", "X,Z"], capture_output=True)
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr == (GOLDEN / "moments_over_cap.err").read_bytes()

    model = load_config(config)
    pair = [model.variables["X"], model.variables["Y"]]
    want = oracle_moment_series(model.functional, pair, 4)
    rows = json.loads((GOLDEN / "moments_d4.json").read_text())["rows"]
    assert len(rows) == 16
    for row in rows:
        assert row["value"] == want.coef(row["word"]).to_json_obj(), row
    assert sum(row["value"] != ["0", "0", "0"] for row in rows) == 16


def _golden_bytes(golden: str, *argv: str) -> bytes:
    """The frozen output of one query, checked to be what the query
    prints now: exit 0, nothing on stderr, stdout byte-identical."""
    proc = subprocess.run(
        [sys.executable, "-m", "toepfree", *argv], capture_output=True
    )
    assert (proc.returncode, proc.stderr) == (0, b""), argv
    frozen = (GOLDEN / golden).read_bytes()
    assert proc.stdout == frozen, argv
    return frozen


def _oracle_r_transform(functional, vars_, degree):
    """The R-transform with every coefficient taken by Möbius inversion of
    the oracle's moments (``t_cumulant_mobius``)."""
    words = list(all_index_words(len(vars_), degree))
    coeffs = {w: t_cumulant_mobius(functional, vars_, w) for w in words}
    return BSeries(len(vars_), vars_[0].order, degree, coeffs)


def test_check_free_golden():
    """check-free of A1,A2 against A3 on the third-cumulant model is frozen;
    its witness is recomputed as the first mixed word, shortest first, of
    nonzero Möbius-oracle cumulant."""
    config = str(GOLDEN / "k3_config.json")
    frozen = _golden_bytes(
        "check_free_k3.json", "check-free", "--a", "A1,A2", "--b", "A3",
        "--config", config,
    )
    model = load_config(config)
    vars_ = [model.variables[name] for name in ("A1", "A2", "A3")]
    witness = next(
        list(word)
        for word in all_index_words(3, model.functional.degree_cap)
        if min(word) <= 2 < max(word)
        and not t_cumulant_mobius(model.functional, vars_, word).is_zero()
    )
    assert witness == [1, 2, 3]
    assert json.loads(frozen) == {
        "query": "check-free", "free": False, "witness": witness,
    }


def test_check_even_golden():
    """check-even of E = (s, 2t, s - t) over two semicircular families is
    frozen as true; every odd cumulant up to the cap is recomputed as zero
    by the Möbius oracle, and its even cumulants are not all zero."""
    config = str(GOLDEN / "sparsity_config.json")
    frozen = _golden_bytes(
        "check_even_e.json", "check-even", "--var", "E", "--config", config
    )
    model = load_config(config)
    var = [model.variables["E"]]
    cumulants = [
        t_cumulant_mobius(model.functional, var, (1,) * n)
        for n in range(1, model.functional.degree_cap + 1)
    ]
    even = all(k.is_zero() for k in cumulants[::2])
    assert even and not cumulants[1].is_zero()
    assert json.loads(frozen) == {"query": "check-even", "even": even}


def test_compress_golden():
    """compress of X by a trace-2/3 projection at degree 4 is frozen; each
    coefficient is recomputed as the Möbius-oracle cumulant times
    (2/3)^(n-1)."""
    config = str(GOLDEN / "moments_config.json")
    frozen = _golden_bytes(
        "compress_d4.json", "compress", "--var", "X", "--alpha", "2/3",
        "--degree", "4", "--config", config,
    )
    model = load_config(config)
    r = _oracle_r_transform(model.functional, [model.variables["X"]], 4)
    want = BSeries(1, 3, 4, {
        w: value.scale(Fraction(2, 3) ** (len(w) - 1)) for w, value in r.items()
    })
    assert len(want.words()) == 3
    assert BSeries.from_json_obj(json.loads(frozen)) == want


def test_rtransform_products_golden():
    """rtransform of X, Z at degree 2 on the golden moments model is
    frozen. Z's entry s*p*s puts three-letter words in the slots, so the
    degree-2 coefficients are cumulants with products as arguments; each
    coefficient is recomputed by the Möbius oracle."""
    config = str(GOLDEN / "moments_config.json")
    frozen = _golden_bytes(
        "rtransform_xz_d2.json", "rtransform", "--vars", "X,Z",
        "--degree", "2", "--config", config,
    )
    model = load_config(config)
    pair = [model.variables[name] for name in ("X", "Z")]
    want = _oracle_r_transform(model.functional, pair, 2)
    assert want.coef((2, 2)) == BScalar((Fraction(5, 2), 0, 0))
    assert BSeries.from_json_obj(json.loads(frozen)) == want


def test_boxconv_golden():
    """boxconv of X and Y at degree 4 is frozen; it is recomputed as the
    sum over NC(n) paired with Kreweras complements of the Möbius-oracle
    R-transforms of X and of Y."""
    config = str(GOLDEN / "moments_config.json")
    frozen = _golden_bytes(
        "boxconv_d4.json", "boxconv", "--left", "X", "--right", "Y",
        "--degree", "4", "--config", config,
    )
    model = load_config(config)
    f, g = (
        _oracle_r_transform(model.functional, [model.variables[name]], 4)
        for name in ("X", "Y")
    )
    want = boxed_convolution_kreweras(f, g)
    assert len(want.words()) == 4
    assert BSeries.from_json_obj(json.loads(frozen)) == want


def test_sparsity_goldens():
    """sparsity of A = (p, q, s), each generator alone in its family, is
    frozen in JSON and CSV at degree 4. The series is recomputed by the
    Möbius oracle; each pattern row follows the theorem with the closed-form
    cumulants (free Poisson of rate r: r at every order; semicircular of
    variance v: v at order 2 only); the CSV holds the JSON's rows."""
    config = str(GOLDEN / "sparsity_config.json")
    argv = ["sparsity", "--var", "A", "--degree", "4", "--config", config]
    frozen = json.loads(_golden_bytes("sparsity_d4.json", *argv))
    frozen_csv = _golden_bytes("sparsity_d4.csv", *argv, "--format", "csv")
    model = load_config(config)
    series = BSeries.from_json_obj(frozen["series"])
    assert series == _oracle_r_transform(
        model.functional, [model.variables["A"]], 4
    )
    kappa = {
        "p": lambda n: Fraction(1, 2),
        "q": lambda n: Fraction(3),
        "s": lambda n: Fraction(2 if n == 2 else 0),
    }
    pattern = []
    for n in range(1, 5):
        for j in range(1, 4):
            source = "pqs"[(j - 1) // n] if (j - 1) % n == 0 else None
            value = kappa[source](n) if source else Fraction(0)
            assert series.coef((1,) * n).entries[j - 1] == value
            pattern.append({
                "degree": n, "entry": j, "source": source, "value": str(value),
            })
    assert frozen["pattern"] == pattern
    def compact(obj):
        return json.dumps(obj, separators=(",", ":"))

    rows = [
        ["sparsity", compact(c["word"]), str(at), value]
        for c in frozen["series"]["coefficients"]
        for at, value in enumerate(c["value"], start=1)
    ] + [
        ["sparsity-pattern", compact([p["degree"], p["source"]]),
         str(p["entry"]), p["value"]]
        for p in pattern
    ]
    parsed = list(csv.reader(io.StringIO(frozen_csv.decode())))
    assert parsed == [["query", "word", "entry", "value"], *rows]


def test_cumulants_table_includes_zero_rows(cfg):
    code, out, err = run(
        "cumulants", "--vars", "X,Y", "--degree", "2", "--config", cfg
    )
    assert code == 0, err
    obj = json.loads(out)
    assert (obj["s"], obj["N"], obj["degree"]) == (2, 2, 2)
    table = {tuple(r["word"]): r["value"] for r in obj["rows"]}
    assert len(table) == 4  # every word of the degree, zeros included
    assert table[(1, 1)] == ["1", "0"]
    assert table[(1, 2)] == ["0", "0"]
    assert table[(2, 2)][0] == "1/2"


def test_rtransform_series(cfg):
    code, out, err = run(
        "rtransform", "--vars", "X", "--degree", "4", "--config", cfg
    )
    assert code == 0, err
    obj = json.loads(out)
    assert (obj["s"], obj["N"], obj["D"]) == (1, 2, 4)
    assert [tuple(r["word"]) for r in obj["coefficients"]] == [(1, 1)]
    assert obj["coefficients"][0]["value"] == ["1", "0"]


def test_boxconv_against_hand_computation(cfg):
    code, out, err = run(
        "boxconv", "--left", "X", "--right", "C", "--degree", "4",
        "--config", cfg,
    )
    assert code == 0, err
    obj = json.loads(out)
    got = {tuple(r["word"]): r["value"] for r in obj["coefficients"]}
    rc = BScalar.of([2, Fraction(1, 3)])
    expected = b_mul(BScalar.of([1, 0]), b_mul(rc, rc))
    assert got[(1, 1)] == expected.to_json_obj()


def test_check_free(cfg):
    code, out, _ = run("check-free", "--a", "X", "--b", "Y", "--config", cfg)
    assert code == 0
    assert json.loads(out) == {
        "query": "check-free",
        "free": True,
        "witness": None,
    }
    code, out, _ = run("check-free", "--a", "X", "--b", "X", "--config", cfg)
    assert code == 0
    obj = json.loads(out)
    assert obj["free"] is False and obj["witness"] == [1, 2]
    code, out, _ = run(
        "check-free", "--a", "X", "--b", "X", "--config", cfg,
        "--format", "csv",
    )
    assert 'check-free,"[1,2]",0,false' in out


def test_check_free_refuses_pruned_over_cap_words(tmp_path):
    """Words of W and B come from different families, so their mixed
    cumulants vanish, but a degree-8 scan still reaches scalar word tuples
    longer than the cap (s*s*s three times and p): the query is refused,
    not answered with "free": true."""
    config = dict(BASE, N=3, degree_cap=8, variables=[
        {"name": "W", "entries": ["s*s*s", "1/2*s", "0"]},
        {"name": "B", "entries": ["5/9*p", "-1/4*p", "3/2*p"]},
    ])
    path = tmp_path / "over_cap.json"
    path.write_text(json.dumps(config))
    code, out, err = run(
        "check-free", "--a", "W", "--b", "B", "--degree", "8",
        "--config", str(path),
    )
    assert (code, out) == (3, "")
    assert err == (
        "error: degree-cap-exceeded: word of length 10 exceeds degree cap 8\n"
    )


def test_check_even(cfg):
    code, out, _ = run("check-even", "--var", "X", "--config", cfg)
    assert code == 0
    assert json.loads(out) == {"query": "check-even", "even": True}
    code, out, _ = run("check-even", "--var", "Y", "--config", cfg)
    assert code == 0 and json.loads(out)["even"] is False


def test_check_even_refuses_over_cap_words_up_front(tmp_path):
    """check-even reads its odd moments off the R-transform, which needs
    every word of the series, so it makes the same up-front word-cap check
    as moments: X = (0, s*s, 1) at degree 3 needs the word s*s*s*s, from
    entry 2 of X twice, over the cap 3."""
    config = dict(BASE, N=3, degree_cap=3, variables=[
        {"name": "X", "entries": ["0", "s*s", "1"]},
    ])
    path = tmp_path / "even_over_cap.json"
    path.write_text(json.dumps(config))
    message = (
        "error: degree-cap-exceeded: degree 3 needs scalar words of length 4, "
        "over the degree cap 3\n"
    )
    for argv in (["check-even", "--var", "X"], ["moments", "--vars", "X"]):
        code, out, err = run(*argv, "--degree", "3", "--config", str(path))
        assert (code, out, err) == (3, "", message), argv


def test_compress(cfg):
    code, out, _ = run(
        "compress", "--var", "X", "--alpha", "1/2", "--degree", "4",
        "--config", cfg,
    )
    assert code == 0
    got = {
        tuple(r["word"]): r["value"]
        for r in json.loads(out)["coefficients"]
    }
    assert got[(1, 1)] == ["1/2", "0"]


def test_compress_zero_trace_exits_3(cfg):
    code, _, err = run("compress", "--var", "X", "--alpha", "0", "--config", cfg)
    assert code == 3 and err.startswith("error: zero-trace:")


def test_compress_refuses_zero_trace_before_the_r_transform(monkeypatch, capsys):
    """compress --alpha 0 is refused before any cumulant is summed: on the
    golden moments model at its default degree, whose R-transform the cap
    would refuse, it exits 3 with the zero trace, and r_transform is never
    called."""
    from toepfree import cli, commands, series

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return r_transform(*args, **kwargs)

    r_transform = series.r_transform
    monkeypatch.setattr(commands, "r_transform", counted)
    monkeypatch.setattr(series, "r_transform", counted)
    code = cli.main(["compress", "--var", "X", "--alpha", "0",
                     "--config", str(GOLDEN / "moments_config.json")])
    assert (code, calls) == (3, [])
    assert capsys.readouterr().err == (
        "error: zero-trace: compression needs a projection of nonzero trace\n"
    )


def test_sparsity_report(cfg, cfg_sparse):
    code, out, _ = run(
        "sparsity", "--var", "A", "--degree", "4", "--config", cfg_sparse
    )
    assert code == 0
    obj = json.loads(out)
    coeffs = {
        tuple(r["word"]): r["value"] for r in obj["series"]["coefficients"]
    }
    assert coeffs[(1, 1, 1)] == ["1", "0", "0", "1"]
    pattern = {
        (r["degree"], r["entry"]): (r["source"], r["value"])
        for r in obj["pattern"]
    }
    assert pattern[(3, 4)] == ("a2", "1")
    assert pattern[(3, 2)] == (None, "0")
    assert pattern[(2, 3)] == ("a2", "1")

    code, out, _ = run(
        "sparsity", "--var", "A", "--degree", "3", "--config", cfg_sparse,
        "--format", "csv",
    )
    assert code == 0
    kinds = {row[0] for row in csv.reader(io.StringIO(out))}
    assert kinds == {"query", "sparsity", "sparsity-pattern"}

    code, _, err = run("sparsity", "--var", "X", "--config", cfg)
    assert code == 3 and err.startswith("error: precondition:")


# --------------------------------------------------------------------------
# output plumbing
# --------------------------------------------------------------------------


def test_out_flag_writes_file(cfg, tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = run(
        "rtransform", "--vars", "X", "--degree", "2", "--config", cfg,
        "--out", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["D"] == 2


def test_out_flag_io_failure_exits_1(cfg, tmp_path):
    code, _, err = run(
        "rtransform", "--vars", "X", "--degree", "2", "--config", cfg,
        "--out", str(tmp_path),  # a directory: open() must fail
    )
    assert code == 1 and err.startswith("error: io:")


#: a query, run by the entry point (which may end with os._exit) and by a
#: plain call of cli.main (which ends with the interpreter's normal exit)
ENTRY_COMMANDS = {
    "entry-point": (sys.executable, "-m", "toepfree"),
    "cli-main": (sys.executable, "-c",
                 "import sys; from toepfree.cli import main; sys.exit(main())"),
}


@pytest.mark.parametrize("command", ENTRY_COMMANDS.values(),
                         ids=ENTRY_COMMANDS.keys())
def test_closed_stdout_is_an_io_error(command):
    """Started with descriptor 1 closed (sys.stdout is None), a query
    ends with one error: io line and exit 1, no traceback."""
    proc = subprocess.run(
        [*command, "nc", "list", "--n", "2"], stderr=subprocess.PIPE,
        text=True, preexec_fn=lambda: os.close(1),
    )
    assert (proc.returncode, proc.stderr) == (
        1, "error: io: standard output is closed\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command", ENTRY_COMMANDS.values(),
                         ids=ENTRY_COMMANDS.keys())
def test_full_stdout_is_an_io_error(command):
    """A small output to a buffered stdout on a full device fails when it
    is flushed: one error: io line and exit 1, with nothing left for the
    interpreter's exit to flush again (which printed an ignored OSError
    and exited 120). PYTHONUNBUFFERED would write straight through and
    hide the case, so the child runs without it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [*command, "nc", "list", "--n", "2"], stdout=full,
            stderr=subprocess.PIPE, text=True, env=env,
        )
    no_space = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert (proc.returncode, proc.stderr) == (1, f"error: io: {no_space}\n")


def test_config_commands_are_deterministic(cfg):
    first = run("rtransform", "--vars", "X,Y", "--degree", "3", "--config", cfg)
    second = run("rtransform", "--vars", "X,Y", "--degree", "3", "--config", cfg)
    assert first == second


def test_json_and_csv_carry_identical_triples(cfg):
    _, out_json, _ = run(
        "rtransform", "--vars", "X,Y", "--degree", "3", "--config", cfg
    )
    _, out_csv, _ = run(
        "rtransform", "--vars", "X,Y", "--degree", "3", "--config", cfg,
        "--format", "csv",
    )
    triples_json = {
        (json.dumps(row["word"], separators=(",", ":")), at, value)
        for row in json.loads(out_json)["coefficients"]
        for at, value in enumerate(row["value"], start=1)
    }
    triples_csv = {
        (row[1], int(row[2]), row[3])
        for row in list(csv.reader(io.StringIO(out_csv)))[1:]
    }
    assert triples_json == triples_csv


def _package_modules() -> dict[str, ast.Module]:
    """The syntax tree of each package module but __init__, by name."""
    package = Path(toepfree.__file__).parent
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in package.glob("*.py")
        if path.name != "__init__.py"
    }


def _referenced_names(tree: ast.Module) -> set[str]:
    """Every name a module's code reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _named_in_readme_code(name: str) -> bool:
    """Whether README.md names ``name`` in its inline code or code blocks."""
    text = README.read_text(encoding="utf-8")
    code = "\n".join(re.findall(r"```.*?```|`[^`\n]+`", text, re.S))
    return re.search(rf"\b{name}\b", code) is not None


def test_every_public_name_has_a_user():
    """Each name in toepfree.__all__ is referenced in the code of the CLI
    or of a package module other than its own, or named in the code of
    README.md (its inline code and code blocks). An export that nothing in
    the package uses and the README does not document fails here."""
    referenced = {
        module: _referenced_names(tree)
        for module, tree in _package_modules().items()
    }
    unused = []
    for name in toepfree.__all__:
        home = getattr(toepfree, name).__module__.rpartition(".")[2]
        if any(
            name in names for module, names in referenced.items() if module != home
        ):
            continue
        if not _named_in_readme_code(name):
            unused.append(name)
    assert unused == []


def test_every_public_function_and_method_has_a_user():
    """Each public top-level function, and each public method of a public
    class, in the package is referenced by name in package code or named
    in the code of README.md. A definition that only the tests call fails
    here: such routes belong in tests/oracles.py. The methods that
    ``library`` defines for a public class, on a namespace class named
    after it with a leading underscore, are held to this too."""
    modules = _package_modules()
    referenced = set().union(*map(_referenced_names, modules.values()))
    unused = []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined = [(node.name, node.name)]
            elif isinstance(node, ast.ClassDef) and (
                not node.name.startswith("_") or module == "library"
            ):
                defined = [
                    (f"{node.name}.{fn.name}", fn.name)
                    for fn in node.body
                    if isinstance(fn, ast.FunctionDef)
                ]
            else:
                continue
            for label, name in defined:
                if name.startswith("_") or name in referenced:
                    continue
                if not _named_in_readme_code(name):
                    unused.append(f"{module}.{label}")
    assert unused == []


#: the names in sys.modules of the modules that were executed: a module
#: bound lazily and never read has the lazy loader's subclass of the type
_EXECUTED = (
    "*(name for name, module in sys.modules.items() "
    "if type(module) is type(sys))"
)


def _loaded_after(statement: str, listed: str = "*sys.modules") -> set[str]:
    """The modules a fresh interpreter holds after running ``statement``,
    or the names ``listed`` gives then."""
    probe = f"import sys; {statement}; print({listed})"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _package_part(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "toepfree" or m.startswith("toepfree.")}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Every query is a fresh process, so the CLI's imports are paid on
    each call; ``dataclasses`` alone pulls in ``inspect``, ``ast``, ``dis``
    and ``tokenize``. A fresh interpreter that imports the CLI must have
    loaded neither module."""
    assert {"dataclasses", "inspect"} & _loaded_after("import toepfree.cli") == set()


def test_startup_loads_only_what_is_used():
    """``import toepfree`` loads no submodule (its names are bound on first
    use), nor ``fractions`` or ``argparse``. Importing the CLI loads every
    compute module up front, as perfbench/tracer.py expects when it reads
    them from sys.modules, but not ``csv``, which only CSV output uses, nor
    ``argparse`` or ``gettext``, which only help and command lines that are
    not canonical use: a canonical query through ``cli.main`` loads
    neither. Run through ``python -m toepfree``, each of the four hot
    commands loads exactly those package modules; ``nc list``, help and
    ``check-even`` also load ``toepfree.commands``, and only
    ``check-even`` of them loads ``toepfree.extras`` and
    ``toepfree.library``. Of the modules
    loaded, the CLI executes neither ``series`` nor ``nc_lattice`` on
    import, and neither do cumulants, rtransform and check-free; moments
    executes ``series`` alone of the two, and ``nc list`` executes
    ``nc_lattice``. ``nc list``, help, ``check-even`` and a ``cumulants``
    line that is not canonical execute no ``series``; ``boxconv`` does.
    Neither ``import toepfree.cli`` nor a hot command loads ``fractions``,
    or the ``decimal`` and ``numbers`` it would bring: the hot path runs
    on integers."""
    loaded = _loaded_after("import toepfree")
    assert _package_part(loaded) == {"toepfree"}
    assert {"fractions", "argparse"} & loaded == set()
    package = {"toepfree"} | {
        f"toepfree.{m}"
        for m in (
            "cli",
            "errors",
            "nc_lattice",
            "ncpoly",
            "scalar_space",
            "series",
            "toeplitz_core",
        )
    }
    loaded = _loaded_after("import toepfree.cli")
    assert _package_part(loaded) == package
    assert {"csv", "argparse", "gettext"} & loaded == set()
    assert {"fractions", "decimal", "numbers"} & loaded == set()
    lazy = {"toepfree.series", "toepfree.nc_lattice"}
    executed = _loaded_after("import toepfree.cli", _EXECUTED)
    assert _package_part(executed) == package - lazy
    argv = ["moments", "--vars", "X,Y", "--degree", "2",
            "--config", str(GOLDEN / "moments_config.json")]
    loaded = _loaded_after(
        "import os; from toepfree import cli; "
        f"assert cli.main({argv!r} + ['--out', os.devnull]) == 0"
    )
    assert _package_part(loaded) == package
    assert {"csv", "argparse", "gettext"} & loaded == set()
    # through the entry point, as every query runs: the hot commands load
    # just those modules; the others and help also load the cold CLI
    # module, and only the library routines they run load extras
    moments, k3 = GOLDEN / "moments_config.json", GOLDEN / "k3_config.json"
    out = ["--out", os.devnull]
    hot = [
        ["moments", "--vars", "X,Y", "--degree", "2", "--config", moments],
        ["cumulants", "--vars", "X,Y", "--degree", "2", "--config", moments],
        ["rtransform", "--vars", "X", "--degree", "3", "--config", moments],
        ["check-free", "--a", "A1,A2", "--b", "A3", "--config", k3],
    ]
    for argv in hot:
        loaded, executed = _entry_point_modules(*argv, *out)
        assert _package_part(loaded) == package, argv
        assert {"csv", "argparse", "gettext"} & loaded == set(), argv
        assert {"fractions", "decimal", "numbers"} & loaded == set(), argv
        unread = {"toepfree.nc_lattice"} if argv[0] == "moments" else lazy
        assert _package_part(executed) == package - unread, argv
    executed = _entry_point_modules("nc", "list", "--n", "3", *out)[1]
    assert "toepfree.nc_lattice" in executed
    # only boxconv, of the commands outside the CLI module, runs the series
    # calculus, and a command line that is not canonical does not run it
    for argv in [
        ["nc", "list", "--n", "3", *out],
        ["--help"],
        ["check-even", "--var", "X", "--degree", "2", "--config", moments,
         *out],
        ["cumulants", "--vars", "X,Y", "--deg", "2", "--config", moments,
         *out],
    ]:
        assert "toepfree.series" not in _entry_point_modules(*argv)[1], argv
    boxconv = ["boxconv", "--left", "X", "--right", "Y", "--degree", "2",
               "--config", moments, *out]
    assert "toepfree.series" in _entry_point_modules(*boxconv)[1]
    # check-even reads its R-transform's coefficients, BScalars built by
    # BSeries.coef, which toepfree.library defines
    cold = {
        ("toepfree.commands",): [["nc", "list", "--n", "3", *out], ["--help"]],
        ("toepfree.extras", "toepfree.library"): [
            ["check-even", "--var", "X", "--degree", "2", "--config", moments,
             *out],
        ],
    }
    for extra, lines in cold.items():
        want = package | {"toepfree.commands", *extra}
        for argv in lines:
            assert _package_part(_loaded_by_entry_point(*argv)) == want, argv


def _entry_point_modules(*argv: object) -> tuple[set[str], set[str]]:
    """The modules ``python -m toepfree argv`` holds when it exits 0, and
    those of them it executed. Run with -i, the interpreter reads a probe
    from stdin once the module has exited (printing the SystemExit that -i
    keeps from ending it)."""
    probe = (
        "import sys; print('MODULES', *sys.modules); "
        f"print('EXECUTED', {_EXECUTED})\n"
    )
    proc = subprocess.run(
        [sys.executable, "-i", "-m", "toepfree", *map(str, argv)],
        input=probe, capture_output=True, text=True,
    )
    assert "SystemExit: 0\n" in proc.stderr, proc.stderr
    loaded, executed = (line.split() for line in proc.stdout.splitlines()[-2:])
    assert (loaded[0], executed[0]) == ("MODULES", "EXECUTED"), proc.stdout
    return set(loaded[1:]), set(executed[1:])


def _loaded_by_entry_point(*argv: object) -> set[str]:
    """The modules ``python -m toepfree argv`` holds when it exits 0."""
    return _entry_point_modules(*argv)[0]


def test_tracer_installs_on_the_package():
    """perfbench/tracer.py imports the CLI and wraps its targets in the
    compute modules it then finds in sys.modules: in a fresh interpreter
    that install raises nothing, and the targets it reports missing are
    only the six the package no longer defines. The CLI's own bindings of
    r_transform and check_freeness are the wrappers, so that traced
    queries feed the series.r_transform and series.check_freeness spans."""
    probe = (
        "from tracer import Tracer; tracer = Tracer(); tracer.install(); "
        "from toepfree import cli; print(*tracer.missing); "
        "print(*(name for name in ('r_transform', 'check_freeness') "
        "if hasattr(getattr(cli, name), '__wrapped__')))"
    )
    src = Path(toepfree.__file__).resolve().parents[1]
    path = [str(src), str(PYPROJECT.parent / "perfbench")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    missing, wrapped = proc.stdout.split("\n")[:2]
    assert wrapped.split() == ["r_transform", "check_freeness"]
    assert set(missing.split()) <= {
        "nc_lattice.lattice",
        "nc_lattice.mu_to_top",
        "scalar_space.phi_word",
        "scalar_space.cumulant",
        "toeplitz_core.t_moment",
        "toeplitz_core.build_q",
    }


def _env_with_path(*paths: object) -> dict[str, str]:
    """os.environ with paths, then the package's source, first on
    PYTHONPATH."""
    src = Path(toepfree.__file__).resolve().parents[1]
    path = [*map(str, paths), str(src), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def test_tracer_still_writes_its_stats(tmp_path):
    """perfbench/tracer.py runs the entry point inside its own program,
    which must get control back: it writes its stats file after the query,
    with one cli.main call, and exits with the query's code."""
    stats = tmp_path / "stats.json"
    argv = ["cumulants", "--vars", "X,Y", "--degree", "3",
            "--config", str(GOLDEN / "moments_config.json"), "--out", os.devnull]
    proc = subprocess.run(
        [sys.executable, str(PYPROJECT.parent / "perfbench" / "tracer.py"),
         str(stats), *argv],
        capture_output=True, text=True, env=_env_with_path(),
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert json.loads(stats.read_text())["spans"]["cli.main"]["calls"] == 1


def test_entry_point_runs_exit_hooks_and_skips_teardown(tmp_path):
    """A sitecustomize registers an exit hook that writes a line to stderr
    and holds an object whose finalizer writes another. The entry point
    runs the hook and, as the whole program, skips the teardown that would
    run the finalizer; stdout and the exit code are those of a run without
    them. Under -X dev the interpreter's normal exit runs both."""
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, sys\n"
        "atexit.register(sys.stderr.write, 'exit hook\\n')\n"
        "class Finalized:\n"
        "    def __del__(self):\n"
        "        sys.stderr.write('finalized\\n')\n"
        "held = Finalized()\n"
    )
    argv = ["-m", "toepfree", "nc", "list", "--n", "2"]
    plain = run(*argv, command=(sys.executable,))
    assert plain[0] == 0 and plain[2] == ""
    env = _env_with_path(tmp_path)
    proc = subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, plain[1], "exit hook\n")
    proc = subprocess.run([sys.executable, "-X", "dev", *argv],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == plain[:2]
    assert proc.stderr.splitlines() == ["exit hook", "finalized"]


def test_entry_point_under_cprofile_prints_the_profile():
    """cProfile runs the entry point as a module of its own program and
    prints its profile after the query's output."""
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "toepfree", "nc", "list",
         "--n", "2"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    table, end = json.JSONDecoder().raw_decode(proc.stdout)
    profile = proc.stdout[end:]
    assert table["query"] == "nc-list"
    assert "function calls" in profile and "Ordered by" in profile


def test_lazy_namespace_contract():
    """Each public name read from the package is the object its home module
    defines, kept in the package namespace after the first read; the names
    are bound by a star import; an unknown name raises an AttributeError
    naming it; in a fresh interpreter ``dir`` lists every name before any is
    read, and reading one imports only its home module and what that module
    imports; and each compute module is a package attribute."""
    assert len(toepfree.__all__) == 37
    assert toepfree.__all__ == sorted(set(toepfree.__all__))
    for name in toepfree.__all__:
        value = getattr(toepfree, name)
        assert value is getattr(sys.modules[value.__module__], name), name
        assert vars(toepfree)[name] is value
    namespace: dict = {}
    exec("from toepfree import *", namespace)
    assert set(toepfree.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="'no_such_name'"):
        toepfree.no_such_name
    loaded = _package_part(
        _loaded_after(
            "import toepfree; "
            "assert set(toepfree.__all__) <= set(dir(toepfree)); "
            "toepfree.catalan"
        )
    )
    assert "toepfree.nc_lattice" in loaded
    assert "toepfree.series" not in loaded
    # the compute modules stay reachable as package attributes, which is the
    # only way to names outside __all__ such as nc_lattice.mobius_to_top
    loaded = _package_part(
        _loaded_after(
            "import toepfree; "
            "assert {'series', 'nc_lattice'} <= set(dir(toepfree)); "
            "toepfree.series.moments_from_r; "
            "toepfree.nc_lattice.mobius_to_top"
        )
    )
    assert {"toepfree.series", "toepfree.nc_lattice"} <= loaded
    for module in (
        "errors",
        "extras",
        "nc_lattice",
        "ncpoly",
        "scalar_space",
        "series",
        "toeplitz_core",
    ):
        assert getattr(toepfree, module) is sys.modules[f"toepfree.{module}"]


def test_deferred_names_match_the_library_namespaces():
    """Each class whose cold methods live on a ``library._<Class>``
    namespace defers exactly that namespace's members: each is a
    ``_Deferred`` of its own name on the class, or, once read, the
    namespace's object itself, and no other ``_Deferred`` is left on the
    class, so that a method added to one list and not the other fails
    here rather than going unbound."""
    from toepfree import _Deferred, library

    plain = {"__module__", "__doc__", "__qualname__", "__dict__",
             "__weakref__"}
    owners = (toepfree.NcPolynomial, toepfree.MomentFunctional,
              toepfree.TVariable, toepfree.BSeries)
    assert {f"_{cls.__name__}" for cls in owners} == {
        name for name, space in vars(library).items()
        if isinstance(space, type) and space.__module__ == library.__name__
        and name.startswith("_")}
    for cls in owners:
        name = f"_{cls.__name__}"
        members = {k: v for k, v in vars(getattr(library, name)).items()
                   if k not in plain}
        deferred = {k for k, v in vars(cls).items()
                    if isinstance(v, _Deferred)}
        assert deferred <= set(members), name
        for member, value in members.items():
            bound = vars(cls).get(member)
            assert bound is value or (isinstance(bound, _Deferred)
                                      and bound.name == member), (name, member)


#: run in a fresh interpreter with a JSON map from each hot module to the
#: names of its _from_library list; prints the names the module binds
#: itself, then those that library does not define or that a read from
#: the module does not resolve to library's object
_FROM_LIBRARY_PROBE = """
import importlib, json, sys
lists = json.loads(sys.argv[1])
modules = {m: importlib.import_module("toepfree." + m) for m in lists}
bound = [n for m, names in lists.items() for n in names if n in vars(modules[m])]
library = importlib.import_module("toepfree.library")
unresolved = [
    n for m, names in lists.items() for n in names
    if getattr(vars(library).get(n), "__module__", None) != library.__name__
    or getattr(modules[m], n) is not vars(library)[n]
]
print(json.dumps([bound, unresolved]))
"""


def test_from_library_lists_resolve_to_library():
    """Each name in a hot module's ``_from_library`` list is defined in
    ``library``, is not bound in the module's own namespace, so that the
    module's ``__getattr__`` serves it, and reads from the module as
    ``library``'s own object: checked in a fresh interpreter, so that a
    name added to a list and not moved, or moved and not listed, fails
    here rather than at a program's first read of it."""
    lists = {}
    for module, tree in _package_modules().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "_from_library"):
                lists[module] = node.args[1].value.split()
    assert set(lists) == {"ncpoly", "scalar_space", "toeplitz_core"}
    assert {"BScalar", "b_mul"} <= set(lists["toeplitz_core"])
    proc = subprocess.run(
        [sys.executable, "-c", _FROM_LIBRARY_PROBE, json.dumps(lists)],
        capture_output=True, text=True, env=_env_with_path(),
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert json.loads(proc.stdout) == [[], []]


def test_console_script_is_installed():
    """The `toepfree` script declared in pyproject.toml runs and works.

    The declared ``module:attr`` is called the way the wrapper that pip
    generates calls it, so no install is needed; an installed `toepfree`
    found on PATH is run as well.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    target = scripts.get("toepfree")
    assert target, "pyproject.toml declares no 'toepfree' console script"
    module, _, attr = target.partition(":")
    assert module and attr, f"entry point {target!r} is not module:attr"
    wrapper = (
        "import importlib, operator, sys\n"
        f"module = importlib.import_module({module!r})\n"
        f"func = operator.attrgetter({attr!r})(module)\n"
        "sys.argv[0] = 'toepfree'\n"
        "sys.exit(func())\n"
    )
    commands = [(sys.executable, "-c", wrapper)]
    exe = shutil.which("toepfree")
    if exe:
        commands.append((exe,))
    for command in commands:
        code, out, err = run("nc", "list", "--n", "3", command=command)
        assert code == 0, err
        assert json.loads(out)["count"] == 5


# --------------------------------------------------------------------------
# exit codes
# --------------------------------------------------------------------------


#: the exact stderr of some usage errors, keyed by their argv
USAGE_ERROR_LINES = {
    ("moments", "--vars", "X", "--deg", "x", "--config", "CFG"):
        "error: usage: argument --degree: invalid int value: 'x'\n",
    ("moments", "--vars=Z", "--config", "CFG"):
        "error: usage: unknown variable 'Z'; config declares C, X, Y\n",
    ("moments", "--vars", "X", "--vars", "Z", "--config", "CFG"):
        "error: usage: unknown variable 'Z'; config declares C, X, Y\n",
    ("moments", "--vars", "X", "--bogus", "1", "--config", "CFG"):
        "error: usage: unrecognized arguments: --bogus 1\n",
    ("compress", "--var", "X", "--alpha", "x", "--config", "CFG"):
        "error: usage: argument --alpha: bad rational literal 'x'\n",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus"],
        ["moments"],
        ["moments", "--vars", "Z", "--config", "CFG"],
        ["nc", "list", "--n", "0"],
        ["compress", "--var", "X", "--alpha", "x", "--config", "CFG"],
        ["boxconv", "--left", "X,Y", "--right", "X", "--config", "CFG"],
        ["moments", "--vars", "X", "--degree", "-1", "--config", "CFG"],
        ["moments", "--vars", "X", "--config", "CFG", "--format", "xml"],
        ["moments", "--vars", " ", "--config", "CFG"],
        ["check-even", "--var", "X,Y", "--config", "CFG"],
        ["compress", "--var", "X,Y", "--alpha", "1/2", "--config", "CFG"],
        # shapes only argparse parses: an abbreviation, one --flag=value
        # token, a repeated flag (the last value wins), an unknown flag
        ["moments", "--vars", "Z", "--deg", "3", "--config", "CFG"],
        ["moments", "--vars", "X", "--deg", "x", "--config", "CFG"],
        ["moments", "--vars=Z", "--config", "CFG"],
        ["moments", "--vars", "X", "--vars", "Z", "--config", "CFG"],
        ["moments", "--vars", "X", "--bogus", "1", "--config", "CFG"],
    ],
)
def test_usage_errors_exit_1(cfg, argv):
    line = USAGE_ERROR_LINES.get(tuple(argv))
    argv = [cfg if part == "CFG" else part for part in argv]
    code, _, err = run(*argv)
    assert code == 1, (argv, err)
    assert err.startswith("error: "), err
    if line is not None:
        assert err == line, (argv, err)


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="argparse before 3.11 heads the flags 'optional arguments:'",
)
@pytest.mark.parametrize(
    "argv, golden",
    [
        (["-h"], "help.txt"),
        (["moments", "-h"], "help_moments.txt"),
        (["nc", "list", "-h"], "help_nc_list.txt"),
    ],
)
def test_help_goldens(argv, golden):
    """Help, which argparse prints from the parser built out of the flag
    table, is byte-identical to the frozen text at 80 columns."""
    proc = subprocess.run(
        [sys.executable, "-m", "toepfree", *argv],
        capture_output=True,
        env={**os.environ, "COLUMNS": "80"},
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / golden).read_bytes()


def broken_configs():
    base = json.dumps(BASE)

    wrong_count = json.loads(base)
    wrong_count["variables"][0]["entries"] = ["s"]

    unknown_symbol = json.loads(base)
    unknown_symbol["variables"][0]["entries"] = ["s*t", "0"]

    duplicate_family = json.loads(base)
    duplicate_family["families"].append(duplicate_family["families"][0])

    duplicate_variable = json.loads(base)
    duplicate_variable["variables"].append(duplicate_variable["variables"][0])

    cap_too_big = json.loads(base)
    cap_too_big["degree_cap"] = 99

    float_param = json.loads(base)
    float_param["families"][0]["generators"][0]["distribution"]["variance"] = 0.5

    unknown_key = json.loads(base)
    unknown_key["spurious"] = 1

    non_string_entry = json.loads(base)
    non_string_entry["variables"][0]["entries"] = ["s", 5]

    unknown_kind = json.loads(base)
    unknown_kind["families"][0]["generators"][0]["distribution"]["kind"] = "odd"

    slash_cumulant_key = json.loads(base)
    slash_cumulant_key["families"][0]["generators"][0]["distribution"] = {
        "kind": "custom",
        "cumulants": {"s/x": 0.5},
    }

    escaped_top_key = json.loads(base)
    escaped_top_key["a~/b"] = 1

    deeply_nested = json.loads(base)
    deeply_nested["variables"][0]["entries"][0] = "(" * 400 + "s" + ")" * 400

    return {
        "wrong-entry-count": wrong_count,
        "unknown-symbol": unknown_symbol,
        "duplicate-family": duplicate_family,
        "duplicate-variable": duplicate_variable,
        "cap-too-big": cap_too_big,
        "float-parameter": float_param,
        "unknown-top-key": unknown_key,
        "non-string-entry": non_string_entry,
        "unknown-distribution": unknown_kind,
        "deeply-nested-entry": deeply_nested,
        "slash-cumulant-key": slash_cumulant_key,
        "escaped-top-key": escaped_top_key,
    }


@pytest.mark.parametrize("label", sorted(broken_configs()))
def test_config_errors_exit_2(tmp_path, label):
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps(broken_configs()[label]))
    code, _, err = run("moments", "--vars", "X", "--config", str(path))
    assert code == 2, (label, err)
    assert err.startswith("error: config:") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    ("label", "line"),
    [
        (
            "float-parameter",
            "error: config: at /families/0/generators/0/distribution/variance: "
            "floating-point values are not accepted; use 'p/q' strings\n",
        ),
        (
            "non-string-entry",
            "error: config: at /variables/0/entries/1: "
            "expected a nonempty string, got 5\n",
        ),
        (
            "slash-cumulant-key",
            "error: config: at "
            "/families/0/generators/0/distribution/cumulants/s~1x: "
            "floating-point values are not accepted; use 'p/q' strings\n",
        ),
        (
            "escaped-top-key",
            "error: config: at /a~0~1b: unknown configuration key\n",
        ),
        (
            "cap-too-big",
            "error: config: at /degree_cap: expected an integer <= 8, got 99\n",
        ),
    ],
    ids=["generator-parameter", "variable-entry", "cumulant-key", "top-key",
         "cap-too-big"],
)
def test_config_error_pointer_is_exact(tmp_path, label, line):
    """A nested config error names its JSON pointer with one leading slash
    and one slash per level; ~ and / in a key read ~0 and ~1 (RFC 6901)."""
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps(broken_configs()[label]))
    code, _, err = run("moments", "--vars", "X", "--config", str(path))
    assert (code, err) == (2, line)


def test_missing_and_malformed_config_exit_2(tmp_path):
    code, _, err = run(
        "moments", "--vars", "X", "--config", str(tmp_path / "absent.json")
    )
    assert code == 2 and err.startswith("error: config:")
    bad = tmp_path / "invalid.json"
    bad.write_text("{not json")
    code, _, err = run("moments", "--vars", "X", "--config", str(bad))
    assert code == 2 and "line 1" in err
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 1000)
    code, _, err = run("moments", "--vars", "X", "--config", str(deep))
    assert code == 2, err
    assert err.startswith("error: config:") and err.count("\n") == 1, err
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"N": 1, "families": [], "variables": ["\xe9"]}')
    code, out, err = run("moments", "--vars", "X", "--config", str(latin))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: config: cannot read {latin}: 'utf-8' codec")
    assert err.count("\n") == 1, err


#: an integer of 5,001 digits: over CPython's default limit of 4,300 on
#: the digits int() reads from a string and str() writes
LONG = "1" + "0" * 5000


def _config_text(marked: dict, literal: str) -> str:
    """The JSON of marked with each string "LONG" replaced by literal, so
    that a JSON integer longer than json.dumps writes can be placed."""
    return json.dumps(marked).replace('"LONG"', literal)


@pytest.mark.parametrize(
    "where,literal,pointer",
    [
        ("variance", LONG, "/families/0/generators/0/distribution/variance"),
        ("entry", LONG, "/variables/0/entries/1"),
        ("variance", "-" + LONG, "/families/0/generators/0/distribution/variance"),
        # a JSON error after the integer leaves no document to point into
        ("variance", LONG + ",", "/"),
    ],
    ids=["parameter", "list-item", "negative", "then-bad-json"],
)
def test_json_integer_over_the_digit_limit_exits_2(tmp_path, where, literal,
                                                   pointer):
    """A JSON integer longer than the interpreter converts is refused with
    exit 2 and one line that names its pointer and its digits, not a
    traceback: json.loads raises ValueError, not JSONDecodeError, on it."""
    config = json.loads(json.dumps(BASE))
    if where == "variance":
        config["families"][0]["generators"][0]["distribution"]["variance"] = "LONG"
    else:
        config["variables"][0]["entries"][1] = "LONG"
    path = tmp_path / "long.json"
    path.write_text(_config_text(config, literal))
    code, out, err = run("moments", "--vars", "X", "--config", str(path))
    limit = sys.get_int_max_str_digits()
    assert (code, out, err) == (2, "", (
        f"error: config: at {pointer}: integer of 5001 digits exceeds the "
        f"limit of {limit} digits\n"))


def test_literal_over_the_digit_limit_in_a_string_exits_2(tmp_path):
    """An integer literal of 5,001 digits in an entry ends with exit 2 and
    one line that names the entry's pointer, the digits and the column; in
    a rational parameter string, with the pointer and the literal's length
    (the literal is not echoed)."""
    config = json.loads(json.dumps(BASE))
    config["variables"][0]["entries"][0] = f"{LONG}*s"
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(config))
    code, out, err = run("moments", "--vars", "X", "--config", str(path))
    limit = sys.get_int_max_str_digits()
    assert (code, out, err) == (2, "", (
        "error: config: at /variables/0/entries/0: integer of 5001 digits "
        f"exceeds the limit of {limit} digits at position 0 (column 1)\n"))
    config = json.loads(json.dumps(BASE))
    config["families"][1]["generators"][0]["distribution"]["rate"] = f"{LONG}/3"
    path.write_text(json.dumps(config))
    code, out, err = run("moments", "--vars", "X", "--config", str(path))
    assert (code, out, err) == (2, "", (
        "error: config: at /families/1/generators/0/distribution/rate: bad "
        "rational literal of 5003 characters\n"))


def test_config_refuses_oversized_products_while_parsing(tmp_path):
    """X's first entry in the golden moments config made a product of
    16,000 or 32,000 factors s, or of 18 factors (s+p): each is refused
    while the config is read, before any query work, with exit 2 and one
    line naming the entry's JSON pointer and the length of its first
    monomial over the cap, and read in process in well under a second
    (a parser that copies the growing word spent 2.2 s and 8.5 s on the
    first two, and 2^18 terms on the third)."""
    config = json.loads((GOLDEN / "moments_config.json").read_text())
    path = tmp_path / "long.json"
    probes = {
        "*".join(["s"] * 16_000): 15,
        "*".join(["s"] * 32_000): 15,
        "*".join(["(s+p)"] * 18): 47,
    }
    for entry, at in probes.items():
        config["variables"][0]["entries"][0] = entry
        path.write_text(json.dumps(config))
        code, out, err = run("cumulants", "--vars", "X", "--degree", "2",
                             "--config", str(path))
        assert (code, out, err) == (2, "", (
            "error: config: at /variables/0/entries/0: monomial of length 9 "
            f"exceeds degree cap 8 at position {at} (column {at + 1})\n"))
        start = time.process_time()
        with pytest.raises(ConfigError, match="monomial of length 9"):
            load_config(str(path))
        assert time.process_time() - start < 0.5


def test_output_over_the_digit_limit_prints_exactly(tmp_path):
    """m_8 of a semicircular of variance 10^1100 is Cat(4) 10^4400, whose
    4,402 digits str() refuses under the interpreter's default limit: the
    CLI prints it exactly, and an in-process run leaves the limit as it
    found it."""
    config = {
        "N": 1,
        "degree_cap": 8,
        "families": [{"name": "semi", "generators": [{"id": "s", "distribution": {
            "kind": "semicircular", "variance": "LONG"}}]}],
        "variables": [{"name": "X", "entries": ["s"]}],
    }
    path = tmp_path / "wide.json"
    path.write_text(_config_text(config, "1" + "0" * 1100))
    argv = ["moments", "--vars", "X", "--degree", "8", "--config", str(path)]
    code, out, err = run(*argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["rows"] == [
        {"word": [1] * 8, "value": ["14" + "0" * 4400]}]
    limit = sys.get_int_max_str_digits()
    assert toepfree.cli.main([*argv, "--out", str(tmp_path / "out.json")]) == 0
    assert sys.get_int_max_str_digits() == limit
    assert (tmp_path / "out.json").read_text() == out


def test_config_parses_each_parameter_once(tmp_path, monkeypatch):
    """load_config parses each distribution parameter string once, into
    integers through ncpoly._parse_ratio, and keeps the value it parsed, in
    a named law and in a custom table."""
    config = json.loads(json.dumps(BASE))
    config["families"][0]["generators"].append({
        "id": "c",
        "distribution": {"kind": "custom",
                         "cumulants": {"c": "3/4", "c,c": "-1/5", "c,c,c": 0}},
    })
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(config))
    parsed = []

    parse_ratio = toepfree.ncpoly._parse_ratio

    def counted(text):
        parsed.append(text)
        return parse_ratio(text)

    monkeypatch.setattr(toepfree.cli, "_parse_ratio", counted)
    monkeypatch.setattr(toepfree.ncpoly, "_parse_ratio", counted)
    functional = load_config(str(path)).functional
    assert sorted(parsed) == ["-1/5", "1/2", "3/4"]
    assert functional.families["semi"][("c", "c")] == Fraction(-1, 5)
    assert functional.families["pois"][("p",) * 6] == Fraction(1, 2)


def test_degree_over_cap_exits_3(cfg):
    code, _, err = run(
        "moments", "--vars", "X", "--degree", "9", "--config", cfg
    )
    assert code == 3 and err.startswith("error: degree-cap-exceeded:")


def test_env_degree_cap_semantics(cfg, tmp_path):
    uncapped = json.loads(json.dumps(BASE))
    del uncapped["degree_cap"]
    path = tmp_path / "nocap.json"
    path.write_text(json.dumps(uncapped))

    # the variable replaces the default cap when the config omits its own
    code, _, err = run(
        "moments", "--vars", "X", "--degree", "3", "--config", str(path),
        env={"TOEPFREE_DEGREE_CAP": "2"},
    )
    assert code == 3, err

    # an explicit config cap wins over the variable
    code, _, _ = run(
        "moments", "--vars", "X", "--degree", "3", "--config", cfg,
        env={"TOEPFREE_DEGREE_CAP": "2"},
    )
    assert code == 0

    # junk values are configuration errors
    for junk in ("banana", "0", "99"):
        code, _, err = run(
            "moments", "--vars", "X", "--config", str(path),
            env={"TOEPFREE_DEGREE_CAP": junk},
        )
        assert code == 2, (junk, err)


def test_long_env_degree_cap_is_named_by_its_length(tmp_path):
    """A TOEPFREE_DEGREE_CAP of 5,001 digits, which int() refuses, is named
    by its length, not echoed, with the range a cap must be in; a short
    one is still quoted."""
    uncapped = json.loads(json.dumps(BASE))
    del uncapped["degree_cap"]
    path = tmp_path / "nocap.json"
    path.write_text(json.dumps(uncapped))
    argv = ("moments", "--vars", "X", "--config", str(path))
    assert run(*argv, env={"TOEPFREE_DEGREE_CAP": LONG}) == (2, "", (
        "error: config: TOEPFREE_DEGREE_CAP must be an integer in 1..8, got "
        "a value of 5001 characters\n"))
    assert run(*argv, env={"TOEPFREE_DEGREE_CAP": "2.5"}) == (2, "", (
        "error: config: TOEPFREE_DEGREE_CAP must be an integer, got '2.5'\n"))


def test_long_degree_flag_is_named_by_its_length(cfg):
    """--degree of 5,001 digits is refused by its length, not echoed, where
    argparse quotes a short value."""
    assert run("moments", "--vars", "X", "--degree", LONG, "--config", cfg) == (
        1, "", "error: usage: argument --degree: invalid int value of 5001 "
        "characters\n")


def test_long_n_flag_is_named_by_its_length():
    """nc list --n of 5,001 digits is refused by its length, not echoed;
    a short value is quoted as argparse quotes it."""
    assert run("nc", "list", "--n", LONG) == (
        1, "", "error: usage: argument --n: invalid int value of 5001 "
        "characters\n")
    assert run("nc", "list", "--n", "3x") == (
        1, "", "error: usage: argument --n: invalid int value: '3x'\n")

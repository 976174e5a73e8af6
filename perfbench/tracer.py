"""Per-layer tracing of toepfree from outside the package.

``install()`` wraps the public functions of each layer where their callers
look them up: every module of the package that binds the same function
object gets the wrapper (``series`` imports ``t_cumulant`` by name,
``toeplitz_core`` and ``scalar_space`` import ``poly_mul`` by name, ...),
and methods are replaced on their class. The recursive ``NcLattice.mu``
is not wrapped; its time is part of ``mu_to_top``.

Each call is a span. Spans are kept on a stack, so the span below is the
caller's (the parent link); a span's self time is its duration minus the
durations of its child spans, credited to the parent as each child ends.
Spans are aggregated in memory per name (calls, self seconds and, for the
memoized scalar functions, the number of distinct memo keys among the
calls) and written out once, when the process ends.

Run as a script it traces one CLI query in this interpreter:

    python perfbench/tracer.py STATS.json moments --vars X --config m.json
"""

from __future__ import annotations

import functools
import importlib
import json
import runpy
import sys
import time

# (module, attribute or Class.method, index of the argument whose distinct
# values are counted, or None)
TARGETS = (
    ("cli", "main", None),
    ("cli", "load_config", None),
    ("nc_lattice", "lattice", None),
    ("nc_lattice", "NcLattice.mu_to_top", None),
    ("nc_lattice", "enumerate_nc", None),
    ("nc_lattice", "kreweras", None),
    ("ncpoly", "poly_mul", None),
    ("scalar_space", "MomentFunctional.phi_word", 1),
    ("scalar_space", "MomentFunctional.cumulant", None),
    ("scalar_space", "MomentFunctional.cumulant_words", 1),
    ("toeplitz_core", "t_mul", None),
    ("toeplitz_core", "t_moment", None),
    ("toeplitz_core", "t_cumulant", None),
    ("toeplitz_core", "build_q", None),
    ("toeplitz_core", "b_mul", None),
    ("series", "r_transform", None),
    ("series", "check_freeness", None),
    ("series", "moment_series", None),
    ("series", "moments_from_r", None),
    ("series", "r_from_moments", None),
    ("series", "boxed_convolution", None),
)

# counters measured on a result: name -> (span name, function of result)
RESULT_COUNTERS = {
    "ncpoly.poly_mul.terms_out": ("ncpoly.poly_mul", lambda p: len(p.terms)),
    "toeplitz_core.q_terms": (
        "toeplitz_core.build_q", lambda qs: sum(len(q.terms) for q in qs)
    ),
}
#: every counter the tracer keeps; series.words counts index words
COUNTERS = (*RESULT_COUNTERS, "series.words")


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, dict] = {}
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []
        # one child-time accumulator per open span; the entry below a
        # span's own is its parent's
        self._stack: list[float] = []

    def _wrap(self, name: str, fn, key_arg):
        stat = self.spans[name] = {"calls": 0, "s": 0.0}
        distinct = set() if key_arg is not None else None
        if distinct is not None:
            stat["distinct"] = distinct
        counters = self.counters
        measures = [
            (counter, measure)
            for counter, (span, measure) in RESULT_COUNTERS.items()
            if span == name
        ]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat["calls"] += 1
                stat["s"] += elapsed - children
            if distinct is not None:
                distinct.add(tuple(args[key_arg]))
            for counter, measure in measures:
                counters[counter] += measure(result)
            return result

        return traced

    def install(self) -> None:
        """Import the package and wrap every target that exists."""
        importlib.import_module("toepfree.cli")
        modules = [
            mod for mod_name, mod in sys.modules.items()
            if mod_name == "toepfree" or mod_name.startswith("toepfree.")
        ]
        for mod_name, attr, key_arg in TARGETS:
            name = f"{mod_name}.{attr.rpartition('.')[2]}"
            module = sys.modules[f"toepfree.{mod_name}"]
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, fn_name, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, key_arg)
            if owner_name:
                setattr(owner, fn_name, wrapper)
                continue
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, bound, wrapper)
        self._count_series_words(sys.modules["toepfree.series"])

    def _count_series_words(self, series) -> None:
        """Count the index words the series layer iterates over (only the
        series module's binding, not the CLI's table emission)."""
        original = getattr(series, "all_index_words", None)
        if original is None:
            self.missing.append("series.all_index_words")
            return
        counters = self.counters

        def counted(*args, **kwargs):
            for word in original(*args, **kwargs):
                counters["series.words"] += 1
                yield word

        series.all_index_words = counted

    def dump(self, path: str) -> None:
        spans = {
            name: {
                "calls": stat["calls"],
                "s": stat["s"],
                **({"distinct": len(stat["distinct"])} if "distinct" in stat else {}),
            }
            for name, stat in self.spans.items()
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": spans, "counters": self.counters, "missing": self.missing},
                handle,
            )


def main() -> int:
    stats_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    sys.argv = ["toepfree", *args]
    code = 0
    try:
        runpy.run_module("toepfree", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.dump(stats_path)
    return code


if __name__ == "__main__":
    sys.exit(main())

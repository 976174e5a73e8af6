"""Benchmark of toepfree: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cli_cumulants --seed 1 --seconds 38 --trace 0

Run it from the root of a source checkout; it puts ``src`` on PYTHONPATH
and drives toepfree from outside, the way its users do: the CLI as
``python -m toepfree ...``, one fresh interpreter per query, and the
public series API in a fresh interpreter per pass. There is one client
and a closed loop: each query starts only after the previous one has
exited, and nothing else runs meanwhile but the host probes below.

A pass runs the workload's query list once (timed as ``run_s``), then its
over-cap probe (timed as ``reject_s``). Passes repeat, at least twice,
while another pass still fits in ``--seconds``; each metric is the median
over the passes of a run.

Every time is reported at a fixed reference speed of the host. On a
shared host a core's speed halves and recovers many times a minute, and
the share of time it runs slow drifts over minutes, so raw times of the
same code differ from run to run by more than a change to the program
should be allowed to cost. So the benchmark and every process it starts
share one core, and while a process runs, the benchmark wakes every
``PROBE_INTERVAL_S`` to time a short fixed piece of exact arithmetic
(``host_probe``). The process's wall and CPU time, less the probes' own
time, are divided by how much slower than ``REFERENCE_PROBE_S`` the
probes ran during it. A change to toepfree cannot move the probe, which
runs in this process on the standard library alone. The raw wall time
and the host's slowdown are printed beside the metrics.

Every output is checked after the timed region, against closed forms
that use no toepfree code (see workloads.py); a query fails if it exits
with an unexpected code or its output is rejected.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones (see tracer.py); it exits 1 if a workload calls a layer it is meant
to bypass.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its unit and sample count, and the run record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import workloads as wl
from tracer import COUNTERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 21
#: Pause between two host-speed probes while a process runs.
PROBE_INTERVAL_S = 0.025
#: The CPU time of host_probe on an uncontended core of a 2-vCPU Xeon VM
#: under CPython 3.11: the host speed every reported time is scaled to.
REFERENCE_PROBE_S = 0.0005
#: Probes taken after a process that ended before this many were taken.
MIN_PROBES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("query_s.p50", "s"),
    ("peak_rss_mb", "MB"),
    ("reject_s", "s"),
)

PER_LAYER = (
    "cli.load_config.s",
    "cli.main.s",
    "nc_lattice.lattice.s",
    "nc_lattice.mu_to_top.s",
    "nc_lattice.enumerate_nc.calls",
    "nc_lattice.kreweras.calls",
    "nc_lattice.kreweras.s",
    "ncpoly.poly_mul.calls",
    "ncpoly.poly_mul.s",
    "ncpoly.poly_mul.terms_out",
    "scalar_space.phi_word.calls",
    "scalar_space.phi_word.s",
    "scalar_space.phi_word.distinct_ratio",
    "scalar_space.cumulant.calls",
    "scalar_space.cumulant.s",
    "scalar_space.cumulant_words.calls",
    "scalar_space.cumulant_words.s",
    "scalar_space.cumulant_words.distinct_ratio",
    "toeplitz_core.t_mul.calls",
    "toeplitz_core.t_mul.s",
    "toeplitz_core.t_moment.s",
    "toeplitz_core.t_cumulant.s",
    "toeplitz_core.build_q.s",
    "toeplitz_core.q_terms",
    "toeplitz_core.b_mul.calls",
    "toeplitz_core.b_mul.s",
    "series.r_transform.s",
    "series.check_freeness.s",
    "series.moment_series.s",
    "series.moments_from_r.s",
    "series.r_from_moments.s",
    "series.boxed_convolution.s",
    "series.words",
    "trace.overhead_s",
)


# --------------------------------------------------------------------------
# processes
# --------------------------------------------------------------------------


_X = (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 9))


def host_probe() -> tuple[float, float, float]:
    """Time a fixed bit of exact arithmetic shaped like toepfree's inner
    loops (Fraction products over N-tuples): (start, CPU seconds, wall
    seconds). Its CPU time grows when the host slows the core, and not
    when the scheduler runs another process instead."""
    cpu, wall = time.process_time(), time.perf_counter()
    for i in range(25):
        y = (Fraction(i % 7 + 1, 5), Fraction(3, i % 11 + 2), Fraction(-1, 4))
        tuple(sum((_X[k] * y[j - k] for k in range(j + 1)), Fraction(0)) for j in range(3))
    return wall, time.process_time() - cpu, time.perf_counter() - wall


@dataclass
class Exit:
    """A finished process. seconds and cpu_s are at the reference host
    speed; wall_s is the raw wall time less the probes' time, and
    slowdown the factor between the two speeds. probes holds each probe
    taken while it ran as (start, CPU seconds, wall seconds)."""

    seconds: float
    code: int
    out: bytes
    err: bytes
    cpu_s: float
    rss_mb: float
    wall_s: float
    slowdown: float
    probes: list[tuple[float, float, float]]

    def _inside(self, start: float, end: float) -> list[tuple[float, float, float]]:
        return [p for p in self.probes if start <= p[0] < end]

    def slowdown_between(self, start: float, end: float) -> float:
        """The slowdown from start to end on the perf_counter clock, from
        the probes taken then (from all of them when too few were)."""
        inside = self._inside(start, end)
        if len(inside) < MIN_PROBES:
            return self.slowdown
        return statistics.mean(c for _, c, _ in inside) / REFERENCE_PROBE_S

    def interval(self, start: float, end: float) -> float:
        """The time from start to end, a span the process measured on the
        perf_counter clock, less the probes' pauses in it, at the
        reference speed."""
        paused = sum(w for _, _, w in self._inside(start, end))
        return (end - start - paused) / self.slowdown_between(start, end)

    def own_clock(self, seconds: float) -> float:
        """A duration the process summed itself (a span total), less its
        share of the probes' pauses, at the process's reference speed."""
        paused = sum(w for _, _, w in self.probes)
        return seconds * self.wall_s / (self.wall_s + paused) / self.slowdown


def launch(cmd: list[str], env: dict, stem: Path) -> Exit:
    """Run one process to completion, its output going to stem.out and
    stem.err; time it from launch to exit, read its CPU time and peak RSS
    from its own resource usage, and probe the host's speed meanwhile."""
    out_path, err_path = stem.with_suffix(".out"), stem.with_suffix(".err")
    probes: list[tuple[float, float, float]] = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            exited = os.pidfd_open(proc.pid)
            try:
                while not select.select([exited], [], [], PROBE_INTERVAL_S)[0]:
                    probes.append(host_probe())
            finally:
                os.close(exited)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start - sum(w for _, _, w in probes)
    # a process too short for MIN_PROBES is judged by probes right after it
    late = [host_probe() for _ in range(MIN_PROBES - len(probes))]
    slowdown = statistics.mean(c for _, c, _ in probes + late) / REFERENCE_PROBE_S
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(
        wall / slowdown,
        proc.returncode,
        out_path.read_bytes(),
        err_path.read_bytes(),
        (usage.ru_utime + usage.ru_stime) / slowdown,
        usage.ru_maxrss / 1024,
        wall,
        slowdown,
        probes,
    )


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

Check = Callable[[Exit], Optional[str]]


@dataclass
class Query:
    args: list[str]
    check: Check


@dataclass
class Pass:
    run_s: float = 0.0
    cpu_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    reject_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=lambda: {"spans": {}, "counters": {}})
    wall_run_s: float = 0.0  # raw, for the record


def _readable(check: Callable[[], Optional[str]]) -> Optional[str]:
    """Run an output check; output it cannot parse is a failure too."""
    try:
        return check()
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _succeeded(check: Callable[[bytes], Optional[str]]) -> Check:
    def run(done: Exit) -> Optional[str]:
        if done.code != 0:
            return f"exit {done.code}: {done.err.decode(errors='replace')[-300:]}"
        return _readable(lambda: check(done.out))

    return run


class Verifier:
    """Checks each distinct output once; a byte-identical repeat of an
    output that passed is accepted by its digest."""

    def __init__(self) -> None:
        self.passed: set[tuple[str, bytes]] = set()

    def __call__(self, key: str, data: bytes, check: Callable[[], Optional[str]]):
        digest = (key, hashlib.sha256(data).digest())
        if digest in self.passed:
            return None
        reason = check()
        if reason is None:
            self.passed.add(digest)
        return reason


class CliWorkload:
    """A list of CLI queries on one generated model config, plus an
    over-cap probe on the same config."""

    def __init__(self, why: str, model, queries, probe, bypassed):
        self.why = why
        self._model = model
        self._queries = queries
        self._probe = probe
        self.bypassed = bypassed

    def prepare(self, rng: random.Random, scratch: Path) -> None:
        self.model = self._model(rng)
        self.config = wl.write_json(scratch / "model.json", self.model.config())
        flag = ["--config", str(self.config)]
        self.queries = [Query(q[0] + flag, q[1]) for q in self._queries(self.model)]
        self.probe = Query(
            self._probe + flag, lambda done: wl.check_rejected(done.code, done.out, done.err)
        )

    def setup_cmd(self) -> list[str]:
        return [
            sys.executable, "-c",
            "import sys, toepfree\n"
            "from toepfree import cli\n"
            "cli.load_config(sys.argv[1])",
            str(self.config),
        ]

    def run_pass(self, env, scratch: Path, verify: Verifier, traced: bool) -> Pass:
        result = Pass()
        stats_files: list[Path] = []

        def cmd(query: Query, traced: bool) -> list[str]:
            if not traced:
                return [sys.executable, "-m", "toepfree", *query.args]
            stats = scratch / f"stats{len(stats_files)}.json"
            stats.unlink(missing_ok=True)
            stats_files.append(stats)
            return [sys.executable, str(HERE / "tracer.py"), str(stats), *query.args]

        done: list[tuple[Query, Exit]] = []
        for query in self.queries:
            done.append((query, launch(cmd(query, traced), env, scratch / f"q{len(done)}")))
        # the probe is never traced: the per-layer metrics describe run_s
        probe = launch(cmd(self.probe, False), env, scratch / "probe")
        result.reject_s = probe.seconds

        for query, exit_ in done:
            result.latencies.append(exit_.seconds)
            result.run_s += exit_.seconds
            result.wall_run_s += exit_.wall_s
            result.cpu_s += exit_.cpu_s
        for query, exit_ in done + [(self.probe, probe)]:
            result.attempted += 1
            result.rss_mb.append(exit_.rss_mb)
            key = " ".join(query.args)
            reason = verify(key, exit_.out + b"\0" + exit_.err + bytes([exit_.code]),
                            lambda: query.check(exit_))
            if reason is not None:
                result.failures.append(f"{key}: {reason}")
        if traced:
            result.stats = merge_stats(zip(stats_files, (e for _, e in done)))
        return result


class SeriesWorkload:
    """In-process library calls on generated dense series, one fresh
    interpreter per pass (see libseries.py)."""

    bypassed = ("ncpoly.poly_mul", "scalar_space.phi_word")

    def __init__(self, why: str):
        self.why = why

    def prepare(self, rng: random.Random, scratch: Path) -> None:
        self.inputs = wl.series_inputs(rng)
        self.path = wl.write_json(scratch / "series.json", self.inputs.files())

    def setup_cmd(self) -> list[str]:
        return [sys.executable, "-c", "import toepfree"]

    def run_pass(self, env, scratch: Path, verify: Verifier, traced: bool) -> Pass:
        result = Pass(attempted=4)
        cmd = [sys.executable, str(HERE / "libseries.py"), str(self.path)]
        stats = scratch / "stats0.json"
        stats.unlink(missing_ok=True)
        if traced:
            cmd.append(str(stats))
        done = launch(cmd, env, scratch / "lib")
        result.rss_mb.append(done.rss_mb)
        # a pass that reports nothing fails all four calls; its timings are
        # the whole process's, so that the run still prints a result
        result.run_s = result.reject_s = done.seconds
        result.wall_run_s = done.wall_s
        result.cpu_s = done.cpu_s
        result.latencies = [done.seconds]
        if done.code != 0:
            reason = done.err.decode(errors="replace")[-300:]
            result.failures = [f"lib_series pass exit {done.code}: {reason}"] * 4
            return result
        try:
            report = json.loads(done.out)
        except ValueError:
            result.failures = [f"lib_series pass printed no report: {done.out[-300:]!r}"] * 4
            return result
        calls = list(report["times"].values())
        result.latencies = [done.interval(*call) for call in calls]
        result.run_s = done.interval(calls[0][0], calls[-1][1])
        result.wall_run_s = calls[-1][1] - calls[0][0]
        result.cpu_s = report["cpu_s"] / done.slowdown_between(calls[0][0], calls[-1][1])
        result.reject_s = done.interval(*report["probe"])
        outputs = report["outputs"]
        reason = verify("lib_series", json.dumps(outputs, sort_keys=True).encode(),
                        lambda: _readable(lambda: self.inputs.check(outputs)))
        if reason is not None:
            result.failures.extend([reason] * 3)
        if report["probe_refused"] != "DegreeCapExceeded":
            result.failures.append("over-cap moments_from_r was not refused")
        if traced:
            result.stats = merge_stats([(stats, done)])
        return result


WORKLOADS = {
    # Most of its time is MomentFunctional.cumulant_words and the phi_word
    # calls it makes (Möbius inversion of moments), then lattice(n) and
    # mu_to_top, built afresh in every process: the path a cumulant route
    # without Möbius inversion replaces. check-free on a pair from two
    # families scans every mixed word with no early exit. The one-degree
    # cumulants table is a third, short query, so that the median query
    # falls inside one group of similar queries rather than between the
    # short and the long one. Degree 7 keeps a pass short enough to repeat
    # many times in one run.
    "cli_cumulants": CliWorkload(
        "cumulant path: rtransform, cumulants and check-free spend their time "
        "in Moebius inversion of moments (cumulant_words, lattice, mu_to_top)",
        wl.cumulant_model,
        lambda model: [
            (["rtransform", "--vars", "X,Y", "--degree", "7"],
             _succeeded(lambda out: wl.check_series(model, ("X", "Y"), 7, out))),
            (["cumulants", "--vars", "X,Y", "--degree", "6"],
             _succeeded(lambda out: wl.check_cumulant_table(model, ("X", "Y"), 6, out))),
            (["check-free", "--a", "A", "--b", "B", "--degree", "6"],
             _succeeded(wl.check_free)),
        ],
        ["rtransform", "--vars", "X,Z", "--degree", "5"],
        ("nc_lattice.kreweras",),
    ),
    # Affine entries make every chain product expand into many words: the
    # time is phi_word (the NC(n) sum per word) and t_mul/poly_mul. It
    # never touches lattice, cumulant or kreweras, so it shows work
    # shared across words and a faster phi, and should not move under
    # cumulant-only or lattice-only changes.
    "cli_moments": CliWorkload(
        "moment path: phi_word and the t_mul/poly_mul chain products; "
        "never calls lattice, cumulant or kreweras",
        wl.moment_model,
        lambda model: [
            (["moments", "--vars", "X,Y", "--degree", "7"],
             _succeeded(lambda out: wl.check_moment_table(model, ("X", "Y"), 7, out))),
        ],
        ["moments", "--vars", "X,Z", "--degree", "5"],
        ("nc_lattice.lattice", "scalar_space.cumulant", "nc_lattice.kreweras"),
    ),
    # Only series, nc_lattice (enumeration, mu_to_top, one kreweras per
    # partition) and BScalar arithmetic; never ncpoly or scalar_space.
    # Lattice caches stay warm across the calls of a pass, while the CLI
    # workloads start cold in every process: a lattice-kernel or caching
    # change shows here, a scalar-cumulant change should not.
    "lib_series": SeriesWorkload(
        "series algebra: moments_from_r, r_from_moments and "
        "boxed_convolution on dense series; never ncpoly or scalar_space",
    ),
}


# --------------------------------------------------------------------------
# statistics and metrics
# --------------------------------------------------------------------------


def merge_stats(traces) -> dict:
    """Sum the span statistics of (path, Exit) pairs, each span time
    taken to the reference host speed like its process's own times."""
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    for path, exit_ in traces:
        if not path.exists():  # the query failed before tracing began
            continue
        data = json.loads(path.read_text(encoding="utf-8"))
        for name, stat in data["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "s": 0.0, "distinct": 0})
            for key, value in stat.items():
                into[key] += exit_.own_clock(value) if key == "s" else value
        for name, value in data["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name in data["missing"]:
            print(f"perfbench: toepfree has no {name}; it reads 0", file=sys.stderr)
    return {"spans": spans, "counters": counters}


def layer_metrics(stats: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    for metric in PER_LAYER:
        name, _, kind = metric.rpartition(".")
        span = stats["spans"].get(name, {"calls": 0, "s": 0.0, "distinct": 0})
        if metric in COUNTERS:
            out[metric] = stats["counters"].get(metric, 0)
        elif kind == "calls":
            out[metric] = span["calls"]
        elif kind == "s":
            out[metric] = span["s"]
        elif kind == "distinct_ratio":
            out[metric] = span["distinct"] / span["calls"] if span["calls"] else 0.0
    return out


def layer_unit(metric: str) -> str:
    if metric.endswith(".distinct_ratio"):
        return "ratio"
    if metric.endswith(".s") or metric.endswith("_s"):
        return "s"
    return "count"


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_record() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if got.returncode == 0:
            sha = got.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "loadavg_start": list(os.getloadavg()),
    }


def report(rows: list[tuple[str, float, str, int]], result: dict, record: dict) -> None:
    print(f"{'metric':<44} {'value':>14} {'unit':<6} n")
    for name, value, unit, n in rows:
        print(f"{name:<44} {value:>14.6g} {unit:<6} {n}")
    print("run " + json.dumps(record))
    print(json.dumps(result))


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------


def measure(workload, env, scratch: Path, seconds: float, trace: bool):
    verify = Verifier()
    passes: list[Pass] = []
    traced: list[Pass] = []
    setup: list[float] = []
    setup_failures: list[str] = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            done = launch(workload.setup_cmd(), env, scratch / "setup")
            setup.append(done.seconds)
            if done.code != 0:
                setup_failures.append(f"setup exit {done.code}")
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        passes.append(workload.run_pass(env, scratch, verify, False))
        if trace:
            traced.append(workload.run_pass(env, scratch, verify, True))
        now = time.perf_counter()
        # stop before a pass as long as the last one would overrun the window
        if len(passes) >= 2 and now + (now - begun) > start + seconds:
            return setup, setup_failures, passes, traced


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, stop the running query and remove the scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "toepfree" / "__init__.py").is_file():
        print(f"perfbench: no toepfree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    record = run_record()
    workload = WORKLOADS[args.workload]
    # the cores of a shared host slow down independently, so the host
    # probes run on the one core that every process started here inherits
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("TOEPFREE_DEGREE_CAP", None)
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload.prepare(random.Random(args.seed), scratch)
        setup, setup_failures, passes, traced = measure(
            workload, env, scratch, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record["loadavg_end"] = list(os.getloadavg())

    everything = passes + traced
    failures = setup_failures + [f for p in everything for f in p.failures]
    attempted = len(setup) + sum(p.attempted for p in everything)
    for failure in failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    rows: list[tuple[str, float, str, int]] = []
    metrics: dict[str, dict] = {}

    if args.trace:
        per_pass = [layer_metrics(p.stats) for p in traced]
        overhead = (statistics.median(p.run_s for p in traced)
                    - statistics.median(p.run_s for p in passes))
        for metric in PER_LAYER:
            if metric == "trace.overhead_s":
                value = overhead
            else:
                value = statistics.median(layer[metric] for layer in per_pass)
            metrics[metric] = {"value": value, "unit": layer_unit(metric)}
            rows.append((metric, value, layer_unit(metric), len(traced)))
        broken = {
            name: calls
            for name in workload.bypassed
            if (calls := max(p.stats["spans"].get(name, {}).get("calls", 0) for p in traced))
        }
        if broken:
            for name, calls in broken.items():
                print(f"perfbench: isolation broken: {args.workload} made {calls} "
                      f"calls to {name}, which it is meant to bypass", file=sys.stderr)
            return 1
    else:
        latencies = [s for p in passes for s in p.latencies]
        rss = [r for p in passes for r in p.rss_mb]
        values = {
            "setup_s": (statistics.median(setup), len(setup)),
            "run_s": (statistics.median(p.run_s for p in passes), len(passes)),
            "cpu_s": (statistics.median(p.cpu_s for p in passes), len(passes)),
            "query_s.p50": (statistics.median(latencies), len(latencies)),
            "peak_rss_mb": (max(rss), len(rss)),
            "reject_s": (statistics.median(p.reject_s for p in passes), len(passes)),
        }
        for name, unit in END_TO_END:
            value, n = values[name]
            metrics[name] = {"value": value, "unit": unit}
            rows.append((name, value, unit, n))
        # printed, not gated: a run has too few queries for p90 to have
        # the ten samples beyond it that make a percentile steady
        rows.append(("query_s.p90", percentile(latencies, 90), "s", len(latencies)))
    # the raw wall time behind run_s, and the host's slowdown over it
    wall = statistics.median(p.wall_run_s for p in passes)
    rows.append(("wall.run_s", wall, "s", len(passes)))
    rows.append(("host.slowdown", wall / statistics.median(p.run_s for p in passes),
                 "x", len(passes)))
    rows.append(("failed_ratio", len(failures) / attempted, "ratio", attempted))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{workload.why}; {len(passes)} untraced and {len(traced)} traced passes")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    report(rows, result, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())

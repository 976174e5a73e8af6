"""One pass of the ``lib_series`` workload, in a fresh interpreter.

Reads the generated series, makes the library calls one after another
(a closed loop in one process, so the lattice caches warmed by one call
serve the next), and prints one JSON object: the start and end of each
call on the system-wide monotonic clock (``time.perf_counter``), so that
the parent can match them with its own clock, the CPU time of the pass,
the over-cap probe's outcome and the outputs, which the parent checks.

    python perfbench/libseries.py INPUTS.json [STATS.json]

With STATS.json the calls are traced and the span statistics written there.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    inputs_path = sys.argv[1]
    stats_path = sys.argv[2] if len(sys.argv) > 2 else None
    tracer = None
    if stats_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from toepfree import series
    from toepfree.errors import DegreeCapExceeded

    with open(inputs_path, encoding="utf-8") as handle:
        raw = json.load(handle)
    r, g, over_cap = (
        series.BSeries.from_json_obj(raw[key]) for key in ("r", "g", "over_cap")
    )

    times: dict[str, list[float]] = {}
    cpu0 = time.process_time()

    at = time.perf_counter()
    m = series.moments_from_r(r)
    times["moments_from_r"] = [at, time.perf_counter()]

    at = time.perf_counter()
    r_back = series.r_from_moments(m)
    times["r_from_moments"] = [at, time.perf_counter()]

    at = time.perf_counter()
    boxed = series.boxed_convolution(r, g)
    times["boxed_convolution"] = [at, time.perf_counter()]

    cpu_s = time.process_time() - cpu0
    if tracer is not None:
        # the per-layer metrics describe run_s, not the probe below
        tracer.dump(stats_path)

    at = time.perf_counter()
    try:
        series.moments_from_r(over_cap)
        refused = None
    except DegreeCapExceeded as exc:
        refused = type(exc).__name__
    probe = [at, time.perf_counter()]

    outputs = {
        "moments_from_r": m.to_json_obj(),
        "r_from_moments": r_back.to_json_obj(),
        "boxed_convolution": boxed.to_json_obj(),
    }
    json.dump(
        {
            "times": times,
            "cpu_s": cpu_s,
            "probe": probe,
            "probe_refused": refused,
            "outputs": outputs,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

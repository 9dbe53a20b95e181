"""One measured batch in a fresh Python process.

    python3 perfbench/child.py WORKLOAD SEED SPAWN_TIME TRACE TINY SPANS_PATH

``SPAWN_TIME`` is the parent's ``time.monotonic()`` just before it started
this process, so setup time covers interpreter start, imports and building
the group catalog.  With ``WORKLOAD`` set to ``setup`` the process stops
after setup.  The result is one JSON object on the last line of stdout.
Every time is given raw and in nominal seconds (see ``speed``).  Output
checks run after the clock stops.
"""

from __future__ import annotations

import sys
import time

workload, seed, spawned, trace, tiny, spans_path = sys.argv[1:7]

import quandlekit as qk  # noqa: E402  (setup is what is being timed)

catalog = {G.name: G for G in qk.default_catalog()}
setup_s = time.monotonic() - float(spawned)

import json  # noqa: E402
import resource  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

setup = {"setup_s": setup_s, "setup_nominal_s": setup_s * speed.nominal_factor()}


def run_workload(seed_n: int, small: bool, span) -> tuple:
    """Runs the workload; returns (outcome, checked)."""
    if workload == "census-catalog":
        groups = wl.census_groups(seed_n, catalog, small)
        units: list = []
        timer = tracing.Patch()
        timer.replace(qk.harness.run_check, _unit_timer(qk.harness.run_check, units))
        try:
            out = wl.run_census_catalog(groups, span, units)
        finally:
            timer.restore()
        return out, wl.check_census(out.results, wl.load_reference("census_catalog.json"),
                                    [G.name for G in groups], out.error)
    if workload == "h3-maps":
        group, units = wl.h3_units(seed_n, small)
        out = wl.run_h3_maps(catalog[group], units, span)
        return out, wl.check_h3(out.results)
    if workload == "quandle-enum":
        specs = wl.enum_specs(seed_n, wl.load_reference("quandle_enum.json"), small)
        out = wl.run_quandle_enum(specs, catalog, span)
        return out, wl.check_quandle_enum(out.results, len(specs), out.error)
    raise SystemExit(f"unknown workload {workload!r}")


def run_batch() -> dict:
    tracer = tracing.Tracer() if trace == "1" else None
    if tracer:
        tracer.install()
    origin = time.perf_counter()
    with speed.SpeedProbe() as probe:
        out, checked = run_workload(int(seed), tiny == "1", tracer.span if tracer else wl.no_span)
    if tracer:
        tracer.uninstall()
    wall_s = sum(end - start for start, end in out.timed)
    result = {
        **setup,
        "wall_s": wall_s,
        "wall_nominal_s": sum(probe.nominal(start, end) for start, end in out.timed),
        "unit_ms": [(end - start) * 1e3 for start, end in out.units],
        "unit_nominal_ms": [probe.nominal(start, end) * 1e3 for start, end in out.units],
        "attempted": checked.attempted,
        "failed": checked.failed,
        "problems": checked.problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": __import__("numpy").__version__,
            "quandlekit": qk.__version__,
        },
        "caps": {k: v for k, v in vars(qk.config).items() if k.isupper()},
    }
    if tracer:
        result["layers"] = tracer.metrics(wall_s)
        tracer.dump(spans_path, origin)
    return result


def _unit_timer(run_check, units: list):
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return run_check(*args, **kwargs)
        finally:
            units.append((start, time.perf_counter()))

    return timed


print(json.dumps(setup if workload == "setup" else run_batch()))

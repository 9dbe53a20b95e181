"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

Each workload at its tiny size must print every metric that BENCHMARK.json
names, with its unit; the output checks must reject corrupted results; the
tracer must reach every module that imports a traced name.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import quandlekit as qk
import speed
import tracing
import workloads as wl

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def catalog():
    return {G.name: G for G in qk.default_catalog()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_traced_self_times_add_up_to_wall():
    proc = run_bench("census-catalog", 1)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    parts = [v["value"] for k, v in metrics.items() if k.endswith(".self_s")]
    assert all(p >= 0 for p in parts)
    total = sum(parts) + metrics["trace.unattributed_s"]["value"]
    assert total == pytest.approx(metrics["trace.wall_s"]["value"], abs=1e-9)
    for layer in tracing.LAYERS:
        assert metrics[f"{layer}.calls"]["value"] > 0, layer


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench")
    proc = run_bench("h3-maps", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_replaces_every_reference_and_restores():
    import quandlekit.groupmaps as gm
    import quandlekit.harness as hn

    original = gm.enumerate_aaut
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert gm.enumerate_aaut is not original
        assert hn.enumerate_aaut is gm.enumerate_aaut is qk.enumerate_aaut
        G = qk.named_group("S3")
        qk.centralizer_in_aaut(G, qk.enumerate_aut(G)[1])
    finally:
        tracer.uninstall()
    assert gm.enumerate_aaut is original and hn.enumerate_aaut is original
    # centralizer_in_aaut reaches enumerate_aaut through groupmaps' globals
    assert tracer.calls["groupmaps.aut"] == 3
    nested = [s for s in tracer.spans if s[3] != -1]
    assert nested and all(tracer.spans[s[3]][1] <= s[1] <= s[2] <= tracer.spans[s[3]][2]
                          for s in nested)


def test_wrapper_cost_is_a_small_positive_time():
    cost = tracing.wrapper_cost()
    assert 0 < cost < 1e-3


def test_nominal_time_scales_each_stretch_by_the_sample_that_closes_it():
    probe = speed.SpeedProbe()
    nominal = speed.NOMINAL_S
    # 20 samples at nominal speed, then 20 at half speed, one per second
    probe.ends = [float(t) for t in range(1, 41)]
    probe.durations = [nominal] * 20 + [2 * nominal] * 20
    probe.durations[5] = 50 * nominal  # one stray sample is smoothed away
    probe.smooth()
    assert probe.nominal(2.5, 10.0) == pytest.approx(7.5)
    assert probe.nominal(30.0, 35.0) == pytest.approx(2.5)
    assert probe.nominal(39.5, 42.0) == pytest.approx(1.25)  # past the last sample
    assert probe.nominal(12.0, 12.0) == 0.0


def test_probe_samples_while_entered():
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            sum(range(1000))
    assert len(probe.ends) >= 5 and all(d > 0 for d in probe.durations)
    assert probe.nominal(start, start + 0.2) > 0


# --- the output checks reject corrupted results ---


def test_census_check_rejects_a_flipped_verdict():
    reference = wl.load_reference("census_catalog.json")
    groups = ["S3", "Z2"]
    results = [tuple(c) for c in reference["checks"]
               if wl.census_unit(c[0], c[1])[1] in set(groups) | {"-"}]
    assert wl.check_census(results, reference, groups, None).failed == 0
    tid, inputs, holds = results[5]
    flipped = results[:5] + [(tid, inputs, not holds)] + results[6:]
    assert wl.check_census(flipped, reference, groups, None).failed == 1
    assert wl.check_census(results[1:], reference, groups, None).failed == 1
    assert wl.check_census([], reference, groups, "RuntimeError: boom").failed > 0


def test_h3_check_rejects_a_flipped_or_missing_verdict():
    good = [("alex", [("alex", True)], None),
            ("q-family", [("q-family", True)] * 4, None)]
    assert wl.check_h3(good).failed == 0
    assert wl.check_h3([("alex", [("alex", False)], None)] + good[1:]).failed == 1
    assert wl.check_h3([good[0], ("q-family", [("q-family", True)] * 3, None)]).failed == 1
    assert wl.check_h3([("alex", None, "CapExceeded: too big")]).failed == 1


def _enum_result(catalog, label: str):
    spec = next(s for s in wl.load_reference("quandle_enum.json")["quandles"]
                if s["label"] == label)
    Q = wl.build_quandle(spec, catalog)
    Q2 = wl.relabel(Q, np.random.default_rng(0).permutation(Q.n))
    return [spec, Q, Q2, qk.enumerate_quandle_auts(Q), qk.enumerate_quandle_antis(Q),
            qk.are_isomorphic(Q, Q2), None]


def test_enum_check_rejects_a_wrong_map_count_or_isomorphism(catalog):
    good = _enum_result(catalog, "Z9:alex:3")
    assert good[4], "the chosen quandle needs antiautomorphisms to corrupt"
    assert wl.check_quandle_enum([good], 1, None).failed == 0

    wrong_map = list(good)
    images = good[3][-1].images.copy()
    images[[1, 2]] = images[[2, 1]]
    wrong_map[3] = good[3][:-1] + [qk.QuandleMap(qk.PointMap(images), "automorphism", good[1])]
    assert wl.check_quandle_enum([wrong_map], 1, None).failed == 1

    missing = list(good)
    missing[4] = good[4][1:]
    assert wl.check_quandle_enum([missing], 1, None).failed == 1

    bad_iso = list(good)
    bad_iso[5] = qk.PointMap(np.arange(good[1].n))
    assert wl.check_quandle_enum([bad_iso], 1, None).failed == 1

    assert wl.check_quandle_enum([], 3, "building raised ValueError").failed == 3

"""The three workloads: inputs made from a seed, the timed calls, the output checks.

Every workload calls quandlekit through module attributes looked up at call
time (``qk.run_check``, not a name imported at load time), so the wrappers
that ``tracing`` installs see every call.

- ``census-catalog``: ``run_census`` over the catalog without its one large
  group, then the CLI's ``json.dumps``.  The seed fixes the catalog order.
- ``h3-maps``: ``run_check`` on the order-27 Heisenberg group the way
  ``quandlekit verify --format json`` runs it: ``conj-semidirect`` at one
  seeded m, then ``alex``, ``alex-semidirect`` and ``q-family`` at seeded
  (phi, psi) index pairs.
- ``quandle-enum``: every distinct non-trivial quandle of order 8-12 the
  census constructs, rebuilt through the public constructors, then its
  automorphisms and antiautomorphisms, then an isomorphism search against a
  seeded relabelling.  The seed fixes the relabellings; the work is the
  same for every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import quandlekit as qk
from quandlekit.harness import M_RANGE

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The census-catalog workload leaves out H3: it alone is h3-maps' subject
# and would take about ten times as long as the other twenty groups.
LARGE_GROUP = "H3"
TINY_CENSUS_GROUPS = ("Z2", "Z3", "S3")

# h3-maps draws its (phi, psi) index pairs below |Aut(G)| = |AAut(G)|.
# The sizes are properties of the input groups, written here so that no
# enumeration runs before the clock starts.
H3_PAIRS = 24
AUT_POOL_SIZE = {"H3": 432, "S3": 6}
TINY_H3_GROUP, TINY_H3_PAIRS = "S3", 2
Q_FAMILY_VERDICTS = 4  # Q1 on phi, then Q2, Q3, Q4 on psi

TINY_ENUM_ORDER, TINY_ENUM_COUNT = 8, 4

Span = Callable[[str], contextlib.AbstractContextManager]


def no_span(layer: str) -> contextlib.AbstractContextManager:
    return contextlib.nullcontext()


Interval = Tuple[float, float]  # (start, end) in time.perf_counter seconds


@dataclass
class Outcome:
    """What one batch timed and returned; ``results`` feed the output check.

    ``timed`` holds the stretches that make up the workload's wall time and
    ``units`` the individual run_check or enumeration calls.
    """

    timed: List[Interval] = field(default_factory=list)
    units: List[Interval] = field(default_factory=list)
    results: list = field(default_factory=list)
    error: Optional[str] = None


@dataclass
class Checked:
    attempted: int
    failed: int
    problems: List[str]


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


# --- census-catalog ---


def census_groups(seed: int, catalog: Dict[str, qk.FiniteGroup], tiny: bool) -> List[qk.FiniteGroup]:
    names = list(TINY_CENSUS_GROUPS) if tiny else [n for n in catalog if n != LARGE_GROUP]
    order = np.random.default_rng(seed).permutation(len(names))
    return [catalog[names[i]] for i in order]


def run_census_catalog(groups: List[qk.FiniteGroup], span: Span, units: List[Interval]) -> Outcome:
    """``units`` is filled by the caller's timer around each ``run_check``."""
    out = Outcome(units=units)
    start = time.perf_counter()
    try:
        report = qk.run_census(groups)
        with span("verdicts"):
            json.dumps(report, indent=2)
    except Exception as exc:  # a crash of the whole census fails every unit
        out.error = f"{type(exc).__name__}: {exc}"
        return out
    out.timed.append((start, time.perf_counter()))
    out.results = [(c["theorem_id"], c["inputs"], c["holds"]) for c in report["checks"]]
    return out


def census_unit(theorem_id: str, inputs: str) -> Tuple[str, str]:
    """The (check, group) unit a top-level verdict belongs to."""
    if theorem_id == "dihedral-no-anti":
        return theorem_id, "-"
    return theorem_id, inputs.split(",")[0]


def check_census(results: List[Tuple[str, str, bool]], reference: dict,
                 group_names: List[str], error: Optional[str]) -> Checked:
    """Top-level (theorem_id, inputs, holds) per unit against the reference.

    Node counts below the top level are not compared: an honest change such
    as a raised enumeration cap may add nested verdicts.
    """
    wanted = set(group_names) | {"-"}
    expected: Dict[Tuple[str, str], Counter] = {}
    for tid, inputs, holds in reference["checks"]:
        unit = census_unit(tid, inputs)
        if unit[1] in wanted:
            expected.setdefault(unit, Counter())[(inputs, holds)] += 1
    if error is not None:
        return Checked(len(expected), len(expected), [f"census raised {error}"])
    got: Dict[Tuple[str, str], Counter] = {}
    for tid, inputs, holds in results:
        got.setdefault(census_unit(tid, inputs), Counter())[(inputs, holds)] += 1
    units = sorted(set(expected) | set(got))
    problems = []
    for unit in units:
        if got.get(unit) != expected.get(unit):
            problems.append(f"{unit}: verdicts differ from the reference")
        elif not all(holds for (_, holds) in got[unit]):
            problems.append(f"{unit}: a verdict does not hold")
    return Checked(len(units), len(problems), problems)


# --- h3-maps ---


def h3_units(seed: int, tiny: bool) -> Tuple[str, List[Tuple[str, dict]]]:
    group = TINY_H3_GROUP if tiny else LARGE_GROUP
    pairs = TINY_H3_PAIRS if tiny else H3_PAIRS
    rng = np.random.default_rng(seed)
    m = int(rng.choice(M_RANGE))
    units: List[Tuple[str, dict]] = [("conj-semidirect", {"m": m})]
    for phi, psi in rng.integers(0, AUT_POOL_SIZE[group], size=(pairs, 2)).tolist():
        units += [
            ("alex", {"phi_index": phi}),
            ("alex-semidirect", {"phi_index": phi}),
            ("q-family", {"phi_index": phi, "psi_index": psi}),
        ]
    return group, units


def run_h3_maps(G: qk.FiniteGroup, units: List[Tuple[str, dict]], span: Span) -> Outcome:
    out = Outcome()
    for theorem_id, params in units:
        start = time.perf_counter()
        try:
            verdicts = qk.run_check(theorem_id, G, **params)
            with span("verdicts"):
                json.dumps(qk.report_json([G.name], verdicts), indent=2)
        except Exception as exc:  # recorded as a failed unit
            out.results.append((theorem_id, None, f"{type(exc).__name__}: {exc}"))
        else:
            out.results.append((theorem_id, [(v.theorem_id, v.holds) for v in verdicts], None))
        interval = (start, time.perf_counter())
        out.timed.append(interval)
        out.units.append(interval)
    return out


def check_h3(results: list) -> Checked:
    """Every requested unit returns its verdicts and every verdict holds."""
    problems = []
    for i, (theorem_id, verdicts, error) in enumerate(results):
        expected = Q_FAMILY_VERDICTS if theorem_id == "q-family" else 1
        if error is not None:
            problems.append(f"unit {i} {theorem_id} raised {error}")
        elif len(verdicts) != expected or any(tid != theorem_id for tid, _ in verdicts):
            problems.append(f"unit {i} {theorem_id} returned {len(verdicts)} verdicts, expected {expected}")
        elif not all(holds for _, holds in verdicts):
            problems.append(f"unit {i} {theorem_id}: a verdict does not hold")
    return Checked(len(results), len(problems), problems)


# --- quandle-enum ---


def enum_specs(seed: int, reference: dict, tiny: bool) -> List[Tuple[dict, np.ndarray]]:
    """The reference quandles, each with a seeded relabelling.

    The order stays the reference order: a seeded order moved the peak RSS
    by up to 7% while leaving the work the same.
    """
    specs = reference["quandles"]
    rng = np.random.default_rng(seed)
    if tiny:
        small = [s for s in specs if s["order"] == TINY_ENUM_ORDER]
        specs = [small[i] for i in rng.choice(len(small), size=TINY_ENUM_COUNT, replace=False)]
    return [(s, rng.permutation(s["order"])) for s in specs]


def build_quandle(spec: dict, catalog: Dict[str, qk.FiniteGroup]) -> qk.Quandle:
    """One census construction through the public constructors."""
    kind, param = spec["kind"], spec["param"]
    if kind == "dihedral":
        return qk.dihedral_quandle(param)
    G = catalog[spec["group"]]
    if kind == "conj":
        return qk.conj_m(G, param)
    if kind == "core":
        return qk.core(G)
    if kind in ("alex", "q1"):
        return getattr(qk, kind)(G, qk.enumerate_aut(G)[param])
    if kind in ("q2", "q3", "q4"):
        return getattr(qk, kind)(G, qk.enumerate_aaut(G)[param])
    return getattr(qk, kind)(G, param)  # p1..p4 take an element index


def relabel(Q: qk.Quandle, perm: np.ndarray) -> qk.Quandle:
    """The quandle with x renamed perm[x]: op'[perm x, perm y] = perm[op[x, y]]."""
    inv = np.argsort(perm)
    return qk.Quandle(perm[Q.op[np.ix_(inv, inv)]], name=f"{Q.name}~", validate=False)


def run_quandle_enum(specs: List[Tuple[dict, np.ndarray]], catalog: Dict[str, qk.FiniteGroup],
                     span: Span) -> Outcome:
    out = Outcome()
    start = time.perf_counter()
    try:
        quandles = [build_quandle(spec, catalog) for spec, _ in specs]
    except Exception as exc:  # no quandle, no unit: every unit fails
        out.error = f"building raised {type(exc).__name__}: {exc}"
        return out
    out.timed.append((start, time.perf_counter()))
    relabelled = [relabel(Q, perm) for Q, (_, perm) in zip(quandles, specs)]
    for Q, Q2, (spec, _) in zip(quandles, relabelled, specs):
        auts = antis = iso = None
        error = None
        try:
            t0 = time.perf_counter()
            auts = qk.enumerate_quandle_auts(Q)
            t1 = time.perf_counter()
            antis = qk.enumerate_quandle_antis(Q)
            t2 = time.perf_counter()
            iso = qk.are_isomorphic(Q, Q2)
            t3 = time.perf_counter()
        except Exception as exc:  # recorded as a failed unit
            error = f"{type(exc).__name__}: {exc}"
            t3 = time.perf_counter()
        else:
            out.units += [(t0, t1), (t1, t2)]
        out.timed.append((t0, t3))
        out.results.append((spec, Q, Q2, auts, antis, iso, error))
    return out


def table_digest(Q: qk.Quandle) -> str:
    return hashlib.sha256(np.ascontiguousarray(Q.op, dtype=np.int64).tobytes()).hexdigest()[:16]


def check_quandle_enum(results: list, expected_units: int, error: Optional[str]) -> Checked:
    """Counts against the reference; every map and isomorphism replays."""
    if error is not None:
        return Checked(expected_units, expected_units, [error])
    problems = []
    for spec, Q, Q2, auts, antis, iso, err in results:
        bad = [f"raised {err}"] if err is not None else _enum_faults(spec, Q, Q2, auts, antis, iso)
        if bad:
            problems.append(f"{spec['label']}: {'; '.join(bad)}")
    return Checked(len(results), len(problems), problems)


def _enum_faults(spec: dict, Q: qk.Quandle, Q2: qk.Quandle, auts, antis, iso) -> List[str]:
    bad = []
    if table_digest(Q) != spec["digest"]:
        bad.append("built table differs from the reference")
    for maps, want, replay in ((auts, spec["auts"], qk.is_quandle_auto),
                               (antis, spec["antis"], qk.is_quandle_anti)):
        if len(maps) != want:
            bad.append(f"{len(maps)} maps where the reference has {want}")
        if len({m.map.as_tuple() for m in maps}) != len(maps):
            bad.append("duplicate maps")
        if not all(replay(Q, m.map) for m in maps):
            bad.append(f"a map fails {replay.__name__}")
    if iso is None:
        bad.append("no isomorphism to the relabelled copy")
    elif not np.array_equal(iso.images[Q.op], Q2.op[np.ix_(iso.images, iso.images)]):
        bad.append("the isomorphism does not replay on the relabelled table")
    return bad

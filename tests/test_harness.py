"""Theorem checks: spot runs per check id, census reports, self-tests."""

import ast
import collections
import gc
import itertools
import pathlib
import re
import types
import weakref

import jsonschema
import numpy as np
import pytest

import quandlekit
from quandlekit import (
    ANTIAUTOMORPHISM,
    AUTOMORPHISM,
    CHECK_IDS,
    ClassifiedMap,
    CompatibilityFail,
    ConstructionSpecError,
    FiniteGroup,
    PointMap,
    REPORT_SCHEMA,
    Verdict,
    alex,
    conj_m,
    core,
    cyclic,
    dihedral_quandle,
    is_quandle_anti,
    is_quandle_auto,
    centralizer_in_aaut,
    classify,
    closure_of_point_maps,
    enumerate_aaut,
    enumerate_aut,
    named_group,
    p1,
    p2,
    p3,
    p4,
    q1,
    q2,
    q3,
    q4,
    quaternion8,
    run_census,
    run_check,
    semidirect_verify,
    summarize,
    symmetric,
)
from quandlekit import groupmaps, harness, quandlemaps, quandles
from quandlekit.constructions import _map_label
from quandlekit.groupmaps import (
    _F_prime_stack,
    _F_stack,
    _all_f_ab_stack,
    _auts,
    _stack_of,
    _unique_rows,
    preserving_mask,
)
from quandlekit.harness import CATALOG_SPECS, M_RANGE, _members, _quandle
from quandlekit.quandlemaps import QuandleMap
from quandlekit.verdicts import claim, combine, make_skipped, report_json


CONJ_NO_ANTI_NOTE = (
    "first-hit search over all bijections for an isomorphism onto the transposed table"
)


def assert_all_hold(verdicts, context=""):
    for v in verdicts:
        for node in v.walk():
            assert node.holds, f"{context}: {node.render_text()}"


def _representatives(G, family):
    """The members of the Aut(G)-orbits on a sweep's parameters that stand for their orbits."""
    rep = groupmaps._orbits(G, family).rep
    return np.flatnonzero(rep == np.arange(len(rep)))


def _census_tables(G):
    """The distinct op tables that the public constructors give over the parameters a census decides on G.

    A sweep over maps or elements decides one representative per Aut(G)-orbit
    and builds no table for a member that takes its representative's verdict.
    On a census where every verdict holds, the only members decided directly
    are those whose Q3/Q4 construction is rejected, which build no table.
    """
    built = [conj_m(G, m) for m in M_RANGE] + [core(G)]
    auts, aauts = enumerate_aut(G), enumerate_aaut(G)
    built += [ctor(G, auts[k]) for k in _representatives(G, "aut") for ctor in (alex, q1)]
    for k in _representatives(G, "aaut"):
        built.append(q2(G, aauts[k]))
        for ctor in (q3, q4):
            try:
                built.append(ctor(G, aauts[k]))
            except CompatibilityFail:
                pass
    built += [ctor(G, int(c)) for c in _representatives(G, "point") for ctor in (p1, p2, p3, p4)]
    return {Q.op.tobytes() for Q in built}


def _builds(monkeypatch):
    """Record each table validation and each law gather that the harness makes.

    A validation is a call of ``quandles._check_q3``, which every validated
    quandle runs once: it is recorded as (group, check, table).  A gather is
    a call of ``groupmaps._law_masks`` from ``quandlemaps._laws``: it is recorded
    as (group, check, table, stack shape, stack).  The group and the check
    are those of the ``run_check`` that a census is running.
    """
    running = [None, None]
    validations, gathers = [], []
    real_run, real_q3, real_masks = harness.run_check, quandles._check_q3, quandlemaps._law_masks

    def run(theorem_id, G=None, **params):
        running[:] = [None if G is None else G.name, theorem_id]
        return real_run(theorem_id, G, **params)

    def q3(op):
        validations.append((*running, op.tobytes()))
        return real_q3(op)

    def masks(table, stack):
        gathers.append((*running, table.tobytes(), stack.shape, stack.tobytes()))
        return real_masks(table, stack)

    monkeypatch.setattr(harness, "run_check", run)
    monkeypatch.setattr(quandles, "_check_q3", q3)
    monkeypatch.setattr(quandlemaps, "_law_masks", masks)
    return validations, gathers


def _once_per_group(records, key) -> dict:
    """The check that made each key's record, once it is asserted that no key repeats.

    Every quandle a check builds stays in G's store until the census clears
    it, so each distinct table is validated once per group and each of its
    (table, stack) pairs gathered once.
    """
    by_key = collections.defaultdict(list)
    for record in records:
        by_key[key(record)].append(record[1])
    assert all(len(checks) == 1 for checks in by_key.values()), [c for c in by_key.values() if len(c) > 1]
    return {k: checks[0] for k, checks in by_key.items()}


class TestIndividualChecks:
    def test_conj_semidirect_on_quaternion8(self):
        assert_all_hold(run_check("conj-semidirect", quaternion8(), m=1))

    def test_conj_out_symbolic_on_abelian(self):
        verdicts = run_check("conj-out", cyclic(6))
        assert_all_hold(verdicts)
        assert any("symbolic" in node.notes for v in verdicts for node in v.walk())

    def test_conj_out_counted_on_symmetric3(self):
        assert_all_hold(run_check("conj-out", symmetric(3)))

    def test_conj_aaut_criterion_is_two_sided(self):
        # Z4 with m=1: every y^2 is central (abelian), so the intersection
        # must be nonempty; on S3 with m=1 squares are not all central.
        for v in run_check("conj-aaut", cyclic(4), m=1):
            assert v.holds and v.lhs and v.rhs
        for v in run_check("conj-aaut", symmetric(3), m=1):
            assert v.holds

    def test_conj_no_anti_on_symmetric3(self):
        assert_all_hold(run_check("conj-no-anti", symmetric(3), m=1))

    def test_alex_and_semidirect_on_cyclic(self):
        assert_all_hold(run_check("alex", cyclic(5)))
        assert_all_hold(run_check("alex-semidirect", cyclic(5)))

    def test_f_structure_on_quaternion8(self):
        assert_all_hold(run_check("f-structure", quaternion8()))

    def test_core_checks(self):
        for gid in ("Z6", "S3", "Q8"):
            assert_all_hold(run_check("core", named_group(gid)), gid)

    def test_core_corollaries_cyclic_branch(self):
        verdicts = run_check("core-corollaries", cyclic(3))
        assert_all_hold(verdicts)
        assert any(v.lhs for v in verdicts for v in v.walk() if v.lhs is not None)

    def test_core_corollaries_vacuous_branch(self):
        verdicts = run_check("core-corollaries", quaternion8())
        assert all(v.vacuous for v in verdicts)

    def test_dihedral_no_anti_sweep(self):
        assert_all_hold(run_check("dihedral-no-anti"))

    def test_core_semidirect_on_dihedral4(self):
        assert_all_hold(run_check("core-semidirect", named_group("D4")))

    def test_core_abelian_aut_counts_odd_cyclic(self):
        verdicts = run_check("core-abelian-aut", cyclic(5))
        assert_all_hold(verdicts)
        assert not any(v.skipped for v in verdicts)

    def test_core_abelian_aut_skips_even_torsion(self):
        verdicts = run_check("core-abelian-aut", cyclic(4))
        assert all(v.skipped for v in verdicts)

    def test_q_family_on_symmetric3(self):
        assert_all_hold(run_check("q-family", symmetric(3)))

    def test_p_family_on_symmetric3(self):
        assert_all_hold(run_check("p-family-aut", symmetric(3), c=3))
        assert_all_hold(run_check("p-family-anti", symmetric(3), c=3))

    def test_p_family_sweeps_all_points_when_unpinned(self):
        verdicts = run_check("p-family-aut", cyclic(3))
        assert len(verdicts) == 3
        assert_all_hold(verdicts)


class TestRunCheckErrors:
    def test_unknown_id_is_rejected(self):
        with pytest.raises(ConstructionSpecError):
            run_check("goldbach", cyclic(4))

    def test_missing_group_is_rejected(self):
        with pytest.raises(ConstructionSpecError):
            run_check("core")

    def test_group_free_check_accepts_no_group(self):
        assert_all_hold(run_check("dihedral-no-anti", n=5))

    @pytest.mark.parametrize(
        "theorem_id, params",
        [
            ("alex", {"phi_index": 99}),
            ("alex", {"phi_index": -1}),
            ("q-family", {"psi_index": 6}),
            ("q-family", {"psi_index": -1}),
            ("p-family-aut", {"c": 99}),
            ("p-family-anti", {"c": -1}),
        ],
    )
    def test_index_out_of_range_is_rejected(self, theorem_id, params):
        with pytest.raises(ConstructionSpecError, match="out of range"):
            run_check(theorem_id, symmetric(3), **params)

    @pytest.mark.parametrize(
        "theorem_id, group, params, unread",
        [
            ("conj-out", "S3", {"m": 7, "c": 99}, "m, c"),
            ("core", "S3", {"phi_index": 3}, "phi_index"),
            ("alex", "S3", {"psi_index": 0}, "psi_index"),
            ("p-family-aut", "S3", {"m": 1}, "m"),
            ("dihedral-no-anti", "S3", {}, "group"),
        ],
    )
    def test_a_parameter_the_check_does_not_read_is_rejected(self, theorem_id, group, params, unread):
        with pytest.raises(ConstructionSpecError, match=f"^{theorem_id} does not read {unread};"):
            run_check(theorem_id, named_group(group), **params)

    def test_last_valid_indices_run(self):
        assert len(run_check("alex", symmetric(3), phi_index=5)) == 1
        assert len(run_check("q-family", symmetric(3), phi_index=0, psi_index=5)) == 4
        assert len(run_check("p-family-aut", symmetric(3), c=5)) == 1

    @pytest.mark.parametrize("theorem_id", ["conj-semidirect", "conj-aaut", "conj-no-anti"])
    @pytest.mark.parametrize("m", [1.5, True, "1"])
    def test_an_m_that_is_not_an_integer_is_rejected(self, theorem_id, m):
        """m = True is no m = 1, even with Conj_1(G) already in G's store under the equal key."""
        G = symmetric(3)
        run_check(theorem_id, G, m=1)
        with pytest.raises(ConstructionSpecError, match=r"^m \(the exponent of Conj_m\) .* is not an integer$"):
            run_check(theorem_id, G, m=m)

    def test_a_numpy_integer_m_runs(self):
        G = symmetric(3)
        assert [v.to_json() for v in run_check("conj-aaut", G, m=np.int8(-2))] == [
            v.to_json() for v in run_check("conj-aaut", G, m=-2)
        ]


@pytest.fixture(scope="module")
def s3_s4_census():
    """``run_census([S3, S4])``, schema-checked, and every node in it, nested parts included."""
    report = run_census([symmetric(3), symmetric(4)])
    jsonschema.validate(report, REPORT_SCHEMA)
    nodes, stack = [], list(report["checks"])
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node.get("parts", []))
    return report, nodes


class TestScope:
    @pytest.mark.parametrize("n", [1, 2])
    def test_dihedral_no_anti_is_skipped_below_three(self, n):
        (v,) = run_check("dihedral-no-anti", n=n)
        assert v.holds and v.skipped and "n >= 3" in v.notes

    def test_conj_no_anti_is_complete_on_S4_and_H3(self):
        for spec in ("S4", "heisenberg3"):
            G = named_group(spec)
            for m in M_RANGE:
                (v,) = run_check("conj-no-anti", G, m=m)
                assert v.holds and not v.skipped and v.notes == CONJ_NO_ANTI_NOTE, v.render_text()
                jsonschema.validate(report_json([spec], [v]), REPORT_SCHEMA)

    def test_summary_counts_partial_verdicts(self, s3_s4_census):
        """The summary counts every node, nested parts included.  The six
        conj-no-anti verdicts on S4 (one per m), once partial, are complete
        now and counted among the holds."""
        report, nodes = s3_s4_census
        summary = report["summary"]
        assert summary["total"] == len(nodes)
        assert summary["holds"] == sum(1 for c in nodes if c["holds"])
        assert summary["holds"] + summary["failed"] == summary["total"]
        s4 = [
            c for c in report["checks"]
            if c["theorem_id"] == "conj-no-anti" and c["inputs"].split(",")[0] == "S4"
        ]
        assert len(s4) == len(M_RANGE) == 6
        assert all(c["holds"] and not c.get("skipped") for c in s4)

    def test_summary_without_partial_verdicts_has_no_partial_key(self, s3_s4_census):
        report, nodes = s3_s4_census
        assert "partial" not in report["summary"]
        for node in nodes:
            assert "partial" not in node, node["theorem_id"]

    def test_every_two_sided_node_obeys_the_holds_rule(self, s3_s4_census):
        """holds follows from lhs and rhs: (not lhs) or rhs under implies, lhs == rhs otherwise."""
        _, nodes = s3_s4_census
        sided = [c for c in nodes if c["lhs"] is not None and c["rhs"] is not None]
        assert len(sided) > 1000
        for c in sided:
            rule = (not c["lhs"]) or c["rhs"] if c["relationship"] == "implies" else c["lhs"] == c["rhs"]
            assert c["holds"] == rule, (c["theorem_id"], c["inputs"])

    def test_complete_conj_no_anti_is_not_partial(self):
        for spec in ("Z2", "S3", "Z7", "D4", "Z12", "S4"):  # one note at every order
            (v,) = run_check("conj-no-anti", named_group(spec), m=1)
            assert v.holds and not v.skipped and v.notes == CONJ_NO_ANTI_NOTE, spec
            assert "partial" not in v.to_json()
            assert v.render_text().startswith("[ok] conj-no-anti")

    def test_conj_no_anti_fails_on_a_quandle_with_antiautomorphisms(self, monkeypatch):
        from quandlekit import harness

        R3 = dihedral_quandle(3)  # its six automorphisms also reverse it
        monkeypatch.setitem(harness._KINDS, "conj", harness._KINDS["conj"]._replace(table=lambda G, m: R3.op))
        (v,) = run_check("conj-no-anti", cyclic(3), m=1)
        assert not v.holds and v.lhs is False
        assert is_quandle_anti(R3, PointMap(v.counterexample["images"]))


class TestWitnessReplay:
    def test_every_census_witness_replays_through_the_public_api(self, s3_s4_census):
        """Each conj-aaut witness names a row of AAut(G) that preserves Conj_m(G)."""
        _, nodes = s3_s4_census
        witnessed = [c for c in nodes if c.get("witness") is not None]
        assert {c["theorem_id"] for c in witnessed} == {"conj-aaut"}
        assert len(witnessed) == sum(1 for c in nodes if c["theorem_id"] == "conj-aaut" and c["lhs"])
        groups = {"S3": symmetric(3), "S4": symmetric(4)}
        for c in witnessed:
            spec, m = re.fullmatch(r"(\w+), m=(-?\d+)", c["inputs"]).groups()
            G, w = groups[spec], c["witness"]
            assert enumerate_aaut(G)[w["psi_index"]].images.tolist() == w["images"], c["inputs"]
            assert is_quandle_auto(conj_m(G, int(m)), PointMap(w["images"])), c["inputs"]


class TestOncePerSweep:
    def test_f_structure_verifies_the_iso_once_per_sweep(self, monkeypatch):
        from quandlekit import harness

        run_check("f-structure", symmetric(3), phi_index=0)  # no result outlives its sweep
        calls = []
        real = harness.verify_F_iso

        def counted(G):
            calls.append(G.name)
            return real(G)

        monkeypatch.setattr(harness, "verify_F_iso", counted)
        verdicts = run_check("f-structure", symmetric(3))
        assert len(verdicts) == 6 and calls == ["S3"]
        assert_all_hold(verdicts)
        assert len({v.inputs for v in verdicts}) == 6
        for v in verdicts:
            assert [p.inputs for p in v.parts[:3]] == [v.inputs] * 3

    def test_f_structure_decides_the_facts_of_g_once_when_an_orbit_is_decided_directly(self, monkeypatch):
        """A planted fault fails F' on one orbit of three automorphisms, so those members are decided
        directly; F-in-core-aut, F-size and the iso subtree are still decided once for the group."""
        G = named_group("S3")
        rows = _auts(G).aut
        rep = harness._orbits(G, "aut").rep
        r = int(np.flatnonzero(np.bincount(rep) == 3)[0])
        orbit = {rows[j].tobytes() for j in np.flatnonzero(rep == r)}
        real_quandle, real_iso = harness._quandle, harness.verify_F_iso

        def planted(H, kind, param=None):  # Conj_1(G) in place of Alex(G, phi) on the orbit
            if kind == "alex" and np.asarray(param, dtype=rows.dtype).tobytes() in orbit:
                return real_quandle(H, "conj", 1)
            return real_quandle(H, kind, param)

        calls = []
        monkeypatch.setattr(harness, "_quandle", planted)
        monkeypatch.setattr(harness, "verify_F_iso", lambda H: calls.append(H.name) or real_iso(H))
        full = run_check("f-structure", G)
        assert calls == ["S3"]
        for j, v in enumerate(full):
            if rep[j] == r:
                assert v.via is None and not v.holds
                assert [p.holds for p in v.parts] == [True, True, False, True]
            else:
                assert v.holds
        assert any(v.via is not None for v in full)


class TestGroupStore:
    """What G's store keys, and that the checks validate each table of G once."""

    def test_alex_tables_are_keyed_by_images_not_labels(self):
        D6 = named_group("D6")
        phis = harness.enumerate_aut(D6)
        tables = [_quandle(D6, "alex", phi.images).op for phi in phis]
        assert len(phis) == 12 and len({_map_label(phi.images) for phi in phis}) == 2
        assert len({t.tobytes() for t in tables}) == 12
        for phi, table in zip(phis, tables):
            assert np.array_equal(table, alex(D6, phi).op)
            assert _quandle(D6, "alex", phi.images).op is table  # built once, then read back

    def test_semidirect_part_clauses_are_keyed_by_content(self, monkeypatch):
        D6 = named_group("D6")
        Q = conj_m(D6, 0)  # the trivial quandle: every bijection preserves it
        H = harness._H_stack(D6)
        auts = _auts(D6).aut
        assert semidirect_verify(H, auts, Q, D6).verdict
        calls = []
        real = quandlemaps._hol_mask
        monkeypatch.setattr(quandlemaps, "_hol_mask", lambda G, stack: calls.append(len(stack)) or real(G, stack))
        assert semidirect_verify(H, auts, Q, D6).verdict and calls == []  # read from the store
        swapped = auts.copy()
        swapped[-1] = np.arange(D6.n)
        swapped[-1, [1, 2]] = [2, 1]  # a transposition: a bijection outside Hol(D6)
        repeated = auts.copy()
        repeated[1] = auts[2]
        near_misses = {
            "complement part is not a group of maps": (auts[1:], repeated),
            "complement part lies outside Hol(G)": (swapped,),
        }
        for clause, parts in near_misses.items():
            for part in parts:
                report = semidirect_verify(H, part, Q, D6)
                assert not report.verdict and report.failing_clause == clause
        assert semidirect_verify(H, auts, Q, D6).verdict

    @pytest.mark.parametrize("spec", ["S3", "D4", "Q8"])
    def test_planted_non_automorphisms_fail_the_semidirect_complement(self, monkeypatch, spec):
        G = named_group(spec)
        real = _auts(G)
        Q = _quandle(G, "conj", 1)
        rng = np.random.default_rng(G.n)
        perms = np.array([rng.permutation(G.n) for _ in range(20)])
        planted = np.concatenate([real.aut, perms[~preserving_mask(Q.op, perms)][:3], real.aut[::-1]])
        monkeypatch.setattr(harness, "_auts", lambda H: real._replace(aut=planted.astype(np.uint8)))
        (verdict,) = run_check("conj-semidirect", G, m=1)
        parts = {p.theorem_id.split("/")[1]: p for p in verdict.parts}
        members = parts["aut-members"]
        assert not members.holds and is_quandle_auto(Q, PointMap(members.counterexample["images"])) is False
        semidirect = parts["semidirect"]
        assert not semidirect.holds
        assert semidirect.counterexample == "complement part contains a non-automorphism"

    def test_census_builds_each_quandle_once_and_drops_the_store(self, monkeypatch):
        S3, S4 = symmetric(3), symmetric(4)
        wanted = {(G.name, table) for G in (S3, S4) for table in _census_tables(G)}
        wanted |= {(None, dihedral_quandle(n).op.tobytes()) for n in range(3, 11)}
        validations, gathers = _builds(monkeypatch)
        report = run_census([S3, S4])
        assert report["summary"]["failed"] == 0
        assert S3._store == {} and S4._store == {}  # Aut(G) and AAut(G) went with the rest
        tables = _once_per_group(validations, lambda r: (r[0], r[2]))
        assert set(tables) == wanted  # every distinct table the census decides on, validated once per group
        _once_per_group(gathers, lambda r: (r[0], *r[2:]))

    def test_census_validates_and_gathers_each_key_once(self, monkeypatch):
        catalog = [cyclic(6), symmetric(3), quaternion8()]
        wanted = {(G.name, table) for G in catalog for table in _census_tables(G)}
        validations, gathers = _builds(monkeypatch)
        assert run_census(catalog)["summary"]["failed"] == 0
        tables = _once_per_group(validations, lambda r: (r[0], r[2]))
        _once_per_group(gathers, lambda r: (r[0], *r[2:]))
        assert {key for key in tables if key[0] is not None} == wanted
        # Z6 is abelian: each of its Q_i tables is an Alexander table, built by alex before q-family runs.
        assert all(check != "q-family" for (group, _), check in tables.items() if group == "Z6")

    def test_standalone_checks_share_the_alex_build(self, monkeypatch):
        S3 = symmetric(3)
        table = alex(S3, enumerate_aut(S3)[1]).op.tobytes()
        validations, gathers = _builds(monkeypatch)
        assert_all_hold(run_check("alex", S3, phi_index=1))
        assert_all_hold(run_check("alex-semidirect", S3, phi_index=1))
        assert [r[2] for r in validations] == [table]
        # C_Aut(phi) is gathered once for both checks, C_AAut(phi) and G^op once each
        assert len(gathers) == len({r[2:] for r in gathers}) == 3
        assert {r[2] for r in gathers} == {table}
        assert S3._store  # kept while S3 lives

    def test_census_checks_no_map_law_and_the_public_edge_does(self, monkeypatch):
        """Every map of a census is a row of the verified Aut(G)/AAut(G) stacks, so no law gate runs."""
        calls = []
        real = groupmaps._checked_images

        def counted(*args, **kwargs):
            calls.append(args[0].name)
            return real(*args, **kwargs)

        for module in (groupmaps, harness, quandlemaps, quandlekit.constructions):
            if getattr(module, "_checked_images", None) is real:
                monkeypatch.setattr(module, "_checked_images", counted)
        S3 = symmetric(3)
        assert run_census([S3, cyclic(4), quaternion8()])["summary"]["failed"] == 0
        assert calls == []
        alex(S3, enumerate_aut(S3)[1])  # positive control: the public constructor gates its map
        assert calls == ["S3"]

    def test_stored_quandles_are_freed_with_the_store(self):
        """A stored quandle keeps only arrays: once G's store is cleared it dies without the cyclic GC."""
        S3, Z5 = symmetric(3), cyclic(5)
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert_all_hold(run_check("conj-out", S3))
            assert_all_hold(run_check("core-abelian-aut", Z5))
            refs = []
            for Q in (_quandle(S3, "conj", 1), _quandle(Z5, "core")):
                assert ("plan",) in Q._store  # the check searched Aut(Q) on Q's plan
                reached = [obj for value in Q._store.values() for obj in _reachable(value)]
                assert not any(obj is Q or isinstance(obj, QuandleMap) for obj in reached)
                refs.append(weakref.ref(Q))
            del Q
            S3._store.clear()
            Z5._store.clear()
            assert [ref() for ref in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()


    def test_groups_are_freed_with_the_store(self):
        """A group keeps only arrays: once its store is cleared it dies without the cyclic GC."""
        S3 = symmetric(3)
        enabled = gc.isenabled()
        gc.disable()
        try:
            run_check("alex", S3, phi_index=1)
            run_check("q-family", S3, phi_index=1, psi_index=2)
            assert len(enumerate_aut(S3)) == len(enumerate_aaut(S3)) == 6
            assert len(centralizer_in_aaut(S3, enumerate_aut(S3)[1])) == 2
            reached = [obj for value in (vars(S3), S3._store) for obj in _reachable(value)]
            assert not any(isinstance(obj, (ClassifiedMap, PointMap)) for obj in reached)
            ref = weakref.ref(S3)
            S3._store.clear()
            del S3
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_census_leaves_no_group_to_the_cyclic_collector(self):
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run_census([cyclic(3), symmetric(3), quaternion8(), named_group("Z3xZ3")])
            gc.collect()
            assert not [obj for obj in gc.garbage if isinstance(obj, FiniteGroup)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()


class TestPublicMapLists:
    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_lists_are_fresh_maps_of_the_stored_rows(self, spec):
        G = named_group(spec)
        entry = _auts(G)
        for lister, stack in ((enumerate_aut, entry.aut), (enumerate_aaut, entry.aaut)):
            first, second = lister(G), lister(G)
            assert [m.map.as_tuple() for m in first] == [tuple(map(int, row)) for row in stack]
            assert first == second
            assert all(a is not b and a.map is not b.map for a, b in zip(first, second))
            assert all(m.group is G for m in first)
        assert {m.kind for m in enumerate_aut(G)} == {AUTOMORPHISM}
        kinds = [m.kind for m in enumerate_aaut(G)]
        assert kinds == [classify(G, m.map).kind for m in enumerate_aaut(G)]
        assert all(type(k) is str for k in kinds)
        assert set(kinds) == ({AUTOMORPHISM} if G.is_abelian else {ANTIAUTOMORPHISM})

    @pytest.mark.parametrize("spec", ["D6", "S4"])
    def test_an_indexed_sweep_gives_that_verdict_of_the_full_sweep(self, spec):
        G = named_group(spec)
        full = run_check("alex", G)
        assert len(full) == len(_auts(G).aut)
        for k, verdict in enumerate(full):
            (one,) = run_check("alex", G, phi_index=k)
            assert one.inputs == verdict.inputs and one.to_json() == _direct_json(verdict)
        full = run_check("q-family", G, phi_index=0)  # Q1 at phi 0, then Q2..Q4 per psi
        assert len(full) == 1 + 3 * len(_auts(G).aaut)
        for k in range(len(_auts(G).aaut)):
            picked = run_check("q-family", G, phi_index=0, psi_index=k)
            want = full[:1] + full[1 + 3 * k : 4 + 3 * k]
            assert [v.inputs for v in picked] == [v.inputs for v in want]
            assert [v.to_json() for v in picked] == [_direct_json(v) for v in want]


def _direct_json(verdict):
    """A verdict's JSON without the ``via`` that a transported verdict carries."""
    return {k: v for k, v in verdict.to_json().items() if k != "via"}


def _reachable(obj):
    """The objects reachable from obj through containers and instance dicts, not through code or modules."""
    seen, todo = set(), [obj]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        yield obj
        todo.extend(gc.get_referents(obj))


class TestConjugationIdentity:
    """conj-semidirect and core-semidirect decide their conjugation identity over row blocks."""

    @staticmethod
    def _first_failure(G, check, stack):
        """The images of the first row that the identity, checked one map at a time, rejects."""
        centre = np.flatnonzero(G.center_mask)
        all_fab = _all_f_ab_stack(G)
        for phi in stack.astype(np.int64):
            inv = np.argsort(phi)
            if check == "conj-semidirect":
                holds = np.array_equal(phi[G.table[centre][:, inv]], G.table[phi[centre]])
            else:
                holds = np.array_equal(inv[all_fab[:, :, phi]], all_fab[inv][:, inv])
            if not holds:
                return [int(v) for v in phi]
        return None

    @pytest.mark.parametrize("entries", [1, 100, 1 << 16])
    @pytest.mark.parametrize("check", ["conj-semidirect", "core-semidirect"])
    @pytest.mark.parametrize("spec", ["Z4", "S3", "D4", "Q8"])
    def test_the_counterexample_is_the_first_failing_row(self, monkeypatch, spec, check, entries):
        G = named_group(spec)
        real = _auts(G)
        rng = np.random.default_rng(G.n)
        planted = np.concatenate([real.aut, [rng.permutation(G.n) for _ in range(3)], real.aut[::-1]])
        planted = planted.astype(np.uint8)
        expected = self._first_failure(G, check, planted)
        assert expected is not None and self._first_failure(G, check, real.aut) is None
        monkeypatch.setattr(harness, "_auts", lambda H: real._replace(aut=planted))
        monkeypatch.setattr(groupmaps, "_LAW_ENTRIES", entries)
        (verdict,) = run_check(check, G, m=1) if check == "conj-semidirect" else run_check(check, G)
        (part,) = [p for p in verdict.parts if p.theorem_id.endswith("/conjugation-identity")]
        assert not part.holds and part.counterexample == {"phi": expected}


class TestClaimVocabulary:
    def test_failing_members_claim_carries_the_first_failing_row(self):
        Q = conj_m(symmetric(3), 1)
        perms = np.array(list(itertools.permutations(range(Q.n)))[:40], dtype=np.uint8)
        replays = [is_quandle_auto(Q, PointMap(row)) for row in perms]
        assert True in replays and False in replays
        v = _members("t", "Conj(S3)", preserving_mask(Q.op, perms), perms, "every row is an automorphism")
        assert not v.holds and v.lhs is False
        first = replays.index(False)
        assert v.counterexample == {"index": first, "images": [int(x) for x in perms[first]]}
        assert is_quandle_auto(Q, PointMap(v.counterexample["images"])) is False

    def test_a_generated_stack_fails_on_the_row_a_full_gather_names(self):
        # The right translations f_(1,b) of Conj_1(S3) are not all automorphisms.
        S3 = symmetric(3)
        stack = S3.table.T
        by_generators = S3.table[:, S3.hol_base[1:]].T
        decided = _members("t", "Conj(S3)", harness._generated(conj_m(S3, 1), stack, by_generators), stack, "n")
        full = _members("t", "Conj(S3)", quandlemaps._laws(conj_m(S3, 1), stack)[0], stack, "n")
        assert not full.holds and full.counterexample is not None
        assert decided.to_json() == full.to_json()

    @pytest.mark.parametrize("spec", ["S3", "Q8", "S4", "heisenberg3"])
    def test_a_generated_stack_that_holds_takes_no_gather_over_the_stack(self, spec):
        G = named_group(spec)
        Q = core(G)
        F = _F_stack(G)
        mask = harness._generated(Q, F, harness._f_generators(G, G.hol_base[1:]))
        assert mask.tolist() == preserving_mask(Q.op, F).tolist() == [True] * len(F)
        gathered = [key[1][0] for key in Q._store if key[0] == "laws"]  # rows of each stack gathered
        assert gathered == [2 * (len(G.hol_base) - 1)]

    @pytest.mark.parametrize("spec", ["Z6", "S3", "D4", "Q8", "S4"])
    def test_translations_by_generators_generate_g_op_f_and_f_prime(self, spec):
        G = named_group(spec)

        def closure(rows):
            return _stack_of(closure_of_point_maps([PointMap(row) for row in rows]))

        assert np.array_equal(closure(harness._f_generators(G, [])), _unique_rows(G.table.T))
        assert np.array_equal(closure(harness._f_generators(G, G.hol_base[1:])), _F_stack(G))
        for phi in _auts(G).aut.astype(np.int64):
            fixed = [a for a in range(G.n) if phi[a] == a and not G.center_mask[a]]
            assert np.array_equal(closure(harness._f_generators(G, fixed)), _F_prime_stack(G, phi))

    def test_counterexamples_are_built_only_for_failing_nodes(self, monkeypatch):
        calls = []
        real = harness._first_failure
        monkeypatch.setattr(harness, "_first_failure", lambda mask, stack: calls.append(1) or real(mask, stack))
        report = run_census([symmetric(3), quaternion8()])
        nodes, stack = [], list(report["checks"])
        while stack:
            nodes.append(stack.pop())
            stack.extend(nodes[-1].get("parts", []))
        assert len(nodes) > 1000
        assert len(calls) == sum(not node["holds"] for node in nodes) == 0
        # a failing implication still carries the first row in its mask
        v = harness._forward("t", "in", np.array([False, True, True]), np.array([[0, 1], [1, 0], [1, 0]]),
                             False, "")
        assert not v.holds and v.counterexample == {"index": 1, "images": [1, 0]} and len(calls) == 1


class TestCensus:
    def test_small_census_holds_and_validates(self):
        report = run_census([cyclic(3), symmetric(3)])
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["catalog"] == ["Z3", "S3"]
        assert report["summary"]["failed"] == 0
        assert report["summary"]["total"] > 100

    def test_empty_catalog_still_reports_group_free_checks(self):
        report = run_census([])
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["summary"]["failed"] == 0
        ids = {check["theorem_id"] for check in report["checks"]}
        assert ids == {"dihedral-no-anti"}

    def test_every_check_id_appears_on_a_rich_group(self):
        report = run_census([symmetric(3)])
        ids = {check["theorem_id"] for check in report["checks"]}
        assert ids == set(CHECK_IDS)

    def test_engine_fault_in_one_check_fails_one_verdict(self, monkeypatch):
        from quandlekit import harness

        original = harness.check_core

        def broken(G):
            if G.name == "Z3":
                raise AssertionError("search produced a non-morphism; engine bug")
            return original(G)

        monkeypatch.setattr(harness, "check_core", broken)
        report = run_census([cyclic(3), symmetric(3)])
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["summary"]["failed"] == 1
        (bad,) = [check for check in report["checks"] if not check["holds"]]
        assert (bad["theorem_id"], bad["inputs"]) == ("core", "Z3")
        assert bad["notes"].startswith("check raised AssertionError: ")
        assert any(c["theorem_id"] == "core" and c["inputs"] == "S3" for c in report["checks"])


class TestVerdictMechanics:
    def test_iff_failure_keeps_the_counterexample(self):
        v = claim("t", "in", "iff", True, False, counterexample={"x": 1})
        assert not v.holds and v.counterexample == {"x": 1} and v.witness is None

    def test_implication_is_vacuous_only_when_marked(self):
        v = claim("t", "in", "implies", False, False, vacuous=True)
        assert v.holds and v.vacuous

    @pytest.mark.parametrize("lhs,rhs", itertools.product([False, True], repeat=2))
    def test_claim_decides_holds_by_one_rule(self, lhs, rhs):
        for relationship in ("iff", "implies", "subgroup-embedding", "isomorphism", "emptiness"):
            # numpy booleans, as the masks give them, come out as plain ones
            v = claim("t", "in", relationship, np.bool_(lhs), np.bool_(rhs), witness="w", counterexample="c")
            expected = (not lhs) or rhs if relationship == "implies" else lhs == rhs
            assert v.holds is expected and v.lhs is lhs and v.rhs is rhs, relationship
            assert (v.witness, v.counterexample) == (("w", None) if expected else (None, "c"))

    def test_combine_rolls_up_failures(self):
        good = claim("t/a", "in", "iff", True, True)
        bad = claim("t/b", "in", "iff", True, False, counterexample=(0,))
        rolled = combine("t", "in", "iff", [good, bad])
        assert not rolled.holds
        assert [n.holds for n in rolled.walk()] == [False, True, False]

    def test_skipped_counts_as_holding(self):
        v = make_skipped("t", "in", "iff", "too large")
        assert v.holds and v.skipped
        assert summarize([v])["skipped"] == 1

    def test_unknown_relationship_is_rejected(self):
        with pytest.raises(ValueError):
            Verdict("t", "in", "correlation", True)

    def test_injected_wrong_predicate_fails_with_counterexample(self, monkeypatch):
        # Invert one group-theoretic predicate inside the harness and
        # confirm the corresponding verdicts fail loudly, carrying a
        # counterexample into the report instead of degrading silently.
        import quandlekit.harness as harness
        from quandlekit import report_json

        real = harness._all_central
        monkeypatch.setattr(
            harness, "_all_central", lambda G, left, right: not real(G, left, right)
        )
        verdicts = harness.run_check("alex", cyclic(4))
        failing = [n for v in verdicts for n in v.walk() if not n.holds]
        assert failing
        assert any(n.counterexample is not None for n in failing)
        assert report_json(["Z4"], verdicts)["summary"]["failed"] >= 1

    def test_a_wrong_claim_is_not_reported_as_holding(self):
        # Self-test demanded of the harness: hand-build the shape of a check
        # with a deliberately false right-hand side and confirm the failure
        # survives into the report with its counterexample intact.
        Q_order = 4
        wrong = claim(
            "self-test",
            "T4",
            "iff",
            lhs=True,
            rhs=Q_order == 5,
            counterexample={"order": Q_order},
        )
        from quandlekit import report_json

        report = report_json(["T4"], [wrong])
        assert report["summary"]["failed"] == 1
        assert report["checks"][0]["counterexample"] == {"order": 4}


def test_every_cap_in_config_is_read_by_the_library():
    """A MAX_* setting that no module reads is a dead knob."""
    package = pathlib.Path(quandlekit.__file__).parent
    read = {
        node.attr
        for path in package.glob("*.py") if path.name != "config.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "config"
    }
    caps = {name for name in vars(quandlekit.config) if name.startswith("MAX_")}
    assert caps and caps <= read, sorted(caps - read)

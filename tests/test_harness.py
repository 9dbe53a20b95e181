"""Theorem checks: spot runs per check id, census reports, self-tests."""

import ast
import collections
import functools
import gc
import itertools
import pathlib
import types
import weakref

import jsonschema
import numpy as np
import pytest

import quandlekit
from quandlekit import (
    CHECK_IDS,
    ConstructionSpecError,
    PointMap,
    REPORT_SCHEMA,
    Verdict,
    conj_m,
    cyclic,
    dihedral_quandle,
    is_quandle_anti,
    is_quandle_auto,
    named_group,
    quaternion8,
    run_census,
    run_check,
    semidirect_verify,
    summarize,
    symmetric,
)
from quandlekit import harness, quandlemaps
from quandlekit.constructions import _map_label
from quandlekit.harness import M_RANGE, _members, _quandle
from quandlekit.quandlemaps import QuandleMap
from quandlekit.verdicts import combine, make_iff, make_implies, make_skipped, report_json


CONJ_NO_ANTI_NOTE = (
    "first-hit search over all bijections for an isomorphism onto the transposed table"
)


def assert_all_hold(verdicts, context=""):
    for v in verdicts:
        for node in v.walk():
            assert node.holds, f"{context}: {node.render_text()}"


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

    def test_last_valid_indices_run(self):
        assert len(run_check("alex", symmetric(3), phi_index=5)) == 1
        assert len(run_check("q-family", symmetric(3), phi_index=0, psi_index=5)) == 4
        assert len(run_check("p-family-aut", symmetric(3), c=5)) == 1


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

    def test_complete_conj_no_anti_is_not_partial(self):
        for spec in ("Z2", "S3", "Z7", "D4", "Z12", "S4"):  # one note at every order
            (v,) = run_check("conj-no-anti", named_group(spec), m=1)
            assert v.holds and not v.skipped and v.notes == CONJ_NO_ANTI_NOTE, spec
            assert "partial" not in v.to_json()
            assert v.render_text().startswith("[ok] conj-no-anti")

    def test_conj_no_anti_fails_on_a_quandle_with_antiautomorphisms(self, monkeypatch):
        from quandlekit import harness

        R3 = dihedral_quandle(3)  # its six automorphisms also reverse it
        monkeypatch.setattr(harness, "conj_m", lambda G, m: R3)
        (v,) = run_check("conj-no-anti", cyclic(3), m=1)
        assert not v.holds and v.lhs is False
        assert is_quandle_anti(R3, PointMap(v.counterexample["images"]))


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


class TestGroupStore:
    """What G's store keys, and that a check builds each quandle of G once."""

    CONSTRUCTORS = ("conj_m", "core", "alex", "q1", "q2", "q3", "q4", "p1", "p2", "p3", "p4")

    def test_alex_tables_are_keyed_by_images_not_labels(self):
        D6 = named_group("D6")
        phis = harness.enumerate_aut(D6)
        tables = [_quandle(D6, "alex", phi).op for phi in phis]
        assert len(phis) == 12 and len({_map_label(phi) for phi in phis}) == 2
        assert len({t.tobytes() for t in tables}) == 12
        for phi, table in zip(phis, tables):
            assert np.array_equal(table, harness.alex(D6, phi).op)
            assert _quandle(D6, "alex", phi).op is table  # built once, then read back

    def test_semidirect_part_clauses_are_keyed_by_content(self, monkeypatch):
        D6 = named_group("D6")
        Q = conj_m(D6, 0)  # the trivial quandle: every bijection preserves it
        H = harness._H_stack(D6)
        auts = D6._maps.aut
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

    def _counted(self, monkeypatch):
        """Count harness constructor calls per (name, group, parameter)."""
        calls = collections.Counter()
        for name in self.CONSTRUCTORS:
            real = getattr(harness, name)

            @functools.wraps(real)
            def counted(G, *param, _name=name, _real=real):
                key = param[0].images.tobytes() if param and hasattr(param[0], "images") else param
                calls[_name, G.name, key] += 1
                return _real(G, *param)

            monkeypatch.setattr(harness, name, counted)
        return calls

    def test_census_builds_each_quandle_once_and_drops_the_store(self, monkeypatch):
        calls = self._counted(monkeypatch)
        S3, S4 = symmetric(3), symmetric(4)
        report = run_census([S3, S4])
        assert report["summary"]["failed"] == 0
        assert set(calls.values()) == {1}
        per_name = collections.Counter(name for name, _, _ in calls)
        aut_sizes = len(S3._maps.aut) + len(S4._maps.aut)  # 6 + 24
        assert per_name["alex"] == per_name["q1"] == aut_sizes
        assert per_name["conj_m"] == 2 * len(M_RANGE) and per_name["core"] == 2
        assert all(per_name[f"p{i}"] == S3.n + S4.n for i in range(1, 5))
        assert S3._store == {} and S4._store == {}

    def test_standalone_checks_share_the_alex_build(self, monkeypatch):
        calls = self._counted(monkeypatch)
        S3 = symmetric(3)
        assert_all_hold(run_check("alex", S3, phi_index=1))
        assert_all_hold(run_check("alex-semidirect", S3, phi_index=1))
        assert [name for name, _, _ in calls.elements()] == ["alex"]
        assert S3._store  # kept while S3 lives

    def test_stored_quandles_are_freed_with_the_store(self):
        """A stored quandle keeps only arrays: once G's store is cleared it dies without the cyclic GC."""
        S3, Z5 = symmetric(3), cyclic(5)
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert_all_hold(run_check("conj-out", S3))
            assert_all_hold(run_check("core-abelian-aut", Z5))
            refs = []
            for Q in (_quandle(S3, "conj_m", 1), _quandle(Z5, "core")):
                assert ("automorphism",) in Q._store  # the check enumerated Aut(Q)
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


class TestClaimVocabulary:
    def test_failing_members_claim_carries_the_first_failing_row(self):
        Q = conj_m(symmetric(3), 1)
        perms = np.array(list(itertools.permutations(range(Q.n)))[:40], dtype=np.uint8)
        replays = [is_quandle_auto(Q, PointMap(row)) for row in perms]
        assert True in replays and False in replays
        v = _members("t", "Conj(S3)", Q.op, perms, "every row is an automorphism")
        assert not v.holds and v.lhs is False
        first = replays.index(False)
        assert v.counterexample == {"index": first, "images": [int(x) for x in perms[first]]}
        assert is_quandle_auto(Q, PointMap(v.counterexample["images"])) is False


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
        v = make_iff("t", "in", True, False, counterexample={"x": 1})
        assert not v.holds and v.counterexample == {"x": 1} and v.witness is None

    def test_implication_is_vacuous_only_when_marked(self):
        v = make_implies("t", "in", False, False, vacuous=True)
        assert v.holds and v.vacuous

    def test_combine_rolls_up_failures(self):
        good = make_iff("t/a", "in", True, True)
        bad = make_iff("t/b", "in", True, False, counterexample=(0,))
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

        real = harness.is_central_automorphism
        monkeypatch.setattr(
            harness, "is_central_automorphism", lambda G, cm: not real(G, cm)
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
        wrong = make_iff(
            "self-test",
            "T4",
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

"""Sweeps decided once per Aut(G)-orbit: the orbits, the transported verdicts and their fallbacks."""

import numpy as np
import pytest

from quandlekit import (
    enumerate_aaut,
    enumerate_aut,
    named_group,
    run_census,
    run_check,
)
from quandlekit import harness
from quandlekit.groupmaps import _auts, _centralizer, _orbits
from quandlekit.harness import CATALOG_SPECS

# check id -> the family its sweep runs over and the run_check parameter naming one member
SWEEPS = {
    "alex": ("aut", "phi_index"),
    "alex-semidirect": ("aut", "phi_index"),
    "f-structure": ("aut", "phi_index"),
    "q-family": ("aut", None),  # Q1 per phi, then Q2..Q4 per psi: compared by (phi, psi) pairs
    "p-family-aut": ("point", "c"),
    "p-family-anti": ("point", "c"),
}

SMALL_CATALOG = [spec for spec in CATALOG_SPECS if spec != "heisenberg3"]


def _direct_json(verdict):
    return {k: v for k, v in verdict.to_json().items() if k != "via"}


def _public_maps(G):
    return {"aut": enumerate_aut(G), "aaut": enumerate_aaut(G)}


def _replays(maps, family, member, via) -> bool:
    """Whether theta o rep o theta^-1 is the member's row (maps), or theta(rep) the member (elements).

    ``maps`` holds the public lists of Aut(G) and AAut(G) (``_public_maps``).
    """
    theta = maps["aut"][via["conjugator"]].map
    if family == "point":
        return theta(via["index"]) == member
    rows = maps[family]
    return theta.compose(rows[via["index"]].map).compose(theta.inverse()) == rows[member].map


def _assert_transport_is_direct(G, members):
    """Every full-sweep verdict at the given members equals run_check at that member, ``via`` aside."""
    n = len(_auts(G).aut)
    maps = _public_maps(G)
    for tid, (family, param) in SWEEPS.items():
        full = run_check(tid, G)
        if tid == "q-family":
            for k, (i, j) in enumerate(zip(members["aut"], members["aaut"])):
                direct = run_check(tid, G, phi_index=i, psi_index=j)
                swept = [full[i], *full[n + 3 * j : n + 3 * j + 3]]
                assert [v.to_json() for v in direct] == [_direct_json(v) for v in swept], (G.name, i, j)
                for v, fam, member in zip(swept, ("aut", "aaut", "aaut", "aaut"), (i, j, j, j)):
                    assert v.via is None or _replays(maps, fam, member, v.via)
            continue
        for k in members[family]:
            (direct,) = run_check(tid, G, **{param: int(k)})
            assert direct.via is None
            assert direct.to_json() == _direct_json(full[k]), (tid, G.name, k)
            assert full[k].via is None or _replays(maps, family, k, full[k].via)


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_class_equation_on_every_orbit(spec):
    """|orbit| * |stabilizer| = |Aut(G)| for every phi, psi and c: the orbits against _centralizer."""
    G = named_group(spec)
    aut = _auts(G).aut
    for family in ("aut", "aaut", "point"):
        rep, theta = _orbits(G, family)
        size = np.bincount(rep, minlength=len(rep))
        assert (rep[rep] == rep).all() and (rep <= np.arange(len(rep))).all()
        assert (theta[rep == np.arange(len(rep))] == 0).all()  # a representative by the identity
        for i in range(len(rep)):
            if family == "point":
                stabilizer = int((aut[:, i] == i).sum())
            else:
                stabilizer = len(_centralizer(G, aut, getattr(_auts(G), family)[i]))
            assert size[rep[i]] * stabilizer == len(aut), (family, i)


def test_orbit_counts_on_h3():
    G = named_group("heisenberg3")
    counts = [int((o.rep == np.arange(len(o.rep))).sum()) for o in (_orbits(G, f) for f in ("aut", "aaut", "point"))]
    assert counts == [11, 11, 3]


@pytest.mark.parametrize("spec", SMALL_CATALOG)
def test_every_transported_verdict_equals_the_direct_one(spec):
    G = named_group(spec)
    everyone = {family: range(len(_orbits(G, family).rep)) for family in ("aut", "aaut", "point")}
    _assert_transport_is_direct(G, everyone)


def test_one_seeded_member_per_h3_orbit_equals_the_direct_one():
    G = named_group("heisenberg3")
    rng = np.random.default_rng(21)
    members = {}
    for family in ("aut", "aaut", "point"):
        rep = _orbits(G, family).rep
        members[family] = [int(rng.choice(np.flatnonzero(rep == r))) for r in np.unique(rep)]
    assert [len(m) for m in members.values()] == [11, 11, 3]
    _assert_transport_is_direct(G, members)


def test_a_census_names_every_transported_verdict():
    report = run_census([named_group("S3"), named_group("Q8")])
    via = [c for c in report["checks"] if "via" in c]
    assert via and report["version"] == 2
    assert all(set(c["via"]) == {"index", "conjugator"} for c in via)
    assert not [c for c in report["checks"] if c["theorem_id"] not in SWEEPS and "via" in c]
    assert not [p for c in report["checks"] for p in c.get("parts", []) if "via" in p]  # top level only


def test_a_failing_representative_makes_its_orbit_decided_directly(monkeypatch):
    G = named_group("S3")
    rows = _auts(G).aut
    rep = _orbits(G, "aut").rep
    r = int(np.flatnonzero(np.bincount(rep) == 3)[0])  # an orbit of three automorphisms
    orbit = {rows[j].tobytes() for j in np.flatnonzero(rep == r)}
    real = harness._all_central

    def planted(H, left, right):  # the centrality predicate turned over on one orbit
        flip = np.asarray(right, dtype=rows.dtype).tobytes() in orbit
        return real(H, left, right) != flip

    monkeypatch.setattr(harness, "_all_central", planted)
    full = run_check("alex", G)
    for j in np.flatnonzero(rep == r):
        v = full[j]
        assert v.via is None and not v.holds
        failing = [node for node in v.walk() if not node.holds and not node.parts]
        assert failing and all(node.counterexample is not None for node in failing)
        (direct,) = run_check("alex", G, phi_index=int(j))
        assert v.to_json() == direct.to_json()
    assert all(full[j].holds for j in np.flatnonzero(rep != r))


def test_a_skipped_representative_makes_its_orbit_decided_directly():
    G = named_group("S3")
    n = len(_auts(G).aaut)
    rep = _orbits(G, "aaut").rep
    full = run_check("q-family", G)
    q3 = {j: full[n + 3 * j + 1] for j in range(n)}
    skipped = [r for r in np.unique(rep) if q3[r].skipped and (rep == r).sum() > 1]
    assert skipped
    notes = {}
    for r in skipped:
        for j in np.flatnonzero(rep == r):
            v = q3[j]
            assert v.via is None and v.skipped and v.notes.startswith("construction rejected")
            direct = run_check("q-family", G, phi_index=0, psi_index=int(j))[2]
            assert v.to_json() == direct.to_json()  # the note names the member's own first (x, y)
            notes.setdefault(r, set()).add(v.notes)
    # the first (x, y) is not invariant: a copied note would name the representative's in every member
    assert any(len(seen) > 1 for seen in notes.values())


def test_an_explicit_index_decides_directly(monkeypatch):
    monkeypatch.setattr(harness, "_orbits", lambda *a: pytest.fail("an indexed run computed orbits"))
    G = named_group("D4")
    for tid, (family, param) in SWEEPS.items():
        if tid == "q-family":
            verdicts = run_check(tid, G, phi_index=3, psi_index=5)
        else:
            verdicts = run_check(tid, G, **{param: 3})
        assert verdicts and all(v.via is None for v in verdicts)


def test_replay_of_via_catches_a_wrong_conjugator():
    G = named_group("S3")
    full = run_check("alex", G)
    k = next(k for k, v in enumerate(full) if v.via and v.via["conjugator"])
    wrong = dict(full[k].via, conjugator=0)  # the identity carries the representative only to itself
    maps = _public_maps(G)
    assert _replays(maps, "aut", k, full[k].via) and not _replays(maps, "aut", k, wrong)
    assert f"from index {full[k].via['index']} by conjugator" in full[k].render_text()

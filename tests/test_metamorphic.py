"""Relabelled groups and quandles get the same verdicts and the conjugated maps.

Every construction and claim of the census is a formula in G's operations
and one map or element, so no verdict can depend on how G's points are
numbered.  Let pi rename G's points.  The verdict at phi (or psi) on G must
equal the verdict at pi o phi o pi^-1 on the renamed group, and the verdict
at c the one at pi(c): holds, lhs, rhs, vacuous and skipped, on every node.
Sweep members are matched by position: the member at phi's index on G
against the one at the index of pi o phi o pi^-1 in the renamed group's
sorted stack.  Inputs and notes name maps and elements by their numbers and
are left out.  A fault that reads the numbering, such as a table entry that
takes the identity for point 0, breaks this.

Likewise the automorphisms and antiautomorphisms of a renamed quandle are
the conjugated maps, whatever levels its search plan walks.
"""

import collections

import numpy as np
import pytest

from quandlekit import (
    FiniteGroup,
    Quandle,
    alex,
    are_isomorphic,
    conj_m,
    core,
    enumerate_aut,
    enumerate_quandle_antis,
    enumerate_quandle_auts,
    is_quandle_anti,
    is_quandle_auto,
    named_group,
    run_census,
)
from quandlekit.groupmaps import _auts, _compact, _orbits
from quandlekit.harness import CATALOG_SPECS, M_RANGE
from quandlekit.quandlemaps import _plan

SEEDS = (5, 11)

# check id -> the family a sweep's members run over; q-family is Q1 per phi, then Q2, Q3, Q4 per psi
SWEPT = {"alex": "aut", "alex-semidirect": "aut", "f-structure": "aut", "p-family-aut": "point", "p-family-anti": "point"}


def relabelling(G, seed):
    """A seeded permutation pi of G's points that moves the identity."""
    perm = np.random.default_rng(seed).permutation(G.n)
    return perm if perm[G.identity] != G.identity else np.roll(perm, 1)


def relabelled_table(table, perm):
    """The table with each point x renamed perm[x]: out[perm x, perm y] = perm[table[x, y]]."""
    out = np.empty_like(table)
    out[perm[:, None], perm[None, :]] = perm[table]
    return out


def relabelled(G, perm):
    """G with each point x renamed perm[x], under G's name."""
    return FiniteGroup(relabelled_table(G.table, perm), name=G.name)


def conjugated(images, perm):
    """pi o f o pi^-1: the map f on the renamed points."""
    out = np.empty_like(perm)
    out[perm] = perm[np.asarray(images, dtype=np.intp)]
    return out


def positions(G, H, perm):
    """Per family, the index on H = pi G of each member of G's: of pi phi pi^-1 in H's sorted stack, or pi(c)."""
    out = {"point": perm}
    for family in ("aut", "aaut"):
        theirs = getattr(_auts(H), family)
        index = {row.tobytes(): i for i, row in enumerate(theirs)}
        moved = _compact(np.stack([conjugated(row, perm) for row in getattr(_auts(G), family)]))
        out[family] = np.array([index[row.tobytes()] for row in moved])
        assert sorted(out[family]) == list(range(len(theirs))), family  # the sweep ranges correspond
    return out


def moved_position(theorem_id, k, at, n_aut):
    """The position on H of a check's k-th verdict on G, sweep members moved by ``positions``."""
    if theorem_id in SWEPT:
        return int(at[SWEPT[theorem_id]][k])
    if theorem_id == "q-family":
        if k < n_aut:
            return int(at["aut"][k])
        j, i = divmod(k - n_aut, 3)
        return n_aut + 3 * int(at["aaut"][j]) + i
    return k  # one verdict, or one per m or n


def shape(node):
    """A verdict node's fields that no numbering reaches, its parts' included."""
    return (node["theorem_id"], node["holds"], node["lhs"], node["rhs"], node["vacuous"], node["skipped"],
            [shape(part) for part in node.get("parts", [])])


def by_check(report):
    """The report's verdicts per check id, in order."""
    out = collections.defaultdict(list)
    for verdict in report["checks"]:
        out[verdict["theorem_id"]].append(verdict)
    return out


def assert_relabelled_census_matches(G, seeds=SEEDS):
    """Every census verdict on G equals the one at the matching position on G relabelled by each seed's pi."""
    census = run_census([G])
    report = by_check(census)
    for seed in seeds:
        perm = relabelling(G, seed)
        H = relabelled(G, perm)
        assert H.identity == perm[G.identity] != G.identity
        at = positions(G, H, perm)
        n_aut = len(_auts(G).aut)
        relabelled_census = run_census([H])
        assert relabelled_census["summary"] == census["summary"], seed
        other = by_check(relabelled_census)
        assert other.keys() == report.keys(), seed
        for tid, verdicts in report.items():
            assert len(other[tid]) == len(verdicts), (seed, tid)
            for k, verdict in enumerate(verdicts):
                match = other[tid][moved_position(tid, k, at, n_aut)]
                assert shape(match) == shape(verdict), (seed, tid, k, verdict["inputs"])


@pytest.mark.parametrize("spec", [spec for spec in CATALOG_SPECS if spec != "heisenberg3"])
def test_a_relabelled_group_gets_the_same_verdicts(spec):
    assert_relabelled_census_matches(named_group(spec))


def catalog_quandles():
    """The distinct non-trivial tables of Conj_m(G), Core(G) and Alex(G, phi), phi an Aut(G)-orbit
    representative, over the catalog groups of order 8-12."""
    tables = {}
    for spec in CATALOG_SPECS:
        G = named_group(spec)
        if not 8 <= G.n <= 12:
            continue
        auts, rep = enumerate_aut(G), _orbits(G, "aut").rep
        built = [conj_m(G, m) for m in M_RANGE] + [core(G)]
        built += [alex(G, auts[k]) for k in np.flatnonzero(rep == np.arange(len(rep)))]
        for Q in built:
            if not (Q.op == np.arange(Q.n)[:, None]).all():
                tables.setdefault(Q.op.tobytes(), Q)
    return list(tables.values())


def test_relabelled_quandles_give_conjugated_maps():
    quandles = catalog_quandles()
    assert len(quandles) == 59
    kinds = ((enumerate_quandle_auts, is_quandle_auto), (enumerate_quandle_antis, is_quandle_anti))
    for k, Q in enumerate(quandles):
        mine = [enumerate_maps(Q) for enumerate_maps, _ in kinds]
        for seed in SEEDS:
            perm = np.random.default_rng((seed, k)).permutation(Q.n)
            R = Quandle(relabelled_table(Q.op, perm), name=f"{Q.name} relabelled")
            for maps, (enumerate_maps, replay) in zip(mine, kinds):
                theirs = enumerate_maps(R)
                want = sorted(tuple(map(int, conjugated(f.images, perm))) for f in maps)
                assert [f.map.as_tuple() for f in theirs] == want, (Q.name, seed, enumerate_maps.__name__)
                assert all(replay(R, f.map) for f in theirs), (Q.name, seed)
            f = are_isomorphic(Q, R).images
            assert np.array_equal(f[Q.op], R.op[f[:, None], f[None, :]]), (Q.name, seed)
    # both kinds of plan were searched: least-index levels only, and growth-ordered ones for full enumeration
    assert {[lv.g for lv in _plan(Q).full_levels] == _plan(Q).generators for Q in quandles} == {True, False}

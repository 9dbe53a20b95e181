"""The compact map-stack substrate against plain frozenset-of-tuples references.

Inside the engine a set of maps is a compact image stack keyed by one byte
string per row, or, for maps of Hol(G), by one integer from the images on
``G.hol_base``; these tests pin every keyed operation to the obvious
set-of-tuples computation it replaces, including the order of the results.
"""

import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandlekit
from quandlekit import (
    ANTIAUTOMORPHISM,
    AUTOMORPHISM,
    CATALOG_SPECS,
    CapExceeded,
    CarrierMismatch,
    PointMap,
    build_F,
    build_F_prime,
    build_H,
    centralizer_in_aaut,
    centralizer_in_aut,
    classify,
    closure_group,
    closure_of_point_maps,
    config,
    cyclic,
    dihedral_quandle,
    enumerate_aaut,
    enumerate_aut,
    inn_group,
    inner_auts,
    named_group,
    out_coset_reps,
    run_census,
    run_check,
)
from quandlekit.groupmaps import (
    _auts,
    _centralizer,
    _coset_leaders,
    _F_prime_stack,
    _F_stack,
    _H_stack,
    _hol_keys,
    _hol_mask,
    _inner_stack,
    _is_map_group,
    _out_reps,
    _product_counts,
    preserves_table,
)
from quandlekit.groups import FiniteGroup
from quandlekit.harness import (
    M_RANGE,
    check_alex_semidirect,
    check_conj_semidirect,
    check_core_semidirect,
)
from quandlekit.verdicts import report_json

# sha256 of json.dumps(run_census([Z3, Z4, S3, D4, Q8]), sort_keys=True), as
# produced by the per-row implementation the keyed stacks replaced, with
# conj-no-anti's one note for its first-hit search.
GOLDEN_CENSUS_SHA256 = "9ca5acca24ab2a17d9e5a25a7ea6c8dd86053005377659ab842ea90a2bdbfd87"
# The same census as a version 2 report: every sweep decided per Aut(G)-orbit,
# each transported verdict naming its representative under ``via``.
GOLDEN_CENSUS_V2_SHA256 = "48a10786c58a5b03020e086f2f04e34796aa8ff668f16e9badd070d03479a804"

# sha256 of json.dumps(run_census(catalog without heisenberg3), sort_keys=True),
# as produced while the checks still turned stacks into map lists and back,
# with conj-no-anti's one note and no ``partial`` keys.
GOLDEN_CATALOG_SHA256 = "9e3a56b54e1ec40d0a7724d2e3ee66d8195e3dec9cf9a3e9a3e2f25bf617591d"
GOLDEN_CATALOG_V2_SHA256 = "27c2aeb3e13fc0e98db6d1f8bc44883652c589e32b14d37633f879b22f430480"

# sha256 of json.dumps(report_json(["H3"], verdicts), sort_keys=True) over the
# H3 runs in H3_GOLDEN_RUNS, in order, from the same implementation, with
# every closure materialized: alex-semidirect at phi = id notes "closure
# 11664 = 27 x 432 (materialized)" and core-semidirect "materialized closure
# has 11664 maps".
GOLDEN_H3_SHA256 = "41a89b45ad752b443b5b08a2753b584cb2830bd3aa3bbf79060fff929c384aac"
H3_GOLDEN_RUNS = (
    ("conj-semidirect", {"m": 1}),
    ("conj-out", {}),
    ("core", {}),
    ("core-semidirect", {}),
    *((tid, {"phi_index": k}) for tid in ("alex", "alex-semidirect", "f-structure")
      for k in (0, 431)),
    ("q-family", {"phi_index": 5, "psi_index": 7}),
)

# |Aut(G)| for every catalog group of order <= 12, from the classification of
# small groups: phi(n) for Z_n, |GL(2,p)| for the elementary abelian groups,
# n * phi(n) for the dihedral group of order 2n, 24 for Q8.
AUT_ORDERS = {
    "Z2": 1, "Z3": 2, "Z4": 2, "Z5": 4, "Z6": 2, "Z7": 6, "Z8": 4, "Z9": 6,
    "Z10": 4, "Z11": 10, "Z12": 4, "Z2xZ2": 6, "Z3xZ3": 48, "D3": 6, "D4": 8,
    "D5": 20, "D6": 12, "S3": 6, "Q8": 24,
}

SMALL_CATALOG = [spec for spec in CATALOG_SPECS if named_group(spec).n <= 12]

# The groups whose holomorphs the keyed helpers are tested on.
HOL_CATALOG = [spec for spec in CATALOG_SPECS if named_group(spec).n <= 8]


# --- references: sets of tuples, no arrays ---


def compose(f, g):
    """f after g."""
    return tuple(f[x] for x in g)


def inverse(f):
    inv = [0] * len(f)
    for x, y in enumerate(f):
        inv[y] = x
    return tuple(inv)


def reference_closure(gens, cap):
    """Breadth-first closure over frozensets, the same rounds and cap test."""
    n = len(gens[0])
    step = frozenset(gens) | frozenset(inverse(g) for g in gens)
    identity = tuple(range(n))
    known = frozenset([identity])
    frontier = frozenset([identity])
    while frontier:
        fresh = frozenset(compose(f, g) for f in frontier for g in step) - known
        if not fresh:
            break
        if len(known) + len(fresh) > cap:
            raise CapExceeded("map closure", len(known) + len(fresh), cap)
        known |= fresh
        frontier = fresh
    return sorted(known)


def reference_is_map_group(rows):
    members = frozenset(rows)
    return (
        len(members) == len(rows)
        and all(compose(a, b) in members for a in rows for b in rows)
        and all(inverse(a) in members for a in rows)
    )


def hol_rows(G):
    """Hol(G) = {x -> a * phi(x) | a in G, phi in Aut(G)} as sorted tuples."""
    return sorted({tuple(int(v) for v in G.table[a, phi.images])
                   for a in range(G.n) for phi in enumerate_aut(G)})


HOL = {spec: (named_group(spec), hol_rows(named_group(spec))) for spec in HOL_CATALOG}


def hol_subgroup(data):
    """A catalog group of order <= 8 and the subgroup of Hol(G) that drawn members generate."""
    G, rows = HOL[data.draw(st.sampled_from(HOL_CATALOG))]
    gens = data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=4))
    return G, gens, reference_closure(gens, cap=10**6)


def relabelled(G, perm):
    """G with element x renamed perm[x]."""
    perm = np.asarray(perm)
    table = np.empty_like(G.table)
    table[perm[:, None], perm[None, :]] = perm[G.table]
    return FiniteGroup(table, name=f"{G.name}'")


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except CapExceeded as exc:
        return "cap", str(exc)


def perms(max_n=7):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=4)
    )


# --- closure ---


class TestClosure:
    @settings(max_examples=60, deadline=None)
    @given(gens=perms(), cap=st.integers(1, 200))
    def test_closure_and_cap_match_the_frozenset_reference(self, gens, cap):
        want = outcome(reference_closure, gens, cap)
        with mock.patch.object(config, "MAX_CLOSURE_SIZE", cap):
            got = outcome(lambda: [m.as_tuple() for m in closure_of_point_maps([PointMap(g) for g in gens])])
        assert got == want

    @settings(max_examples=30, deadline=None)
    @given(gens=perms())
    def test_cap_fires_at_the_same_sizes(self, gens):
        size = len(reference_closure(gens, cap=10**6))
        for cap in sorted({1, size // 3, size // 2, size - 1, size}):
            if cap < 1:
                continue
            want = outcome(reference_closure, gens, cap)
            with mock.patch.object(config, "MAX_CLOSURE_SIZE", cap):
                got = outcome(lambda: [m.as_tuple() for m in closure_of_point_maps([PointMap(g) for g in gens])])
            assert got == want, cap

    def test_wide_images_sort_by_value(self):
        """n = 300 uses two-byte keys; images 250..299 straddle 255/256."""
        n = 300

        def cycle(*points):
            images = list(range(n))
            for a, b in zip(points, points[1:] + points[:1]):
                images[a] = b
            return tuple(images)

        gens = [cycle(250, 256, 299), cycle(250, 256), cycle(255, 257, 270, 290)]
        got = [m.as_tuple() for m in closure_of_point_maps([PointMap(g) for g in gens])]
        assert len(got) == 24  # Sym{250, 256, 299} x C4
        assert got == reference_closure(gens, cap=10**6)
        assert all(m.images.dtype == np.int64 for m in closure_of_point_maps(
            [PointMap(g) for g in gens]))

    @settings(max_examples=30, deadline=None)
    @given(gens=perms(max_n=5))
    def test_closure_group_table_matches_the_dict_lookup(self, gens):
        closed, G = closure_group([PointMap(g) for g in gens])
        rows = [m.as_tuple() for m in closed]
        index = {row: i for i, row in enumerate(rows)}
        want = [[index[compose(a, b)] for b in rows] for a in rows]
        assert G.table.tolist() == want

    def test_closure_group_of_inner_maps_keeps_its_table(self):
        closed, G = closure_group(inn_group(dihedral_quandle(5)))
        rows = [m.as_tuple() for m in closed]
        index = {row: i for i, row in enumerate(rows)}
        assert G.table.tolist() == [[index[compose(a, b)] for b in rows] for a in rows]

    @pytest.mark.parametrize("sizes", [(2, 3), (3, 2), (4, 4, 5), (1, 3)])
    def test_closure_group_of_maps_of_different_carriers_is_a_carrier_mismatch(self, sizes):
        maps = [PointMap(np.roll(np.arange(n), 1)) for n in sizes]
        with pytest.raises(CarrierMismatch, match=f"expected {sizes[0]}, got {sizes[-1]}"):
            closure_group(maps)


# --- Hol(G) keys ---


class TestHolKeys:
    def test_base_is_the_identity_and_the_greedy_generators(self):
        assert named_group("heisenberg3").hol_base.tolist() == [0, 1, 3, 9]
        assert named_group("S4").hol_base.tolist() == [0, 1, 2, 6]
        assert not named_group("S4").hol_base.flags.writeable

    @pytest.mark.parametrize("spec", HOL_CATALOG)
    def test_keys_tell_the_holomorph_apart(self, spec):
        G, rows = HOL[spec]
        keys = _hol_keys(G, np.array(rows)[:, G.hol_base])
        assert len(set(keys.tolist())) == len(rows)

    def test_base_holds_the_identity_when_it_is_not_zero(self):
        G = relabelled(cyclic(4), [2, 0, 3, 1])  # identity 2; 0 alone generates
        assert G.identity == 2 and G.hol_base.tolist() == [2, 0]
        rows = hol_rows(G)
        assert len(rows) == 8
        assert len(set(_hol_keys(G, np.array(rows)[:, G.hol_base]).tolist())) == 8

    def test_a_map_fixing_the_generators_need_not_be_the_identity(self):
        Z3 = cyclic(3)
        maps = np.array([[0, 1, 2], [2, 1, 0]])  # x -> 2 + 2x fixes the generator 1
        assert len(set(_hol_keys(Z3, maps[:, Z3.hol_base]).tolist())) == 2
        assert _is_map_group(Z3, maps)
        assert right_closure_size(Z3, maps[:1], maps[1:]) == 2

    @pytest.mark.parametrize("spec", ["Z3", "Z4", "Z5", "Z6", "Z2xZ2", "S3", "relabelled Z4"])
    def test_mask_is_holomorph_membership(self, spec):
        G = relabelled(cyclic(4), [2, 0, 3, 1]) if spec == "relabelled Z4" else named_group(spec)
        members = set(hol_rows(G))
        bijections = list(itertools.permutations(range(G.n)))
        assert _hol_mask(G, np.array(bijections)).tolist() == [row in members for row in bijections]
        constant = np.zeros((1, G.n), dtype=np.int64)  # g = f(e)^-1 * f is then a homomorphism
        merged = np.arange(G.n)[None, :] % (G.n - 1)  # the last point goes where 0 goes
        assert not _hol_mask(G, np.concatenate([constant, merged])).any()

    def test_keys_past_int64_are_refused(self):
        assert named_group("x".join(["Z2"] * 7)).hol_base.size == 8  # 128^8 = 2^56
        with pytest.raises(CapExceeded):
            named_group("x".join(["Z2"] * 8)).hol_base  # 256^9 = 2^72


# --- subgroup test ---


class TestMapGroup:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_is_map_group_matches_the_frozenset_reference(self, data):
        G, _, group = hol_subgroup(data)
        pick = data.draw(st.lists(st.sampled_from(group), min_size=1, max_size=8))
        rows = data.draw(st.sampled_from([group, pick, group + pick[:1], group[1:] or group]))
        assert _is_map_group(G, np.array(rows, dtype=np.int64)) == reference_is_map_group(rows)

    def test_aut_h3_is_a_group_and_its_near_misses_are_not(self):
        H3 = named_group("heisenberg3")
        auts = _auts(H3).aut  # 432 maps, 186,624 products
        assert _is_map_group(H3, auts)
        assert not _is_map_group(H3, np.delete(auts, 100, axis=0))
        assert not _is_map_group(H3, np.concatenate([auts, auts[100:101]]))


# --- closure of a product set ---


def reference_right_closure_size(P, T):
    """|{id} u P u P o T| over frozensets."""
    identity = tuple(range(len(P[0])))
    return len(frozenset(P) | {identity} | {compose(p, t) for p in P for t in T})


def right_closure_size(G, P, T):
    """The closure count of ``_product_counts`` with P itself as the products: P o {id}."""
    return _product_counts(G, np.array(P), np.arange(G.n)[None, :], np.array(T))[1]


def reported_size(verdict, pattern):
    """The closure size in the notes of a check's closure part."""
    (note,) = [p.notes for p in verdict.parts if p.theorem_id.endswith(("/semidirect", "/closure"))]
    return int(re.search(pattern, note).group(1))


class TestProductSetClosure:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_count_matches_the_frozenset_reference(self, data):
        G, gens, group = hol_subgroup(data)
        P = data.draw(st.lists(st.sampled_from(group), min_size=1, max_size=12))
        T = data.draw(st.lists(st.sampled_from(group), min_size=1, max_size=4))
        assert right_closure_size(G, P, T) == reference_right_closure_size(P, T)
        assert right_closure_size(G, group, gens) == len(group)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_products_are_counted_as_the_frozenset_of_n_o_c(self, data):
        G, gens, group = hol_subgroup(data)
        N, C = (data.draw(st.lists(st.sampled_from(group), min_size=1, max_size=6)) for _ in range(2))
        products = [compose(a, c) for a in N for c in C]
        distinct, closure = _product_counts(G, np.array(N), np.array(C), np.array(gens))
        assert distinct == len(frozenset(products))
        assert closure == reference_right_closure_size(products, gens)

    def test_h3_product_set_is_closed_and_a_missing_row_is_counted(self):
        H3 = named_group("heisenberg3")
        gop, aut = H3.table.T, _auts(H3).aut  # row b of gop is x -> x * b
        assert _product_counts(H3, gop, aut, gop) == (11664, 11664)  # every f_(1,b) o phi
        P = gop[:, aut].reshape(-1, H3.n)
        assert right_closure_size(H3, P, gop) == len(P) == 11664
        short = np.delete(P, 100, axis=0)  # P o G^op still reaches the missing map
        assert right_closure_size(H3, short, gop) == len(short) + 1 == 11664

    def test_unclosed_set_counts_past_its_size(self):
        P = np.array([[0, 1, 2], [1, 0, 2]])  # id and (0 1), in Hol(Z3) = Sym(3)
        assert right_closure_size(cyclic(3), P, np.array([[1, 2, 0]])) > len(P)  # T = {(0 1 2)}

    def test_set_without_the_identity_is_not_closed(self):
        shift = np.array([[1, 2, 0], [2, 0, 1]])  # the 3-cycles; P o (0 1 2) adds only id
        assert right_closure_size(cyclic(3), shift, np.array([[1, 2, 0]])) == len(shift) + 1

    @pytest.mark.parametrize("spec", SMALL_CATALOG)
    def test_semidirect_sizes_equal_the_closure_search(self, spec):
        G = named_group(spec)
        auts = [cm.map for cm in enumerate_aut(G)]
        want = len(closure_of_point_maps(build_H(G) + auts))
        for m in M_RANGE:
            assert reported_size(check_conj_semidirect(G, m), r"closure (\d+) =") == want, m
        right_translations = [PointMap(G.table[:, b]) for b in range(G.n)]
        for phi in enumerate_aut(G):
            cent = [cm.map for cm in centralizer_in_aut(G, phi)]
            want = len(closure_of_point_maps(right_translations + cent))
            assert reported_size(check_alex_semidirect(G, phi.images), r"closure (\d+) =") == want

    @pytest.mark.parametrize("spec", SMALL_CATALOG + ["S4"])
    def test_core_semidirect_size_equals_the_closure_search(self, spec):
        G = named_group(spec)
        want = len(closure_of_point_maps(build_F(G) + [cm.map for cm in out_coset_reps(G)]))
        verdict = check_core_semidirect(G)
        assert reported_size(verdict, r"materialized closure has (\d+) maps") == want
        assert verdict.holds

    @pytest.mark.parametrize("spec", ["S3", "S4"])
    def test_semidirect_checks_run_no_closure_search(self, spec, monkeypatch):
        calls = []
        real = closure_of_point_maps

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("quandlekit") and hasattr(module, "closure_of_point_maps"):
                monkeypatch.setattr(module, "closure_of_point_maps", counted)
        G = named_group(spec)
        for theorem_id in ("conj-semidirect", "alex-semidirect", "core-semidirect"):
            assert all(v.holds for v in run_check(theorem_id, G))
        assert calls == []


# --- Aut(G) and AAut(G) ---


class TestAutCache:
    @pytest.mark.parametrize("spec", SMALL_CATALOG)
    def test_aut_and_aaut_equal_the_per_map_definition(self, spec):
        G = named_group(spec)
        auts = enumerate_aut(G)
        rows = [cm.map.as_tuple() for cm in auts]
        assert len(rows) == AUT_ORDERS[spec]
        assert rows == sorted(set(rows))
        assert all(cm.kind == AUTOMORPHISM and preserves_table(G.table, cm.images) for cm in auts)
        # AAut(G): every phi o inversion, sorted, each kind decided by classify
        want = sorted(tuple(row[int(G.inverse[x])] for x in range(G.n)) for row in rows)
        aauts = enumerate_aaut(G)
        assert [cm.map.as_tuple() for cm in aauts] == want
        assert [cm.kind for cm in aauts] == [classify(G, PointMap(row)).kind for row in want]
        assert {cm.kind for cm in aauts} == ({AUTOMORPHISM} if G.is_abelian else {ANTIAUTOMORPHISM})

    def test_lists_are_fresh_and_maps_immutable(self):
        G = named_group("S3")
        first, second = enumerate_aut(G), enumerate_aut(G)
        assert first is not second and first == second
        first.pop()
        assert len(enumerate_aut(G)) == 6
        for cm in enumerate_aaut(G) + second:
            assert not cm.images.flags.writeable
            assert cm.images.dtype == np.int64


# --- public lists are views of the private stacks ---


def rows_of(maps):
    return [tuple(int(v) for v in m.images) for m in maps]


def stack_rows(stack):
    return [tuple(int(v) for v in row) for row in stack]


class TestViews:
    @pytest.mark.parametrize("spec", SMALL_CATALOG + ["S4", "heisenberg3"])
    def test_each_list_is_the_rows_of_its_stack_in_order(self, spec):
        G = named_group(spec)
        maps = _auts(G)
        assert rows_of(enumerate_aut(G)) == stack_rows(maps.aut)
        assert rows_of(enumerate_aaut(G)) == stack_rows(maps.aaut)
        assert rows_of(inner_auts(G)) == stack_rows(_inner_stack(G))
        assert rows_of(out_coset_reps(G)) == stack_rows(_out_reps(G))
        assert rows_of(build_H(G)) == stack_rows(_H_stack(G))
        assert rows_of(build_F(G)) == stack_rows(_F_stack(G))
        for phi in enumerate_aut(G):
            assert rows_of(centralizer_in_aut(G, phi)) == stack_rows(
                _centralizer(G, maps.aut, phi.images))
            assert rows_of(centralizer_in_aaut(G, phi)) == stack_rows(
                _centralizer(G, maps.aaut, phi.images))
            assert rows_of(build_F_prime(G, phi)) == stack_rows(_F_prime_stack(G, phi.images))

    @pytest.mark.parametrize("spec", SMALL_CATALOG + ["S4", "heisenberg3"])
    def test_centralizer_on_the_base_is_the_whole_row_comparison(self, spec):
        G = named_group(spec)
        for phi in np.concatenate([_auts(G).aut, _auts(G).aaut]):
            for stack in (_auts(G).aut, _auts(G).aaut):
                want = stack[(stack[:, phi] == phi[stack]).all(axis=1)]
                assert np.array_equal(_centralizer(G, stack, phi), want)

    @pytest.mark.parametrize("spec", SMALL_CATALOG + ["S4"])
    def test_coset_leaders_are_the_least_members(self, spec):
        G = named_group(spec)
        inner = stack_rows(_inner_stack(G))
        auts = stack_rows(_auts(G).aut)
        want = [min(compose(s, m) for s in inner) for m in auts]
        assert stack_rows(_coset_leaders(_inner_stack(G), _auts(G).aut)) == want
        assert stack_rows(_out_reps(G)) == [m for m, lead in zip(auts, want) if m == lead]

    @pytest.mark.parametrize("spec", SMALL_CATALOG + ["S4", "heisenberg3"])
    def test_center_mask_is_the_center(self, spec):
        G = named_group(spec)
        assert tuple(np.flatnonzero(G.center_mask)) == G.center().members
        assert not G.center_mask.flags.writeable
        assert G.center_mask is G.center_mask


def test_conj_out_builds_inn_once(monkeypatch):
    """inn_out_report and the coset-injective clause read one Inn(Conj(G)) build."""
    import quandlekit.quandles as quandles_module

    calls = []
    real = quandles_module.closure_of_point_maps

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(quandles_module, "closure_of_point_maps", counted)
    assert all(v.holds for v in run_check("conj-out", named_group("S3")))
    assert len(calls) == 1


# --- the whole census ---


def _digest(report) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def as_v1(report: dict) -> dict:
    """A version 2 report as version 1 had it: every ``via`` key removed."""

    def strip(node):
        out = {k: v for k, v in node.items() if k != "via"}
        if "parts" in node:
            out["parts"] = [strip(p) for p in node["parts"]]
        return out

    return {**report, "version": 1, "checks": [strip(c) for c in report["checks"]]}


def test_small_census_is_byte_identical_to_the_per_row_engine():
    report = run_census([named_group(s) for s in ("Z3", "Z4", "S3", "D4", "Q8")])
    assert _digest(as_v1(report)) == GOLDEN_CENSUS_SHA256  # transport changed no verdict
    assert _digest(report) == GOLDEN_CENSUS_V2_SHA256


def test_catalog_census_without_h3_is_byte_identical():
    groups = [named_group(s) for s in CATALOG_SPECS if s != "heisenberg3"]
    report = run_census(groups)
    assert _digest(as_v1(report)) == GOLDEN_CATALOG_SHA256
    assert _digest(report) == GOLDEN_CATALOG_V2_SHA256


@pytest.fixture(scope="module")
def h3_golden_verdicts():
    H3 = named_group("heisenberg3")
    return [v for tid, kw in H3_GOLDEN_RUNS for v in run_check(tid, H3, **kw)]


def test_h3_checks_are_byte_identical(h3_golden_verdicts):
    # explicit indices decide directly: no verdict is transported, only the version moved
    assert not any(v.via for v in h3_golden_verdicts)
    assert _digest(as_v1(report_json(["H3"], h3_golden_verdicts))) == GOLDEN_H3_SHA256


def test_every_h3_closure_is_materialized(h3_golden_verdicts):
    notes = [node.notes for v in h3_golden_verdicts for node in v.walk()
             if node.theorem_id.endswith(("/semidirect", "/closure"))]
    # conj-semidirect, core-semidirect and alex-semidirect at two phi
    assert len(notes) == 4
    assert all("materialized" in note for note in notes), notes


def test_census_leaves_numpy_ma_unimported():
    """A bare np.unique asks np.ma.is_masked, which imports numpy.ma mid-census."""
    code = (
        "import sys\n"
        "from quandlekit import named_group, run_census\n"
        "run_census([named_group('S3'), named_group('D4')])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(quandlekit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]

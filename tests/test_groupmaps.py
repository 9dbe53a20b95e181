"""Group maps: enumeration vs oracle, map families, closures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit import (
    ANTIAUTOMORPHISM,
    AUTOMORPHISM,
    CapExceeded,
    FiniteGroup,
    PointMap,
    aut_oracle,
    build_F,
    build_F_prime,
    build_H,
    centralizer_in_aaut,
    centralizer_in_aut,
    classify,
    closure_of_point_maps,
    cyclic,
    dihedral,
    direct_product,
    enumerate_aaut,
    enumerate_aut,
    f_ab,
    fix_set,
    heisenberg,
    inner_auts,
    inversion_map,
    is_central_automorphism,
    left_translation,
    named_group,
    out_coset_reps,
    quaternion8,
    symmetric,
    verify_F_iso,
)
from quandlekit import config
from quandlekit.groupmaps import _all_f_ab_stack, _composes_as, preserving_mask, reversing_mask
from quandlekit.groups import opposite, quotient_by_normal

# Automorphism group orders, frozen from independent runs of the n! oracle
# (order <= 6) and cross-checked against the generator-image search.
AUT_ORDERS = {
    "Z2": 1,
    "Z3": 2,
    "Z5": 4,
    "Z6": 2,
    "Z2xZ2": 6,
    "Z3xZ3": 48,
    "S3": 6,
    "D4": 8,
    "S4": 24,
    "Q8": 24,
    "heisenberg3": 432,
}


class TestEnumeration:
    @pytest.mark.parametrize("spec", ["Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2", "S3", "D3"])
    def test_search_agrees_with_oracle_on_small_groups(self, spec):
        G = named_group(spec)
        fast = {cm.map.as_tuple() for cm in enumerate_aut(G)}
        slow = {cm.map.as_tuple() for cm in aut_oracle(G)}
        assert fast == slow

    @pytest.mark.parametrize("spec,count", sorted(AUT_ORDERS.items()))
    def test_frozen_aut_orders(self, spec, count):
        G = named_group(spec)
        assert len(enumerate_aut(G)) == count

    def test_oracle_refuses_large_groups(self):
        with pytest.raises(CapExceeded):
            aut_oracle(dihedral(4))

    @pytest.mark.parametrize("spec", ["Z5", "S3", "D4", "Q8"])
    def test_antiautomorphisms_are_automorphisms_twisted_by_inversion(self, spec):
        G = named_group(spec)
        eps = PointMap(G.inverse)
        twisted = {cm.map.compose(eps) for cm in enumerate_aut(G)}
        antis = {cm.map for cm in enumerate_aaut(G)}
        assert twisted == antis
        assert len(antis) == len(enumerate_aut(G))

    def test_equal_tables_keep_their_own_maps(self):
        G1 = cyclic(6)
        G2 = FiniteGroup(G1.table, name="another Z6")
        for G in (G1, G2, G1):
            assert all(cm.group is G for cm in enumerate_aut(G) + enumerate_aaut(G))
            assert all(cm.group is G for cm in centralizer_in_aaut(G, enumerate_aut(G)[1]))

    def test_law_masks_of_an_empty_stack_are_empty(self):
        G = symmetric(3)
        for mask in (preserving_mask, reversing_mask):
            for empty in (np.empty((0, 0), dtype=np.uint8), np.empty((0, G.n), dtype=np.uint8)):
                out = mask(G.table, empty)
                assert out.shape == (0,) and out.dtype == bool

    def test_enumerations_are_sorted_and_start_plausibly(self):
        G = symmetric(3)
        auts = enumerate_aut(G)
        assert auts == sorted(auts)
        assert auts[0].map == PointMap.identity(G.n)


class TestClassification:
    def test_inversion_kind_tracks_commutativity(self):
        assert inversion_map(cyclic(5)).kind == AUTOMORPHISM
        assert inversion_map(symmetric(3)).kind == ANTIAUTOMORPHISM
        assert inversion_map(quaternion8()).kind == ANTIAUTOMORPHISM

    def test_aaut_kinds(self):
        # On an abelian group the two laws coincide, so every
        # antiautomorphism is reported under its stronger name.
        assert {cm.kind for cm in enumerate_aaut(cyclic(5))} == {AUTOMORPHISM}
        assert {cm.kind for cm in enumerate_aaut(symmetric(3))} == {ANTIAUTOMORPHISM}

    def test_plain_bijection(self):
        from quandlekit import PLAIN

        G = cyclic(4)
        assert classify(G, PointMap([0, 1, 3, 2])).kind == PLAIN

    def test_is_central_automorphism(self):
        G = quaternion8()
        # Inner automorphisms of Q8 are central: x^-1 phi(x) = [x, g] lands
        # in the derived subgroup, which equals the centre here.
        for cm in inner_auts(G):
            assert is_central_automorphism(G, cm)
        G2 = symmetric(3)
        nontrivial = [cm for cm in enumerate_aut(G2) if cm.map != PointMap.identity(6)]
        assert all(not is_central_automorphism(G2, cm) for cm in nontrivial)

    def test_fix_set_is_a_subgroup_containing_identity(self):
        G = dihedral(4)
        for cm in enumerate_aut(G):
            fixed = fix_set(G, cm)
            assert G.identity in fixed
            members = set(fixed)
            for a in members:
                for b in members:
                    assert G.mul(a, b) in members


class TestInnerAndOuter:
    @pytest.mark.parametrize("spec", ["Z6", "S3", "D4", "Q8", "S4", "heisenberg3"])
    def test_inner_count_is_order_over_centre(self, spec):
        G = named_group(spec)
        assert len(inner_auts(G)) == G.n // len(G.center())

    @pytest.mark.parametrize("spec,index", [("S3", 1), ("D4", 2), ("Q8", 6), ("S4", 1)])
    def test_outer_representative_counts(self, spec, index):
        G = named_group(spec)
        reps = out_coset_reps(G)
        assert len(reps) == index
        assert len(inner_auts(G)) * index == len(enumerate_aut(G))


class TestCentralizers:
    @pytest.mark.parametrize("spec", ["Z5", "S3", "Q8"])
    def test_twist_of_phi_commutes_with_phi(self, spec):
        G = named_group(spec)
        eps = PointMap(G.inverse)
        for cm in enumerate_aut(G):
            twisted = cm.map.compose(eps)
            members = {m.map for m in centralizer_in_aaut(G, cm)}
            assert twisted in members

    def test_centralizer_in_aut_contains_identity_and_phi(self):
        G = symmetric(3)
        for cm in enumerate_aut(G):
            members = {m.map for m in centralizer_in_aut(G, cm)}
            assert PointMap.identity(G.n) in members
            assert cm.map in members


class TestTranslationFamilies:
    def test_f_ab_composition_law(self):
        G = symmetric(3)
        for a, b, c, d in [(1, 2, 3, 4), (5, 0, 2, 2), (3, 3, 1, 5)]:
            lhs = f_ab(G, a, b).compose(f_ab(G, c, d))
            rhs = f_ab(G, G.mul(a, c), G.mul(d, b))
            assert lhs == rhs

    def test_left_translation_is_f_a_identity(self):
        G = dihedral(4)
        for a in range(G.n):
            assert left_translation(G, a) == f_ab(G, a, G.identity)

    def test_H_is_central_translations(self):
        G = dihedral(4)
        H = build_H(G)
        assert len(H) == len(G.center())
        expected = {left_translation(G, a) for a in G.center()}
        assert set(H) == expected

    # |F| = n^2 / |Z(G)|, frozen from direct enumeration.
    @pytest.mark.parametrize("spec,size", [("Z4", 4), ("S3", 36), ("D4", 32), ("Q8", 32)])
    def test_F_sizes(self, spec, size):
        G = named_group(spec)
        F = build_F(G)
        assert len(F) == size
        assert len(F) == G.n * G.n // len(G.center())

    def test_F_prime_with_identity_base_is_F(self):
        G = symmetric(3)
        identity = next(
            cm for cm in enumerate_aut(G) if cm.map == PointMap.identity(G.n)
        )
        assert build_F_prime(G, identity) == build_F(G)

    def test_F_prime_is_contained_in_F(self):
        G = dihedral(4)
        F = set(build_F(G))
        for cm in enumerate_aut(G):
            assert set(build_F_prime(G, cm)) <= F

    @pytest.mark.parametrize("spec", ["Z4", "S3", "D4", "Q8"])
    def test_F_realises_the_quotient(self, spec):
        verdict = verify_F_iso(named_group(spec))
        assert verdict.holds, verdict.to_json()

    @settings(max_examples=60, deadline=None)
    @given(spec=st.sampled_from(["Z4", "Z2xZ2", "S3", "D4", "Q8"]), data=st.data())
    def test_generator_products_decide_like_all_products(self, spec, data):
        """The homomorphism clause on rep maps with two rows swapped, against all |Q|^2 pairs."""
        G = named_group(spec)
        normal = [a * G.n + int(G.inverse[a]) for a in G.center()]
        quotient, projection = quotient_by_normal(direct_product(G, opposite(G)), normal)
        reps = [int(np.flatnonzero(projection == k)[0]) for k in range(quotient.n)]
        maps = _all_f_ab_stack(G).reshape(-1, G.n)[reps]
        i, j = (data.draw(st.integers(0, quotient.n - 1)) for _ in range(2))
        maps[[i, j]] = maps[[j, i]]
        full = bool((maps[:, maps] == maps[quotient.table]).all())
        assert _composes_as(maps, quotient.table) == full
        assert full or i != j


class TestClosure:
    def test_single_cycle_generates_cyclic_group(self):
        n = 7
        shift = PointMap([(i + 1) % n for i in range(n)])
        closed = closure_of_point_maps([shift])
        assert len(closed) == n
        assert PointMap.identity(n) in closed
        assert closed == sorted(closed)

    def test_two_generators_of_symmetric_group(self):
        shift = PointMap([1, 2, 3, 0])
        swap = PointMap([1, 0, 2, 3])
        assert len(closure_of_point_maps([shift, swap])) == 24

    def test_closure_is_composition_closed(self):
        maps = closure_of_point_maps([PointMap([1, 2, 0, 4, 3])])
        pool = set(maps)
        for f in maps:
            assert f.inverse() in pool
            for g in maps:
                assert f.compose(g) in pool

    def test_cap_is_enforced(self):
        shift = PointMap([(i + 1) % 11 for i in range(11)])
        with pytest.raises(CapExceeded):
            closure_of_point_maps([shift], cap=5)

    def test_default_cap_is_read_at_each_call(self, monkeypatch):
        monkeypatch.setattr(config, "MAX_CLOSURE_SIZE", 5)
        cycle = PointMap([1, 2, 3, 4, 0])
        swap = PointMap([1, 0, 2, 3, 4])
        with pytest.raises(CapExceeded):
            closure_of_point_maps([cycle, swap])

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            closure_of_point_maps([])


@st.composite
def point_maps(draw, n=6):
    images = draw(st.permutations(list(range(n))))
    return PointMap(list(images))


class TestPointMapLaws:
    @given(point_maps(), point_maps())
    @settings(max_examples=50, deadline=None)
    def test_compose_evaluates_right_to_left(self, f, g):
        h = f.compose(g)
        for x in range(6):
            assert h(x) == f(g(x))

    @given(point_maps())
    @settings(max_examples=50, deadline=None)
    def test_inverse_round_trip(self, f):
        assert f.compose(f.inverse()) == PointMap.identity(6)
        assert f.inverse().compose(f) == PointMap.identity(6)

    def test_rejects_non_bijections(self):
        from quandlekit import NotBijective

        with pytest.raises(NotBijective):
            PointMap([0, 0, 1])

    def test_images_are_read_only(self):
        f = PointMap([1, 0])
        with pytest.raises(ValueError):
            f.images[0] = 0

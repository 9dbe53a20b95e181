"""Group maps: enumeration vs oracle, map families, closures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit import (
    ANTIAUTOMORPHISM,
    AUTOMORPHISM,
    CapExceeded,
    CarrierMismatch,
    ClassifiedMap,
    ConstructionSpecError,
    FiniteGroup,
    NotAutomorphism,
    NotBijective,
    PLAIN,
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
from quandlekit import alex, q1, q2, q3, q4
from quandlekit import NotAssociative, config, groupmaps
from quandlekit.groupmaps import (
    _SearchPlan,
    _all_f_ab_stack,
    _auts,
    _composes_as,
    _table_isos,
    _unique_rows,
    preserves_table,
    preserving_mask,
    reverses_table,
    reversing_mask,
)
from quandlekit.groups import _generator_levels, opposite, quotient_by_normal
from quandlekit.harness import CATALOG_SPECS

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
    @pytest.mark.parametrize("spec", ["Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z2xZ2", "S3", "D3"])
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


# Groups past the catalog with many automorphisms or several generators.
WIDER_SPECS = ("Z2xZ2xZ2", "Z4xZ4", "D4xZ2", "Q8xZ2", "S3xZ3", "S4xZ2", "Z3xZ3xZ3", "Z2xZ2xZ2xZ2")

# A loop of order 6 (identity 0, two-sided inverses) that is not associative:
# (1*1)*2 = 4 but 1*(1*2) = 1.  A search that checks the law on generator
# columns alone keeps non-morphisms on it.
LOOP6 = [
    [0, 1, 2, 3, 4, 5],
    [1, 5, 0, 4, 2, 3],
    [2, 0, 1, 5, 3, 4],
    [3, 4, 5, 1, 0, 2],
    [4, 2, 3, 0, 5, 1],
    [5, 3, 4, 2, 1, 0],
]


class TestGeneratorColumns:
    """Group laws decided on generator columns in the Aut(G) search; AAut(G)'s kinds read from commutativity."""

    @pytest.mark.parametrize("spec", CATALOG_SPECS + WIDER_SPECS)
    def test_auts_equal_the_all_pairs_reference(self, spec):
        G = named_group(spec)
        aut = _table_isos(G.table, G.table)  # a default plan: the law on all pairs of each level
        aaut = _unique_rows(aut[:, G.inverse])
        kinds = np.where(preserving_mask(G.table, aaut), AUTOMORPHISM, ANTIAUTOMORPHISM)
        entry = _auts(G)
        assert reversing_mask(G.table, aaut).all()
        assert entry.aut.dtype == aut.dtype and entry.aut.tobytes() == aut.tobytes()
        assert entry.aaut.dtype == aaut.dtype and entry.aaut.tobytes() == aaut.tobytes()
        assert [cm.kind for cm in enumerate_aaut(G)] == kinds.tolist()

    @pytest.mark.parametrize("spec", ["Z2", "Z12", "Z2xZ2", "S3", "Q8", "S4", "heisenberg3", "D4xZ2"])
    def test_a_group_level_holds_the_pairs_of_its_generator_columns(self, spec):
        G = named_group(spec)
        levels = _SearchPlan(G.table, group=True).levels
        gens = [lv.g for lv in levels]
        assert gens == [g for g, _ in _generator_levels(G.table)]
        seen = set()
        for i, lv in enumerate(levels):
            reached = set(map(int, G.subgroup_closure(gens[: i + 1])))
            pairs = sorted(zip(lv.left.tolist(), lv.right.tolist()))
            expected = sorted([(x, g) for x in reached - seen for g in gens[:i]] + [(x, gens[i]) for x in reached])
            assert pairs == expected, i
            assert lv.product.tolist() == G.table[lv.left, lv.right].tolist()
            seen = reached
        if spec == "heisenberg3":
            default = _SearchPlan(G.table).levels
            assert [lv.left.size for lv in levels] == [1, 5, 21, 81]
            assert [lv.left.size for lv in default] == [1, 8, 72, 648]

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_a_group_plan_builds_no_growth_sequence(self, monkeypatch, spec):
        G = named_group(spec)
        built = []
        real = groupmaps._generator_levels
        monkeypatch.setattr(groupmaps, "_generator_levels", lambda t, by_growth=False: built.append(by_growth) or
                            real(t, by_growth=by_growth))
        for group in (True, False):
            plan = _SearchPlan(G.table, group=group)
            _table_isos(G.table, G.table, plan=plan)
            assert plan.full_levels is plan.levels
        assert built == [False, False]

    def test_a_non_associative_table_gets_no_aut_stack(self):
        table = np.array(LOOP6)
        with pytest.raises(AssertionError, match="non-morphism"):  # why the search needs associativity
            _table_isos(table, table, plan=_SearchPlan(table, group=True))
        G = FiniteGroup(table, name="L6", validate=False)
        with pytest.raises(NotAssociative):
            enumerate_aut(G)
        assert not G._store


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


    @pytest.mark.parametrize("spec", ["S3", "D4", "Q8", "Z6", "D5", "Z2xZ2"])
    def test_centralizers_match_brute_force_and_refuse_other_bijections(self, spec):
        G = named_group(spec)
        rng = np.random.default_rng(11)
        plain = [classify(G, PointMap(rng.permutation(G.n))) for _ in range(30)]
        for phi in enumerate_aut(G) + enumerate_aaut(G) + plain:
            lawful = preserves_table(G.table, phi.images) or reverses_table(G.table, phi.images)
            for members, centralizer in ((enumerate_aut, centralizer_in_aut),
                                         (enumerate_aaut, centralizer_in_aaut)):
                if not lawful:
                    with pytest.raises(NotAutomorphism):
                        centralizer(G, phi)
                    continue
                want = [m for m in members(G) if m.map.compose(phi.map) == phi.map.compose(m.map)]
                assert centralizer(G, phi) == want

    def test_centralizers_read_the_law_not_the_kind_label(self):
        G = symmetric(3)
        plain = PointMap([5, 4, 3, 0, 1, 2])  # neither law holds
        assert classify(G, plain).kind == PLAIN
        for centralizer in (centralizer_in_aut, centralizer_in_aaut):
            with pytest.raises(NotAutomorphism):
                centralizer(G, ClassifiedMap(plain, AUTOMORPHISM, G))
        relabelled = ClassifiedMap(PointMap(G.inverse), PLAIN, G)
        assert centralizer_in_aut(G, relabelled) == centralizer_in_aut(G, inversion_map(G))
        foreign = enumerate_aut(symmetric(4))[1]  # a map of another carrier
        for needs_a_law in (centralizer_in_aut, centralizer_in_aaut, build_F_prime):
            with pytest.raises(CarrierMismatch):
                needs_a_law(G, foreign)


# Every public function that takes a map of G, with the family its map is drawn from.
_TAKES_A_MAP = [
    (alex, enumerate_aut),
    (q1, enumerate_aut),
    (q2, enumerate_aaut),
    (q3, enumerate_aaut),
    (q4, enumerate_aaut),
    (is_central_automorphism, enumerate_aut),
    (fix_set, enumerate_aut),
    (centralizer_in_aut, enumerate_aut),
    (centralizer_in_aaut, enumerate_aaut),
    (build_F_prime, enumerate_aut),
]


@pytest.mark.parametrize("own,other", [("S3", "S4"), ("S4", "S3")])
@pytest.mark.parametrize("takes_a_map,family", _TAKES_A_MAP, ids=lambda f: f.__name__)
def test_a_map_of_another_carrier_is_a_carrier_mismatch(own, other, takes_a_map, family):
    """The size is checked before any law is read: a lawful map of another group never reaches numpy."""
    G, H = named_group(own), named_group(other)
    foreign = family(H)[-1]
    assert foreign.kind in (AUTOMORPHISM, ANTIAUTOMORPHISM)
    with pytest.raises(CarrierMismatch, match=f"expected {G.n}, got {H.n}"):
        takes_a_map(G, foreign)


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

    @pytest.mark.parametrize("a", [-1, -6, 6, 7])
    def test_left_translation_rejects_a_point_outside_g(self, a):
        """A negative index would wrap to another element; one past the end would be numpy's IndexError."""
        with pytest.raises(ConstructionSpecError, match=rf"^a \(an element of G\) {a} is out of range 0\.\.5$"):
            left_translation(symmetric(3), a)

    @pytest.mark.parametrize("a,b,bad", [(-1, 0, "a"), (0, -1, "b"), (6, 0, "a"), (2, 6, "b"), (-1, 6, "a")])
    def test_f_ab_rejects_a_point_outside_g(self, a, b, bad):
        value = a if bad == "a" else b
        with pytest.raises(ConstructionSpecError, match=rf"^{bad} \(an element of G\) {value} is out of range"):
            f_ab(symmetric(3), a, b)

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

    @pytest.mark.parametrize("spec", ["S3", "D4", "Q8", "D5", "Z6"])
    def test_F_prime_is_a_group_and_needs_an_automorphism(self, spec):
        G = named_group(spec)
        for cm in enumerate_aut(G):
            fprime = build_F_prime(G, cm)
            assert closure_of_point_maps(fprime) == fprime
        for cm in enumerate_aaut(G):
            if cm.kind == ANTIAUTOMORPHISM:
                with pytest.raises(NotAutomorphism):
                    build_F_prime(G, cm)
        with pytest.raises(NotAutomorphism):
            build_F_prime(G, ClassifiedMap(PointMap(np.roll(np.arange(G.n), 1)), AUTOMORPHISM, G))

    @pytest.mark.parametrize("spec", ["Z4", "S3", "D4", "Q8"])
    def test_F_realises_the_quotient(self, spec):
        verdict = verify_F_iso(named_group(spec))
        assert verdict.holds, verdict.to_json()

    @settings(max_examples=40, deadline=None)
    @given(spec=st.sampled_from(["Z4", "S3", "D4", "Q8"]), data=st.data())
    def test_well_defined_check_names_the_first_bad_coset(self, spec, data):
        """Some f_{a,b} overwritten by others: the verdict and first bad pair of a per-coset loop."""
        G = named_group(spec)
        stack = _all_f_ab_stack(G).reshape(-1, G.n).copy()
        rows = st.integers(0, len(stack) - 1)
        for r, s in data.draw(st.lists(st.tuples(rows, rows), max_size=3)):
            stack[r] = stack[s]
        normal = [a * G.n + int(G.inverse[a]) for a in G.center()]
        quotient, projection = quotient_by_normal(direct_product(G, opposite(G)), normal)
        bad = None
        for k in range(quotient.n):
            members = np.flatnonzero(projection == k)
            if not (stack[members] == stack[members[0]]).all():
                bad = (int(members[0]), k)
                break
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groupmaps, "_all_f_ab_stack", lambda G: stack)
            well_defined = verify_F_iso(G).parts[0]
        assert well_defined.holds == (bad is None)
        assert well_defined.counterexample == bad

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

    def test_default_cap_is_read_at_each_call(self, monkeypatch):
        monkeypatch.setattr(config, "MAX_CLOSURE_SIZE", 5)
        cycle = PointMap([1, 2, 3, 4, 0])
        swap = PointMap([1, 0, 2, 3, 4])
        with pytest.raises(CapExceeded):
            closure_of_point_maps([cycle, swap])

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            closure_of_point_maps([])

    @pytest.mark.parametrize("sizes", [(2, 3), (3, 2), (4, 4, 5), (1, 3)])
    def test_maps_of_different_carriers_are_a_carrier_mismatch(self, sizes):
        maps = [PointMap(np.roll(np.arange(n), 1)) for n in sizes]
        with pytest.raises(CarrierMismatch, match=f"expected {sizes[0]}, got {sizes[-1]}"):
            closure_of_point_maps(maps)


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

    @pytest.mark.parametrize("x", [-1, 2, True, 1.0])
    def test_call_rejects_a_point_outside_the_carrier(self, x):
        """-1 wrapped to the last point; a bool or a float is no point."""
        with pytest.raises(ConstructionSpecError, match=r"^x \(a point of the map's carrier\) "):
            PointMap([1, 0])(x)
        assert PointMap([1, 0])(np.int64(1)) == 0


class TestElementIndices:
    """The translations take elements of G as integers in 0..n-1; numpy's would read a bool or a float."""

    @pytest.mark.parametrize("a", [1.0, True, np.bool_(True), "1", None])
    def test_left_translation_rejects_an_index_that_is_not_an_integer(self, a):
        with pytest.raises(ConstructionSpecError, match=r"^a \(an element of G\) .* is not an integer$"):
            left_translation(symmetric(3), a)

    @pytest.mark.parametrize("a,b,bad", [(True, 0, "a"), (0, False, "b"), (2.0, 1, "a"), (0, 1.5, "b")])
    def test_f_ab_rejects_an_index_that_is_not_an_integer(self, a, b, bad):
        with pytest.raises(ConstructionSpecError, match=rf"^{bad} \(an element of G\) .* is not an integer$"):
            f_ab(symmetric(3), a, b)

    def test_numpy_integer_indices_keep_working(self):
        G = symmetric(3)
        assert left_translation(G, np.int64(4)) == left_translation(G, 4)
        assert f_ab(G, np.uint8(2), np.intp(5)) == f_ab(G, 2, 5)


class TestEmptyPointMap:
    """A map needs at least one point: the empty array is no permutation of 0..n-1 for any n >= 1."""

    @pytest.mark.parametrize("images", [[], (), np.empty(0, dtype=np.int64)])
    def test_point_map_rejects_an_empty_images_array(self, images):
        with pytest.raises(NotBijective):
            PointMap(images)

    def test_closure_of_an_empty_map_fails_at_the_map(self):
        with pytest.raises(NotBijective):
            closure_of_point_maps([PointMap([])])


class TestIntegerImages:
    """A map's images are integers: numpy would truncate a float and read a bool as 0 or 1."""

    @pytest.mark.parametrize("images", [[1.5, 0.2], [1.0, 0.0], [True, False], np.array([1.0, 0.0]), [1, None], ["1", "0"]])
    def test_point_map_rejects_entries_that_are_not_integers(self, images):
        with pytest.raises(NotBijective):
            PointMap(images)

    @pytest.mark.parametrize("images", [[1, 0], np.array([1, 0], dtype=np.uint8), [np.int32(1), np.int64(0)]])
    def test_python_and_numpy_integers_keep_working(self, images):
        pm = PointMap(images)
        assert pm.images.dtype == np.int64 and pm.as_tuple() == (1, 0)

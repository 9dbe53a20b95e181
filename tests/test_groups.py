"""Group tables: validation witnesses, constructors, quotients, text format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit import (
    ConstructionSpecError,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotNormal,
    NotSubgroup,
    ParseError,
    alex,
    cyclic,
    dihedral,
    direct_product,
    enumerate_aut,
    group_from_table,
    group_from_text,
    group_to_text,
    heisenberg,
    named_group,
    opposite,
    quaternion8,
    quotient_by_normal,
    symmetric,
)
from quandlekit.groups import _find_inverses, _generator_levels
from quandlekit.harness import CATALOG_SPECS, default_catalog


class TestValidation:
    def test_perturbed_cyclic_table_is_caught_with_replayable_witness(self):
        table = cyclic(3).table.copy()
        table[1][2] = 1
        with pytest.raises(NotAssociative) as exc:
            group_from_table(table)
        a, b, c = exc.value.witness
        assert table[table[a, b], c] != table[a, table[b, c]]

    def test_break_away_from_the_generators_is_caught_with_replayable_witness(self):
        """Light's test only multiplies through generators; the break is elsewhere."""
        table = cyclic(12).table.copy()
        table[5][7] = 1  # 7 is not one of the greedy generators [0, 1] of Z12
        with pytest.raises(NotAssociative) as exc:
            group_from_table(table)
        a, b, c = exc.value.witness
        assert table[table[a, b], c] != table[a, table[b, c]]

    @settings(max_examples=80, deadline=None)
    @given(
        spec=st.sampled_from(["Z4", "Z6", "S3", "D4", "Q8", "Z2xZ2"]),
        data=st.data(),
    )
    def test_generator_check_agrees_with_the_full_triple_scan(self, spec, data):
        table = named_group(spec).table.copy()
        n = table.shape[0]
        a, b, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        table[a][b] = v
        associative = all(
            table[table[x, y], z] == table[x, table[y, z]]
            for x in range(n)
            for y in range(n)
            for z in range(n)
        )
        try:
            group_from_table(table)
        except NotAssociative as exc:
            x, y, z = exc.witness
            assert table[table[x, y], z] != table[x, table[y, z]]
            assert not associative
        except (NoIdentity, NoInverse):
            assert associative
        else:
            assert associative

    def test_out_of_range_entry(self):
        from quandlekit import NotClosed

        with pytest.raises(NotClosed) as exc:
            group_from_table([[0, 1], [1, 5]])
        assert exc.value.witness == (1, 1)

    def test_no_identity(self):
        with pytest.raises(NoIdentity):
            group_from_table([[0, 0], [0, 0]])

    def test_rejects_non_square(self):
        from quandlekit import BadShape

        with pytest.raises(BadShape):
            group_from_table([[0, 1, 2], [1, 2, 0]])


def _inverses_by_loop(table: np.ndarray, identity: int) -> np.ndarray:
    """Reference: the least two-sided inverse of each element, one element at a time."""
    inv = np.empty(table.shape[0], dtype=np.int64)
    for a in range(table.shape[0]):
        two_sided = [int(b) for b in np.nonzero(table[a] == identity)[0] if table[b, a] == identity]
        if not two_sided:
            raise NoInverse(a)
        inv[a] = two_sided[0]
    return inv


class TestInverses:
    @staticmethod
    def _agree(table: np.ndarray, identity: int) -> bool:
        """Whether the vectorised pass and the loop give the same inverses or the same NoInverse."""
        try:
            expected = _inverses_by_loop(table, identity)
        except NoInverse as exc:
            with pytest.raises(NoInverse) as got:
                _find_inverses(table, identity)
            assert got.value.witness == exc.witness
            return False
        assert np.array_equal(_find_inverses(table, identity), expected)
        return True

    def test_catalog_groups_match_the_loop(self):
        for G in default_catalog():
            assert self._agree(G.table, G.identity)
            assert np.array_equal(G.inverse, _inverses_by_loop(G.table, G.identity))

    def test_random_tables_with_and_without_inverses_match_the_loop(self):
        rng = np.random.default_rng(20)
        outcomes = set()
        for _ in range(300):
            n = int(rng.integers(1, 9))
            e = int(rng.integers(0, n))
            table = rng.integers(0, n, size=(n, n))
            table[e, :] = table[:, e] = np.arange(n)  # e is a two-sided identity
            if rng.random() < 0.5:  # plant a pair a, b with a*b = b*a = e
                a, b = rng.integers(0, n, size=2)
                table[a, b] = table[b, a] = e
            outcomes.add(self._agree(table, e))
        assert outcomes == {True, False}  # both branches were exercised

    def test_the_least_element_without_an_inverse_is_named(self):
        table = cyclic(4).table.copy()
        table[3, 1] = table[1, 3] = 3  # 1 and 3 lose their inverse; 0 and 2 keep theirs
        with pytest.raises(NoInverse) as exc:
            _find_inverses(table, 0)
        assert exc.value.witness == 1


class TestConstructors:
    def test_cyclic_identity_and_orders(self):
        G = cyclic(6)
        assert G.identity == 0
        assert G.is_abelian and G.is_cyclic
        assert G.exponent == 6
        assert list(G.element_orders) == [1, 6, 3, 2, 3, 6]

    def test_dihedral_structure(self):
        G = dihedral(4)
        assert G.n == 8
        assert not G.is_abelian
        assert len(G.center()) == 2
        assert G.exponent == 4

    def test_symmetric_3_matches_named(self):
        G = symmetric(3)
        assert G.n == 6
        assert not G.is_abelian
        assert len(G.center()) == 1
        assert len(G.commutator_subgroup()) == 3
        assert G.exponent == 6

    def test_quaternion8(self):
        G = quaternion8()
        assert sorted(map(int, G.element_orders)) == [1, 2, 4, 4, 4, 4, 4, 4]
        assert len(G.center()) == 2
        assert not G.is_cyclic

    def test_heisenberg3(self):
        G = heisenberg(3)
        assert G.n == 27
        assert not G.is_abelian
        assert G.exponent == 3
        assert len(G.center()) == 3
        assert sorted(G.commutator_subgroup()) == sorted(G.center())

    def test_heisenberg_requires_prime(self):
        with pytest.raises(ConstructionSpecError):
            heisenberg(4)

    def test_direct_product_of_coprime_cyclics_is_cyclic(self):
        G = direct_product(cyclic(2), cyclic(3))
        assert G.n == 6 and G.is_cyclic and G.exponent == 6

    def test_opposite_is_involutive_and_preserves_structure(self):
        G = symmetric(3)
        H = opposite(G)
        assert not H.is_abelian
        assert np.array_equal(opposite(H).table, G.table)
        assert sorted(H.center()) == sorted(G.center())

    def test_named_group_specs(self):
        assert named_group("z6").n == 6
        assert named_group("HEISENBERG3").n == 27
        assert named_group("Z2xZ2xZ2").n == 8
        assert named_group("Z2xZ2xZ2").exponent == 2
        assert named_group("D4").n == 8
        with pytest.raises(ConstructionSpecError):
            named_group("E8")
        with pytest.raises(ConstructionSpecError):
            named_group("")


class TestStructure:
    def test_center_of_abelian_is_everything(self):
        G = cyclic(5)
        assert list(G.center()) == list(range(5))

    def test_commutator_subgroup_of_abelian_is_trivial(self):
        G = cyclic(6)
        assert list(G.commutator_subgroup()) == [0]

    def test_has_2_torsion(self):
        assert not cyclic(5).has_2_torsion
        assert cyclic(6).has_2_torsion
        assert quaternion8().has_2_torsion

    def test_conjugate_and_commutator(self):
        G = symmetric(3)
        for a in range(G.n):
            for b in range(G.n):
                lhs = G.mul(G.mul(G.inv(a), G.inv(b)), G.mul(a, b))
                assert G.commutator(a, b) == lhs

    @given(st.integers(min_value=0, max_value=7), st.integers(min_value=-20, max_value=20))
    @settings(max_examples=60, deadline=None)
    def test_power_matches_repeated_multiplication(self, a, k):
        G = dihedral(4)
        expected = G.identity
        step = a if k >= 0 else G.inv(a)
        for _ in range(abs(k)):
            expected = G.mul(expected, step)
        assert G.power(a, k) == expected
        assert int(G.power_all(k)[a]) == expected


class TestQuotient:
    def test_symmetric3_by_commutator(self):
        G = symmetric(3)
        normal = list(G.commutator_subgroup())
        quotient, projection = quotient_by_normal(G, normal)
        assert quotient.n == 2
        for a in range(G.n):
            for b in range(G.n):
                assert projection[G.mul(a, b)] == quotient.mul(
                    int(projection[a]), int(projection[b])
                )

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_quotients_pass_full_validation(self, spec):
        """The quotients the engine builds, by the center, the commutator
        subgroup and F's normal subgroup of G x G^op, skip validation; each
        is a group all the same."""
        G = named_group(spec)
        product = direct_product(G, opposite(G))
        cases = [
            (G, list(G.center())),
            (G, list(G.commutator_subgroup())),
            (product, [a * G.n + int(G.inverse[a]) for a in G.center()]),
        ]
        for parent, normal in cases:
            quotient, projection = quotient_by_normal(parent, normal)
            assert group_from_table(quotient.table).n * len(normal) == parent.n
            products = quotient.table[np.ix_(projection, projection)]
            assert np.array_equal(projection[parent.table], products)

    def test_rejects_non_subgroup(self):
        G = symmetric(3)
        rotation = next(a for a in range(G.n) if G.element_order(a) == 3)
        with pytest.raises(NotSubgroup):
            quotient_by_normal(G, [0, rotation])

    def test_rejects_non_normal_with_witness(self):
        G = symmetric(3)
        # The subgroup generated by one transposition is not normal in S3.
        transposition = next(
            a for a in range(G.n) if G.element_order(a) == 2
        )
        with pytest.raises(NotNormal) as exc:
            quotient_by_normal(G, [0, transposition])
        g, x = exc.value.witness
        assert G.conjugate(g, x) not in {0, transposition}


class TestTextFormat:
    def test_round_trip_preserves_table_and_name(self):
        G = symmetric(3)
        back = group_from_text(group_to_text(G))
        assert np.array_equal(back.table, G.table)
        assert back.name == "S3"

    def test_round_trip_without_name(self):
        from quandlekit.groups import format_table_text

        text = format_table_text(cyclic(4).table)
        assert np.array_equal(group_from_text(text).table, cyclic(4).table)

    def test_blank_lines_allowed(self):
        assert group_from_text("\n2\n\n0 1\n1 0\n\n").n == 2

    def test_trailing_garbage_rejected_with_line_number(self):
        with pytest.raises(ParseError) as exc:
            group_from_text("2\n0 1\n1 0\nextra")
        assert exc.value.line == 4

    def test_missing_rows_rejected(self):
        with pytest.raises(ParseError):
            group_from_text("3\n0 1 2\n1 2 0\n")

    def test_non_integer_entry_rejected(self):
        with pytest.raises(ParseError) as exc:
            group_from_text("2\n0 x\n1 0\n")
        assert exc.value.line == 2

    def test_wrong_row_width_rejected(self):
        with pytest.raises(ParseError):
            group_from_text("2\n0 1 1\n1 0\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            group_from_text("")


def _reach(table, members, c):
    """The points outside ``members`` other than c that c * s or s * c reaches for s in ``members``."""
    reached = {int(table[c, s]) for s in members} | {int(table[s, c]) for s in members}
    return len(reached - set(map(int, members)) - {c})


def _greedy_generators(table, by_growth=False):
    """Greedy generators by plain closure, each outside the last closure: the least
    such point, or with ``by_growth`` the first of the points of greatest reach."""
    n = table.shape[0]
    inside = np.zeros(n, dtype=bool)
    gens = []
    while not inside.all():
        members = np.flatnonzero(inside)
        if by_growth and members.size:
            outside = [int(c) for c in np.flatnonzero(~inside)]
            gens.append(max(outside, key=lambda c: (_reach(table, members, c), -c)))
        else:
            gens.append(int(np.argmin(inside)))
        members = np.union1d(members, gens)
        while True:
            grown = np.union1d(members, table[np.ix_(members, members)])
            if grown.size == members.size:
                break
            members = grown
        inside[members] = True
    return gens


class TestGeneratorLevels:
    """The contract the search plan and Light's test rely on, over every table they meet,
    for both generator sequences: least-index and growth-ordered."""

    @pytest.fixture(scope="class")
    def tables(self, quandle_corpus):
        named = [(G.name, G.table) for G in default_catalog()]
        return named + [(label, Q.op) for label, Q in quandle_corpus] + [("Z1024", cyclic(1024).table)]

    def test_generators_are_the_greedy_ones(self, tables):
        for label, table in tables:
            for by_growth in (False, True):
                gens = [g for g, _ in _generator_levels(table, by_growth=by_growth)]
                assert gens == _greedy_generators(table, by_growth), (label, by_growth)

    def test_every_batch_derives_from_known_points(self, tables):
        for label, table in tables:
            for by_growth in (False, True):
                known = np.zeros(table.shape[0], dtype=bool)
                for g, batches in _generator_levels(table, by_growth=by_growth):
                    assert not known[g], label
                    known[g] = True
                    for xs, a, b in batches:
                        assert known[a].all() and known[b].all(), label
                        assert np.array_equal(xs, table[a, b]), label
                        assert not known[xs].any() and np.unique(xs).size == xs.size, label
                        known[xs] = True
                    members = np.flatnonzero(known)
                    assert known[table[np.ix_(members, members)]].all(), label  # S_i is closed
                assert known.all(), label

    def test_growth_skips_the_points_that_add_only_themselves(self):
        D6 = named_group("D6")
        Q = alex(D6, enumerate_aut(D6)[1])  # 0..5 are a trivial subquandle
        assert [g for g, _ in _generator_levels(Q.op)] == [0, 1, 2, 3, 4, 5, 6]
        assert [g for g, _ in _generator_levels(Q.op, by_growth=True)] == [0, 6]


class TestElementIndices:
    """mul and inv take element indices as the public edge does: integers in 0..n-1, nothing else."""

    @pytest.mark.parametrize(
        "a,b,bad",
        [(-1, 0, "a"), (0, -1, "b"), (6, 0, "a"), (0, 6, "b"), (True, 0, "a"), (0, False, "b"), (1.0, 0, "a"),
         ("1", 0, "a"), (np.int64(-6), 0, "a")],
    )
    def test_mul_rejects_an_index_that_is_not_an_element(self, a, b, bad):
        """-1 would wrap to element 5 and 6 would be numpy's IndexError; a bool or float is no element."""
        with pytest.raises(ConstructionSpecError, match=rf"^{bad} \(an element of G\) "):
            named_group("S3").mul(a, b)

    @pytest.mark.parametrize("a", [-1, 6, True, 2.0, None, np.uint8(6)])
    def test_inv_rejects_an_index_that_is_not_an_element(self, a):
        with pytest.raises(ConstructionSpecError, match=r"^a \(an element of G\) "):
            named_group("S3").inv(a)

    @pytest.mark.parametrize(
        "method,args,message",
        [
            ("conjugate", (-1, 0), r"g \(an element of G\) -1 is out of range 0\.\.5"),
            ("conjugate", (0, 6), r"x \(an element of G\) 6 is out of range 0\.\.5"),
            ("commutator", (True, 1), r"a \(an element of G\) True is not an integer"),
            ("commutator", (1, -1), r"b \(an element of G\) -1 is out of range 0\.\.5"),
            ("power", (-1, 2), r"a \(an element of G\) -1 is out of range 0\.\.5"),
            ("power", (6, 2), r"a \(an element of G\) 6 is out of range 0\.\.5"),
            ("element_order", (-1,), r"a \(an element of G\) -1 is out of range 0\.\.5"),
            ("element_order", (2.0,), r"a \(an element of G\) 2\.0 is not an integer"),
        ],
    )
    def test_element_operations_reject_an_index_that_is_not_an_element(self, method, args, message):
        """conjugate(-1, 0) and power(-1, 2) wrapped to 0; power(6, 2) and commutator(True, 1) failed in numpy."""
        with pytest.raises(ConstructionSpecError, match=f"^{message}$"):
            getattr(named_group("S3"), method)(*args)

    def test_numpy_integer_indices_keep_working(self):
        G = named_group("S3")
        for a, b in [(np.int64(3), np.uint8(4)), (np.intp(5), np.int32(0)), (np.uint16(1), 2)]:
            assert G.mul(a, b) == G.mul(int(a), int(b)) and type(G.mul(a, b)) is int
            assert G.inv(a) == G.inv(int(a))

"""Quandle tables: axioms with witnesses, duals, structural predicates."""

import numpy as np
import pytest

from quandlekit import (
    ConstructionSpecError,
    Q1Fail,
    Q2Fail,
    Q3Fail,
    Quandle,
    core,
    cyclic,
    dihedral_quandle,
    dual,
    inn_group,
    named_group,
    quandle_from_table,
    quandle_from_text,
    quandle_to_text,
    right_translation,
    trivial,
)


class TestAxioms:
    def test_q1_failure_names_the_offending_element(self):
        table = trivial(3).op.copy()
        table[1, 1] = 0
        with pytest.raises(Q1Fail) as exc:
            quandle_from_table(table)
        (x,) = exc.value.witness
        assert table[x, x] != x

    def test_q2_failure_names_the_non_bijective_column(self):
        table = dihedral_quandle(3).op.copy()
        table[0, 2] = table[1, 2]
        with pytest.raises(Q2Fail) as exc:
            quandle_from_table(table)
        (y,) = exc.value.witness
        assert y == 2

    def test_q3_failure_carries_a_replayable_triple(self):
        # Columns are bijections and the diagonal is fixed, but the
        # right-distributivity law breaks: swap two off-diagonal entries
        # of one column of the order-4 dihedral table.
        table = dihedral_quandle(4).op.copy()
        table[1, 0], table[3, 0] = table[3, 0], table[1, 0]
        with pytest.raises(Q3Fail) as exc:
            quandle_from_table(table)
        x, y, z = exc.value.witness
        lhs = table[table[x, y], z]
        rhs = table[table[x, z], table[y, z]]
        assert lhs != rhs

    def test_valid_tables_pass(self):
        for Q in (trivial(1), trivial(5), dihedral_quandle(6), core(cyclic(7))):
            assert quandle_from_table(Q.op).n == Q.n


class TestDual:
    def test_dual_is_an_involution(self, quandle_corpus):
        for label, Q in quandle_corpus:
            assert dual(dual(Q)) == Q, label

    def test_dual_columns_invert_the_originals(self):
        Q = dihedral_quandle(5)
        D = dual(Q)
        for y in range(Q.n):
            assert right_translation(Q, y).inverse() == right_translation(D, y)

    def test_dual_of_trivial_is_trivial(self):
        assert dual(trivial(4)) == trivial(4)


class TestPredicates:
    def test_odd_dihedral_quandle_is_commutative_and_involutory(self):
        Q = dihedral_quandle(3)
        assert Q.is_commutative and Q.is_involutory and Q.is_cocommutative

    def test_even_dihedral_quandle_is_involutory_but_not_commutative(self):
        Q = dihedral_quandle(4)
        assert Q.is_involutory
        assert not Q.is_commutative

    def test_involutory_and_commutative_forces_cocommutative(self, quandle_corpus):
        # Over a commutative quandle the dual agrees with the original
        # exactly on symmetric pairs, so cocommutativity and involutarity
        # coincide there. Checked across the whole corpus.
        for label, Q in quandle_corpus:
            if Q.is_commutative:
                assert Q.is_cocommutative == Q.is_involutory, label

    def test_trivial_quandle_predicates(self):
        Q = trivial(6)
        assert Q.is_commutative is False  # x*y = x differs from y*x = y
        assert Q.is_involutory is True


class TestInnerGroup:
    # 2n for odd n (translations by anything plus n reflections), n for
    # even n (only even translations arise, and 2y covers half the points).
    @pytest.mark.parametrize(
        "n,size", [(3, 6), (4, 4), (5, 10), (6, 6), (7, 14), (8, 8), (9, 18)]
    )
    def test_dihedral_quandle_inner_group_sizes(self, n, size):
        assert len(inn_group(dihedral_quandle(n))) == size

    def test_trivial_quandle_inner_group_is_trivial(self):
        assert len(inn_group(trivial(5))) == 1

    def test_inner_group_contains_all_translations(self):
        Q = dihedral_quandle(6)
        members = set(inn_group(Q))
        for y in range(Q.n):
            assert right_translation(Q, y) in members

    @pytest.mark.parametrize("y", [-1, -6, 6, 9])
    def test_right_translation_rejects_a_point_outside_q(self, y):
        """A negative index would wrap to another point; one past the end would be numpy's IndexError."""
        with pytest.raises(ConstructionSpecError, match=rf"^y \(an element of Q\) {y} is out of range 0\.\.5$"):
            right_translation(dihedral_quandle(6), y)


class TestTextFormat:
    def test_round_trip(self):
        Q = core(cyclic(5))
        back = quandle_from_text(quandle_to_text(Q))
        assert back == Q and back.name == Q.name

    def test_text_of_invalid_table_is_rejected_on_read(self):
        bad = "2\n0 1\n0 1\n"
        with pytest.raises(Q2Fail):
            quandle_from_text(bad)


class TestConstructionBasics:
    def test_named_quandle_reprs_are_stable(self):
        assert repr(trivial(3)) == "Quandle('T3', order=3)"

    @pytest.mark.parametrize("n", [0, -1, -4])
    def test_trivial_needs_a_positive_order(self, n):
        """As ``dihedral_quandle`` does, not numpy's error or BadShape."""
        with pytest.raises(ConstructionSpecError, match=r"^trivial\(n\) needs n >= 1$"):
            trivial(n)

    def test_quandle_equality_ignores_name(self):
        a = Quandle(trivial(3).op, name="one")
        b = Quandle(trivial(3).op, name="two")
        assert a == b and hash(a) == hash(b)


class TestElementIndices:
    """apply and right_translation take points of Q as integers in 0..n-1, nothing else."""

    @pytest.mark.parametrize(
        "x,y,bad",
        [(-1, 0, "x"), (0, -1, "y"), (6, 0, "x"), (0, 6, "y"), (True, 0, "x"), (0, True, "y"), (0.0, 1, "x"),
         (0, 1.5, "y")],
    )
    def test_apply_rejects_an_index_that_is_not_a_point(self, x, y, bad):
        """-1 would wrap to point 5 and 6 would be numpy's IndexError; a bool or float is no point."""
        with pytest.raises(ConstructionSpecError, match=rf"^{bad} \(an element of Q\) "):
            core(named_group("S3")).apply(x, y)

    @pytest.mark.parametrize("y", [1.5, True, np.bool_(False), "2", None])
    def test_right_translation_rejects_an_index_that_is_not_an_integer(self, y):
        with pytest.raises(ConstructionSpecError, match=r"^y \(an element of Q\) .* is not an integer$"):
            right_translation(core(named_group("S3")), y)

    def test_numpy_integer_indices_keep_working(self):
        Q = core(named_group("S3"))
        for x, y in [(np.int64(3), np.uint8(4)), (np.intp(5), np.int32(0))]:
            assert Q.apply(x, y) == Q.apply(int(x), int(y)) and type(Q.apply(x, y)) is int
            assert right_translation(Q, y) == right_translation(Q, int(y))

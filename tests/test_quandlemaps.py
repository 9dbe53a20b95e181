"""Quandle maps: enumeration vs oracle, isomorphism search, inner structure."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit import (
    CarrierMismatch,
    PointMap,
    Quandle,
    QuandleMap,
    SemidirectReport,
    alex,
    are_isomorphic,
    aut_oracle,
    conj_m,
    core,
    cyclic,
    dihedral_quandle,
    enumerate_aut,
    enumerate_quandle_antis,
    enumerate_quandle_auts,
    find_table_iso,
    group_from_table,
    induced,
    closure_group,
    closure_of_point_maps,
    inn_out_report,
    inversion_map,
    is_quandle_anti,
    is_quandle_auto,
    named_group,
    quandle_anti_oracle,
    quandle_aut_oracle,
    semidirect_verify,
    symmetric,
    trivial,
)
from quandlekit import Q3Fail, groupmaps, harness, quandlemaps
from quandlekit.groupmaps import (
    _auts,
    _hol_keys,
    _is_map_group,
    _keys,
    _law_blocks,
    _law_masks,
    _profiles,
    _SearchPlan,
    _table_isos,
    _unique_rows,
    preserving_mask,
)
from quandlekit.quandles import _check_q3

# |Aut(R_n)| = n * phi(n): the affine maps x -> ax + b with a invertible.
DIHEDRAL_AUT_ORDERS = {3: 6, 4: 8, 5: 20, 6: 12, 7: 42, 8: 32, 9: 54, 10: 40}


def _translations(n):
    return [PointMap([(x + k) % n for x in range(n)]) for k in range(n)]


def _rows(maps):
    """The (m, n) image array semidirect_verify takes."""
    return np.array([pm.images for pm in maps])


class TestEnumerationAgainstOracle:
    def test_corpus_automorphisms_match_oracle(self, quandle_corpus):
        checked = 0
        for label, Q in quandle_corpus:
            if Q.n > 7:
                continue
            fast = {m.map.as_tuple() for m in enumerate_quandle_auts(Q)}
            slow = {m.map.as_tuple() for m in quandle_aut_oracle(Q)}
            assert fast == slow, label
            checked += 1
        assert checked >= 30

    def test_corpus_antiautomorphisms_match_oracle(self, quandle_corpus):
        for label, Q in quandle_corpus:
            if Q.n > 7:
                continue
            fast = {m.map.as_tuple() for m in enumerate_quandle_antis(Q)}
            slow = {m.map.as_tuple() for m in quandle_anti_oracle(Q)}
            assert fast == slow, label

    @pytest.mark.parametrize("n,count", sorted(DIHEDRAL_AUT_ORDERS.items()))
    def test_dihedral_quandle_aut_orders(self, n, count):
        assert len(enumerate_quandle_auts(dihedral_quandle(n))) == count

    @pytest.mark.parametrize("n", range(4, 11))
    def test_dihedral_quandles_above_three_have_no_antiautomorphisms(self, n):
        assert enumerate_quandle_antis(dihedral_quandle(n)) == []

    def test_smallest_dihedral_quandle_reverses_as_much_as_it_preserves(self):
        Q = dihedral_quandle(3)
        auts = {m.map.as_tuple() for m in enumerate_quandle_auts(Q)}
        antis = {m.map.as_tuple() for m in enumerate_quandle_antis(Q)}
        assert auts == antis and len(auts) == 6

    def test_trivial_quandle_has_full_symmetric_group(self):
        assert len(enumerate_quandle_auts(trivial(4))) == 24
        assert enumerate_quandle_antis(trivial(4)) == []
        assert len(enumerate_quandle_antis(trivial(1))) == 1


def _relabel(op, perm):
    """The table with x renamed perm[x]: out[perm x, perm y] = perm[op[x, y]]."""
    out = np.empty_like(op)
    out[perm[:, None], perm[None, :]] = perm[op]
    return out


def _oracle_isos(t1, t2):
    """Every bijection f with f(t1[a,b]) = t2[f a, f b], by scanning all n! maps."""
    n = t1.shape[0]
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64).reshape(-1, n)
    keep = (perms[:, t1] == t2[perms[:, :, None], perms[:, None, :]]).all(axis=(1, 2))
    return sorted(tuple(map(int, row)) for row in perms[keep])


class TestTableIsoEngine:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_first_hit_is_the_least_oracle_isomorphism(self, quandle_corpus, data):
        small = [Q for _, Q in quandle_corpus if Q.n <= 7]
        Q = data.draw(st.sampled_from(small))
        perm = np.array(data.draw(st.permutations(range(Q.n))), dtype=np.int64)
        target = _relabel(Q.op, perm)
        iso = find_table_iso(Q.op, target)
        assert iso is not None
        assert tuple(map(int, iso)) == _oracle_isos(Q.op, target)[0]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_profiles_follow_the_relabelling(self, quandle_corpus, data):
        Q = data.draw(st.sampled_from([Q for _, Q in quandle_corpus]))
        perm = np.array(data.draw(st.permutations(range(Q.n))), dtype=np.int64)
        assert np.array_equal(_profiles(_relabel(Q.op, perm))[perm], _profiles(Q.op))

    def test_first_hit_stays_depth_first(self):
        """Aut(T_12) has 12! members; only a depth-first walk returns at once."""
        op = trivial(12).op
        assert np.array_equal(find_table_iso(op, op), np.arange(12))

    def test_enumerations_are_sorted_and_distinct(self, quandle_corpus):
        for label, Q in quandle_corpus:
            if Q.n > 7 and (Q.op == np.arange(Q.n)[:, None]).all():
                continue  # Aut of a trivial quandle past the oracle order is refused
            for maps in (enumerate_quandle_auts(Q), enumerate_quandle_antis(Q)):
                rows = [m.map.as_tuple() for m in maps]
                assert rows == sorted(set(rows)), label

    def test_different_profiles_end_the_search_at_once(self):
        op = trivial(12).op
        # T_n against its transpose: no bijection exists, and the profiles say so.
        hits = _table_isos(op, np.ascontiguousarray(op.T))
        assert hits.shape == (0, 12) and hits.dtype == np.uint8
        assert find_table_iso(core(cyclic(5)).op, dihedral_quandle(5).op) is not None
        assert find_table_iso(dihedral_quandle(6).op, trivial(6).op) is None

    def test_equal_tables_keep_their_own_maps(self):
        Q1 = dihedral_quandle(3)
        Q2 = Quandle(Q1.op, name="R3 again")
        for Q in (Q1, Q2, Q1):
            maps = enumerate_quandle_auts(Q) + enumerate_quandle_antis(Q)
            assert len(maps) == 12 and all(m.quandle is Q for m in maps)

    def test_enumerated_maps_are_fresh_and_read_only(self):
        Q = dihedral_quandle(6)
        first, second = enumerate_quandle_auts(Q), enumerate_quandle_auts(Q)
        assert first is not second and first == second
        assert all(not m.images.flags.writeable for m in first)


def _count_calls(mp, name):
    """Wrap ``groupmaps.<name>`` so that each call is recorded; returns the record."""
    calls = []
    real = getattr(groupmaps, name)

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0])
        return real(*args, **kwargs)

    mp.setattr(groupmaps, name, counted)
    return calls


def _live_stall(table, levels, i) -> bool:
    """Whether level i adds only its generator while some point outside S_{i-1} has a product with S_{i-1}, on
    either side, outside S_{i-1} and other than itself: a stall that a growth pick could avoid."""
    known = {int(x) for g, batches in levels[:i] for x in (g, *(x for xs, _, _ in batches for x in xs))}
    n = table.shape[0]
    return not levels[i][1] and any(
        {int(table[c, s]), int(table[s, c])} - known - {c} for c in range(n) if c not in known for s in known
    )


class TestSearchPlan:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: dihedral_quandle(3),  # its antis pass the profile test and search
            lambda: dihedral_quandle(6),
            lambda: core(symmetric(3)),
            lambda: alex(named_group("D4"), enumerate_aut(named_group("D4"))[3]),
            lambda: trivial(5),  # stalls where no point reaches past S_{i-1}: no growth sequence
            lambda: alex(named_group("D6"), enumerate_aut(named_group("D6"))[1]),  # stalls
        ],
    )
    def test_one_quandle_builds_its_levels_once(self, monkeypatch, build):
        Q = build()
        perm = np.random.default_rng(Q.n).permutation(Q.n)
        relabelled = Quandle(_relabel(Q.op, perm), name="relabelled")
        real = groupmaps._generator_levels
        built = []  # by_growth of each sequence built

        def counted(table, by_growth=False):
            built.append(by_growth)
            return real(table, by_growth=by_growth)

        monkeypatch.setattr(groupmaps, "_generator_levels", counted)
        auts = enumerate_quandle_auts(Q)
        enumerate_quandle_antis(Q)
        iso = are_isomorphic(Q, relabelled)
        f = iso.images
        assert auts and np.array_equal(f[Q.op], relabelled.op[f[:, None], f[None, :]])
        assert ("plan",) in Q._store and ("plan",) not in relabelled._store
        plan = Q._store[("plan",)]
        least = real(Q.op)
        stalls = any(_live_stall(Q.op, least, i) for i in range(1, len(least)))
        # each sequence at most once, and the growth one only on a stall that a growth pick could avoid
        assert built.count(False) == 1 and built.count(True) == int(stalls)
        same = [g for g, _ in real(Q.op, by_growth=True)] == [g for g, _ in least]
        assert (plan.full_levels is plan.levels) == (same or not stalls)

    def test_automorphisms_read_one_table_profile(self, monkeypatch):
        profiles = _count_calls(monkeypatch, "_profiles")
        assert len(enumerate_quandle_auts(dihedral_quandle(5))) == 20
        t = symmetric(3).table
        assert len(_table_isos(t, t)) == 6
        assert profiles == [5, 6]

    @pytest.mark.parametrize("build", [lambda: trivial(6), lambda: conj_m(cyclic(4), 1)])
    def test_profile_rejection_builds_no_levels(self, monkeypatch, build):
        Q = build()
        levels = _count_calls(monkeypatch, "_generator_levels")
        assert enumerate_quandle_antis(Q) == []
        assert levels == []


class TestChunkedWalk:
    """The one walk, with its row budget moved onto and around chunk boundaries."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_walk_matches_the_oracle_at_every_budget(self, quandle_corpus, data):
        small = [Q for _, Q in quandle_corpus if Q.n <= 7]
        Q = data.draw(st.sampled_from(small))
        perm = np.array(data.draw(st.permutations(range(Q.n))), dtype=np.int64)
        target = _relabel(data.draw(st.sampled_from([Q.op, np.ascontiguousarray(Q.op.T)])), perm)
        plan = _SearchPlan(Q.op)
        prof = _profiles(target)
        levels = plan.levels + plan.full_levels  # the first hit's and the full walk's
        counts = [int((prof == plan.profiles[lv.g]).all(axis=1).sum()) for lv in levels]
        k = data.draw(st.sampled_from(counts))  # the candidates of some level
        budget = data.draw(st.sampled_from([None, 1, max(k, 1), k + 1, 2 * k + 1]))
        expected = _oracle_isos(Q.op, target)
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(groupmaps, "_walk_budget", lambda n, first_only: budget)
            every = _table_isos(Q.op, target, plan=plan)
            first = _table_isos(Q.op, target, first_only=True, plan=plan)
        assert [tuple(map(int, row)) for row in every] == expected
        assert [tuple(map(int, row)) for row in first] == expected[:1]

    def test_chunks_that_step_past_the_end_of_a_level(self, monkeypatch):
        # Two parents per extend over three candidates: the last chunk of a
        # level of odd length steps past its end.
        monkeypatch.setattr(groupmaps, "_walk_budget", lambda n, first_only: 7)
        Q = dihedral_quandle(3)
        rows = [tuple(map(int, r)) for r in _table_isos(Q.op, Q.op)]
        assert rows == _oracle_isos(Q.op, Q.op)


class TestGrowthWalk:
    """Full enumeration on growth-ordered levels: the small quandles whose least-index levels stall."""

    @pytest.fixture(scope="class")
    def stalling(self, quandle_corpus):
        """Each distinct stalling table of order <= 7, with a relabelled table and its transpose."""
        out = {}
        for label, Q in quandle_corpus:
            plan = _SearchPlan(Q.op)
            if Q.n <= 7 and any(not lv.batches for lv in plan.levels[1:]):
                perm = np.random.default_rng(Q.n).permutation(Q.n)
                targets = [_relabel(t, perm) for t in (Q.op, np.ascontiguousarray(Q.op.T))]
                out.setdefault(Q.op.tobytes(), (label, Q.op, plan, targets))
        return list(out.values())

    def test_the_corpus_has_stalls_that_change_the_levels(self, stalling):
        changed = {label for label, _, plan, _ in stalling if plan.full_levels is not plan.levels}
        assert "Core(S3)" in changed and len(changed) >= 5
        assert {"T7", "Core(S3)"} <= {label for label, *_ in stalling}

    @pytest.mark.parametrize("budget", [1, 7, None])
    def test_full_walk_and_first_hit_match_the_oracle(self, monkeypatch, stalling, budget):
        if budget is not None:
            monkeypatch.setattr(groupmaps, "_walk_budget", lambda n, first_only: budget)
        for label, op, plan, targets in stalling:
            for target in targets:
                expected = _oracle_isos(op, target)
                every = _table_isos(op, target, plan=plan)
                first = _table_isos(op, target, first_only=True, plan=plan)
                assert [tuple(map(int, row)) for row in every] == expected, label
                assert [tuple(map(int, row)) for row in first] == expected[:1], label


# A law block this small holds only a few children, one at the last level of Alex(D6, phi1).
TINY_LAW_BLOCK = 200


class TestBlockedLawCheck:
    """The law checks in row blocks far below their default size: the walk's,
    the masks' and the Q3 check's, all sized by ``groupmaps._LAW_ENTRIES``."""

    @pytest.mark.parametrize("index", [1, 2, 3])  # 72, 648 and 4608 automorphisms
    def test_small_blocks_give_the_same_rows(self, monkeypatch, index):
        D6 = named_group("D6")
        Q = alex(D6, enumerate_aut(D6)[index])
        plan = _SearchPlan(Q.op)
        every = _table_isos(Q.op, Q.op, plan=plan)
        first = _table_isos(Q.op, Q.op, first_only=True, plan=plan)
        monkeypatch.setattr(groupmaps, "_LAW_ENTRIES", TINY_LAW_BLOCK)
        assert np.array_equal(_table_isos(Q.op, Q.op, plan=plan), every)
        assert np.array_equal(_table_isos(Q.op, Q.op, first_only=True, plan=plan), first)
        assert len(every) == {1: 72, 2: 648, 3: 4608}[index]

    @pytest.mark.parametrize("label", ["R7", "Core(S3)"])
    def test_small_blocks_match_the_oracle(self, monkeypatch, quandle_corpus, label):
        Q = dict(quandle_corpus)[label]
        target = _relabel(Q.op, np.random.default_rng(Q.n).permutation(Q.n))
        expected = _oracle_isos(Q.op, target)
        monkeypatch.setattr(groupmaps, "_LAW_ENTRIES", TINY_LAW_BLOCK)
        every = _table_isos(Q.op, target)
        first = _table_isos(Q.op, target, first_only=True)
        assert [tuple(map(int, row)) for row in every] == expected
        assert [tuple(map(int, row)) for row in first] == expected[:1]


    def test_small_blocks_give_the_same_masks(self, monkeypatch):
        D6 = named_group("D6")
        Q = alex(D6, enumerate_aut(D6)[1])
        auts = _auts(D6).aut
        masks = _law_masks(Q.op, auts)
        preserving = preserving_mask(Q.op, auts)
        assert 0 < preserving.sum() < len(auts)  # 6 of the 12 preserve this table
        monkeypatch.setattr(groupmaps, "_LAW_ENTRIES", TINY_LAW_BLOCK)
        assert len(list(_law_blocks(Q.op, Q.op, auts))) == len(auts)  # one row a block
        small = _law_masks(Q.op, auts)
        assert all(np.array_equal(a, b) for a, b in zip(small, masks))
        assert np.array_equal(preserving_mask(Q.op, auts), preserving)

    def test_small_blocks_raise_the_same_q3_witness(self, monkeypatch):
        # x*y = x, except that 11*y = y: Q3 holds for every x < 11 and
        # fails for x = 11, the last block of x.
        op = np.tile(np.arange(12)[:, None], (1, 12))
        op[11] = np.arange(12)
        with pytest.raises(Q3Fail) as whole:
            _check_q3(op)
        monkeypatch.setattr(groupmaps, "_LAW_ENTRIES", TINY_LAW_BLOCK)
        assert groupmaps._block_rows(12) == 1
        with pytest.raises(Q3Fail) as blocked:
            _check_q3(op)
        assert blocked.value.witness == whole.value.witness == (11, 0, 1)


def _closed_under_composition(stack):
    """Whether a sorted stack of bijections that holds the identity is closed under composition.

    The rows reached from the identity grow by composing on the right with
    generators taken greedily from the stack, and every composite must be a
    row (``_keys`` membership of ``stack[reached][:, gens]``, a part of
    ``stack[:, stack]``).  Once every row is reached, S o T lies in S for
    generators T of S, so S o S does too, at |S| |T| composites, not |S|^2.
    """
    n = stack.shape[1]
    keys = _keys(stack)
    assert np.array_equal(stack[0], np.arange(n))  # the identity sorts first
    reached = np.zeros(len(stack), dtype=bool)
    reached[0] = True
    gens = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        while True:
            composites = _keys(stack[reached][:, stack[gens]].reshape(-1, n))
            pos = np.minimum(np.searchsorted(keys, composites), len(keys) - 1)
            if not (keys[pos] == composites).all():
                return False
            if reached[pos].all():
                break
            reached[pos] = True
    return True


class TestOrderTwelveAutomorphisms:
    """Aut(Q) of the heaviest quandle-enum units, where no n! oracle runs."""

    @pytest.mark.parametrize(
        "spec, index, count",
        [("D6", 1, 72), ("D6", 2, 648), ("D6", 3, 4608), ("D6", 5, 72), ("Z12", 2, 4608)],
    )
    def test_alex_automorphisms_form_a_group(self, spec, index, count):
        G = named_group(spec)
        Q = alex(G, enumerate_aut(G)[index])
        stack = _table_isos(Q.op, Q.op)
        rows = [tuple(map(int, row)) for row in stack]
        assert rows == sorted(set(rows)) and len(rows) == count
        assert all(is_quandle_auto(Q, PointMap(row)) for row in rows)
        assert _closed_under_composition(stack)
        # a group less one element other than the identity is not closed
        assert not _closed_under_composition(np.delete(stack, count // 2, axis=0))


class TestMembershipPredicates:
    def test_translation_is_automorphism_of_dihedral_quandle(self):
        Q = dihedral_quandle(5)
        for t in _translations(5):
            assert is_quandle_auto(Q, t)

    def test_transposition_is_not(self):
        Q = dihedral_quandle(4)
        assert not is_quandle_auto(Q, PointMap([1, 0, 2, 3]))
        assert not is_quandle_anti(Q, PointMap([1, 0, 2, 3]))

    def test_group_inversion_induces_core_automorphism(self):
        G = symmetric(3)
        assert induced(core(G), inversion_map(G), "auto")

    def test_induced_rejects_size_mismatch(self):
        from quandlekit import CarrierMismatch

        with pytest.raises(CarrierMismatch):
            induced(core(cyclic(4)), inversion_map(cyclic(5)), "auto")


class TestIsomorphismSearch:
    def test_identical_tables_give_identity(self):
        t = dihedral_quandle(5).op
        iso = find_table_iso(t, t)
        assert iso is not None
        assert np.array_equal(iso, np.arange(5))

    def test_relabelled_table_is_recovered(self):
        t1 = dihedral_quandle(4).op
        p = np.array([2, 0, 3, 1])
        t2 = np.empty_like(t1)
        t2[p[:, None], p[None, :]] = p[t1]
        q = find_table_iso(t1, t2)
        assert q is not None
        assert np.array_equal(q[t1], t2[q[:, None], q[None, :]])

    def test_distinct_quandles_give_none(self):
        assert find_table_iso(trivial(4).op, dihedral_quandle(4).op) is None

    def test_size_mismatch_gives_none(self):
        assert find_table_iso(trivial(3).op, trivial(4).op) is None


class TestInnerStructure:
    def test_inn_out_report_on_even_dihedral_quandle(self):
        assert inn_out_report(dihedral_quandle(4)) == (4, 8, 2)

    def test_inn_out_report_on_odd_dihedral_quandle(self):
        inn, aut, out = inn_out_report(dihedral_quandle(5))
        assert (inn, aut) == (10, 20) and out == 2

    def test_closure_group_builds_the_abstract_table(self):
        closed, G = closure_group(_translations(5)[1:2])
        assert len(closed) == 5 and G.n == 5 and G.is_cyclic

    def test_closure_group_of_inner_maps_is_dihedral(self):
        from quandlekit import inn_group

        closed, G = closure_group(inn_group(dihedral_quandle(5)))
        assert G.n == 10 and not G.is_abelian and G.exponent == 10


class TestSemidirectVerify:
    def test_affine_split_of_smallest_dihedral_quandle(self):
        Q = dihedral_quandle(3)
        N = _translations(3)
        C = [PointMap([0, 1, 2]), PointMap([0, 2, 1])]  # x -> ax, a in {1, 2}
        report = semidirect_verify(_rows(N), _rows(C), Q, cyclic(3))
        assert report.verdict, report.to_json()
        assert report.closure_size == 6
        assert report.mode == "materialized"

    def test_non_automorphism_member_is_reported(self):
        Q = dihedral_quandle(4)
        report = semidirect_verify(_rows([PointMap([1, 0, 2, 3])]), _rows(_translations(4)), Q, cyclic(4))
        assert not report.verdict
        assert report.failing_clause == "normal part contains a non-automorphism"

    def test_normal_group_is_read_on_its_generators(self):
        # The right translations x -> x*b of S3 form a group of Hol(S3); those by a
        # non-central b are no automorphisms of Conj(S3).
        G = symmetric(3)
        Q = conj_m(G, 1)
        report = semidirect_verify(G.table.T, np.arange(G.n)[None, :], Q, G)
        assert not report.verdict
        assert report.failing_clause == "normal part contains a non-automorphism"
        gathered = sorted(key[1][0] for key in Q._store if key[0] == "laws")  # rows of each stack gathered
        assert gathered == [len(G.hol_base) - 1]  # T alone: not the 6 rows of the normal part, nor the complement

    def test_non_group_part_is_reported(self):
        Q = dihedral_quandle(4)
        report = semidirect_verify(_rows(_translations(4)[1:2]), _rows(_translations(4)), Q, cyclic(4))
        assert not report.verdict
        assert report.failing_clause == "normal part is not a group of maps"

    def test_non_normalizing_complement_is_reported(self):
        Q = dihedral_quandle(4)
        reflections = [PointMap([0, 1, 2, 3]), PointMap([0, 3, 2, 1])]
        report = semidirect_verify(_rows(reflections), _rows(_translations(4)), Q, cyclic(4))
        assert not report.verdict
        assert report.failing_clause == "complement does not normalize the normal part"

    def test_overlapping_parts_are_reported(self):
        Q = dihedral_quandle(4)
        report = semidirect_verify(_rows(_translations(4)), _rows(_translations(4)), Q, cyclic(4))
        assert not report.verdict
        assert report.failing_clause == "intersection is not trivial"

    def test_empty_part_is_reported(self):
        report = semidirect_verify(_rows([]), _rows(_translations(4)), dihedral_quandle(4), cyclic(4))
        assert not report.verdict
        assert report.failing_clause == "a part is empty"

    def test_non_bijective_member_is_reported(self):
        # A constant map preserves every quandle (by Q1); it is still no automorphism.
        report = semidirect_verify(np.array([[0, 1, 2], [0, 0, 0]]), np.array([[0, 1, 2]]),
                                   dihedral_quandle(3), cyclic(3))
        assert not report.verdict
        assert report.failing_clause == "normal part contains a non-automorphism"

    def test_automorphism_outside_the_holomorph_is_reported(self):
        # Conj(Z4) is the trivial quandle, so Aut is all of Sym(4); the
        # transposition (0 1) is none of the maps x -> a +- x of Hol(Z4).
        report = semidirect_verify(np.array([[0, 1, 2, 3], [1, 0, 2, 3]]), np.array([[0, 1, 2, 3]]),
                                   conj_m(cyclic(4), 1), cyclic(4))
        assert not report.verdict
        assert report.failing_clause == "normal part lies outside Hol(G)"
        report = semidirect_verify(np.array([[0, 1, 2, 3]]), np.array([[0, 1, 2, 3], [1, 0, 2, 3]]),
                                   conj_m(cyclic(4), 1), cyclic(4))
        assert report.failing_clause == "complement part lies outside Hol(G)"

    def test_group_of_another_order_is_refused(self):
        with pytest.raises(CarrierMismatch):
            semidirect_verify(np.array([[0, 1, 2]]), np.array([[0, 1, 2]]), dihedral_quandle(3),
                              cyclic(4))


def _reference_report(normal, complement, Q, G) -> SemidirectReport:
    """semidirect_verify's clauses past membership by brute force on whole rows.

    The normalizer clause conjugates every member of N by every member of C,
    and the closure is ``closure_of_point_maps`` of N u C.
    """
    N, C = (np.unique(np.asarray(part, dtype=np.int64), axis=0) for part in (normal, complement))
    assert preserving_mask(Q.op, N).all() and preserving_mask(Q.op, C).all()
    members = {row.tobytes() for row in N}
    conjugates = [c[f[np.argsort(c)]] for c in C for f in N]
    if not all(row.tobytes() in members for row in conjugates):
        return SemidirectReport(len(N), len(C), False, 0, False, "complement does not normalize the normal part")
    if {row.tobytes() for row in C} & members != {np.arange(G.n).tobytes()}:
        return SemidirectReport(len(N), len(C), False, 0, False, "intersection is not trivial")
    expected = len(N) * len(C)
    distinct = len({f[c].tobytes() for f in N for c in C})
    if distinct != expected:
        return SemidirectReport(len(N), len(C), True, distinct, False, "n o c products collide")
    size = len(closure_of_point_maps([PointMap(row) for row in np.concatenate([N, C])]))
    verdict = size == expected
    return SemidirectReport(len(N), len(C), True, size, verdict,
                            None if verdict else "closure size differs from |N| * |C|")


def _stored_generators(G, normal):
    """The generating set of a normal part that G's store keeps, once a semidirect check has read it."""
    N = _unique_rows(normal)
    return G._store[("semidirect normal", N.tobytes())][1], N


class TestSemidirectOnGenerators:
    """The normalizer and closure clauses read a generating set T of the normal part."""

    def test_catalog_reports_match_the_brute_force_reference(self):
        for G in harness.default_catalog():
            phis = _auts(G).aut.astype(np.int64)
            if G.name == "H3":
                phis = phis[np.random.default_rng(20).choice(len(phis), size=20, replace=False)]
            for phi in phis:
                Q = harness._quandle(G, "alex", phi)
                N, C = G.table.T, harness._centralizer_of(G, "aut", phi)  # as alex-semidirect passes them
                report = semidirect_verify(N, C, Q, G)
                assert report.verdict and report == _reference_report(N, C, Q, G), (G.name, phi)
            Q = conj_m(G, 1)
            N, C = harness._H_stack(G), _auts(G).aut  # as conj-semidirect passes them
            report = semidirect_verify(N, C, Q, G)
            assert report.verdict and report == _reference_report(N, C, Q, G), G.name

    def test_stored_generators_generate_the_normal_part(self):
        counts = {}
        for G in harness.default_catalog():
            for normal, C, Q in ((G.table.T, _auts(G).aut[:1], harness._quandle(G, "alex", np.arange(G.n))),
                                 (harness._H_stack(G), _auts(G).aut, conj_m(G, 1))):
                assert semidirect_verify(normal, C, Q, G).verdict
                T, N = _stored_generators(G, normal)
                assert len(T) <= np.log2(len(N))
                if len(T):
                    closed = _rows(closure_of_point_maps([PointMap(row) for row in T]))
                    assert len(closed) == len(N) and np.array_equal(_unique_rows(closed), N), G.name
                else:
                    assert len(N) == 1
            counts[G.name] = len(_stored_generators(G, G.table.T)[0])
        assert {name: counts[name] for name in ("H3", "S4", "Q8", "D6")} == {"H3": 3, "S4": 3, "Q8": 2, "D6": 2}

    def test_complement_normalizing_only_the_first_generator_fails(self):
        G = symmetric(3)
        Q = conj_m(G, 0)  # the trivial quandle: every bijection preserves it
        N = np.array([[0, 1, 2, 3, 4, 5], [0, 1, 5, 4, 3, 2], [0, 2, 1, 4, 3, 5],
                      [0, 2, 5, 3, 4, 1], [0, 5, 1, 3, 4, 2], [0, 5, 2, 4, 3, 1]])
        C = np.array([[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3]])
        report = semidirect_verify(N, C, Q, G)
        T, _ = _stored_generators(G, N)
        assert len(T) == 2
        c, cinv = C[1], np.argsort(C[1])
        first = _rows(closure_of_point_maps([PointMap(T[0])]))  # <T[0]>, as int64 rows
        assert {c[f[cinv]].tobytes() for f in first} == {f.tobytes() for f in first}
        members = {row.tobytes() for row in N}
        assert not all(c[f[cinv]].tobytes() in members for f in N)
        assert not report.verdict
        assert report.failing_clause == "complement does not normalize the normal part"
        assert report == _reference_report(N, C, Q, G)

    def test_closure_count_matches_the_count_over_the_whole_product_stack(self):
        # T inside N but not generating it: every clause before the closure passes and
        # P o T leaves P, so the count is the lower bound read on P itself.
        G = symmetric(3)
        hol = _unique_rows(G.table[:, _auts(G).aut].reshape(-1, G.n)).astype(np.int64)  # x -> a*phi(x)
        C = np.arange(G.n)[None, :]
        rng = np.random.default_rng(22)
        escaped = 0
        for _ in range(40):
            N = hol[np.sort(rng.choice(len(hol), size=int(rng.integers(3, 9)), replace=False))]
            T = N[rng.choice(len(N), size=2, replace=False)]
            nkeys = np.sort(_hol_keys(G, N[:, G.hol_base]))
            report = quandlemaps._product_clauses(G, N, C, nkeys, T)
            assert report.failing_clause in (None, "closure size differs from |N| * |C|")
            products = {tuple(row) for row in N[:, C].reshape(-1, G.n).tolist()}
            steps = {tuple(p[t] for t in row) for p in products for row in T.tolist()}
            assert report.closure_size == len(products | steps | {tuple(range(G.n))})
            escaped += report.closure_size > len(N)
        assert escaped >= 10


class TestMapGroupPredicate:
    def test_identity_alone_is_a_group(self):
        assert _is_map_group(cyclic(4), np.arange(4)[None, :])

    def test_translations_are_a_group(self):
        rows = np.array([t.images for t in _translations(5)])
        assert _is_map_group(cyclic(5), rows)

    def test_missing_composite_is_rejected(self):
        rows = np.array([[0, 1, 2, 3], [1, 2, 3, 0]])
        assert not _is_map_group(cyclic(4), rows)

    def test_duplicate_rows_are_rejected(self):
        rows = np.array([[0, 1, 2, 3], [0, 1, 2, 3]])
        assert not _is_map_group(cyclic(4), rows)


class TestEnumeratedMapObjects:
    """The public enumerators fill their slotted QuandleMaps in one pass; each behaves as a constructed one."""

    @pytest.fixture(scope="class")
    def enumerated(self):
        """(Q, kind, maps) for both enumerators on the 59 distinct non-trivial catalog tables of order 8-12."""
        from test_metamorphic import catalog_quandles

        return [(Q, kind, enumerate_maps(Q)) for Q in catalog_quandles()
                for enumerate_maps, kind in ((enumerate_quandle_auts, "automorphism"),
                                             (enumerate_quandle_antis, "antiautomorphism"))]

    def test_every_map_behaves_as_a_constructed_one(self, enumerated):
        checked = 0
        for Q, kind, maps in enumerated:
            built = [QuandleMap(PointMap(m.images), kind, Q) for m in maps]
            assert maps == built and sorted(built) == built, (Q.name, kind)
            for m, b in zip(maps, built):
                assert hash(m) == hash(b) and repr(m) == repr(b) and m.to_json() == b.to_json()
                assert not m.images.flags.writeable and m.quandle is Q and m.kind == kind
                with pytest.raises(dataclasses.FrozenInstanceError):
                    m.kind = "plain-bijection"
                with pytest.raises(dataclasses.FrozenInstanceError):
                    m.extra = 1
                with pytest.raises(dataclasses.FrozenInstanceError):
                    del m.map
                other = dataclasses.replace(m, kind="other")
                assert other.map is m.map and other.quandle is Q and other.kind == "other"
            checked += len(maps)
        assert checked > 1000

    def test_every_map_is_slotted(self, enumerated):
        assert QuandleMap.__slots__ == ("map", "kind", "quandle")
        assert not any(hasattr(m, "__dict__") for _, _, maps in enumerated for m in maps)
        Q = dihedral_quandle(5)
        m = QuandleMap(PointMap([0, 4, 3, 2, 1]), "automorphism", Q)
        assert not hasattr(m, "__dict__") and m in enumerate_quandle_auts(Q) and m in quandle_aut_oracle(Q)


def _seeded_walk_rows(t, plan):
    """Full enumeration and the first hit of t onto itself on a plan, as sorted tuples."""
    every = _table_isos(t, t, plan=plan)
    first = _table_isos(t, t, first_only=True, plan=plan)
    return [tuple(map(int, row)) for row in every], [tuple(map(int, row)) for row in first]


class TestSeededLevelZero:
    """Level 0 starts from g_0's candidates, one row each, and passes the same checks as every level."""

    @pytest.mark.parametrize("spec", ["Z6", "S3", "D4", "Q8"])
    def test_a_group_whose_point_zero_is_not_the_identity(self, spec):
        G = named_group(spec)
        H = group_from_table(_relabel(G.table, np.roll(np.arange(G.n), 1)))  # x -> x - 1 mod n
        assert H.identity == G.n - 1
        powers, x = {0}, 0
        while x != H.identity:
            x = H.mul(x, 0)
            powers.add(x)
        expected = _oracle_isos(H.table, H.table)
        if H.n <= 7:
            assert expected == [m.map.as_tuple() for m in aut_oracle(H)]
        for plan in (_SearchPlan(H.table, group=True), _SearchPlan(H.table)):
            g, batches = plan.levels[0].g, plan.levels[0].batches
            assert g == 0 and {g, *(int(x) for xs, _, _ in batches for x in xs)} == powers  # S_0 = <0>
            every, first = _seeded_walk_rows(H.table, plan)
            assert every == expected and first == expected[:1]

    def test_an_order_one_table_has_a_single_level(self):
        t = np.zeros((1, 1), dtype=np.int64)
        plan = _SearchPlan(t)
        assert len(plan.levels) == 1 and plan.full_levels is plan.levels
        assert _seeded_walk_rows(t, plan) == (_oracle_isos(t, t),) * 2 == ([(0,)],) * 2
        assert [m.map.as_tuple() for m in enumerate_quandle_auts(trivial(1))] == [(0,)]
        assert [m.map.as_tuple() for m in enumerate_quandle_antis(trivial(1))] == [(0,)]

    @pytest.mark.parametrize("build", [lambda: dihedral_quandle(5), lambda: core(symmetric(3))])
    def test_a_target_where_g0_has_no_candidate(self, build):
        """A plan whose g_0 profile no point of the target shares: the seeds are empty, and so is the stack.

        The plan's sorted profiles still equal the target's, so the search
        gets past the profile test; only g_0's own profile is changed.
        """
        Q = build()
        plan = _SearchPlan(Q.op)
        plan.profiles = plan.profiles.copy()
        plan.profiles[plan.levels[0].g] = -1
        for first_only in (False, True):
            hits = _table_isos(Q.op, _relabel(Q.op, np.roll(np.arange(Q.n), 2)), first_only=first_only, plan=plan)
            assert hits.shape == (0, Q.n) and hits.dtype == np.uint8

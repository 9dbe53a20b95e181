"""Quandle constructors: identities between families, rejection rules."""

import re

import numpy as np
import pytest

from quandlekit import (
    CompatibilityFail,
    ConstructionSpec,
    ConstructionSpecError,
    PointMap,
    WrongMapKind,
    alex,
    build,
    classify,
    conj_m,
    core,
    cyclic,
    dihedral_quandle,
    enumerate_aaut,
    enumerate_aut,
    inversion_map,
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
    spec_from_string,
    symmetric,
    trivial,
)
from quandlekit.constructions import KINDS, _map_label


def identity_auto(G):
    return classify(G, PointMap.identity(G.n))


class TestConjugation:
    def test_exponent_zero_gives_trivial(self, groups):
        for spec, G in groups.items():
            assert conj_m(G, 0) == trivial(G.n), spec

    def test_abelian_groups_give_trivial_for_every_exponent(self):
        G = cyclic(6)
        for m in range(-3, 4):
            assert conj_m(G, m) == trivial(G.n)

    def test_conj_spot_values_on_symmetric3(self):
        G = symmetric(3)
        Q = conj_m(G, 1)
        for x in range(6):
            for y in range(6):
                expected = G.mul(G.mul(G.inv(y), x), y)
                assert Q.apply(x, y) == expected

    def test_negative_exponent_conjugates_the_other_way(self):
        G = quaternion8()
        Q = conj_m(G, -1)
        for x in range(8):
            for y in range(8):
                assert Q.apply(x, y) == G.mul(G.mul(y, x), G.inv(y))

    def test_exponent_is_periodic_mod_group_exponent(self):
        G = symmetric(3)
        for m in range(-2, 3):
            assert conj_m(G, m) == conj_m(G, m + G.exponent)


class TestCore:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_core_of_cyclic_is_dihedral_quandle(self, n):
        assert np.array_equal(core(cyclic(n)).op, dihedral_quandle(n).op)

    def test_core_is_involutory_everywhere(self, groups):
        for spec, G in groups.items():
            assert core(G).is_involutory, spec

    def test_core_spot_values_on_quaternion8(self):
        G = quaternion8()
        Q = core(G)
        for x in range(8):
            for y in range(8):
                assert Q.apply(x, y) == G.mul(G.mul(y, G.inv(x)), y)


class TestAlexander:
    def test_identity_twist_gives_trivial(self, groups):
        for spec, G in groups.items():
            assert alex(G, identity_auto(G)) == trivial(G.n), spec

    def test_inversion_twist_on_odd_cyclic_gives_dihedral_quandle(self):
        for n in (3, 5, 7, 9):
            G = cyclic(n)
            Q = alex(G, inversion_map(G))
            assert np.array_equal(Q.op, dihedral_quandle(n).op)

    def test_rejects_non_automorphism_base(self):
        G = symmetric(3)
        with pytest.raises(WrongMapKind):
            alex(G, inversion_map(G))


class TestVerbalFamilies:
    def test_q1_with_identity_is_trivial(self, groups):
        for spec, G in groups.items():
            assert q1(G, identity_auto(G)) == trivial(G.n), spec

    def test_q2_with_identity_antimap_on_abelian_is_dihedral_quandle(self):
        # On an abelian group the identity map reverses the table too, so it
        # is a legal base here; x*y = y(yx^-1) = 2y - x additively.
        G = cyclic(3)
        Q = q2(G, identity_auto(G))
        assert np.array_equal(Q.op, dihedral_quandle(3).op)

    def test_q2_with_inversion_on_abelian_is_trivial(self):
        G = cyclic(3)
        assert q2(G, inversion_map(G)) == trivial(3)

    def test_q3_with_inversion_is_core(self, groups):
        for spec, G in groups.items():
            assert q3(G, inversion_map(G)) == core(G), spec

    def test_q4_with_inversion_is_dual_of_core(self, groups):
        from quandlekit import dual

        for spec, G in groups.items():
            # x*y = y x^-1 y is involutory, so the dual equals the original.
            assert q4(G, inversion_map(G)) == dual(core(G)) == core(G), spec

    def test_q3_rejects_incompatible_antimap(self):
        G = symmetric(3)
        bad = next(
            cm
            for cm in enumerate_aaut(G)
            if not np.array_equal(cm.images, G.inverse)
        )
        with pytest.raises(CompatibilityFail) as exc:
            q3(G, bad)
        x, y = exc.value.witness
        lhs = G.mul(G.mul(x, int(bad.images[y])), G.inv(x))
        rhs = int(bad.images[G.mul(G.mul(x, y), G.inv(x))])
        assert lhs != rhs

    def test_q1_rejects_antiautomorphism(self):
        G = symmetric(3)
        with pytest.raises(WrongMapKind):
            q1(G, inversion_map(G))

    def test_q2_rejects_plain_automorphism_of_nonabelian_group(self):
        G = symmetric(3)
        nontrivial_auto = enumerate_aut(G)[1]
        with pytest.raises(WrongMapKind):
            q2(G, nontrivial_auto)


class TestPointedFamilies:
    def test_known_collapses_at_the_identity_point(self, groups):
        # With c = e the words simplify: the first and fourth drop their
        # y-conjugation entirely, the middle two keep one twist each.
        for spec, G in groups.items():
            e = G.identity
            assert p1(G, e) == trivial(G.n), spec
            assert p4(G, e) == trivial(G.n), spec
            assert p2(G, e) == conj_m(G, -1), spec
            assert p3(G, e) == conj_m(G, 1), spec

    def test_p1_spot_values(self):
        G = symmetric(3)
        c = 3
        Q = p1(G, c)
        for x in range(6):
            for y in range(6):
                expected = G.mul(
                    G.mul(G.mul(G.mul(y, G.inv(c)), G.inv(y)), x), c
                )
                assert Q.apply(x, y) == expected

    def test_p2_spot_values(self):
        G = quaternion8()
        c = 2
        Q = p2(G, c)
        for x in range(8):
            for y in range(8):
                expected = G.mul(
                    G.mul(G.mul(G.mul(y, G.inv(c)), x), G.inv(y)), c
                )
                assert Q.apply(x, y) == expected

    def test_rejects_out_of_range_point(self):
        with pytest.raises(ConstructionSpecError):
            p1(symmetric(3), 6)


def _full_label(images):
    """A map's label formatted from its whole row: its images, or past ten points the first six and the length."""
    images = list(map(int, images))
    if len(images) <= 10:
        return "[" + ",".join(map(str, images)) + "]"
    return "[" + ",".join(map(str, images[:6])) + f",...#{len(images)}]"


@pytest.mark.parametrize("n", range(1, 31))
def test_a_map_label_reads_only_its_head(n):
    row = np.random.default_rng(n).permutation(n)
    for images in (row, row.astype(np.uint8), list(row)):
        assert _map_label(images) == _full_label(images)


class TestSpecParsing:
    def test_group_free_specs(self):
        assert build(spec_from_string("trivial:n=4")) == trivial(4)
        assert build(spec_from_string("dihedral:n=5")) == dihedral_quandle(5)

    def test_group_specs(self):
        G = symmetric(3)
        assert build(spec_from_string("core", G)) == core(G)
        assert build(spec_from_string("conj", G)) == conj_m(G, 1)
        assert build(spec_from_string("conj:m=-2", G)) == conj_m(G, -2)
        assert build(spec_from_string("p2:c=3", G)) == p2(G, 3)

    def test_map_indices_are_positions_in_the_sorted_lists(self):
        G = symmetric(3)
        assert build(spec_from_string("alex:phi=0", G)) == alex(G, enumerate_aut(G)[0])
        assert build(spec_from_string("q2:psi=2", G)) == q2(G, enumerate_aaut(G)[2])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConstructionSpecError):
            spec_from_string("octonion")

    def test_missing_group_rejected(self):
        with pytest.raises(ConstructionSpecError):
            build(spec_from_string("core"))

    def test_missing_n_rejected(self):
        with pytest.raises(ConstructionSpecError):
            build(spec_from_string("trivial"))

    def test_bad_parameter_rejected(self):
        with pytest.raises(ConstructionSpecError):
            spec_from_string("conj:m=two", named_group("Z4"))


# Per kind: a spec on S3, the public constructor call it stands for, and the
# quandle's name.  psi 0 of S3 is the one AAut(S3) row that q3 and q4 accept.
EDGE = {
    "trivial": ("trivial:n=4", lambda G: trivial(4), "T4"),
    "dihedral": ("dihedral:n=5", lambda G: dihedral_quandle(5), "R5"),
    "conj": ("conj:m=2", lambda G: conj_m(G, 2), "Conj_2(S3)"),
    "core": ("core", core, "Core(S3)"),
    "alex": ("alex:phi=1", lambda G: alex(G, enumerate_aut(G)[1]), "Alex(S3,phi=[0,1,5,4,3,2])"),
    "q1": ("q1:phi=2", lambda G: q1(G, enumerate_aut(G)[2]), "Q1(S3,phi=[0,2,1,4,3,5])"),
    "q2": ("q2:psi=3", lambda G: q2(G, enumerate_aaut(G)[3]), "Q2(S3,psi=[0,2,5,4,3,1])"),
    "q3": ("q3:psi=0", lambda G: q3(G, enumerate_aaut(G)[0]), "Q3(S3,psi=[0,1,2,4,3,5])"),
    "q4": ("q4:psi=0", lambda G: q4(G, enumerate_aaut(G)[0]), "Q4(S3,psi=[0,1,2,4,3,5])"),
    "p1": ("p1:c=3", lambda G: p1(G, 3), "P1(S3,c=3)"),
    "p2": ("p2:c=1", lambda G: p2(G, 1), "P2(S3,c=1)"),
    "p3": ("p3:c=4", lambda G: p3(G, 4), "P3(S3,c=4)"),
    "p4": ("p4:c=5", lambda G: p4(G, 5), "P4(S3,c=5)"),
}


class TestPublicEdge:
    """The spec parser, ``build`` and the public constructors agree on every kind."""

    def test_every_kind_has_a_case(self):
        assert tuple(EDGE) == KINDS

    @pytest.mark.parametrize("kind", KINDS)
    def test_spec_builds_the_public_constructors_quandle(self, kind):
        text, ctor, name = EDGE[kind]
        G = symmetric(3)
        built, direct = build(spec_from_string(text, G)), ctor(G)
        assert built == direct
        assert built.name == direct.name == name

    @pytest.mark.parametrize("call, message", [
        (lambda G: build(ConstructionSpec("conj", group=G)), "conj needs m"),
        (lambda G: build(ConstructionSpec("alex", group=G)), "alex needs phi"),
        (lambda G: build(ConstructionSpec("q2", group=G)), "q2 needs psi"),
        (lambda G: build(ConstructionSpec("p1", group=G)), "p1 needs c"),
        (lambda G: build(ConstructionSpec("trivial")), "trivial needs n"),
        (lambda G: build(ConstructionSpec("core")), "core needs a group"),
        (lambda G: spec_from_string("core"), "core needs a group"),
        (lambda G: spec_from_string("p1", G), "p1 needs c=<int>"),
        (lambda G: spec_from_string("alex:phi=1"), "alex needs a group to resolve its map index"),
        (lambda G: build(ConstructionSpec("core", group=G, m=3, c=99)), "core does not read m, c; it reads: group"),
        (lambda G: build(ConstructionSpec("trivial", n=4, group=G)), "trivial does not read group; it reads: n"),
        (lambda G: build(ConstructionSpec("conj", group=G, m=2, c=1)), "conj does not read c; it reads: group m"),
        (lambda G: build(ConstructionSpec("p1", group=G, c=1, map=enumerate_aut(G)[1])),
         "p1 does not read map; it reads: group c"),
        (lambda G: build(ConstructionSpec("alex", group=G, n=3, map=enumerate_aut(G)[1])),
         "alex does not read n; it reads: group map"),
    ])
    def test_spec_errors_keep_their_messages(self, call, message):
        with pytest.raises(ConstructionSpecError, match=f"^{re.escape(message)}$"):
            call(symmetric(3))

    @pytest.mark.parametrize("kind", ["q2", "q3", "q4"])
    def test_an_automorphism_is_the_wrong_kind_for_q2_to_q4(self, kind):
        G = symmetric(3)
        phi = enumerate_aut(G)[1]
        message = "construction needs a map satisfying the antiautomorphism law, got automorphism"
        for call in (lambda: build(ConstructionSpec(kind, group=G, map=phi)),
                     lambda: {"q2": q2, "q3": q3, "q4": q4}[kind](G, phi)):
            with pytest.raises(WrongMapKind, match=f"^{re.escape(message)}$"):
                call()


class TestPointIndices:
    """The pointed families take c as an integer element of G; a bool or a float is none."""

    @pytest.mark.parametrize("ctor", [p1, p2, p3, p4])
    @pytest.mark.parametrize("c", [True, np.bool_(False), 1.0, "1", None])
    def test_pointed_families_reject_a_c_that_is_not_an_integer(self, ctor, c):
        with pytest.raises(ConstructionSpecError, match=r"^c \(an element of G\) .* is not an integer$"):
            ctor(symmetric(3), c)

    @pytest.mark.parametrize("ctor", [p1, p2, p3, p4])
    def test_numpy_integer_c_keeps_working(self, ctor):
        G = symmetric(3)
        assert ctor(G, np.int64(3)) == ctor(G, np.uint8(3)) == ctor(G, 3)

"""Executable checks, one per structure theorem.

Each check evaluates the two sides of a claimed relationship independently
(predicate side by group-theoretic scans, constructive side by building
quandles and testing induced maps) and returns a Verdict with witnesses.
Census mode sweeps every check over a catalog of small groups.

Where a printed equivalence is provable in one direction only, the check
asserts the provable implication and says so in its notes; the companion
ledger of the project records the specific counterexamples.  The exponent-3
conditions are tested as "every cube is trivial" so that degenerate inputs
(trivial subgroups) are handled the way the proofs, not the slogans, demand.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import config
from .constructions import (
    _map_label,
    alex,
    conj_m,
    core,
    dihedral_quandle,
    q1,
    q2,
    q3,
    q4,
    p1,
    p2,
    p3,
    p4,
)
from .errors import (
    CompatibilityFail,
    ConstructionSpecError,
    WrongMapKind,
)
from .groupmaps import (
    ClassifiedMap,
    PointMap,
    _all_f_ab_stack,
    _in_sorted,
    _keys,
    _stack_of as _stack,
    _unique_rows,
    build_F,
    build_F_prime,
    build_H,
    centralizer_in_aaut,
    centralizer_in_aut,
    enumerate_aaut,
    enumerate_aut,
    inner_auts,
    is_central_automorphism,
    out_coset_reps,
    preserving_mask,
    reversing_mask,
    verify_F_iso,
)
from .groups import FiniteGroup, named_group
from .quandles import inn_group
from .quandlemaps import (
    closure_of_point_maps,
    enumerate_quandle_antis,
    enumerate_quandle_auts,
    inn_out_report,
    quandle_anti_oracle,
    semidirect_verify,
)
from .verdicts import Verdict, combine, make_iff, make_implies, make_skipped, report_json

__all__ = [
    "CHECK_IDS",
    "CATALOG_SPECS",
    "default_catalog",
    "check_conj_semidirect",
    "check_conj_out",
    "check_conj_aaut_intersection",
    "check_conj_no_anti",
    "check_alex",
    "check_alex_semidirect",
    "check_F_props",
    "check_core",
    "check_core_corollaries",
    "check_dihedral_no_anti",
    "check_core_semidirect",
    "check_core_abelian_full",
    "check_Qi",
    "check_Pi_aut",
    "check_Pi_anti",
    "run_check",
    "run_census",
]

CATALOG_SPECS = (
    "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z10", "Z11", "Z12",
    "Z2xZ2", "Z3xZ3", "D3", "D4", "D5", "D6", "S3", "S4", "Q8", "heisenberg3",
)

M_RANGE = tuple(range(-2, 4))

CHECK_IDS = (
    "conj-semidirect",
    "conj-out",
    "conj-aaut",
    "conj-no-anti",
    "alex",
    "alex-semidirect",
    "f-structure",
    "core",
    "core-corollaries",
    "dihedral-no-anti",
    "core-semidirect",
    "core-abelian-aut",
    "q-family",
    "p-family-aut",
    "p-family-anti",
)


def default_catalog() -> List[FiniteGroup]:
    return [named_group(spec) for spec in CATALOG_SPECS]


# --- small helpers ---


def _center_mask(G: FiniteGroup) -> np.ndarray:
    mask = np.zeros(G.n, dtype=bool)
    mask[list(G.center())] = True
    return mask


def _claim(
    theorem_id: str,
    inputs: str,
    ok: bool,
    relationship: str = "subgroup-embedding",
    counterexample=None,
    notes: str = "",
    vacuous: bool = False,
) -> Verdict:
    return Verdict(
        theorem_id,
        inputs,
        relationship,
        holds=bool(ok),
        lhs=bool(ok),
        rhs=True,
        vacuous=vacuous,
        counterexample=None if ok else counterexample,
        notes=notes,
    )


def _first_failure(mask: np.ndarray, stack: np.ndarray, expect: bool = True) -> Optional[dict]:
    bad = np.nonzero(mask != expect)[0]
    if bad.size == 0:
        return None
    i = int(bad[0])
    return {"index": i, "images": [int(v) for v in stack[i]]}


def _per_map_iff(
    theorem_id: str,
    inputs: str,
    lhs_mask: np.ndarray,
    rhs: bool,
    notes: str = "",
) -> Verdict:
    """One sub-verdict folding 'for every map: induced <-> rhs'."""
    if lhs_mask.size == 0:
        return make_iff(theorem_id, inputs, lhs=rhs, rhs=rhs, vacuous=True, notes=notes or "empty map set")
    mismatch = np.nonzero(lhs_mask != rhs)[0]
    lhs = bool(lhs_mask.all()) if rhs else bool(lhs_mask.any())
    return make_iff(
        theorem_id,
        inputs,
        lhs=lhs,
        rhs=rhs,
        counterexample=None if mismatch.size == 0 else {"map_index": int(mismatch[0])},
        notes=notes,
    )


def _cubes_trivial(G: FiniteGroup, members: Sequence[int]) -> bool:
    return all(G.power(x, 3) == G.identity for x in members)


# --- Conj_m checks ---


def check_conj_semidirect(G: FiniteGroup, m: int) -> Verdict:
    """H rtimes Aut(G) embeds in Aut(Conj_m(G)): membership, conjugation
    identity phi t_a phi^-1 = t_phi(a), and the semidirect clauses."""
    tid = "conj-semidirect"
    inputs = f"{G.name}, m={m}"
    Q = conj_m(G, m)
    H = build_H(G)
    auts = enumerate_aut(G)
    hstack, astack = _stack(H), _stack(auts)
    parts = [
        _claim(
            f"{tid}/H-members",
            inputs,
            bool(preserving_mask(Q.op, hstack).all()),
            counterexample=_first_failure(preserving_mask(Q.op, hstack), hstack),
            notes="every central translation t_a is an automorphism of Conj_m(G)",
        ),
        _claim(
            f"{tid}/aut-members",
            inputs,
            bool(preserving_mask(Q.op, astack).all()),
            counterexample=_first_failure(preserving_mask(Q.op, astack), astack),
            notes="every group automorphism is an automorphism of Conj_m(G)",
        ),
    ]
    centre = np.asarray(list(G.center()), dtype=np.int64)
    conj_ok = True
    conj_bad = None
    for cm in auts:
        phi = cm.images
        phi_inv = cm.map.inverse().images
        lhs = phi[G.table[centre][:, phi_inv]]  # phi o t_a o phi^-1
        rhs = G.table[phi[centre]]  # t_{phi(a)}
        if not np.array_equal(lhs, rhs):
            conj_ok = False
            conj_bad = {"phi": [int(v) for v in phi]}
            break
    parts.append(
        _claim(
            f"{tid}/conjugation-identity",
            inputs,
            conj_ok,
            counterexample=conj_bad,
            notes="phi t_a phi^-1 = t_phi(a) for a in Z(G)",
        )
    )
    report = semidirect_verify(H, [cm.map for cm in auts], Q)
    parts.append(
        _claim(
            f"{tid}/semidirect",
            inputs,
            report.verdict,
            counterexample=report.failing_clause,
            notes=f"closure {report.closure_size} = {report.normal_part_size} x "
            f"{report.complement_size} ({report.mode})",
        )
    )
    return combine(tid, inputs, "subgroup-embedding", parts)


def check_conj_out(G: FiniteGroup) -> Verdict:
    """H rtimes Out(G) embeds in Out(Conj(G))."""
    tid = "conj-out"
    inputs = G.name
    Q = conj_m(G, 1)
    H = build_H(G)
    reps = out_coset_reps(G)
    expected = len(H) * len(reps)
    if G.is_abelian:
        # Conj(G) is the trivial quandle: Inn(Q) = {id} and Aut(Q) = Sym(n),
        # so the out-quotient is the full symmetric group.
        report = semidirect_verify(H, [cm.map for cm in reps], Q)
        parts = [
            _claim(
                f"{tid}/inn-trivial",
                inputs,
                all(np.array_equal(Q.op[:, y], np.arange(G.n)) for y in range(G.n)),
                notes="right translations of the trivial quandle are the identity",
            ),
            _claim(
                f"{tid}/semidirect",
                inputs,
                report.verdict,
                counterexample=report.failing_clause,
                notes=f"H rtimes Aut(G) realised by {report.closure_size} distinct maps",
            ),
            _claim(
                f"{tid}/lagrange",
                inputs,
                math.factorial(G.n) % expected == 0 if expected else False,
                notes=f"|H|*|Out(G)| = {expected} divides |Sym(n)| = n!",
            ),
        ]
        return combine(tid, inputs, "subgroup-embedding", parts,
                       notes="symbolic mode: Aut of a trivial quandle is all of Sym(n)")
    if G.n > config.MAX_QUANDLE_ENUM_ORDER:
        return make_skipped(
            tid, inputs, "subgroup-embedding",
            f"Aut(Conj(G)) enumeration exceeds the cap for |G| = {G.n}",
        )
    inn_size, aut_size, out_index = inn_out_report(Q)
    inn = _stack(inn_group(Q))
    products = _stack(H)[:, _stack(reps)].reshape(-1, G.n)  # t_a o rep, a-major
    member_ok = bool(preserving_mask(Q.op, products).all())
    # A product's coset tag is the least s o p over s in Inn(Q), as a rank
    # among all the s o p keys; distinct cosets have distinct tags.
    _, rank = np.unique(_keys(inn[:, products].reshape(-1, G.n)), return_inverse=True)
    tags = rank.reshape(len(inn), len(products)).min(axis=0)
    injective = len(np.unique(tags)) == len(products)
    parts = [
        _claim(f"{tid}/members", inputs, bool(member_ok),
               notes="every t_a o rep is an automorphism of Conj(G)"),
        _claim(f"{tid}/coset-injective", inputs, injective,
               notes=f"{len(products)} products land in distinct Inn(Conj(G))-cosets"),
        _claim(f"{tid}/lagrange", inputs, out_index % expected == 0 if expected else False,
               notes=f"|H|*|Out(G)| = {expected} divides |Out(Conj(G))| = {out_index}"),
    ]
    return combine(
        tid, inputs, "subgroup-embedding", parts,
        notes=f"inn {inn_size}, aut {aut_size}, out {out_index}",
    )


def check_conj_aaut_intersection(G: FiniteGroup, m: int) -> Verdict:
    """AAut(G) meets Aut(Conj_m(G)) iff y^(2m) is central for every y."""
    tid = "conj-aaut"
    inputs = f"{G.name}, m={m}"
    Q = conj_m(G, m)
    stack = _stack(enumerate_aaut(G))
    induced = preserving_mask(Q.op, stack)
    lhs = bool(induced.any())
    powers = G.power_all(2 * m)
    central = _center_mask(G)[powers]
    rhs = bool(central.all())
    witness = None
    counterexample: Optional[dict] = None
    if lhs:
        i = int(np.nonzero(induced)[0][0])
        witness = {"psi_index": i, "images": [int(v) for v in stack[i]]}
    if not rhs:
        counterexample = {"y": int(np.nonzero(~central)[0][0])}
    if lhs != rhs:
        counterexample = {"lhs_witness": witness, "rhs_failure": counterexample}
        witness = None
    return make_iff(tid, inputs, lhs, rhs, witness=witness, counterexample=counterexample)


def check_conj_no_anti(G: FiniteGroup, m: int) -> Verdict:
    """Conj_m(G) admits no antiautomorphism at all (|G| >= 2)."""
    tid = "conj-no-anti"
    inputs = f"{G.name}, m={m}"
    if G.n < 2:
        return make_skipped(tid, inputs, "emptiness", "stated for |G| >= 2 only")
    Q = conj_m(G, m)
    if G.n <= config.MAX_ORACLE_ORDER:
        antis = quandle_anti_oracle(Q)
        mode = "oracle over all n! bijections"
    elif G.n <= config.MAX_QUANDLE_ENUM_ORDER:
        antis = enumerate_quandle_antis(Q)
        mode = "complete backtracking enumeration"
    else:
        stack = _stack(enumerate_aaut(G))
        hits = reversing_mask(Q.op, stack)
        found = _first_failure(~hits, stack)
        return Verdict(
            tid,
            inputs,
            "emptiness",
            holds=not bool(hits.any()),
            lhs=not bool(hits.any()),
            rhs=True,
            counterexample=found if hits.any() else None,
            notes="restricted scan over AAut(G)-induced maps only; the full "
            "bijection claim is not verified at this order",
        )
    ce = None
    if antis:
        ce = {"images": [int(v) for v in antis[0].images]}
    return Verdict(
        tid,
        inputs,
        "emptiness",
        holds=not antis,
        lhs=not antis,
        rhs=True,
        counterexample=ce,
        notes=mode,
    )


# --- Alexander checks ---


def check_alex(G: FiniteGroup, phi: ClassifiedMap) -> Verdict:
    """Induced maps on Alex(G, phi) versus centrality and commutativity."""
    tid = "alex"
    inputs = f"{G.name}, phi={_map_label(phi)}"
    Q = alex(G, phi)
    caaut = centralizer_in_aaut(G, phi)
    caut = centralizer_in_aut(G, phi)
    aa_stack = _stack(caaut)
    a_stack = _stack(caut)
    phi_central = is_central_automorphism(G, phi)
    auto_mask = preserving_mask(Q.op, aa_stack) if caaut else np.empty(0, dtype=bool)
    anti_mask = reversing_mask(Q.op, aa_stack) if caaut else np.empty(0, dtype=bool)
    parts = [
        _per_map_iff(
            f"{tid}/aaut-induces-auto-iff-central",
            inputs,
            auto_mask,
            phi_central,
            notes="psi in C_AAut(phi) is an automorphism of Alex(G,phi) iff phi is central",
        ),
        make_implies(
            f"{tid}/aaut-induces-anti-implies-abelian",
            inputs,
            lhs=bool(anti_mask.any()),
            rhs=G.is_abelian,
            vacuous=not caaut,
            counterexample=_first_failure(~anti_mask, aa_stack) if (anti_mask.any() and not G.is_abelian) else None,
            notes="forward direction of the printed equivalence; the reverse "
            "fails on small abelian groups where Alex has no antiautomorphisms",
        ),
        make_implies(
            f"{tid}/aut-anti-intersection-implies-abelian",
            inputs,
            lhs=bool(reversing_mask(Q.op, a_stack).any()) if caut else False,
            rhs=G.is_abelian,
            vacuous=not caut,
            notes="C_Aut(phi) members acting as antiautomorphisms of Alex "
            "exist only over abelian groups (forward direction)",
        ),
    ]
    return combine(tid, inputs, "iff", parts)


def check_alex_semidirect(G: FiniteGroup, phi: ClassifiedMap) -> Verdict:
    """G^op rtimes C_Aut(phi) embeds in Aut(Alex(G, phi))."""
    tid = "alex-semidirect"
    inputs = f"{G.name}, phi={_map_label(phi)}"
    Q = alex(G, phi)
    right_translations = [PointMap(G.table[:, b]) for b in range(G.n)]  # f_{1,b}
    cent = [cm.map for cm in centralizer_in_aut(G, phi)]
    rstack = _stack(right_translations)
    cstack = _stack(cent)
    report = semidirect_verify(right_translations, cent, Q)
    parts = [
        _claim(
            f"{tid}/gop-members",
            inputs,
            bool(preserving_mask(Q.op, rstack).all()),
            counterexample=_first_failure(preserving_mask(Q.op, rstack), rstack),
            notes="every right translation f_{1,b} is an automorphism of Alex(G,phi)",
        ),
        _claim(
            f"{tid}/centralizer-members",
            inputs,
            bool(preserving_mask(Q.op, cstack).all()),
            counterexample=_first_failure(preserving_mask(Q.op, cstack), cstack),
            notes="every member of C_Aut(phi) is an automorphism of Alex(G,phi)",
        ),
        _claim(
            f"{tid}/semidirect",
            inputs,
            report.verdict,
            counterexample=report.failing_clause,
            notes=f"closure {report.closure_size} = {report.normal_part_size} x "
            f"{report.complement_size} ({report.mode})",
        ),
    ]
    return combine(tid, inputs, "subgroup-embedding", parts)


_F_CORE_CACHE: Dict[FiniteGroup, Tuple[bool, bool, int]] = {}
_F_ISO_CACHE: Dict[FiniteGroup, Verdict] = {}


def check_F_props(G: FiniteGroup, phi: ClassifiedMap) -> Verdict:
    """F inside Aut(Core(G)), F' inside Aut(Alex(G, phi)), F = (GxG^op)/N."""
    tid = "f-structure"
    inputs = f"{G.name}, phi={_map_label(phi)}"
    if G not in _F_CORE_CACHE:
        F = build_F(G)
        Qc = core(G)
        in_aut = bool(preserving_mask(Qc.op, _stack(F)).all())
        size_ok = len(F) == G.n * G.n // len(G.center())
        _F_CORE_CACHE[G] = (in_aut, size_ok, len(F))
    in_aut, size_ok, f_size = _F_CORE_CACHE[G]
    if G not in _F_ISO_CACHE:
        _F_ISO_CACHE[G] = verify_F_iso(G)
    Qa = alex(G, phi)
    fprime = build_F_prime(G, phi)
    fp_stack = _stack(fprime)
    fp_mask = preserving_mask(Qa.op, fp_stack)
    parts = [
        _claim(f"{tid}/F-in-core-aut", inputs, in_aut,
               notes=f"all {f_size} maps f_(a,b) preserve Core(G)"),
        _claim(f"{tid}/F-size", inputs, size_ok, relationship="iff",
               notes=f"|F| = {f_size} = |G|^2/|Z(G)|"),
        _claim(
            f"{tid}/Fprime-in-alex-aut",
            inputs,
            bool(fp_mask.all()),
            counterexample=_first_failure(fp_mask, fp_stack),
            notes=f"all {len(fprime)} maps f_(a,b) with a in Fix(phi) preserve Alex(G,phi)",
        ),
        _F_ISO_CACHE[G],
    ]
    return combine(tid, inputs, "isomorphism", parts)


# --- Core checks ---


def check_core(G: FiniteGroup) -> Verdict:
    """Induced maps on Core(G): always automorphisms; antiautomorphisms
    exactly when every cube is trivial."""
    tid = "core"
    inputs = G.name
    Q = core(G)
    aa_stack = _stack(enumerate_aaut(G))
    a_stack = _stack(enumerate_aut(G))
    rhs = G.exponent in (1, 3)
    exp_note = "exponent divides 3 (the proofs need x^3 = e pointwise)"
    aa_auto = preserving_mask(Q.op, aa_stack)
    aa_anti = reversing_mask(Q.op, aa_stack)
    a_anti = reversing_mask(Q.op, a_stack)
    parts = [
        _claim(
            f"{tid}/aaut-induce-auto",
            inputs,
            bool(aa_auto.all()),
            counterexample=_first_failure(aa_auto, aa_stack),
            notes="every antiautomorphism of G is an automorphism of Core(G)",
        ),
        _per_map_iff(f"{tid}/aaut-anti-iff-exp3", inputs, aa_anti, rhs, notes=exp_note),
        _per_map_iff(f"{tid}/aut-anti-iff-exp3", inputs, a_anti, rhs, notes=exp_note),
    ]
    if rhs:
        union = _unique_rows(np.concatenate([aa_stack, a_stack]))
        same = bool(
            (preserving_mask(Q.op, union) == reversing_mask(Q.op, union)).all()
        )
        parts.append(
            _claim(
                f"{tid}/anti-set-equals-auto-set",
                inputs,
                same,
                relationship="iff",
                notes="among G-induced maps the two kinds coincide at exponent 3",
            )
        )
    return combine(tid, inputs, "iff", parts)


def check_core_corollaries(G: FiniteGroup) -> Verdict:
    """Cyclic case: induced antiautomorphisms of Core exist iff n = 3.
    Centerless case: none exist at all."""
    tid = "core-corollaries"
    inputs = G.name
    Q = core(G)
    union = _unique_rows(
        np.concatenate([_stack(enumerate_aut(G)), _stack(enumerate_aaut(G))])
    )
    anti_mask = reversing_mask(Q.op, union)
    anti_any = bool(anti_mask.any())
    parts = []
    if G.is_cyclic:
        parts.append(
            make_iff(
                f"{tid}/cyclic",
                inputs,
                lhs=anti_any,
                rhs=G.n == 3,
                counterexample=_first_failure(~anti_mask, union) if anti_any != (G.n == 3) else None,
                notes="checked as the proof states it (antiautomorphism "
                "nonemptiness), not the printed Aut-intersection wording",
            )
        )
    if len(G.center()) == 1:
        parts.append(
            _claim(
                f"{tid}/centerless",
                inputs,
                not anti_any,
                relationship="emptiness",
                counterexample=_first_failure(~anti_mask, union),
                notes="no induced map reverses Core(G) when Z(G) is trivial",
            )
        )
    if not parts:
        return Verdict(
            tid, inputs, "emptiness", holds=True, vacuous=True,
            notes="group is neither cyclic nor centerless; both corollaries are vacuous",
        )
    return combine(tid, inputs, "emptiness", parts)


def check_dihedral_no_anti(n: int) -> Verdict:
    """R_n has no antiautomorphisms except n = 3, where they are the
    six automorphisms."""
    tid = "dihedral-no-anti"
    inputs = f"R{n}"
    Q = dihedral_quandle(n)
    antis = enumerate_quandle_antis(Q)
    if n == 3:
        auts = enumerate_quandle_auts(Q)
        ok = len(antis) == 6 and [m.map for m in antis] == [m.map for m in auts]
        return _claim(
            tid, inputs, ok, relationship="iff",
            notes=f"anti set equals the {len(auts)} automorphisms",
        )
    ce = {"images": [int(v) for v in antis[0].images]} if antis else None
    return Verdict(
        tid, inputs, "emptiness", holds=not antis, lhs=not antis, rhs=True,
        counterexample=ce, notes=f"complete enumeration found {len(antis)} antiautomorphisms",
    )


def check_core_semidirect(G: FiniteGroup) -> Verdict:
    """((G x G^op)/N) rtimes Out(G) embeds in Aut(Core(G)).

    The complement is a transversal of Inn(G), not a subgroup, so the
    closure clause is certified structurally: F is a group containing
    Inn(G) as maps, the transversal normalizes it, and the |F| * |Out|
    products are pairwise distinct automorphisms.
    """
    tid = "core-semidirect"
    inputs = G.name
    Q = core(G)
    F = build_F(G)
    reps = out_coset_reps(G)
    fstack = _stack(F)
    rstack = _stack(reps)
    f_keys = _keys(fstack)  # ascending: F comes back sorted

    conj_ok = True
    conj_bad = None
    all_fab = _all_f_ab_stack(G)  # [a, b] = images of f_{a,b}
    for cm in enumerate_aut(G):
        phi = cm.images
        phi_inv = cm.map.inverse().images
        lhs = phi_inv[all_fab[:, :, phi]]  # phi^-1 o f_{a,b} o phi
        rhs = all_fab[phi_inv][:, phi_inv]  # f_{phi^-1(a), phi^-1(b)}
        if not np.array_equal(lhs, rhs):
            conj_ok = False
            conj_bad = {"phi": [int(v) for v in phi]}
            break

    inner_in_F = bool(_in_sorted(_keys(_stack(inner_auts(G))), f_keys).all())
    products = fstack[:, rstack].reshape(-1, G.n)  # f o rep
    distinct = len(np.unique(_keys(products)))
    expected = len(F) * len(reps)
    identity_key = _keys(np.arange(G.n))
    rkeys = _keys(rstack)
    intersection_trivial = bool((rkeys[_in_sorted(rkeys, f_keys)] == identity_key).all())

    parts = [
        _claim(f"{tid}/F-members", inputs, bool(preserving_mask(Q.op, fstack).all()),
               notes=f"all {len(F)} maps in F preserve Core(G)"),
        _claim(f"{tid}/rep-members", inputs, bool(preserving_mask(Q.op, rstack).all()),
               notes=f"all {len(reps)} Out(G) representatives preserve Core(G)"),
        _claim(f"{tid}/conjugation-identity", inputs, conj_ok, counterexample=conj_bad,
               notes="phi^-1 f_(a,b) phi = f_(phi^-1 a, phi^-1 b) for every automorphism"),
        _claim(f"{tid}/inner-in-F", inputs, inner_in_F,
               notes="Inn(G) = {f_(g, g^-1)} lies in F, so rep products reduce into F"),
        _claim(f"{tid}/trivial-intersection", inputs, intersection_trivial,
               notes="F meets the transversal only in the identity"),
        _claim(f"{tid}/distinct-products", inputs, distinct == expected,
               notes=f"{distinct} distinct f o rep products, expected {expected}"),
    ]
    if expected <= config.MAX_SEMIDIRECT_BFS:
        closed = closure_of_point_maps(F + [cm.map for cm in reps])
        parts.append(
            _claim(f"{tid}/closure", inputs, len(closed) == expected,
                   notes=f"materialized closure has {len(closed)} maps"),
        )
    else:
        parts.append(
            _claim(f"{tid}/closure", inputs, all(p.holds for p in parts),
                   notes=f"closure size {expected} certified from the clauses above"),
        )
    return combine(tid, inputs, "subgroup-embedding", parts)


def check_core_abelian_full(G: FiniteGroup) -> Verdict:
    """For abelian G without 2-torsion: Aut(Core(G)) = G rtimes Aut(G),
    realised by the constructive t_a o h factorization."""
    tid = "core-abelian-aut"
    inputs = G.name
    if not G.is_abelian or G.has_2_torsion:
        return make_skipped(tid, inputs, "isomorphism", "needs an abelian group without 2-torsion")
    if G.n > config.MAX_QUANDLE_ENUM_ORDER:
        return make_skipped(tid, inputs, "isomorphism", f"enumeration cap below |G| = {G.n}")
    Q = core(G)
    auts = enumerate_quandle_auts(Q)
    expected = G.n * len(enumerate_aut(G))
    stack = _stack(auts)
    a_vec = stack[:, G.identity]
    h_stack = G.table[G.inverse[a_vec][:, None], stack]  # t_a^-1 o f
    h_ok = preserving_mask(G.table, h_stack)
    rebuilt = G.table[a_vec[:, None], h_stack]
    parts = [
        make_iff(
            f"{tid}/count", inputs, lhs=len(auts) == expected, rhs=True,
            notes=f"|Aut(Core(G))| = {len(auts)}, |G| * |Aut(G)| = {expected}",
        ),
        _claim(
            f"{tid}/factorization",
            inputs,
            bool(h_ok.all()) and bool((rebuilt == stack).all()),
            counterexample=_first_failure(h_ok, stack),
            notes="each quandle automorphism f factors as t_a o h with "
            "a = f(e) and h = t_a^-1 o f an automorphism of G (a is forced, "
            "so the factorization is unique)",
        ),
    ]
    return combine(tid, inputs, "isomorphism", parts)


# --- Q_i and P_i checks ---


def _qi_auto_predicate(G: FiniteGroup, i: int, base: ClassifiedMap) -> Tuple[bool, str]:
    """Group-side predicate for 'psi in C_AAut(base) induces an automorphism
    of Q_i', by base kind."""
    centre = _center_mask(G)
    if i == 1:
        return is_central_automorphism(G, base), "base automorphism is central"
    if i == 2:
        phi0 = base.images[G.inverse]  # base o inversion
        vals = G.table[np.arange(G.n), phi0]
        return bool(centre[vals].all()), "u * (base o inv)(u) central for every u"
    binv = base.map.inverse().images
    vals = G.table[np.arange(G.n), binv]
    return bool(centre[vals].all()), "y * base^-1(y) central for every y"


def check_Qi(G: FiniteGroup, i: int, base: ClassifiedMap) -> Verdict:
    """The four Q_i claims for one base map."""
    tid = "q-family"
    inputs = f"{G.name}, Q{i}, base={_map_label(base)}"
    ctor = {1: q1, 2: q2, 3: q3, 4: q4}[i]
    try:
        Q = ctor(G, base)
    except (WrongMapKind, CompatibilityFail) as exc:
        return make_skipped(tid, inputs, "iff", f"construction rejected: {exc}")
    caut = centralizer_in_aut(G, base)
    caaut = centralizer_in_aaut(G, base)
    a_stack = _stack(caut)
    aa_stack = _stack(caaut)
    a_auto = preserving_mask(Q.op, a_stack) if caut else np.empty(0, dtype=bool)
    a_anti = reversing_mask(Q.op, a_stack) if caut else np.empty(0, dtype=bool)
    aa_auto = preserving_mask(Q.op, aa_stack) if caaut else np.empty(0, dtype=bool)
    aa_anti = reversing_mask(Q.op, aa_stack) if caaut else np.empty(0, dtype=bool)
    if i <= 2:
        anti_rhs = G.is_abelian
        anti_note = "an induced antiautomorphism forces G abelian (forward direction)"
    else:
        derived = list(G.commutator_subgroup())
        centre = set(G.center())
        anti_rhs = all(x in centre for x in derived) and _cubes_trivial(G, derived)
        anti_note = (
            "an induced antiautomorphism forces [G,G] central with every cube "
            "trivial (forward direction)"
        )
    pred, pred_note = _qi_auto_predicate(G, i, base)
    parts = [
        _claim(
            f"{tid}/centralizer-in-aut",
            inputs,
            bool(a_auto.all()),
            counterexample=_first_failure(a_auto, a_stack),
            vacuous=not caut,
            notes="every member of C_Aut(base) is an automorphism of Q_i",
        ),
        make_implies(
            f"{tid}/aut-anti-implication",
            inputs,
            lhs=bool(a_anti.any()),
            rhs=anti_rhs,
            vacuous=not caut,
            counterexample=_first_failure(~a_anti, a_stack) if (a_anti.any() and not anti_rhs) else None,
            notes=anti_note,
        ),
        make_implies(
            f"{tid}/aaut-anti-implication",
            inputs,
            lhs=bool(aa_anti.any()),
            rhs=anti_rhs,
            vacuous=not caaut,
            counterexample=_first_failure(~aa_anti, aa_stack) if (aa_anti.any() and not anti_rhs) else None,
            notes=anti_note,
        ),
        _per_map_iff(
            f"{tid}/aaut-auto-iff",
            inputs,
            aa_auto,
            pred,
            notes=f"psi in C_AAut(base) induces an automorphism iff {pred_note}",
        ),
    ]
    return combine(tid, inputs, "iff", parts)


def check_Pi_aut(G: FiniteGroup, c: int) -> Verdict:
    """phi induces an automorphism of P_i(G, c) iff c^-1 phi^-1(c) is central."""
    tid = "p-family-aut"
    inputs = f"{G.name}, c={c}"
    stack = _stack(enumerate_aut(G))
    phi_inv_c = np.argmax(stack == c, axis=1)  # phi^-1(c) per automorphism
    rhs_vals = G.table[G.inverse[c], phi_inv_c]
    rhs_mask = _center_mask(G)[rhs_vals]
    parts = []
    for i, ctor in enumerate((p1, p2, p3, p4), start=1):
        Q = ctor(G, c)
        lhs_mask = preserving_mask(Q.op, stack)
        mism = np.nonzero(lhs_mask != rhs_mask)[0]
        parts.append(
            Verdict(
                f"{tid}/P{i}",
                inputs,
                "iff",
                holds=mism.size == 0,
                lhs=bool(lhs_mask.all()),
                rhs=bool(rhs_mask.all()),
                counterexample=None if mism.size == 0 else {"phi_index": int(mism[0])},
                notes="per-automorphism equivalence with c^-1 phi^-1(c) in Z(G)",
            )
        )
    return combine(tid, inputs, "iff", parts)


def check_Pi_anti(G: FiniteGroup, c: int) -> Verdict:
    """Fix-point conditions on P_i: automorphisms fixing c act as
    antiautomorphisms iff x = [x, c^-1] identically; antiautomorphisms
    fixing c that act as automorphisms force c^2 central."""
    tid = "p-family-anti"
    inputs = f"{G.name}, c={c}"
    idx = np.arange(G.n)
    auts = [cm for cm in enumerate_aut(G) if cm.images[c] == c]
    aauts = [cm for cm in enumerate_aaut(G) if cm.images[c] == c]
    a_stack = _stack(auts)
    aa_stack = _stack(aauts)
    cinv = G.inverse[c]
    comm = G.table[G.table[G.inverse, G.inverse[cinv]], G.table[idx, cinv]]  # [x, c^-1]
    rhs1 = bool((comm == idx).all())
    rhs2 = int(G.table[c, c]) in G.center()
    parts = []
    for i, ctor in enumerate((p1, p2, p3, p4), start=1):
        Q = ctor(G, c)
        anti_mask = reversing_mask(Q.op, a_stack) if auts else np.empty(0, dtype=bool)
        parts.append(
            _per_map_iff(
                f"{tid}/P{i}-fixing-aut-anti-iff",
                inputs,
                anti_mask,
                rhs1,
                notes="phi with phi(c) = c reverses P_i iff x = [x, c^-1] for all x",
            )
        )
        auto_mask = preserving_mask(Q.op, aa_stack) if aauts else np.empty(0, dtype=bool)
        parts.append(
            make_implies(
                f"{tid}/P{i}-fixing-aaut-auto-implication",
                inputs,
                lhs=bool(auto_mask.any()),
                rhs=rhs2,
                vacuous=not aauts,
                counterexample=_first_failure(~auto_mask, aa_stack) if (auto_mask.any() and not rhs2) else None,
                notes="psi with psi(c) = c preserving P_i forces c^2 central "
                "(forward direction; the reverse fails e.g. on S3 with a transposition)",
            )
        )
    return combine(tid, inputs, "iff", parts)


# --- dispatch and census ---


def run_check(
    theorem_id: str,
    G: Optional[FiniteGroup] = None,
    *,
    m: Optional[int] = None,
    n: Optional[int] = None,
    c: Optional[int] = None,
    phi_index: Optional[int] = None,
    psi_index: Optional[int] = None,
) -> List[Verdict]:
    """Run one named check, sweeping any parameter left unspecified."""
    if theorem_id not in CHECK_IDS:
        raise ConstructionSpecError(
            f"unknown theorem id {theorem_id!r}; known: {', '.join(CHECK_IDS)}"
        )
    if theorem_id == "dihedral-no-anti":
        ns = [n] if n is not None else list(range(3, 11))
        return [check_dihedral_no_anti(k) for k in ns]
    if G is None:
        raise ConstructionSpecError(f"{theorem_id} needs a group")
    ms = [m] if m is not None else list(M_RANGE)
    cs = [c] if c is not None else list(range(G.n))

    def phis() -> List[ClassifiedMap]:
        pool = enumerate_aut(G)
        return [pool[phi_index]] if phi_index is not None else pool

    def psis() -> List[ClassifiedMap]:
        pool = enumerate_aaut(G)
        return [pool[psi_index]] if psi_index is not None else pool

    if theorem_id == "conj-semidirect":
        return [check_conj_semidirect(G, mm) for mm in ms]
    if theorem_id == "conj-out":
        return [check_conj_out(G)]
    if theorem_id == "conj-aaut":
        return [check_conj_aaut_intersection(G, mm) for mm in ms]
    if theorem_id == "conj-no-anti":
        return [check_conj_no_anti(G, mm) for mm in ms]
    if theorem_id == "alex":
        return [check_alex(G, phi) for phi in phis()]
    if theorem_id == "alex-semidirect":
        return [check_alex_semidirect(G, phi) for phi in phis()]
    if theorem_id == "f-structure":
        return [check_F_props(G, phi) for phi in phis()]
    if theorem_id == "core":
        return [check_core(G)]
    if theorem_id == "core-corollaries":
        return [check_core_corollaries(G)]
    if theorem_id == "core-semidirect":
        return [check_core_semidirect(G)]
    if theorem_id == "core-abelian-aut":
        return [check_core_abelian_full(G)]
    if theorem_id == "q-family":
        out = []
        for phi in phis():
            out.append(check_Qi(G, 1, phi))
        for psi in psis():
            for i in (2, 3, 4):
                out.append(check_Qi(G, i, psi))
        return out
    if theorem_id == "p-family-aut":
        return [check_Pi_aut(G, cc) for cc in cs]
    return [check_Pi_anti(G, cc) for cc in cs]


def run_census(catalog: Optional[Sequence[FiniteGroup]] = None) -> dict:
    """Sweep every check over the catalog; errors are recorded, not raised.

    Any exception a check raises, a package error or an engine fault such as
    a failed internal assertion or a MemoryError, becomes one failed verdict
    naming the exception type, and the census goes on.
    """
    groups = list(catalog) if catalog is not None else default_catalog()
    verdicts: List[Verdict] = []

    def guarded(theorem_id: str, G: Optional[FiniteGroup]) -> None:
        label = G.name if G is not None else "-"
        try:
            verdicts.extend(run_check(theorem_id, G))
        except Exception as exc:
            verdicts.append(
                Verdict(theorem_id, label, "iff", holds=False,
                        notes=f"check raised {type(exc).__name__}: {exc}")
            )

    guarded("dihedral-no-anti", None)
    for G in groups:
        for theorem_id in CHECK_IDS:
            if theorem_id == "dihedral-no-anti":
                continue
            guarded(theorem_id, G)
    return report_json([g.name for g in groups], verdicts)

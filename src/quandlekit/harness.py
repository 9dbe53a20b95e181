"""Executable checks, one per structure theorem.

Each check evaluates the two sides of a claimed relationship independently
(predicate side by group-theoretic scans, constructive side by building
quandles and testing induced maps) and returns a Verdict with witnesses.
Census mode sweeps every check over a catalog of small groups.

Every map a check takes is an int64 image row of the verified Aut(G) or
AAut(G) stack, so no map's law is checked here; the public constructors
check it.  G's store (``FiniteGroup._store``) keys Aut(G)/AAut(G), the
centralizers (family plus phi's image bytes), the quandles (construction
kind plus m, c or image bytes, resolving to the op table's compact bytes)
and facts of G.  A quandle's law-mask pairs are kept in its store,
keyed by the stack's compact bytes, by ``quandlemaps._laws``: the member
claims here read them there, as ``semidirect_verify`` does on its own.
``run_census`` empties a group's store after its checks.

Where a printed equivalence is provable in one direction only, the check
asserts the provable implication and says so in its notes; the companion
ledger of the project records the specific counterexamples.  The exponent-3
conditions are tested as "every cube is trivial" so that degenerate inputs
(trivial subgroups) are handled the way the proofs, not the slogans, demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType
from typing import Callable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import config, groupmaps
from .constructions import _KINDS, _map_label, _reject_unread, dihedral_quandle
from .errors import CompatibilityFail, ConstructionSpecError
from .groupmaps import (
    _all_f_ab_stack,
    _auts,
    _centralizer,
    _compact,
    _coset_leaders,
    _F_prime_stack,
    _F_stack,
    _H_stack,
    _in_sorted,
    _inner_stack,
    _keys,
    _orbits,
    _out_reps,
    _product_counts,
    _stack_of,
    _table_isos,
    _unique_rows,
    enumerate_aaut,
    enumerate_aut,
    preserving_mask,
    verify_F_iso,
)
from .groups import FiniteGroup, _distinct, _in_range, _stored, named_group
from .quandlemaps import (
    SemidirectReport,
    _inn_stack,
    _laws,
    _plan,
    enumerate_quandle_antis,
    enumerate_quandle_auts,
    inn_out_report,
    semidirect_verify,
)
from .quandles import Quandle
from .verdicts import Verdict, claim, combine, make_skipped, report_json

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


def default_catalog() -> List[FiniteGroup]:
    return [named_group(spec) for spec in CATALOG_SPECS]


# --- the claim vocabulary ---


def _first_failure(mask: np.ndarray, stack: np.ndarray) -> Optional[dict]:
    """The first row of the stack whose mask entry is False, or None."""
    bad = np.flatnonzero(~mask)
    if bad.size == 0:
        return None
    i = int(bad[0])
    return {"index": i, "images": [int(v) for v in stack[i]]}


def _table(G: FiniteGroup, kind: str, param=None) -> np.ndarray:
    """The op table of construction ``kind`` on G at m, c or a map's images, read from ``_KINDS`` at call time."""
    return _KINDS[kind].table(G, param)


def _quandle(G: FiniteGroup, kind: str, param=None) -> Quandle:
    """The quandle of construction ``kind`` on G at ``param``, from G's store: built on first use.

    The first key is the kind plus ``param``: m, c, or a map's image bytes.
    It resolves to the second, the table's compact bytes, so constructions
    that give equal tables share one validated quandle, and with it the law
    masks in its store.  Every quandle stays until ``run_census`` clears
    the store.
    """
    tag = param.tobytes() if _KINDS[kind].law else param
    key = (kind,) if param is None else (kind, tag)

    def build() -> Quandle:
        op = _table(G, kind, param)
        return _stored(G, ("table", _compact(op).tobytes()), lambda: Quandle(op))

    return _stored(G, key, build)


def _generated(Q: Quandle, stack: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Q's preserving mask over a stack of maps that ``gens``, maps of the stack, generate by composition.

    Aut(Q) is a group, so the stack lies in it once every generator does:
    the mask is then all true, with no gather over the stack.  Otherwise it
    is the stack's own mask (``_laws``), so ``_members`` names the first
    row that fails, as a full gather would.  The translations of G are
    generated by those by G's generators (``_f_generators``), as
    f_(1,b) o f_(1,c) = f_(1,cb), f_(a,1) o f_(c,1) = f_(ac,1) and
    f_(a,b) = f_(a,1) o f_(1,b).
    """
    if _laws(Q, gens)[0].all():
        return np.ones(len(stack), dtype=bool)
    return _laws(Q, stack)[0]


def _f_generators(G: FiniteGroup, left: np.ndarray) -> np.ndarray:
    """f_(a,1) for each point a of ``left``, then f_(1,g) for each greedy generator g of G.

    With ``left`` a generating set of a subgroup A, or all of A, they
    generate {f_(a,b) | a in A, b in G}: F for A = G, F' for A = Fix(phi)
    and G^op for A = {e}.  A central a may be left out, as f_(a,1) =
    f_(1,a).
    """
    return np.concatenate([G.table[np.asarray(left, dtype=np.intp)], G.table[:, G.hol_base[1:]].T])


def _centralizer_of(G: FiniteGroup, family: str, phi: np.ndarray) -> np.ndarray:
    """C_Aut(phi) (family "aut") or C_AAut(phi) ("aaut") from G's store, phi a row of Aut(G) or AAut(G)."""
    return _stored(G, ("C_" + family, phi.tobytes()), lambda: _centralizer(G, getattr(_auts(G), family), phi))


def _members(theorem_id: str, inputs: str, mask: np.ndarray, stack: np.ndarray, notes: str) -> Verdict:
    """Every row of the stack is in its preserving mask; fails on the first row outside it, vacuous on no rows."""
    holds = mask.all()
    return claim(theorem_id, inputs, "subgroup-embedding", holds, vacuous=not len(stack),
                 counterexample=None if holds else _first_failure(mask, stack), notes=notes)


def _forward(
    theorem_id: str, inputs: str, mask: np.ndarray, stack: np.ndarray, rhs: bool, notes: str,
) -> Verdict:
    """Some row is in the mask => rhs; fails on the first such row, vacuous on no rows."""
    lhs = mask.any()
    return claim(theorem_id, inputs, "implies", lhs, rhs, vacuous=not len(stack),
                 counterexample=_first_failure(~mask, stack) if lhs and not rhs else None, notes=notes)


def _emptiness(theorem_id: str, inputs: str, found: np.ndarray, notes: str) -> Verdict:
    """No map of the claimed kind exists; fails on the first row of ``found``."""
    return claim(theorem_id, inputs, "emptiness", not len(found), notes=notes,
                 counterexample={"images": [int(v) for v in found[0]]} if len(found) else None)


def _per_map_iff(
    theorem_id: str,
    inputs: str,
    lhs_mask: np.ndarray,
    rhs: bool,
    notes: str = "",
) -> Verdict:
    """One sub-verdict folding 'for every map: induced <-> rhs'."""
    if lhs_mask.size == 0:
        return claim(theorem_id, inputs, "iff", rhs, rhs, vacuous=True, notes=notes or "empty map set")
    mismatch = np.flatnonzero(lhs_mask != rhs)
    return claim(theorem_id, inputs, "iff", lhs_mask.all() if rhs else lhs_mask.any(), rhs, notes=notes,
                 counterexample={"map_index": int(mismatch[0])} if mismatch.size else None)


def _conjugation(
    theorem_id: str, inputs: str, auts: np.ndarray,
    law: Callable[[np.ndarray, np.ndarray], np.ndarray], row_entries: int, notes: str,
) -> Verdict:
    """law(phis, phis^-1), a row mask over a block of an automorphism stack, holds on every row.

    The blocks hold ``_LAW_ENTRIES`` entries at ``row_entries`` a row; the
    claim fails on the first row outside the mask.
    """
    invs = np.argsort(auts, axis=1)
    step = max(1, groupmaps._LAW_ENTRIES // row_entries)
    bad = None
    for i in range(0, len(auts), step):
        off = np.flatnonzero(~law(auts[i : i + step], invs[i : i + step]))
        if off.size:
            bad = auts[i + off[0]]
            break
    return claim(theorem_id, inputs, "subgroup-embedding", bad is None, notes=notes,
                 counterexample=None if bad is None else {"phi": [int(v) for v in bad]})


def _semidirect(theorem_id: str, inputs: str, report: SemidirectReport) -> Verdict:
    return claim(
        theorem_id, inputs, "subgroup-embedding", report.verdict, counterexample=report.failing_clause,
        notes=f"closure {report.closure_size} = {report.normal_part_size} x "
        f"{report.complement_size} ({report.mode})",
    )


def _all_central(G: FiniteGroup, left: np.ndarray, right: np.ndarray) -> bool:
    """Whether left[x] * right[x] lies in Z(G) for every x."""
    return bool(G.center_mask[G.table[left, right]].all())


def _derived_central_cubes(G: FiniteGroup) -> bool:
    """Whether [G,G] is central with every cube trivial."""
    derived = list(G.commutator_subgroup())
    return bool(G.center_mask[derived].all() and (G.power_all(3)[derived] == G.identity).all())


# --- Conj_m checks ---


def check_conj_semidirect(G: FiniteGroup, m: int) -> Verdict:
    """H rtimes Aut(G) embeds in Aut(Conj_m(G)): membership, conjugation
    identity phi t_a phi^-1 = t_phi(a), and the semidirect clauses."""
    tid = "conj-semidirect"
    inputs = f"{G.name}, m={m}"
    Q = _quandle(G, "conj", m)
    H = _H_stack(G)
    auts = _auts(G).aut
    parts = [
        _members(f"{tid}/H-members", inputs, _laws(Q, H)[0], H,
                 "every central translation t_a is an automorphism of Conj_m(G)"),
        _members(f"{tid}/aut-members", inputs, _laws(Q, auts)[0], auts,
                 "every group automorphism is an automorphism of Conj_m(G)"),
    ]
    centre = np.flatnonzero(G.center_mask)
    by_centre = G.table[centre]  # [a, x] = a x

    def identity_holds(phis: np.ndarray, invs: np.ndarray) -> np.ndarray:
        # phi(a phi^-1(x)) = phi(a) x, as [r, a, x]
        lhs = np.take_along_axis(phis, by_centre[:, invs].transpose(1, 0, 2).reshape(len(phis), -1), axis=1)
        return (lhs == G.table[phis[:, centre]].reshape(len(phis), -1)).all(axis=1)

    identity = _stored(G, (f"{tid}/conjugation-identity",), lambda: _conjugation(
        f"{tid}/conjugation-identity", inputs, auts, identity_holds, centre.size * G.n,
        "phi t_a phi^-1 = t_phi(a) for a in Z(G)"))  # a fact of G: decided at the first m
    parts += [
        replace(identity, inputs=inputs),
        _semidirect(f"{tid}/semidirect", inputs, semidirect_verify(H, auts, Q, G)),
    ]
    return combine(tid, inputs, "subgroup-embedding", parts)


def check_conj_out(G: FiniteGroup) -> Verdict:
    """H rtimes Out(G) embeds in Out(Conj(G))."""
    tid = "conj-out"
    inputs = G.name
    Q = _quandle(G, "conj", 1)
    H = _H_stack(G)
    reps = _out_reps(G)
    expected = len(H) * len(reps)
    if G.is_abelian:
        # Conj(G) is the trivial quandle: Inn(Q) = {id} and Aut(Q) = Sym(n),
        # so the out-quotient is the full symmetric group.
        report = semidirect_verify(H, reps, Q, G)
        parts = [
            claim(f"{tid}/inn-trivial", inputs, "subgroup-embedding",
                  all(np.array_equal(Q.op[:, y], np.arange(G.n)) for y in range(G.n)),
                  notes="right translations of the trivial quandle are the identity"),
            claim(f"{tid}/semidirect", inputs, "subgroup-embedding", report.verdict,
                  counterexample=report.failing_clause,
                  notes=f"H rtimes Aut(G) realised by {report.closure_size} distinct maps"),
            claim(f"{tid}/lagrange", inputs, "subgroup-embedding",
                  math.factorial(G.n) % expected == 0 if expected else False,
                  notes=f"|H|*|Out(G)| = {expected} divides |Sym(n)| = n!"),
        ]
        return combine(tid, inputs, "subgroup-embedding", parts,
                       notes="symbolic mode: Aut of a trivial quandle is all of Sym(n)")
    if G.n > config.MAX_QUANDLE_ENUM_ORDER:
        return make_skipped(
            tid, inputs, "subgroup-embedding",
            f"Aut(Conj(G)) enumeration exceeds the cap for |G| = {G.n}",
        )
    inn_size, aut_size, out_index = inn_out_report(Q)
    products = H[:, reps].reshape(-1, G.n)  # t_a o rep, a-major
    injective = len(_distinct(_keys(_coset_leaders(_inn_stack(Q), products)))) == len(products)
    parts = [
        _members(f"{tid}/members", inputs, _laws(Q, products)[0], products,
                 "every t_a o rep is an automorphism of Conj(G)"),
        claim(f"{tid}/coset-injective", inputs, "subgroup-embedding", injective,
              notes=f"{len(products)} products land in distinct Inn(Conj(G))-cosets"),
        claim(f"{tid}/lagrange", inputs, "subgroup-embedding",
              out_index % expected == 0 if expected else False,
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
    Q = _quandle(G, "conj", m)
    stack = _auts(G).aaut
    induced = np.flatnonzero(_laws(Q, stack)[0])  # the psi that preserve Conj_m(G)
    off_centre = np.flatnonzero(~G.center_mask[G.power_all(2 * m)])  # the y with y^(2m) not central
    w = f = None
    if induced.size:
        w = {"psi_index": int(induced[0]), "images": [int(v) for v in stack[induced[0]]]}
    if off_centre.size:
        f = {"y": int(off_centre[0])}
    return claim(tid, inputs, "iff", w is not None, f is None,
                 witness=w, counterexample={"lhs_witness": w, "rhs_failure": f})


def check_conj_no_anti(G: FiniteGroup, m: int) -> Verdict:
    """Conj_m(G) admits no antiautomorphism at all (|G| >= 2).

    An antiautomorphism is an isomorphism Conj_m(G) -> Conj_m(G)^T, so one
    first-hit search over all bijections decides the claim at every order.
    For |G| >= 2 the point profiles reject the transposed table before any
    level is built: a * e = a for every a, while in any quandle x * a = a
    only for x = a.
    """
    tid = "conj-no-anti"
    inputs = f"{G.name}, m={m}"
    if G.n < 2:
        return make_skipped(tid, inputs, "emptiness", "stated for |G| >= 2 only")
    Q = _quandle(G, "conj", m)
    found = _table_isos(Q.op, np.ascontiguousarray(Q.op.T), first_only=True, plan=_plan(Q))
    return _emptiness(
        tid, inputs, found,
        "first-hit search over all bijections for an isomorphism onto the transposed table",
    )


# --- Alexander checks ---


def _phi_inputs(G: FiniteGroup, phi: np.ndarray) -> str:
    return f"{G.name}, phi={_map_label(phi)}"


def check_alex(G: FiniteGroup, phi: np.ndarray) -> Verdict:
    """Induced maps on Alex(G, phi), phi a row of Aut(G), versus centrality and commutativity."""
    tid = "alex"
    inputs = _phi_inputs(G, phi)
    Q = _quandle(G, "alex", phi)
    aa_stack = _centralizer_of(G, "aaut", phi)
    a_stack = _centralizer_of(G, "aut", phi)
    aa_auto, aa_anti = _laws(Q, aa_stack)
    parts = [
        _per_map_iff(
            f"{tid}/aaut-induces-auto-iff-central",
            inputs,
            aa_auto,
            _all_central(G, G.inverse, phi),  # x^-1 phi(x) central for every x
            notes="psi in C_AAut(phi) is an automorphism of Alex(G,phi) iff phi is central",
        ),
        _forward(
            f"{tid}/aaut-induces-anti-implies-abelian", inputs,
            aa_anti, aa_stack, G.is_abelian,
            "forward direction of the printed equivalence; the reverse "
            "fails on small abelian groups where Alex has no antiautomorphisms",
        ),
        _forward(
            f"{tid}/aut-anti-intersection-implies-abelian", inputs,
            _laws(Q, a_stack)[1], a_stack, G.is_abelian,
            "C_Aut(phi) members acting as antiautomorphisms of Alex "
            "exist only over abelian groups (forward direction)",
        ),
    ]
    return combine(tid, inputs, "iff", parts)


def check_alex_semidirect(G: FiniteGroup, phi: np.ndarray) -> Verdict:
    """G^op rtimes C_Aut(phi) embeds in Aut(Alex(G, phi)), phi a row of Aut(G)."""
    tid = "alex-semidirect"
    inputs = _phi_inputs(G, phi)
    Q = _quandle(G, "alex", phi)
    right_translations = G.table.T  # row b is f_{1,b}
    cent = _centralizer_of(G, "aut", phi)
    parts = [
        _members(f"{tid}/gop-members", inputs, _generated(Q, right_translations, _f_generators(G, [])),
                 right_translations, "every right translation f_{1,b} is an automorphism of Alex(G,phi)"),
        _members(f"{tid}/centralizer-members", inputs, _laws(Q, cent)[0], cent,
                 "every member of C_Aut(phi) is an automorphism of Alex(G,phi)"),
        _semidirect(f"{tid}/semidirect", inputs, semidirect_verify(right_translations, cent, Q, G)),
    ]
    return combine(tid, inputs, "subgroup-embedding", parts)


def check_F_props(G: FiniteGroup, phis: Sequence[np.ndarray]) -> List[Verdict]:
    """F inside Aut(Core(G)) and F = (GxG^op)/N, checked once for the group,
    then F' inside Aut(Alex(G, phi)) for each phi, a row of Aut(G): one verdict per phi."""
    tid = "f-structure"
    F = _F_stack(G)
    by_generators = _generated(_quandle(G, "core"), F, _f_generators(G, G.hol_base[1:]))
    in_core = _members(f"{tid}/F-in-core-aut", G.name, by_generators, F, f"all {len(F)} maps f_(a,b) preserve Core(G)")
    size = claim(f"{tid}/F-size", G.name, "iff", len(F) == G.n * G.n // int(G.center_mask.sum()),
                 notes=f"|F| = {len(F)} = |G|^2/|Z(G)|")
    iso = verify_F_iso(G)
    out = []
    for phi in phis:
        inputs = _phi_inputs(G, phi)
        fprime = _F_prime_stack(G, phi)
        fixed = np.flatnonzero((phi == np.arange(G.n)) & ~G.center_mask)  # Fix(phi), its central points left out
        parts = [
            replace(in_core, inputs=inputs),
            replace(size, inputs=inputs),
            _members(f"{tid}/Fprime-in-alex-aut", inputs,
                     _generated(_quandle(G, "alex", phi), fprime, _f_generators(G, fixed)), fprime,
                     f"all {len(fprime)} maps f_(a,b) with a in Fix(phi) preserve Alex(G,phi)"),
            iso,
        ]
        out.append(combine(tid, inputs, "isomorphism", parts))
    return out


# --- Core checks ---


def check_core(G: FiniteGroup) -> Verdict:
    """Induced maps on Core(G): always automorphisms; antiautomorphisms
    exactly when every cube is trivial."""
    tid = "core"
    inputs = G.name
    Q = _quandle(G, "core")
    aa_stack = _auts(G).aaut
    a_stack = _auts(G).aut
    rhs = G.exponent in (1, 3)
    exp_note = "exponent divides 3 (the proofs need x^3 = e pointwise)"
    aa_auto, aa_anti = _laws(Q, aa_stack)
    parts = [
        _members(f"{tid}/aaut-induce-auto", inputs, aa_auto, aa_stack,
                 "every antiautomorphism of G is an automorphism of Core(G)"),
        _per_map_iff(f"{tid}/aaut-anti-iff-exp3", inputs, aa_anti, rhs, notes=exp_note),
        _per_map_iff(f"{tid}/aut-anti-iff-exp3", inputs, _laws(Q, a_stack)[1], rhs,
                     notes=exp_note),
    ]
    if rhs:
        union = _unique_rows(np.concatenate([aa_stack, a_stack]))
        auto, anti = _laws(Q, union)
        parts.append(claim(f"{tid}/anti-set-equals-auto-set", inputs, "iff", (auto == anti).all(),
                           notes="among G-induced maps the two kinds coincide at exponent 3"))
    return combine(tid, inputs, "iff", parts)


def check_core_corollaries(G: FiniteGroup) -> Verdict:
    """Cyclic case: induced antiautomorphisms of Core exist iff n = 3.
    Centerless case: none exist at all."""
    tid = "core-corollaries"
    inputs = G.name
    Q = _quandle(G, "core")
    union = _unique_rows(np.concatenate([_auts(G).aut, _auts(G).aaut]))
    anti_mask = _laws(Q, union)[1]
    parts = []
    if G.is_cyclic:
        parts.append(claim(
            f"{tid}/cyclic", inputs, "iff", anti_mask.any(), G.n == 3,
            counterexample=_first_failure(~anti_mask, union),
            notes="checked as the proof states it (antiautomorphism "
            "nonemptiness), not the printed Aut-intersection wording",
        ))
    if G.center_mask.sum() == 1:
        parts.append(
            _emptiness(f"{tid}/centerless", inputs, union[anti_mask],
                       "no induced map reverses Core(G) when Z(G) is trivial")
        )
    if not parts:
        return Verdict(
            tid, inputs, "emptiness", holds=True, vacuous=True,
            notes="group is neither cyclic nor centerless; both corollaries are vacuous",
        )
    return combine(tid, inputs, "emptiness", parts)


def check_dihedral_no_anti(n: int) -> Verdict:
    """R_n (n >= 3) has no antiautomorphisms except n = 3, where they are
    the six automorphisms."""
    tid = "dihedral-no-anti"
    inputs = f"R{n}"
    Q = dihedral_quandle(n)
    if n < 3:
        return make_skipped(tid, inputs, "emptiness", "stated for n >= 3 only")
    antis = _stack_of(enumerate_quandle_antis(Q))
    if n == 3:
        auts = _stack_of(enumerate_quandle_auts(Q))
        return claim(tid, inputs, "iff", len(antis) == 6 and np.array_equal(antis, auts),
                     notes=f"anti set equals the {len(auts)} automorphisms")
    return _emptiness(tid, inputs, antis,
                      f"complete enumeration found {len(antis)} antiautomorphisms")


def check_core_semidirect(G: FiniteGroup) -> Verdict:
    """((G x G^op)/N) rtimes Out(G) embeds in Aut(Core(G)).

    The complement is a transversal of Inn(G), not a subgroup.  The closure
    is decided on the set P of the f o rep products.  The representatives
    and the translations f_(g,1), f_(1,g) by the generators g of G generate
    it, as f_(a,b) = f_(a,1) o f_(1,b), so P is the closure exactly when it
    holds the identity and P o T lies in P for those maps T.  Both P and
    the closure are counted on Hol(G) keys (``groupmaps._product_counts``),
    as F and the representatives lie in Hol(G).  The note gives |P| when P
    is closed and otherwise a lower bound: the distinct maps in P and P o T.
    """
    tid = "core-semidirect"
    inputs = G.name
    Q = _quandle(G, "core")
    fstack = _F_stack(G)
    rstack = _out_reps(G)
    f_keys = _keys(fstack)  # ascending: F comes back sorted
    all_fab = _all_f_ab_stack(G)  # [a, b] = images of f_{a,b}
    inner_in_F = bool(_in_sorted(_keys(_inner_stack(G)), f_keys).all())
    # T: the reps, then f_(g,1) = x -> g*x and f_(1,g) = x -> x*g per generator g
    translations = _f_generators(G, G.hol_base[1:])
    distinct, size = _product_counts(G, fstack, rstack, np.concatenate([rstack, translations]))
    expected = len(fstack) * len(rstack)
    identity_key = _keys(np.arange(G.n))
    rkeys = _keys(rstack)
    intersection_trivial = bool((rkeys[_in_sorted(rkeys, f_keys)] == identity_key).all())

    def identity_holds(phis: np.ndarray, invs: np.ndarray) -> np.ndarray:
        # phi^-1(f_(a,b)(phi(x))) = f_(phi^-1 a, phi^-1 b)(x), as [r, a, b, x]
        rows = len(phis)
        lhs = np.take_along_axis(invs, all_fab[:, :, phis].transpose(2, 0, 1, 3).reshape(rows, -1), axis=1)
        rhs = all_fab[invs[:, :, None], invs[:, None, :]].reshape(rows, -1)
        return (lhs == rhs).all(axis=1)

    parts = [
        _members(f"{tid}/F-members", inputs, _generated(Q, fstack, translations), fstack,
                 f"all {len(fstack)} maps in F preserve Core(G)"),
        _members(f"{tid}/rep-members", inputs, _laws(Q, rstack)[0], rstack,
                 f"all {len(rstack)} Out(G) representatives preserve Core(G)"),
        _conjugation(f"{tid}/conjugation-identity", inputs, _auts(G).aut, identity_holds, G.n**3,
                     "phi^-1 f_(a,b) phi = f_(phi^-1 a, phi^-1 b) for every automorphism"),
        claim(f"{tid}/inner-in-F", inputs, "subgroup-embedding", inner_in_F,
              notes="Inn(G) = {f_(g, g^-1)} lies in F, so rep products reduce into F"),
        claim(f"{tid}/trivial-intersection", inputs, "subgroup-embedding", intersection_trivial,
              notes="F meets the transversal only in the identity"),
        claim(f"{tid}/distinct-products", inputs, "subgroup-embedding", distinct == expected,
              notes=f"{distinct} distinct f o rep products, expected {expected}"),
        claim(f"{tid}/closure", inputs, "subgroup-embedding", size == distinct == expected,
              notes=f"materialized closure has {size} maps"),
    ]
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
    Q = _quandle(G, "core")
    auts = enumerate_quandle_auts(Q)
    expected = G.n * len(_auts(G).aut)
    stack = _stack_of(auts)
    a_vec = stack[:, G.identity]
    h_stack = G.table[G.inverse[a_vec][:, None], stack]  # t_a^-1 o f
    h_ok = preserving_mask(G.table, h_stack)
    rebuilt = G.table[a_vec[:, None], h_stack]
    parts = [
        claim(f"{tid}/count", inputs, "iff", len(auts) == expected,
              notes=f"|Aut(Core(G))| = {len(auts)}, |G| * |Aut(G)| = {expected}"),
        claim(
            f"{tid}/factorization", inputs, "subgroup-embedding",
            h_ok.all() and (rebuilt == stack).all(),
            counterexample=_first_failure(h_ok, stack),
            notes="each quandle automorphism f factors as t_a o h with "
            "a = f(e) and h = t_a^-1 o f an automorphism of G (a is forced, "
            "so the factorization is unique)",
        ),
    ]
    return combine(tid, inputs, "isomorphism", parts)


# --- Q_i and P_i checks ---


def _qi_auto_predicate(G: FiniteGroup, i: int, base: np.ndarray) -> Tuple[bool, str]:
    """Group-side predicate for 'psi in C_AAut(base) induces an automorphism
    of Q_i', by base kind."""
    if i == 1:
        return _all_central(G, G.inverse, base), "base automorphism is central"
    if i == 2:
        return _all_central(G, np.arange(G.n), base[G.inverse]), "u * (base o inv)(u) central for every u"
    return _all_central(G, np.arange(G.n), np.argsort(base)), "y * base^-1(y) central for every y"


def _q_inputs(G: FiniteGroup, i: int, base: np.ndarray) -> str:
    return f"{G.name}, Q{i}, base={_map_label(base)}"


def check_Qi(G: FiniteGroup, i: int, base: np.ndarray) -> Verdict:
    """The four Q_i claims for one base map: a row of Aut(G) for Q1, of AAut(G) for Q2-Q4."""
    tid = "q-family"
    inputs = _q_inputs(G, i, base)
    try:
        Q = _quandle(G, f"q{i}", base)
    except CompatibilityFail as exc:
        return make_skipped(tid, inputs, "iff", f"construction rejected: {exc}")
    a_stack = _centralizer_of(G, "aut", base)
    aa_stack = _centralizer_of(G, "aaut", base)
    if i <= 2:
        anti_rhs = G.is_abelian
        anti_note = "an induced antiautomorphism forces G abelian (forward direction)"
    else:
        anti_rhs = _stored(G, ("[G,G] central with trivial cubes",), lambda: _derived_central_cubes(G))
        anti_note = (
            "an induced antiautomorphism forces [G,G] central with every cube "
            "trivial (forward direction)"
        )
    pred, pred_note = _qi_auto_predicate(G, i, base)
    a_auto, a_anti = _laws(Q, a_stack)
    aa_auto, aa_anti = _laws(Q, aa_stack)
    parts = [
        _members(f"{tid}/centralizer-in-aut", inputs, a_auto, a_stack,
                 "every member of C_Aut(base) is an automorphism of Q_i"),
        _forward(f"{tid}/aut-anti-implication", inputs, a_anti, a_stack, anti_rhs, anti_note),
        _forward(f"{tid}/aaut-anti-implication", inputs, aa_anti, aa_stack, anti_rhs, anti_note),
        _per_map_iff(
            f"{tid}/aaut-auto-iff",
            inputs,
            aa_auto,
            pred,
            notes=f"psi in C_AAut(base) induces an automorphism iff {pred_note}",
        ),
    ]
    return combine(tid, inputs, "iff", parts)


def _c_inputs(G: FiniteGroup, c: int) -> str:
    return f"{G.name}, c={c}"


def check_Pi_aut(G: FiniteGroup, c: int) -> Verdict:
    """phi induces an automorphism of P_i(G, c) iff c^-1 phi^-1(c) is central."""
    tid = "p-family-aut"
    inputs = _c_inputs(G, c)
    stack = _auts(G).aut
    phi_inv_c = np.argmax(stack == c, axis=1)  # phi^-1(c) per automorphism
    rhs_vals = G.table[G.inverse[c], phi_inv_c]
    rhs_mask = G.center_mask[rhs_vals]
    parts = []
    for i in range(1, 5):
        Q = _quandle(G, f"p{i}", c)
        lhs_mask = _laws(Q, stack)[0]
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
    inputs = _c_inputs(G, c)
    idx = np.arange(G.n)
    a_stack, aa_stack = (s[s[:, c] == c] for s in (_auts(G).aut, _auts(G).aaut))  # the maps fixing c
    cinv = G.inverse[c]
    comm = G.table[G.table[G.inverse, G.inverse[cinv]], G.table[idx, cinv]]  # [x, c^-1]
    rhs1 = bool((comm == idx).all())
    rhs2 = bool(G.center_mask[G.table[c, c]])
    parts = []
    for i in range(1, 5):
        Q = _quandle(G, f"p{i}", c)
        parts.append(
            _per_map_iff(
                f"{tid}/P{i}-fixing-aut-anti-iff",
                inputs,
                _laws(Q, a_stack)[1],
                rhs1,
                notes="phi with phi(c) = c reverses P_i iff x = [x, c^-1] for all x",
            )
        )
        parts.append(
            _forward(
                f"{tid}/P{i}-fixing-aaut-auto-implication", inputs,
                _laws(Q, aa_stack)[0], aa_stack, rhs2,
                "psi with psi(c) = c preserving P_i forces c^2 central "
                "(forward direction; the reverse fails e.g. on S3 with a transposition)",
            )
        )
    return combine(tid, inputs, "iff", parts)


# --- dispatch and census ---


def _transportable(v: Verdict) -> bool:
    """Whether a verdict may stand for its orbit: every node holds, none is skipped or carries a witness or counterexample."""
    return all(n.holds and not n.skipped and n.witness is None and n.counterexample is None for n in v.walk())


def _transported(v: Verdict, inputs: str, via: dict) -> Verdict:
    """A copy of v with ``inputs`` on every node whose inputs are v's, and ``via`` on the top node.

    A subtree with nothing to rewrite, such as f-structure's group-level iso
    part, is shared with v, as the checks share it among their own verdicts.
    """

    def moved(node: Verdict) -> Verdict:  # field by field: dataclasses.replace costs three times as much
        parts = [moved(part) for part in node.parts]
        if node.inputs != v.inputs and all(new is old for new, old in zip(parts, node.parts)):
            return node
        return Verdict(**{**vars(node), "inputs": inputs if node.inputs == v.inputs else node.inputs,
                          "parts": parts})

    top = moved(v)
    top.via = via
    return top


def _per_orbit(
    G: FiniteGroup, family: str, params: list,
    decide: Callable[[list], List[Verdict]], inputs: Callable[[FiniteGroup, object], str],
) -> List[Verdict]:
    """One verdict per parameter of a full sweep, one representative per Aut(G)-orbit decided.

    The parameters are the rows of Aut(G) ("aut") or AAut(G) ("aaut"), or
    G's elements ("point"), in order; ``decide`` takes a list of them and
    ``inputs`` gives one's inputs string.
    Each theta in Aut(G) is an isomorphism Alex(G, phi) -> Alex(G, theta
    phi theta^-1), Q_i(G, psi) -> Q_i(G, theta psi theta^-1) and P_i(G, c)
    -> P_i(G, theta(c)), so a verdict whose every node holds, with no skip,
    witness or counterexample, holds across its orbit
    (``groupmaps._orbits``).  Each other member gets a copy with its own
    inputs and ``via``: the representative's index and the conjugator's row
    of Aut(G).  The members of every other orbit are decided directly, so
    each counterexample and skip note is the member's own.
    """
    orbits = _orbits(G, family)
    pairs = list(zip(orbits.rep.tolist(), orbits.theta.tolist()))
    reps = [j for j, (r, _) in enumerate(pairs) if j == r]
    out = dict(zip(reps, decide([params[r] for r in reps])))
    movable = {r: _transportable(out[r]) for r in reps}
    direct = [j for j, (r, _) in enumerate(pairs) if j != r and not movable[r]]
    for j, (r, t) in enumerate(pairs):
        if j != r and movable[r]:
            out[j] = _transported(out[r], inputs(G, params[j]), {"index": r, "conjugator": t})
    if direct:
        out.update(zip(direct, decide([params[j] for j in direct])))
    return [out[j] for j in range(len(params))]


@dataclass(frozen=True)
class _Sweep:
    """The parameters of one ``run_check`` call; each one left unset sweeps its range."""

    theorem_id: str
    group: Optional[FiniteGroup]
    m: Optional[int]
    n: Optional[int]
    c: Optional[int]
    phi_index: Optional[int]
    psi_index: Optional[int]

    @property
    def G(self) -> FiniteGroup:
        if self.group is None:
            raise ConstructionSpecError(f"{self.theorem_id} needs a group")
        return self.group

    @property
    def ms(self) -> List[int]:
        return [self.m] if self.m is not None else list(M_RANGE)

    @property
    def ns(self) -> List[int]:
        return [self.n] if self.n is not None else list(range(3, 11))

    def _rows(self, family: str, index: Optional[int], param: str) -> List[np.ndarray]:
        """The int64 image rows of Aut(G) or AAut(G), all in order or only the one at ``index``."""
        if index is None:
            # The public list: the census's one call into perfbench's traced groupmaps.aut layer.
            return [cm.images for cm in (enumerate_aut(self.G) if family == "aut" else enumerate_aaut(self.G))]
        stack = getattr(_auts(self.G), family)
        return [stack[_in_range(param, index, len(stack))].astype(np.int64)]

    @cached_property
    def phis(self) -> List[np.ndarray]:
        return self._rows("aut", self.phi_index, "phi")

    @cached_property
    def psis(self) -> List[np.ndarray]:
        return self._rows("aaut", self.psi_index, "psi")

    @property
    def cs(self) -> List[int]:
        return list(range(self.G.n)) if self.c is None else [_in_range("c", self.c, self.G.n)]

    # family -> the index parameter that names one of its members, and the members swept
    _FAMILIES = MappingProxyType({"aut": ("phi_index", "phis"), "aaut": ("psi_index", "psis"), "point": ("c", "cs")})

    def over(
        self, family: str, decide: Callable[[list], List[Verdict]],
        inputs: Callable[[FiniteGroup, object], str],
    ) -> List[Verdict]:
        """``decide`` on the family's parameters: directly at a given index, per Aut(G)-orbit (``_per_orbit``) on a full sweep."""
        index, params = (getattr(self, name) for name in self._FAMILIES[family])
        if index is not None:
            return decide(params)
        return _per_orbit(self.G, family, params, decide, inputs)


class _Check(NamedTuple):
    """The ``run_check`` parameters a check reads, space-separated, and its sweep over them."""

    reads: str
    sweep: Callable[[_Sweep], List[Verdict]]


def _q_family(s: _Sweep) -> List[Verdict]:
    """Q1 at each phi, then Q2, Q3 and Q4 at each psi."""
    q1 = s.over("aut", lambda phis: [check_Qi(s.G, 1, phi) for phi in phis], lambda G, phi: _q_inputs(G, 1, phi))
    by_i = [s.over("aaut", lambda psis, i=i: [check_Qi(s.G, i, psi) for psi in psis],
                   lambda G, psi, i=i: _q_inputs(G, i, psi)) for i in (2, 3, 4)]
    return q1 + [v for per_psi in zip(*by_i) for v in per_psi]


# Check id -> its sweep, read-only.  The order is the census order; only
# dihedral-no-anti reads no group.  The six per-parameter sweeps go through
# ``_Sweep.over``.
_SWEEPS: Mapping[str, _Check] = MappingProxyType({
    "conj-semidirect": _Check("group m", lambda s: [check_conj_semidirect(s.G, m) for m in s.ms]),
    "conj-out": _Check("group", lambda s: [check_conj_out(s.G)]),
    "conj-aaut": _Check("group m", lambda s: [check_conj_aaut_intersection(s.G, m) for m in s.ms]),
    "conj-no-anti": _Check("group m", lambda s: [check_conj_no_anti(s.G, m) for m in s.ms]),
    "alex": _Check("group phi_index", lambda s: s.over(
        "aut", lambda phis: [check_alex(s.G, phi) for phi in phis], _phi_inputs)),
    "alex-semidirect": _Check("group phi_index", lambda s: s.over(
        "aut", lambda phis: [check_alex_semidirect(s.G, phi) for phi in phis], _phi_inputs)),
    "f-structure": _Check("group phi_index", lambda s: s.over(
        "aut", lambda phis: check_F_props(s.G, phis), _phi_inputs)),
    "core": _Check("group", lambda s: [check_core(s.G)]),
    "core-corollaries": _Check("group", lambda s: [check_core_corollaries(s.G)]),
    "dihedral-no-anti": _Check("n", lambda s: [check_dihedral_no_anti(k) for k in s.ns]),
    "core-semidirect": _Check("group", lambda s: [check_core_semidirect(s.G)]),
    "core-abelian-aut": _Check("group", lambda s: [check_core_abelian_full(s.G)]),
    "q-family": _Check("group phi_index psi_index", _q_family),
    "p-family-aut": _Check("group c", lambda s: s.over(
        "point", lambda cs: [check_Pi_aut(s.G, c) for c in cs], _c_inputs)),
    "p-family-anti": _Check("group c", lambda s: s.over(
        "point", lambda cs: [check_Pi_anti(s.G, c) for c in cs], _c_inputs)),
})

CHECK_IDS = tuple(_SWEEPS)


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
    """Run one named check, sweeping any parameter left unspecified.

    A parameter that the check does not read is a spec error.
    """
    if theorem_id not in _SWEEPS:
        raise ConstructionSpecError(
            f"unknown theorem id {theorem_id!r}; known: {', '.join(CHECK_IDS)}"
        )
    reads, sweep = _SWEEPS[theorem_id]
    given = {"group": G, "m": m, "n": n, "c": c, "phi_index": phi_index, "psi_index": psi_index}
    _reject_unread(theorem_id, given, reads)
    return sweep(_Sweep(theorem_id, G, m, n, c, phi_index, psi_index))


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
        try:
            for theorem_id in CHECK_IDS:
                if theorem_id != "dihedral-no-anti":
                    guarded(theorem_id, G)
        finally:
            G._store.clear()  # the group's quandles, centralizers and part clauses
    return report_json([g.name for g in groups], verdicts)

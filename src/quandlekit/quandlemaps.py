"""Quandle morphism enumeration and group structure of map sets.

One engine, ``groupmaps._table_isos``, enumerates the bijections f with
f(x *1 y) = f(x) *2 f(y) between two tables; automorphisms are the case
t1 = t2 = op, antiautomorphisms the case t2 = op transposed.  It branches
only on the images of t1's greedy generators, filtered by a per-point
profile every isomorphism preserves, and derives the rest of each map
through the target table, a chunk of partial maps at a time.  One depth
first walk over those chunks serves full enumeration and the first hit, so
``are_isomorphic`` returns the lexicographically least isomorphism without
enumerating the rest.  Each quandle keeps its search plan (profiles,
generator levels and index blocks, ``groupmaps._SearchPlan``), which its
automorphisms, antiautomorphisms and isomorphisms from it all read, its
enumerations, one per kind, and its inner automorphism group Inn(Q) as
read-only sorted compact stacks in its store, and builds no ``QuandleMap``
but in the public enumerators.  Those sets, the closures and the Inn/Out
report are keyed by whole rows; ``semidirect_verify`` admits only maps of
Hol(G), keys them by their images on ``G.hol_base`` and keeps what it
decides without Q in G's store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import config
from .errors import CapExceeded, CarrierMismatch
from .groupmaps import (
    ClassifiedMap,
    PointMap,
    _SearchPlan,
    _bijective_mask,
    _hol_generators,
    _hol_keys,
    _hol_mask,
    _in_sorted,
    _is_map_group,
    _keys,
    _oracle_rows,
    _point_maps,
    _right_closure_size,
    _stack_of,
    _table_isos,
    _unique_rows,
    closure_of_point_maps,
    preserves_table,
    preserving_mask,
    reverses_table,
)
from .groups import FiniteGroup, _distinct, _stored
from .quandles import Quandle, inn_group

__all__ = [
    "QuandleMap",
    "SemidirectReport",
    "is_quandle_auto",
    "is_quandle_anti",
    "enumerate_quandle_auts",
    "enumerate_quandle_antis",
    "quandle_aut_oracle",
    "quandle_anti_oracle",
    "find_table_iso",
    "induced",
    "closure_group",
    "semidirect_verify",
    "inn_out_report",
]


@dataclass(frozen=True)
class QuandleMap:
    map: PointMap
    kind: str  # "automorphism" | "antiautomorphism"
    quandle: Quandle

    @property
    def images(self) -> np.ndarray:
        return self.map.images

    def __lt__(self, other: "QuandleMap") -> bool:
        return self.map < other.map

    def to_json(self) -> dict:
        return {"images": [int(v) for v in self.images], "kind": self.kind}


def is_quandle_auto(Q: Quandle, pm: PointMap) -> bool:
    if pm.n != Q.n:
        raise CarrierMismatch(Q.n, pm.n)
    return preserves_table(Q.op, pm.images)


def is_quandle_anti(Q: Quandle, pm: PointMap) -> bool:
    if pm.n != Q.n:
        raise CarrierMismatch(Q.n, pm.n)
    return reverses_table(Q.op, pm.images)


# --- enumeration through the table isomorphism engine ---


def find_table_iso(t1: np.ndarray, t2: np.ndarray) -> Optional[np.ndarray]:
    """Lexicographically least table isomorphism, or None."""
    if t1.shape != t2.shape:
        return None
    return _least(_table_isos(np.asarray(t1), np.asarray(t2), first_only=True))


def _least(hits: np.ndarray) -> Optional[np.ndarray]:
    return hits[0].astype(np.int64) if len(hits) else None


def _plan(Q: Quandle) -> _SearchPlan:
    """Q's search plan, built once and kept in Q's store."""
    return _stored(Q, ("plan",), lambda: _SearchPlan(Q.op))


def _quandle_iso(Q1: Quandle, Q2: Quandle) -> Optional[np.ndarray]:
    """The lexicographically least isomorphism Q1 -> Q2 as images, or None, on Q1's plan."""
    if Q1.n != Q2.n:
        return None
    return _least(_table_isos(Q1.op, Q2.op, first_only=True, plan=_plan(Q1)))


def _is_trivial_table(op: np.ndarray) -> bool:
    return bool((op == np.arange(op.shape[0])[:, None]).all())


def _enumerate(Q: Quandle, kind: str) -> np.ndarray:
    """The maps of one kind on Q as a read-only sorted stack, enumerated once and kept in Q's store."""
    return _stored(Q, (kind,), lambda: _search(Q, kind))


def _search(Q: Quandle, kind: str) -> np.ndarray:
    if Q.n > config.MAX_QUANDLE_ENUM_ORDER:
        raise CapExceeded("quandle map enumeration", Q.n, config.MAX_QUANDLE_ENUM_ORDER)
    if kind == "automorphism":
        if _is_trivial_table(Q.op) and Q.n > config.MAX_ORACLE_ORDER:
            # Aut(T_n) is all of Sym(n); materializing n! maps is refused.
            raise CapExceeded("trivial-quandle automorphisms", Q.n, config.MAX_ORACLE_ORDER)
        target = Q.op
    else:
        target = np.ascontiguousarray(Q.op.T)
    return _read_only(_table_isos(Q.op, target, plan=_plan(Q)))


def _read_only(stack: np.ndarray) -> np.ndarray:
    stack.setflags(write=False)
    return stack


def _inn_stack(Q: Quandle) -> np.ndarray:
    """Inn(Q) as a read-only sorted compact stack, built once and kept in Q's store."""
    return _stored(Q, ("inner",), lambda: _read_only(_stack_of(inn_group(Q))))


def enumerate_quandle_auts(Q: Quandle) -> List[QuandleMap]:
    """Complete Aut(Q), lexicographically sorted."""
    return [QuandleMap(pm, "automorphism", Q) for pm in _point_maps(_enumerate(Q, "automorphism"))]


def enumerate_quandle_antis(Q: Quandle) -> List[QuandleMap]:
    """Complete set of antiautomorphisms of Q, lexicographically sorted."""
    return [QuandleMap(pm, "antiautomorphism", Q) for pm in _point_maps(_enumerate(Q, "antiautomorphism"))]


def quandle_aut_oracle(Q: Quandle) -> List[QuandleMap]:
    """Aut(Q) by scanning all n! bijections."""
    return [QuandleMap(PointMap(r), "automorphism", Q) for r in _oracle_rows(Q.op, False)]


def quandle_anti_oracle(Q: Quandle) -> List[QuandleMap]:
    """Antiautomorphisms of Q by scanning all n! bijections."""
    return [QuandleMap(PointMap(r), "antiautomorphism", Q) for r in _oracle_rows(Q.op, True)]


def induced(Q: Quandle, gmap: ClassifiedMap, target: str) -> bool:
    """Whether a group map, read as a point map, is an auto/anti of Q."""
    if gmap.map.n != Q.n:
        raise CarrierMismatch(Q.n, gmap.map.n)
    if target in ("auto", "automorphism"):
        return is_quandle_auto(Q, gmap.map)
    if target in ("anti", "antiautomorphism"):
        return is_quandle_anti(Q, gmap.map)
    raise ValueError(f"unknown target {target!r}")


# --- group structure of map sets ---


def closure_group(maps: Sequence[PointMap]):
    """Closure under composition/inverse plus its abstract group table."""
    closed = closure_of_point_maps(maps)
    arr = _stack_of(closed)
    keys = _keys(arr)  # ascending: the closure comes back sorted
    composed = _keys(arr[:, arr].reshape(-1, arr.shape[1]))  # [i, j] = m_i o m_j
    if not _in_sorted(composed, keys).all():
        raise AssertionError("closure is not closed under composition; engine bug")
    table = np.searchsorted(keys, composed).reshape(len(closed), len(closed))
    return closed, FiniteGroup(table, name=f"maps<{len(closed)}>")


@dataclass(frozen=True)
class SemidirectReport:
    normal_part_size: int
    complement_size: int
    intersection_trivial: bool
    closure_size: int
    verdict: bool
    failing_clause: Optional[str] = None
    # Always "materialized": the closure is counted on the |N| * |C| products
    # P and on P o T, for a generating set T of N, which are built and
    # deduped.  The field stays so that the report's JSON, the census notes'
    # "(materialized)" suffix and perfbench's per-mode counters keep their
    # keys.
    mode: str = "materialized"

    def to_json(self) -> dict:
        return {
            "normal_part_size": self.normal_part_size,
            "complement_size": self.complement_size,
            "intersection_trivial": self.intersection_trivial,
            "closure_size": self.closure_size,
            "verdict": self.verdict,
            "failing_clause": self.failing_clause,
            "mode": self.mode,
        }


def semidirect_verify(
    normal: np.ndarray, complement: np.ndarray, Q: Quandle, G: FiniteGroup
) -> SemidirectReport:
    """Check that two map sets of Hol(G) realise an inner semidirect product in Aut(Q).

    Each set is an (m, n) image array on G's carrier; a repeated row counts
    once.  Clauses: every member is a bijection that preserves Q; every
    member lies in Hol(G) (``groupmaps._hol_mask``); each set is a group;
    the complement normalizes the normal part; the intersection is trivial;
    the closure of the union has exactly |N| * |C| elements.  Past the
    membership clauses every map is read on B = ``G.hol_base`` only and
    keyed there (``groupmaps._hol_keys``).  The normalizer and closure
    clauses read a generating set T of N, found greedily once per normal
    part (``groupmaps._hol_generators``, at most log2 |N| maps): C
    normalizes N exactly when c o t o c^-1 lies in N for every c in C and t
    in T, as conjugation by c is a homomorphism.  The last clause is decided
    on the set P of the n o c products once they are |N| * |C| distinct
    maps.  P holds the identity and P o C = P, as C is a group, so P is the
    closure exactly when P o T lies in P (``groupmaps._right_closure_size``):
    then P o N lies in P, N being generated by T.  The reported closure size
    is then |P|, and otherwise a lower bound: the distinct maps in P and
    P o T.

    Given that both parts are groups, that the intersection is trivial and
    that C normalizes N, the distinct-products and closure clauses follow.
    They are kept as independent cross-checks of the engine.

    The preserving masks are the only clause that reads Q; this function
    takes them itself.  The rest is kept in G's store
    (``FiniteGroup._store``): per part, whether it is a bijective group of
    Hol(G) maps, keyed by its distinct rows as bytes; per normal part that
    passes, its sorted keys and T; per pair of parts that pass, the report
    of the clauses past membership, keyed by both.  So a part or a pair
    that several checks on one group share is tested once, and T is found
    once however many complements meet it.
    The harness hands in the masks its membership verdicts took
    (``_semidirect_verify``).
    """
    return _semidirect_verify(normal, complement, Q, G)


def _part_flaw(G: FiniteGroup, part: np.ndarray) -> Optional[str]:
    """The first membership clause that a part's distinct rows break without Q, or None."""
    if not _bijective_mask(part).all():
        return "contains a non-automorphism"
    if not _hol_mask(G, part).all():
        return "lies outside Hol(G)"
    if not _is_map_group(G, part):
        return "is not a group of maps"
    return None


def _semidirect_verify(
    normal: np.ndarray, complement: np.ndarray, Q: Quandle, G: FiniteGroup,
    masks: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> SemidirectReport:
    """``semidirect_verify``, given the preserving masks of Q over the rows of both parts, if taken."""
    if Q.n != G.n:
        raise CarrierMismatch(G.n, Q.n)
    N = _unique_rows(normal)
    C = _unique_rows(complement)
    if N.size == 0 or C.size == 0:
        return _failed(N, C, "a part is empty")
    keys = N.tobytes(), C.tobytes()  # one bytes object each, shared by the keys a call stores
    for i, (label, arr) in enumerate((("normal", N), ("complement", C))):
        preserved = (preserving_mask(Q.op, arr) if masks is None else masks[i]).all()
        flaw = (_stored(G, ("semidirect part", keys[i]), lambda: _part_flaw(G, arr))
                if preserved else "contains a non-automorphism")
        if flaw is not None:
            return _failed(N, C, f"{label} part {flaw}")

    def clauses() -> SemidirectReport:
        normal = _stored(G, ("semidirect normal", keys[0]), lambda: _hol_generators(G, N))
        return _product_clauses(G, N, C, *normal)

    return _stored(G, ("semidirect", *keys), clauses)


def _failed(
    N: np.ndarray, C: np.ndarray, clause: str, closure_size: int = 0, inter: bool = False
) -> SemidirectReport:
    return SemidirectReport(len(N), len(C), inter, closure_size, False, clause)


def _product_clauses(
    G: FiniteGroup, N: np.ndarray, C: np.ndarray, nkeys: np.ndarray, gens: np.ndarray
) -> SemidirectReport:
    """The clauses past membership, on two distinct groups of Hol(G) maps: none reads Q.

    ``nkeys`` are N's ascending Hol(G) keys and ``gens`` a generating set T
    of N (``groupmaps._hol_generators``).  Conjugation by c is a
    homomorphism, so c N c^-1 lies in N once c T c^-1 does; and P o N lies
    in P once P o t does for every t in T.  Both group clauses read T only.
    """
    base = G.hol_base
    ckeys = _hol_keys(G, C[:, base])
    cinv = np.argsort(C, axis=1)
    # [i, j] = c_j o t_i o c_j^-1 on B, for t_i in T and c_j in C
    conjugated = C[np.arange(len(C))[:, None], gens[:, cinv[:, base]]]
    if not _in_sorted(_hol_keys(G, conjugated).ravel(), nkeys).all():
        return _failed(N, C, "complement does not normalize the normal part")

    inter = ckeys[_in_sorted(ckeys, nkeys)]
    if not (inter == _hol_keys(G, base[None, :])).all():
        return _failed(N, C, "intersection is not trivial", inter=False)

    # f o c for all pairs, on B
    distinct = len(_distinct(_hol_keys(G, N[:, C[:, base]]).ravel()))
    expected = len(N) * len(C)
    if distinct != expected:
        return _failed(N, C, "n o c products collide", closure_size=distinct, inter=True)

    closure_size = _right_closure_size(G, N[:, C].reshape(-1, G.n), gens)
    verdict = closure_size == expected
    return SemidirectReport(
        len(N),
        len(C),
        True,
        closure_size,
        verdict,
        None if verdict else "closure size differs from |N| * |C|",
    )


def inn_out_report(Q: Quandle) -> Tuple[int, int, int]:
    """(inn size, aut size, out index), with Inn normal in Aut verified."""
    inner = _inn_stack(Q)
    auts = _enumerate(Q, "automorphism")
    inn_keys = _keys(inner)  # ascending and distinct: the closure comes back sorted
    if not _in_sorted(inn_keys, _keys(auts)).all():  # the enumeration is sorted
        raise AssertionError("Inn(Q) escaped Aut(Q); engine bug")
    # [j, i] = a_j o s_i o a_j^-1 for every automorphism a_j and inner map s_i
    ainv = np.argsort(auts, axis=1)
    conjugated = auts[np.arange(len(auts))[:, None, None], inner[:, ainv].transpose(1, 0, 2)]
    if not _in_sorted(_keys(conjugated.reshape(-1, Q.n)), inn_keys).all():
        raise AssertionError("Inn(Q) is not normal in Aut(Q); engine bug")
    if len(auts) % len(inner) != 0:
        raise AssertionError("|Aut| not divisible by |Inn|")
    return len(inner), len(auts), len(auts) // len(inner)

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
enumerations, one per kind, as a sorted compact stack together with
read-only ``QuandleMap`` objects, and its inner automorphism group Inn(Q)
as a sorted compact stack.  Those sets, the closures and the Inn/Out
report are keyed by whole rows; ``semidirect_verify`` admits only maps of
Hol(G) and keys them by their images on ``G.hol_base``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import config
from .errors import CapExceeded, CarrierMismatch
from .groupmaps import (
    ClassifiedMap,
    PointMap,
    _SearchPlan,
    _bijective_mask,
    _hol_keys,
    _hol_mask,
    _in_sorted,
    _is_map_group,
    _keys,
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
from .groups import FiniteGroup, _distinct
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
    """Q's search plan, built once and kept in ``Q._maps``."""
    if "plan" not in Q._maps:
        Q._maps["plan"] = _SearchPlan(Q.op)
    return Q._maps["plan"]


def _quandle_iso(Q1: Quandle, Q2: Quandle) -> Optional[np.ndarray]:
    """The lexicographically least isomorphism Q1 -> Q2 as images, or None, on Q1's plan."""
    if Q1.n != Q2.n:
        return None
    return _least(_table_isos(Q1.op, Q2.op, first_only=True, plan=_plan(Q1)))


def _is_trivial_table(op: np.ndarray) -> bool:
    return bool((op == np.arange(op.shape[0])[:, None]).all())


class _Enumerated(NamedTuple):
    """Aut(Q) or the antiautomorphisms of Q: the sorted stack and its maps."""

    stack: np.ndarray
    maps: Tuple[QuandleMap, ...]


def _enumerate(Q: Quandle, kind: str) -> _Enumerated:
    """The maps of one kind on Q, enumerated once and kept in ``Q._maps``."""
    if kind not in Q._maps:
        if Q.n > config.MAX_QUANDLE_ENUM_ORDER:
            raise CapExceeded("quandle map enumeration", Q.n, config.MAX_QUANDLE_ENUM_ORDER)
        if kind == "automorphism":
            if _is_trivial_table(Q.op) and Q.n > config.MAX_ORACLE_ORDER:
                # Aut(T_n) is all of Sym(n); materializing n! maps is refused.
                raise CapExceeded("trivial-quandle automorphisms", Q.n, config.MAX_ORACLE_ORDER)
            target = Q.op
        else:
            target = np.ascontiguousarray(Q.op.T)
        stack = _table_isos(Q.op, target, plan=_plan(Q))
        stack.setflags(write=False)
        maps = tuple(QuandleMap(pm, kind, Q) for pm in _point_maps(stack))
        Q._maps[kind] = _Enumerated(stack, maps)
    return Q._maps[kind]


def _inn_stack(Q: Quandle) -> np.ndarray:
    """Inn(Q) as a sorted compact stack, built once and kept in ``Q._maps``."""
    if "inner" not in Q._maps:
        stack = _stack_of(inn_group(Q))
        stack.setflags(write=False)
        Q._maps["inner"] = stack
    return Q._maps["inner"]


def enumerate_quandle_auts(Q: Quandle) -> List[QuandleMap]:
    """Complete Aut(Q), lexicographically sorted."""
    return list(_enumerate(Q, "automorphism").maps)


def enumerate_quandle_antis(Q: Quandle) -> List[QuandleMap]:
    """Complete set of antiautomorphisms of Q, lexicographically sorted."""
    return list(_enumerate(Q, "antiautomorphism").maps)


def _oracle_rows(op: np.ndarray, reverse: bool) -> List[Tuple[int, ...]]:
    n = op.shape[0]
    if n > config.MAX_ORACLE_ORDER:
        raise CapExceeded("quandle map oracle", n, config.MAX_ORACLE_ORDER)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    lhs = perms[:, op]
    rhs = op[perms[:, :, None], perms[:, None, :]]
    if reverse:
        rhs = rhs.transpose(0, 2, 1)
    keep = (lhs == rhs).all(axis=(1, 2))
    return [tuple(map(int, row)) for row in perms[keep]]


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
    closed = closure_of_point_maps(maps, cap=config.MAX_CLOSURE_SIZE)
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
    # "materialized": the closure was decided on the |N| * |C| products, which
    # are built and looked up; "certified": past MAX_SEMIDIRECT_BFS, it follows
    # from the other clauses and the distinctness of the products alone.
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
    keyed there (``groupmaps._hol_keys``).  The last clause is decided on
    the set P of the n o c products once they are |N| * |C| distinct maps.
    P holds the identity and P o C = P, as C is a group, so P is the
    closure exactly when P o N lies in P (``groupmaps._right_closure_size``).
    The reported closure size is then |P|, and otherwise a lower bound: the
    distinct maps in P and P o N.  Past MAX_SEMIDIRECT_BFS products the size
    is certified from the other clauses and the distinctness of the
    products, with no lookup.
    """
    if Q.n != G.n:
        raise CarrierMismatch(G.n, Q.n)
    N = _unique_rows(normal)
    C = _unique_rows(complement)
    n = Q.n

    def fail(clause: str, closure_size: int = 0, inter: bool = False) -> SemidirectReport:
        return SemidirectReport(len(N), len(C), inter, closure_size, False, clause)

    if N.size == 0 or C.size == 0:
        return fail("a part is empty")
    for label, arr in (("normal", N), ("complement", C)):
        if not (_bijective_mask(arr) & preserving_mask(Q.op, arr)).all():
            return fail(f"{label} part contains a non-automorphism")
        if not _hol_mask(G, arr).all():
            return fail(f"{label} part lies outside Hol(G)")
        if not _is_map_group(G, arr):
            return fail(f"{label} part is not a group of maps")

    base = G.hol_base
    nkeys = _distinct(_hol_keys(G, N[:, base]))
    ckeys = _hol_keys(G, C[:, base])
    cinv = np.argsort(C, axis=1)
    # [i, j] = c_j o f_i o c_j^-1 on B, for f_i in N and c_j in C
    conjugated = C[np.arange(len(C))[:, None], N[:, cinv[:, base]]]
    if not _in_sorted(_hol_keys(G, conjugated).ravel(), nkeys).all():
        return fail("complement does not normalize the normal part")

    inter = ckeys[_in_sorted(ckeys, nkeys)]
    if not (inter == _hol_keys(G, base[None, :])).all():
        return fail("intersection is not trivial", inter=False)

    # f o c for all pairs, on B
    distinct = len(_distinct(_hol_keys(G, N[:, C[:, base]]).ravel()))
    expected = len(N) * len(C)
    if distinct != expected:
        return fail("n o c products collide", closure_size=distinct, inter=True)

    if expected <= config.MAX_SEMIDIRECT_BFS:
        closure_size = _right_closure_size(G, N[:, C].reshape(-1, n), N)
        mode = "materialized"
    else:
        closure_size = expected
        mode = "certified"
    verdict = closure_size == expected
    return SemidirectReport(
        len(N),
        len(C),
        True,
        closure_size,
        verdict,
        None if verdict else "closure size differs from |N| * |C|",
        mode,
    )


def inn_out_report(Q: Quandle) -> Tuple[int, int, int]:
    """(inn size, aut size, out index), with Inn normal in Aut verified."""
    inner = _inn_stack(Q)
    auts = _enumerate(Q, "automorphism").stack
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

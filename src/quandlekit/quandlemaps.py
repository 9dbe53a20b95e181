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
generator levels and their index blocks, ``groupmaps._SearchPlan``),
which its automorphisms, antiautomorphisms and isomorphisms from it all
read, its inner automorphism group Inn(Q), a read-only sorted compact
stack, and the law masks of each stack asked about (``_laws``, their only
keeper) in its store.  An enumeration is not kept: each call searches
again on the kept plan, as no caller reads one enumeration twice.  No
``QuandleMap`` is built but in the public enumerators.  Those sets, the
closures and the Inn/Out report are keyed by whole rows;
``semidirect_verify`` admits only maps of Hol(G), keys them by their
images on ``G.hol_base`` and keeps what it decides without Q in G's store.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import config
from .errors import CapExceeded, CarrierMismatch, NotBijective
from .groupmaps import (
    ClassifiedMap,
    PointMap,
    _SearchPlan,
    _bijective_mask,
    _compact,
    _hol_generators,
    _hol_keys,
    _hol_mask,
    _in_sorted,
    _is_map_group,
    _keys,
    _law_masks,
    _oracle_rows,
    _product_counts,
    _stack_of,
    _table_isos,
    _unique_rows,
    closure_of_point_maps,
    preserves_table,
    reverses_table,
)
from .groups import FiniteGroup, _closed_table, _stored
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


@dataclass(frozen=True, slots=True)
class QuandleMap:
    """A map of a quandle's carrier with the law it obeys on that quandle.

    Slotted: an instance has no ``__dict__``, only its three fields.  The
    public enumerators fill those fields in one pass (``_quandle_maps``);
    every other maker goes through the constructor.
    """

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


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# ``slots=True`` builds a second class, and the frozen methods dataclass
# generates still name the first, so with Python 3.11 any name but a field's
# raised TypeError from ``super()``.  These raise FrozenInstanceError for
# every name, as a frozen dataclass without slots does.
QuandleMap.__setattr__ = _frozen_setattr
QuandleMap.__delattr__ = _frozen_delattr


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
    """Lexicographically least table isomorphism, or None; each table square, of integers in 0..n-1."""
    t1, t2 = _closed_table(t1), _closed_table(t2)
    if t1.shape != t2.shape:
        return None
    return _least(_table_isos(t1, t2, first_only=True))


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
    """The maps of one kind on Q as a sorted stack, searched anew at each call on Q's stored plan."""
    if Q.n > config.MAX_QUANDLE_ENUM_ORDER:
        raise CapExceeded("quandle map enumeration", Q.n, config.MAX_QUANDLE_ENUM_ORDER)
    if kind == "automorphism":
        if _is_trivial_table(Q.op) and Q.n > config.MAX_ORACLE_ORDER:
            # Aut(T_n) is all of Sym(n); materializing n! maps is refused.
            raise CapExceeded("trivial-quandle automorphisms", Q.n, config.MAX_ORACLE_ORDER)
        target = Q.op
    else:
        target = np.ascontiguousarray(Q.op.T)
    return _table_isos(Q.op, target, plan=_plan(Q))


def _read_only(stack: np.ndarray) -> np.ndarray:
    stack.setflags(write=False)
    return stack


def _inn_stack(Q: Quandle) -> np.ndarray:
    """Inn(Q) as a read-only sorted compact stack, built once and kept in Q's store."""
    return _stored(Q, ("inner",), lambda: _read_only(_stack_of(inn_group(Q))))


def _laws(Q: Quandle, stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Which rows of a stack preserve Q's table and which reverse it, from Q's store.

    One ``_law_masks`` gather pair per distinct stack: the key is the
    stack's compact bytes and shape, so a stack of another integer type or
    layout reads the same pair.  The masks are read-only.
    """
    rows = _compact(stack)
    return _stored(Q, ("laws", rows.shape, rows.tobytes()), lambda: tuple(map(_read_only, _law_masks(Q.op, rows))))


_FIELDS = tuple(QuandleMap.__dict__[name].__set__ for name in ("map", "kind", "quandle"))


def _quandle_maps(Q: Quandle, kind: str) -> List[QuandleMap]:
    """The maps of one kind on Q (``_enumerate``), built in one pass over their rows.

    Each row becomes a PointMap as in ``groupmaps._point_maps``, with no
    bijection check, and each QuandleMap gets its three fields through the
    class's slot descriptors, so neither ``__init__`` nor the frozen
    ``__setattr__`` runs.  The rows are read-only views of one int64 copy
    of the stack.
    """
    rows = _enumerate(Q, kind).astype(np.int64)
    rows.setflags(write=False)
    set_map, set_kind, set_quandle = _FIELDS
    out = []
    for row in rows:
        pm = PointMap.__new__(PointMap)
        pm.images = row
        qm = object.__new__(QuandleMap)
        set_map(qm, pm)
        set_kind(qm, kind)
        set_quandle(qm, Q)
        out.append(qm)
    return out


def enumerate_quandle_auts(Q: Quandle) -> List[QuandleMap]:
    """Complete Aut(Q), lexicographically sorted."""
    return _quandle_maps(Q, "automorphism")


def enumerate_quandle_antis(Q: Quandle) -> List[QuandleMap]:
    """Complete set of antiautomorphisms of Q, lexicographically sorted."""
    return _quandle_maps(Q, "antiautomorphism")


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
    once, and a row of another width or with an image outside the carrier
    raises.  Clauses: every member is a bijection that preserves Q; every
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
    closure exactly when P o T lies in P (``groupmaps._product_counts``):
    then P o N lies in P, N being generated by T.  The reported closure size
    is then |P|, and otherwise a lower bound: the distinct maps in P and
    P o T.

    Given that both parts are groups, that the intersection is trivial and
    that C normalizes N, the distinct-products and closure clauses follow.
    They are kept as independent cross-checks of the engine.

    Only the preserving clause reads Q, from the masks in Q's store
    (``_laws``): on all rows of the complement, and of a normal part that
    is not a group, so a part fails on its first broken clause; on T alone
    for a normal group, which preserves Q once its generators do.  The
    rest is kept in G's store (``FiniteGroup._store``): per part, whether
    it is a bijective group of Hol(G) maps, keyed by its distinct rows as
    bytes; per normal part that passes, its sorted keys and T; per pair of
    parts that pass, the report of the clauses past membership, keyed by
    both.  So a part or a pair that several checks on one group share is
    tested once, and T is found once however many complements meet it.
    """
    if Q.n != G.n:
        raise CarrierMismatch(G.n, Q.n)
    for rows in map(np.asarray, (normal, complement)):  # unsigned, a negative image is too large
        if rows.size and rows.shape[-1] != G.n:
            raise CarrierMismatch(G.n, rows.shape[-1])
        if rows.size and (rows.dtype.kind not in "iu" or rows.view(f"u{rows.itemsize}").max() >= G.n):
            rows = rows.reshape(-1, G.n)
            first = 0 if rows.dtype.kind not in "iu" else np.argmax(((rows < 0) | (rows >= G.n)).any(axis=1))
            raise NotBijective(rows[first].tolist())
    N = _unique_rows(normal)
    C = _unique_rows(complement)
    if N.size == 0 or C.size == 0:
        return _failed(N, C, "a part is empty")
    keys = N.tobytes(), C.tobytes()  # one bytes object each, shared by the keys a call stores
    flaws = [_stored(G, ("semidirect part", key), lambda: _part_flaw(G, part)) for key, part in zip(keys, (N, C))]
    gens = None if flaws[0] else _stored(G, ("semidirect normal", keys[0]), lambda: _hol_generators(G, N))
    reads = N if gens is None else gens[1], C  # a group of maps preserves Q once its generators do
    for label, read, flaw in zip(("normal", "complement"), reads, flaws):
        if not _laws(Q, read)[0].all():
            flaw = "contains a non-automorphism"
        if flaw is not None:
            return _failed(N, C, f"{label} part {flaw}")
    return _stored(G, ("semidirect", *keys), lambda: _product_clauses(G, N, C, *gens))


def _part_flaw(G: FiniteGroup, part: np.ndarray) -> Optional[str]:
    """The first membership clause that a part's distinct rows break without Q, or None."""
    if not _bijective_mask(part).all():
        return "contains a non-automorphism"
    if not _hol_mask(G, part).all():
        return "lies outside Hol(G)"
    if not _is_map_group(G, part):
        return "is not a group of maps"
    return None


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
    Both the products P = N o C and the closure are counted by
    ``groupmaps._product_counts``, from the keys of P, the identity's and
    those of P o T.
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

    distinct, closure_size = _product_counts(G, N, C, gens)
    expected = len(N) * len(C)
    if distinct != expected:
        return _failed(N, C, "n o c products collide", closure_size=distinct, inter=True)

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

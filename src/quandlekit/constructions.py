"""Group-to-quandle constructions.

Every constructor takes a validated group (plus parameters) and returns a
quandle on the same carrier, re-checking the axioms so that a failing
formula surfaces a concrete witness instead of a wrong table.  Each group
constructor is its map's law check, a private table entry (``_TABLES``)
that gives the raw op table, and ``Quandle(...)``.  Formulas:

    conj_m:  x*y = y^-m x y^m          core:   x*y = y x^-1 y
    R_n:     i*j = 2j - i (mod n)      alex:   x*y = phi(x y^-1) y
    q1:      x*y = y phi(y^-1 x)       q2:     x*y = y psi(y x^-1)
    q3:      x*y = psi(x y^-1) y       q4:     x*y = y psi(y^-1 x)
    p1:      x*y = y c^-1 y^-1 x c     p2:     x*y = y c^-1 x y^-1 c
    p3:      x*y = c^-1 y^-1 x c y     p4:     x*y = c^-1 x y^-1 c y

q1 needs a map satisfying the automorphism law, q2-q4 the antiautomorphism
law; q3/q4 additionally need x psi(y) x^-1 = psi(x y x^-1) for all x, y.
On abelian groups the two laws coincide, so either kind is accepted there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CompatibilityFail, ConstructionSpecError
from .groupmaps import (
    ANTIAUTOMORPHISM,
    AUTOMORPHISM,
    ClassifiedMap,
    _auts,
    _checked_images,
    _family_maps,
    _flat_table,
    _products,
)
from .groups import FiniteGroup
from .quandles import Quandle, trivial

__all__ = [
    "ConstructionSpec",
    "conj_m",
    "core",
    "dihedral_quandle",
    "alex",
    "q1",
    "q2",
    "q3",
    "q4",
    "p1",
    "p2",
    "p3",
    "p4",
    "build",
    "spec_from_string",
    "KINDS",
]


def _map_label(cm: ClassifiedMap) -> str:
    images = list(map(int, cm.images))
    if len(images) <= 10:
        return "[" + ",".join(map(str, images)) + "]"
    return "[" + ",".join(map(str, images[:6])) + f",...#{len(images)}]"


def _require_compatible(G: FiniteGroup, psi: np.ndarray) -> None:
    """x psi(y) x^-1 = psi(x y x^-1) for all x, y."""
    t, inv = G.table, G.inverse
    flat = _flat_table(t)
    lhs = _products(flat, G.n, t[:, psi], inv[:, None])  # [x, y] = x psi(y) x^-1
    rhs = psi[_products(flat, G.n, t, inv[:, None])]  # [x, y] = psi(x y x^-1)
    bad = lhs != rhs
    if bad.any():
        x, y = map(int, np.argwhere(bad)[0])
        raise CompatibilityFail(x, y)


# What each index parameter counts, as its range error names it.
_INDEXES = {"phi": "phi index into Aut(G)", "psi": "psi index into AAut(G)", "c": "c (an element of G)"}


def _in_range(param: str, index: int, size: int) -> int:
    """``index`` when it lies in 0..size-1; otherwise a spec error naming the parameter."""
    if not 0 <= index < size:
        raise ConstructionSpecError(f"{_INDEXES[param]} {index} is out of range 0..{size - 1}")
    return index


# --- the table entries ---
#
# Each group constructor's formula, as a function of G and m, c or a map's
# images that returns the raw op table [x, y] = x*y.  An entry keeps the
# construction's own preconditions (c in range, the q3/q4 compatibility) but
# not the map's law: the public constructors check that on G's table first,
# and the harness passes rows of the verified Aut(G)/AAut(G) stacks.


def _conj_m_table(G: FiniteGroup, m: int) -> np.ndarray:
    ym = G.power_all(m)
    return G.table[G.table[G.inverse[ym]], ym[:, None]].T  # [x, y] = y^-m x y^m


def _core_table(G: FiniteGroup) -> np.ndarray:
    return G.table[G.table[:, G.inverse], np.arange(G.n)[:, None]].T  # [x, y] = y x^-1 y


def _alex_table(G: FiniteGroup, phi: np.ndarray) -> np.ndarray:
    heads = phi[G.table[:, G.inverse]]  # [x, y] = phi(x y^-1)
    return G.table[heads, np.arange(G.n)[None, :]]


def _q1_table(G: FiniteGroup, phi: np.ndarray) -> np.ndarray:
    tails = phi[G.table[G.inverse]]  # [y, x] = phi(y^-1 x)
    return G.table[np.arange(G.n)[:, None], tails].T


def _q2_table(G: FiniteGroup, psi: np.ndarray) -> np.ndarray:
    tails = psi[G.table[:, G.inverse]]  # [y, x] = psi(y x^-1)
    return G.table[np.arange(G.n)[:, None], tails].T


def _q3_table(G: FiniteGroup, psi: np.ndarray) -> np.ndarray:
    _require_compatible(G, psi)
    return _alex_table(G, psi)  # x*y = psi(x y^-1) y, the Alexander formula


def _q4_table(G: FiniteGroup, psi: np.ndarray) -> np.ndarray:
    _require_compatible(G, psi)
    return _q1_table(G, psi)  # x*y = y psi(y^-1 x), the q1 formula


def _p1_table(G: FiniteGroup, c: int) -> np.ndarray:
    _in_range("c", c, G.n)
    t, inv = G.table, G.inverse
    prefix = t[t[np.arange(G.n), inv[c]], inv]  # y c^-1 y^-1
    return t[t[prefix], c].T


def _p2_table(G: FiniteGroup, c: int) -> np.ndarray:
    _in_range("c", c, G.n)
    t, inv = G.table, G.inverse
    prefix = t[np.arange(G.n), inv[c]]  # y c^-1
    suffix = t[inv, c]  # y^-1 c
    return t[t[prefix], suffix[:, None]].T


def _p3_table(G: FiniteGroup, c: int) -> np.ndarray:
    _in_range("c", c, G.n)
    t, inv = G.table, G.inverse
    prefix = t[inv[c], inv]  # c^-1 y^-1
    suffix = t[c, np.arange(G.n)]  # c y
    return t[t[prefix], suffix[:, None]].T


def _p4_table(G: FiniteGroup, c: int) -> np.ndarray:
    _in_range("c", c, G.n)
    t, inv = G.table, G.inverse
    heads = t[inv[c]]  # c^-1 x, indexed by x
    suffix = t[t[inv, c], np.arange(G.n)]  # y^-1 c y
    return t[np.ix_(heads, suffix)]


# Public constructor name -> its table entry.
_TABLES = {
    "conj_m": _conj_m_table, "core": _core_table, "alex": _alex_table,
    "q1": _q1_table, "q2": _q2_table, "q3": _q3_table, "q4": _q4_table,
    "p1": _p1_table, "p2": _p2_table, "p3": _p3_table, "p4": _p4_table,
}


# --- the public constructors: law gate, table entry, validated quandle ---


def conj_m(G: FiniteGroup, m: int) -> Quandle:
    """Conjugation quandle: x*y = y^-m x y^m."""
    return Quandle(_conj_m_table(G, m), name=f"Conj_{m}({G.name})")


def core(G: FiniteGroup) -> Quandle:
    """Core quandle: x*y = y x^-1 y."""
    return Quandle(_core_table(G), name=f"Core({G.name})")


def dihedral_quandle(n: int) -> Quandle:
    """R_n on 0..n-1: i*j = 2j - i (mod n)."""
    if n < 1:
        raise ConstructionSpecError("dihedral_quandle(n) needs n >= 1")
    idx = np.arange(n)
    return Quandle((2 * idx[None, :] - idx[:, None]) % n, name=f"R{n}")


def alex(G: FiniteGroup, phi: ClassifiedMap) -> Quandle:
    """Generalized Alexander quandle: x*y = phi(x y^-1) y."""
    op = _alex_table(G, _checked_images(G, phi, (AUTOMORPHISM,)))
    return Quandle(op, name=f"Alex({G.name},phi={_map_label(phi)})")


def q1(G: FiniteGroup, phi: ClassifiedMap) -> Quandle:
    """x*y = y phi(y^-1 x)."""
    op = _q1_table(G, _checked_images(G, phi, (AUTOMORPHISM,)))
    return Quandle(op, name=f"Q1({G.name},phi={_map_label(phi)})")


def q2(G: FiniteGroup, psi: ClassifiedMap) -> Quandle:
    """x*y = y psi(y x^-1)."""
    op = _q2_table(G, _checked_images(G, psi, (ANTIAUTOMORPHISM,)))
    return Quandle(op, name=f"Q2({G.name},psi={_map_label(psi)})")


def q3(G: FiniteGroup, psi: ClassifiedMap) -> Quandle:
    """x*y = psi(x y^-1) y, requiring the conjugation compatibility of psi."""
    op = _q3_table(G, _checked_images(G, psi, (ANTIAUTOMORPHISM,)))
    return Quandle(op, name=f"Q3({G.name},psi={_map_label(psi)})")


def q4(G: FiniteGroup, psi: ClassifiedMap) -> Quandle:
    """x*y = y psi(y^-1 x), requiring the conjugation compatibility of psi."""
    op = _q4_table(G, _checked_images(G, psi, (ANTIAUTOMORPHISM,)))
    return Quandle(op, name=f"Q4({G.name},psi={_map_label(psi)})")


def p1(G: FiniteGroup, c: int) -> Quandle:
    """x*y = y c^-1 y^-1 x c."""
    return Quandle(_p1_table(G, c), name=f"P1({G.name},c={c})")


def p2(G: FiniteGroup, c: int) -> Quandle:
    """x*y = y c^-1 x y^-1 c."""
    return Quandle(_p2_table(G, c), name=f"P2({G.name},c={c})")


def p3(G: FiniteGroup, c: int) -> Quandle:
    """x*y = c^-1 y^-1 x c y."""
    return Quandle(_p3_table(G, c), name=f"P3({G.name},c={c})")


def p4(G: FiniteGroup, c: int) -> Quandle:
    """x*y = c^-1 x y^-1 c y."""
    return Quandle(_p4_table(G, c), name=f"P4({G.name},c={c})")


KINDS = (
    "trivial",
    "dihedral",
    "conj",
    "core",
    "alex",
    "q1",
    "q2",
    "q3",
    "q4",
    "p1",
    "p2",
    "p3",
    "p4",
)

_GROUP_FREE = {"trivial", "dihedral"}
_MAP_PARAM = {"alex": "phi", "q1": "phi", "q2": "psi", "q3": "psi", "q4": "psi"}


@dataclass(frozen=True)
class ConstructionSpec:
    """Which constructor to run and with what parameters."""

    kind: str
    group: Optional[FiniteGroup] = None
    n: Optional[int] = None
    m: Optional[int] = None
    map: Optional[ClassifiedMap] = None
    c: Optional[int] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConstructionSpecError(f"unknown construction kind {self.kind!r}")


def build(spec: ConstructionSpec) -> Quandle:
    """Dispatch a ConstructionSpec to its constructor."""
    kind = spec.kind
    if kind in _GROUP_FREE:
        if spec.n is None:
            raise ConstructionSpecError(f"{kind} needs n")
        return trivial(spec.n) if kind == "trivial" else dihedral_quandle(spec.n)
    if spec.group is None:
        raise ConstructionSpecError(f"{kind} needs a group")
    if kind == "conj":
        if spec.m is None:
            raise ConstructionSpecError("conj needs m")
        return conj_m(spec.group, spec.m)
    if kind == "core":
        return core(spec.group)
    if kind in _MAP_PARAM:
        if spec.map is None:
            raise ConstructionSpecError(f"{kind} needs {_MAP_PARAM[kind]}")
        ctor = {"alex": alex, "q1": q1, "q2": q2, "q3": q3, "q4": q4}[kind]
        return ctor(spec.group, spec.map)
    if spec.c is None:
        raise ConstructionSpecError(f"{kind} needs c")
    ctor = {"p1": p1, "p2": p2, "p3": p3, "p4": p4}[kind]
    return ctor(spec.group, spec.c)


def spec_from_string(text: str, group: Optional[FiniteGroup] = None) -> ConstructionSpec:
    """Parse CLI-style specs: ``core``, ``conj:m=2``, ``trivial:n=4``,
    ``alex:phi=3``, ``q3:psi=1``, ``p1:c=3``.

    Map parameters are indices into the lexicographically sorted Aut(G)
    (for phi) or AAut(G) (for psi) lists; index 0 under phi is always the
    identity map.
    """
    head, _, rest = text.strip().partition(":")
    kind = head.strip().lower()
    if kind not in KINDS:
        raise ConstructionSpecError(f"unknown construction kind {head!r}")
    params = {}
    if rest:
        for piece in rest.split(","):
            key, eq, value = piece.partition("=")
            if not eq:
                raise ConstructionSpecError(f"malformed parameter {piece!r}, expected key=value")
            try:
                params[key.strip()] = int(value)
            except ValueError:
                raise ConstructionSpecError(f"parameter {key!r} needs an integer") from None

    def take(key):
        if key not in params:
            raise ConstructionSpecError(f"{kind} needs {key}=<int>")
        return params.pop(key)

    spec: ConstructionSpec
    if kind in _GROUP_FREE:
        spec = ConstructionSpec(kind, n=take("n"))
    elif kind == "conj":
        spec = ConstructionSpec(kind, group=group, m=params.pop("m", 1))
    elif kind == "core":
        spec = ConstructionSpec(kind, group=group)
    elif kind in _MAP_PARAM:
        if group is None:
            raise ConstructionSpecError(f"{kind} needs a group to resolve its map index")
        param = _MAP_PARAM[kind]
        family = "aut" if param == "phi" else "aaut"
        index = _in_range(param, take(param), len(getattr(_auts(group), family)))
        spec = ConstructionSpec(kind, group=group, map=_family_maps(group, family, index)[0])
    else:
        spec = ConstructionSpec(kind, group=group, c=take("c"))
    if params:
        raise ConstructionSpecError(f"unexpected parameters {sorted(params)} for {kind}")
    if kind not in _GROUP_FREE and group is None:
        raise ConstructionSpecError(f"{kind} needs a group")
    return spec

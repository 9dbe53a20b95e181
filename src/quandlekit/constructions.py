"""Group-to-quandle constructions.

Every constructor takes a validated group (plus parameters) and returns a
quandle on the same carrier, re-checking the axioms so that a failing
formula surfaces a concrete witness instead of a wrong table.  Each group
construction is one row of ``_KINDS``: its parameter, the law that a map
parameter obeys, a private table entry that gives the raw op table, and its
name.  Each public group constructor is one ``_construct`` call, the one
place where a map's law is checked.  Formulas:

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
from typing import Callable, Dict, NamedTuple, Optional

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


def _map_label(images: np.ndarray) -> str:
    images = list(map(int, images))
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
# Each group constructor's formula, as a function of G and its parameter (m,
# c or a map's images; core reads none) that returns the raw op table
# [x, y] = x*y.  An entry keeps the construction's own preconditions (c in
# range, the q3/q4 compatibility) but not the map's law: ``_construct`` checks
# that on G's table first, and the harness passes rows of the verified
# Aut(G)/AAut(G) stacks.


def _conj_m_table(G: FiniteGroup, m: int) -> np.ndarray:
    ym = G.power_all(m)
    return G.table[G.table[G.inverse[ym]], ym[:, None]].T  # [x, y] = y^-m x y^m


def _core_table(G: FiniteGroup, _=None) -> np.ndarray:
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


class _Kind(NamedTuple):
    """One group construction: its parameter, the law a map parameter obeys, its table entry, its name."""

    param: Optional[str]  # "m", "phi", "psi", "c", or None for core
    law: Optional[str]  # the group law of a map parameter; None for m and c
    table: Callable[[FiniteGroup, object], np.ndarray]
    name: str  # str.format pattern over G (the group's name) and v (the parameter)


# Spec kind -> its construction; the spec parser, ``build``, the public
# constructors and the harness read this one table.
_KINDS: Dict[str, _Kind] = {
    "conj": _Kind("m", None, _conj_m_table, "Conj_{v}({G})"),
    "core": _Kind(None, None, _core_table, "Core({G})"),
    "alex": _Kind("phi", AUTOMORPHISM, _alex_table, "Alex({G},phi={v})"),
    "q1": _Kind("phi", AUTOMORPHISM, _q1_table, "Q1({G},phi={v})"),
    "q2": _Kind("psi", ANTIAUTOMORPHISM, _q2_table, "Q2({G},psi={v})"),
    "q3": _Kind("psi", ANTIAUTOMORPHISM, _q3_table, "Q3({G},psi={v})"),
    "q4": _Kind("psi", ANTIAUTOMORPHISM, _q4_table, "Q4({G},psi={v})"),
    "p1": _Kind("c", None, _p1_table, "P1({G},c={v})"),
    "p2": _Kind("c", None, _p2_table, "P2({G},c={v})"),
    "p3": _Kind("c", None, _p3_table, "P3({G},c={v})"),
    "p4": _Kind("c", None, _p4_table, "P4({G},c={v})"),
}

KINDS = ("trivial", "dihedral", *_KINDS)


def _construct(kind: str, G: FiniteGroup, param=None) -> Quandle:
    """The validated quandle of a group construction, once a map parameter passes its law on G's table."""
    row = _KINDS[kind]
    value = label = param
    if row.law is not None:
        value = _checked_images(G, param, (row.law,))
        label = _map_label(value)
    return Quandle(row.table(G, value), name=row.name.format(G=G.name, v=label))


# --- the public constructors ---


def conj_m(G: FiniteGroup, m: int) -> Quandle:
    """Conjugation quandle: x*y = y^-m x y^m."""
    return _construct("conj", G, m)


def core(G: FiniteGroup) -> Quandle:
    """Core quandle: x*y = y x^-1 y."""
    return _construct("core", G)


def dihedral_quandle(n: int) -> Quandle:
    """R_n on 0..n-1: i*j = 2j - i (mod n)."""
    if n < 1:
        raise ConstructionSpecError("dihedral_quandle(n) needs n >= 1")
    idx = np.arange(n)
    return Quandle((2 * idx[None, :] - idx[:, None]) % n, name=f"R{n}")


def alex(G: FiniteGroup, phi: ClassifiedMap) -> Quandle:
    """Generalized Alexander quandle: x*y = phi(x y^-1) y."""
    return _construct("alex", G, phi)


def q1(G: FiniteGroup, phi: ClassifiedMap) -> Quandle:
    """x*y = y phi(y^-1 x)."""
    return _construct("q1", G, phi)


def q2(G: FiniteGroup, psi: ClassifiedMap) -> Quandle:
    """x*y = y psi(y x^-1)."""
    return _construct("q2", G, psi)


def q3(G: FiniteGroup, psi: ClassifiedMap) -> Quandle:
    """x*y = psi(x y^-1) y, requiring the conjugation compatibility of psi."""
    return _construct("q3", G, psi)


def q4(G: FiniteGroup, psi: ClassifiedMap) -> Quandle:
    """x*y = y psi(y^-1 x), requiring the conjugation compatibility of psi."""
    return _construct("q4", G, psi)


def p1(G: FiniteGroup, c: int) -> Quandle:
    """x*y = y c^-1 y^-1 x c."""
    return _construct("p1", G, c)


def p2(G: FiniteGroup, c: int) -> Quandle:
    """x*y = y c^-1 x y^-1 c."""
    return _construct("p2", G, c)


def p3(G: FiniteGroup, c: int) -> Quandle:
    """x*y = c^-1 y^-1 x c y."""
    return _construct("p3", G, c)


def p4(G: FiniteGroup, c: int) -> Quandle:
    """x*y = c^-1 x y^-1 c y."""
    return _construct("p4", G, c)


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


def _reads(kind: str) -> str:
    """The spec fields a kind reads, space-separated."""
    row = _KINDS.get(kind)
    if row is None:
        return "n"
    if row.param is None:
        return "group"
    return "group " + ("map" if row.law else row.param)


def build(spec: ConstructionSpec) -> Quandle:
    """Dispatch a ConstructionSpec to its constructor.

    A field that the kind does not read is a spec error.
    """
    kind = spec.kind
    reads = _reads(kind)
    given = {"group": spec.group, "n": spec.n, "m": spec.m, "map": spec.map, "c": spec.c}
    unread = [name for name, value in given.items() if value is not None and name not in reads.split()]
    if unread:
        raise ConstructionSpecError(f"{kind} does not read {', '.join(unread)}; it reads: {reads}")
    if kind not in _KINDS:
        if spec.n is None:
            raise ConstructionSpecError(f"{kind} needs n")
        return trivial(spec.n) if kind == "trivial" else dihedral_quandle(spec.n)
    if spec.group is None:
        raise ConstructionSpecError(f"{kind} needs a group")
    row = _KINDS[kind]
    if row.param is None:
        return _construct(kind, spec.group)
    param = getattr(spec, "map" if row.law else row.param)
    if param is None:
        raise ConstructionSpecError(f"{kind} needs {row.param}")
    return _construct(kind, spec.group, param)


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
    row = _KINDS.get(kind)
    if row is None:
        spec = ConstructionSpec(kind, n=take("n"))
    elif row.param == "m":
        spec = ConstructionSpec(kind, group=group, m=params.pop("m", 1))
    elif row.law is not None:
        if group is None:
            raise ConstructionSpecError(f"{kind} needs a group to resolve its map index")
        family = "aut" if row.param == "phi" else "aaut"
        index = _in_range(row.param, take(row.param), len(getattr(_auts(group), family)))
        spec = ConstructionSpec(kind, group=group, map=_family_maps(group, family, index)[0])
    elif row.param is not None:
        spec = ConstructionSpec(kind, group=group, c=take("c"))
    else:
        spec = ConstructionSpec(kind, group=group)
    if params:
        raise ConstructionSpecError(f"unexpected parameters {sorted(params)} for {kind}")
    if row is not None and group is None:
        raise ConstructionSpecError(f"{kind} needs a group")
    return spec

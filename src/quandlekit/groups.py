"""Finite groups as validated multiplication tables.

Elements are the indices 0..n-1.  A group is a dense n-by-n table with
``table[a][b] = a*b``; every structural query (center, commutator subgroup,
exponent, quotients) is a scan over that table.  Named constructors always
put the identity at index 0; imported tables may put it anywhere and the
validator locates it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import config
from .errors import (
    BadShape,
    CapExceeded,
    ConstructionSpecError,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotClosed,
    NotNormal,
    NotSubgroup,
    ParseError,
    TooLarge,
)

if TYPE_CHECKING:
    from .quandles import Quandle

__all__ = [
    "FiniteGroup",
    "Subset",
    "group_from_table",
    "group_from_text",
    "group_to_text",
    "cyclic",
    "dihedral",
    "symmetric",
    "quaternion8",
    "heisenberg",
    "direct_product",
    "opposite",
    "quotient_by_normal",
    "named_group",
    "parse_table_text",
    "format_table_text",
]


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D array (points or row keys), ascending.

    One sort and one neighbour comparison.  A bare ``np.unique`` does the
    same, but first asks ``np.ma.is_masked``, which imports ``numpy.ma``.
    """
    values = np.sort(values)
    if not values.size:
        return values
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


# --- table validation ---

# One batch of derived points: a (3, k) array of rows xs, a, b with
# xs[j] = table[a[j], b[j]].
Derivation = np.ndarray

# Products one block of a ``_generator_levels`` round takes at once.
_ROUND_ENTRIES = 1 << 16


def _closed_table(table) -> np.ndarray:
    """A nonempty square table of integers in 0..n-1 as contiguous int64; a float or bool entry is a BadShape."""
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise BadShape(f"expected a nonempty square table, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise BadShape(f"expected a table of integers, got {arr.dtype} entries")
    n = arr.shape[0]
    if n > config.MAX_ORDER:
        raise TooLarge(n, config.MAX_ORDER)
    if arr.min() < 0 or arr.max() >= n:
        a, b = map(int, np.argwhere((arr < 0) | (arr >= n))[0])
        raise NotClosed(a, b, int(arr[a, b]))
    return np.ascontiguousarray(arr, dtype=np.int64)


def _generator_levels(table: np.ndarray, by_growth: bool = False) -> List[Tuple[int, List[Derivation]]]:
    """Greedy generators of a closed table, with what each adds.

    Generator g_i lies outside the closure S_{i-1} of the earlier ones
    under the table's product.  By default it is the least such point.
    With ``by_growth`` it is the one whose products with S_{i-1}, on
    either side, reach the most points outside S_{i-1} other than itself,
    the least on ties (``_widest``): a base chosen by orbit growth, which
    skips points that would add nothing but themselves while others add
    more.  Its level lists the other new points of S_i as batches: (3, k)
    arrays of rows xs, a, b, in the table's type, with xs = table[a, b]
    elementwise.  The level grows in rounds.  A round takes the products
    of the points the previous round reached (g_i in the first) with
    every point known when it starts, on either side, in blocks of at
    most ``_ROUND_ENTRIES`` products; the new points of a block,
    ascending, each with its first derivation, are one batch.  So every a
    and b lies in S_{i-1}, is g_i or appears in a batch of an earlier
    round, and applying the batches in order derives S_i.  The level ends
    at the first round that reaches nothing, as the product of two points
    of S_i was taken in the round after the later one was reached, so S_i
    is closed; or as soon as S_i holds every point.
    """
    n = table.shape[0]
    flat = np.ascontiguousarray(table).ravel()
    outside = np.ones(n, dtype=bool)
    known = np.empty(n, dtype=np.intp)  # members in the order they were reached
    size = 0
    g = 0
    levels: List[Tuple[int, List[Derivation]]] = []
    while size < n:
        if by_growth and size:
            g = _widest(table, known[:size], outside)
        while not outside[g]:
            g += 1
        outside[g] = False
        known[size] = g
        start, size = size, size + 1
        batches: List[Derivation] = []
        while start < size < n:  # one round: the products of known[start:end]
            end = size
            old = known[:end]
            scaled = old * n
            step = max(1, _ROUND_ENTRIES // (2 * end))
            for lo in range(start, end, step):
                new = old[lo : lo + step]
                index = np.concatenate(
                    ((scaled[lo : lo + step, None] + old).ravel(), (scaled[:, None] + new).ravel())
                )
                products = flat[index]
                fresh = np.flatnonzero(outside[products])
                if fresh.size:
                    xs, first = np.unique(products[fresh], return_index=True)
                    outside[xs] = False
                    known[size : size + xs.size] = xs
                    size += xs.size
                    batches.append(np.array((xs, *np.divmod(index[fresh[first]], n)), dtype=table.dtype))
            start = end
        levels.append((g, batches))
    return levels


def _widest(table: np.ndarray, known: np.ndarray, outside: np.ndarray) -> int:
    """The point outside ``known`` whose products with it reach the most other outside points.

    A candidate c reaches table[c, s] and table[s, c] for s in ``known``;
    c itself and the known points do not count.  Ties go to the least c.
    Candidates are taken in blocks of about ``_ROUND_ENTRIES`` entries.
    """
    n = table.shape[0]
    cands = np.flatnonzero(outside)
    counts = np.empty(cands.size, dtype=np.intp)
    step = max(1, _ROUND_ENTRIES // (2 * known.size + n))
    for lo in range(0, cands.size, step):
        c = cands[lo : lo + step]
        reached = np.concatenate((table[np.ix_(c, known)], table[np.ix_(known, c)].T), axis=1)
        rows = np.arange(c.size)
        hit = np.zeros((c.size, n), dtype=bool)
        hit[rows[:, None], reached] = True
        hit[rows, c] = False
        counts[lo : lo + step] = (hit & outside).sum(axis=1)
    return int(cands[np.argmax(counts)])


def _check_associativity(table: np.ndarray, gens: Optional[Sequence[int]] = None) -> None:
    """Light's test: (x*y)*z = x*(y*z) for all x, z and every generator y.

    The y that pass for all x, z are closed under the product, so passing on
    a generating set means the whole table is associative.  ``gens`` are
    the greedy generators (``_generator_levels``), found here when not given.
    """
    n = table.shape[0]
    chunk = max(1, (1 << 22) // n)
    if gens is None:
        gens = [g for g, _ in _generator_levels(table)]
    for y in gens:
        for x0 in range(0, n, chunk):
            rows = table[x0 : x0 + chunk]
            bad = table[rows[:, y], :] != rows[:, table[y]]  # [x, z]
            if bad.any():
                i, z = map(int, np.argwhere(bad)[0])
                raise NotAssociative(x0 + i, y, z)


def _find_identity(table: np.ndarray) -> int:
    n = table.shape[0]
    idx = np.arange(n)
    hits = np.nonzero((table == idx).all(axis=1) & (table.T == idx).all(axis=1))[0]
    if hits.size == 0:
        raise NoIdentity()
    return int(hits[0])


def _find_inverses(table: np.ndarray, identity: int) -> np.ndarray:
    """inv[a] = the least b with a*b = b*a = e; NoInverse names the least a without one."""
    two_sided = (table == identity) & (table.T == identity)
    found = two_sided.any(axis=1)
    if not found.all():
        raise NoInverse(int(np.argmin(found)))
    return np.argmax(two_sided, axis=1).astype(np.int64)


class FiniteGroup:
    """Immutable finite group on {0..n-1}; all arrays are read-only.

    ``_store`` is a dict of what the checks of ``harness`` derive from G
    and read more than once, filled through ``_stored``, as a ``Quandle``'s
    store of its search plan, Inn(Q) and law masks (``quandlemaps._laws``) is:
    - Aut(G) and AAut(G) as read-only stacks (``groupmaps._auts``);
    - every quandle a check builds on G, Q_i included, keyed by constructor
      name plus m, c or the image bytes of the map, and by its table's
      compact bytes (``harness._quandle``);
    - C_Aut(phi) and C_AAut(phi), keyed by family plus phi's image bytes;
    - what ``quandlemaps.semidirect_verify`` decides without Q: the
      membership clauses of one part, keyed by its distinct rows as bytes,
      a normal part's sorted keys and generating set, and the product
      clauses of two parts, keyed by both;
    - facts of G a check reads at every parameter, f-structure's too, keyed by the claim.
    No key is a map's label, a quandle's name or a table: maps with one
    label, and equal tables built from different parameters, get entries of
    their own.  ``harness.run_census`` empties the store once G's checks are
    done, which frees its quandles and its Aut stacks at once; a standalone
    ``run_check`` leaves it filled for G's lifetime.
    """

    def __init__(self, table, name: Optional[str] = None, validate: bool = True):
        arr = _closed_table(table)
        n = int(arr.shape[0])
        if validate:
            _check_associativity(arr)
        self.table = arr
        self.n = n
        self.name = name if name is not None else f"G{n}"
        self.identity = _find_identity(arr)
        self.inverse = _find_inverses(arr, self.identity)
        self._store: dict = {}
        self.table.setflags(write=False)
        self.inverse.setflags(write=False)

    # --- basic arithmetic ---

    def mul(self, a: int, b: int) -> int:
        return int(self.table[_in_range("a", a, self.n), _in_range("b", b, self.n)])

    def inv(self, a: int) -> int:
        return int(self.inverse[_in_range("a", a, self.n)])

    def conjugate(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        g = _in_range("g", g, self.n)
        return int(self.table[self.table[g, _in_range("x in G", x, self.n)], self.inverse[g]])

    def commutator(self, a: int, b: int) -> int:
        """[a, b] = a^-1 * b^-1 * a * b."""
        t, a, b = self.table, _in_range("a", a, self.n), _in_range("b", b, self.n)
        return int(t[t[self.inverse[a], self.inverse[b]], t[a, b]])

    def power(self, a: int, k: int) -> int:
        """a^k for any integer k, negative exponents via inverses."""
        k %= self.element_order(a)
        out = self.identity
        for _ in range(k):
            out = int(self.table[out, a])
        return out

    def power_all(self, k: int) -> np.ndarray:
        """Vector of a^k over every element a."""
        k %= self.exponent
        out = np.full(self.n, self.identity, dtype=np.int64)
        base = np.arange(self.n)
        for _ in range(k):
            out = self.table[out, base]
        return out

    # --- structure ---

    @cached_property
    def is_abelian(self) -> bool:
        return bool((self.table == self.table.T).all())

    @cached_property
    def element_orders(self) -> np.ndarray:
        n = self.n
        orders = np.zeros(n, dtype=np.int64)
        pw = np.arange(n)
        for k in range(1, n + 1):
            orders[(orders == 0) & (pw == self.identity)] = k
            if (orders > 0).all():
                break
            pw = self.table[pw, np.arange(n)]
        orders.setflags(write=False)
        return orders

    @cached_property
    def exponent(self) -> int:
        return math.lcm(*(int(o) for o in self.element_orders))

    def element_order(self, a: int) -> int:
        return int(self.element_orders[_in_range("a", a, self.n)])

    @cached_property
    def has_2_torsion(self) -> bool:
        return bool((self.element_orders == 2).any())

    @cached_property
    def is_cyclic(self) -> bool:
        return bool((self.element_orders == self.n).any())

    @cached_property
    def hol_base(self) -> np.ndarray:
        """B = {e} u the greedy generators of G, identity first, read-only.

        A map x -> a*phi(x) of Hol(G) is fixed by its images on B: a = f(e),
        and phi = f(e)^-1 * f is an automorphism, fixed by its generator
        images.  The images on B, read as a base-n number, key such maps in
        int64; raises CapExceeded when n^|B| does not fit.
        """
        gens = [g for g, _ in _generator_levels(self.table) if g != self.identity]
        base = np.array([self.identity, *gens], dtype=np.int64)
        if self.n ** base.size >= 1 << 63:
            raise CapExceeded("Hol(G) base key", self.n ** base.size, (1 << 63) - 1)
        base.setflags(write=False)
        return base

    @cached_property
    def center_mask(self) -> np.ndarray:
        """Read-only mask of Z(G): the points whose row equals their column."""
        mask = (self.table == self.table.T).all(axis=1)
        mask.setflags(write=False)
        return mask

    def center(self) -> "Subset":
        return Subset(self, tuple(int(z) for z in np.flatnonzero(self.center_mask)))

    def subgroup_closure(self, gens: Iterable[int]) -> "Subset":
        members = {self.identity, *(int(g) for g in gens)}
        while True:
            arr = np.fromiter(members, dtype=np.int64)
            products = set(map(int, self.table[np.ix_(arr, arr)].ravel()))
            if products <= members:
                return Subset(self, tuple(sorted(members)))
            members |= products
            if len(members) > self.n:
                raise AssertionError("closure escaped the carrier")

    def commutator_subgroup(self) -> "Subset":
        t, inv = self.table, self.inverse
        comms = t[t[inv[:, None], inv[None, :]], t]
        return self.subgroup_closure(map(int, _distinct(comms.ravel())))

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and np.array_equal(self.table, other.table)

    def __hash__(self) -> int:
        return hash(self.table.tobytes())

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.n})"


def _stored(owner: Union[FiniteGroup, "Quandle"], key: tuple, build: Callable[[], object]):
    """The object that a group or a quandle stores under ``key``, made by ``build()`` on first use."""
    if key not in owner._store:
        owner._store[key] = build()
    return owner._store[key]


# What each integer parameter counts, as its error names it.
_INDEXES = {
    "phi": "phi index into Aut(G)", "psi": "psi index into AAut(G)",
    "a": "a (an element of G)", "b": "b (an element of G)", "c": "c (an element of G)",
    "x": "x (an element of Q)", "y": "y (an element of Q)",
    "g": "g (an element of G)", "x in G": "x (an element of G)", "x in a map": "x (a point of the map's carrier)",
    "m": "m (the exponent of Conj_m)",
}


def _integer(param: str, value: int) -> int:
    """``value`` when it is a Python or numpy integer, not a bool; otherwise a spec error naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConstructionSpecError(f"{_INDEXES[param]} {value!r} is not an integer")
    return value


def _in_range(param: str, index: int, size: int) -> int:
    """``index`` when it is an integer in 0..size-1 (no negative wrap); otherwise a spec error naming it."""
    if not 0 <= _integer(param, index) < size:
        raise ConstructionSpecError(f"{_INDEXES[param]} {index} is out of range 0..{size - 1}")
    return index


@dataclass(frozen=True)
class Subset:
    """Sorted subset of a group's carrier."""

    group: FiniteGroup
    members: tuple

    def __post_init__(self):
        m = self.members
        if list(m) != sorted(set(m)) or any(not 0 <= x < self.group.n for x in m):
            raise BadShape("subset members must be distinct, in range, sorted")

    def __contains__(self, x: int) -> bool:
        return x in set(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


def _require_subgroup(G: FiniteGroup, members: Sequence[int]) -> np.ndarray:
    arr = np.asarray(sorted(set(_in_range("x in G", x, G.n) for x in members)), dtype=np.int64)
    if arr.size == 0 or G.identity not in arr:
        raise NotSubgroup("subset lacks the identity")
    inside = np.zeros(G.n, dtype=bool)
    inside[arr] = True
    if not inside[G.table[np.ix_(arr, arr)]].all():
        raise NotSubgroup("subset is not closed under products")
    if not inside[G.inverse[arr]].all():
        raise NotSubgroup("subset is not closed under inverses")
    return arr


def quotient_by_normal(G: FiniteGroup, normal: Iterable[int]):
    """Quotient group and the projection map g -> coset index.

    Cosets are numbered by their least member, ascending, so the output is
    deterministic.  Raises NotSubgroup / NotNormal (with a conjugation
    witness) when the input does not qualify.
    """
    members = _require_subgroup(G, list(normal))
    inside = np.zeros(G.n, dtype=bool)
    inside[members] = True
    conj = G.table[G.table[:, members], G.inverse[:, None]]  # [g, j] = g*m_j*g^-1
    bad = ~inside[conj]
    if bad.any():
        g, j = map(int, np.argwhere(bad)[0])
        raise NotNormal(g, int(members[j]))
    labels = G.table[:, members].min(axis=1)
    reps = _distinct(labels)
    projection = np.searchsorted(reps, labels)
    qtable = projection[G.table[np.ix_(reps, reps)]]
    # The cosets of a normal subgroup form a group: no second validation.
    quotient = FiniteGroup(qtable, name=f"{G.name}/N{len(members)}", validate=False)
    projection.setflags(write=False)
    return quotient, projection


# --- constructors ---


def group_from_table(table, name: Optional[str] = None) -> FiniteGroup:
    """Validate a raw table; all four group axioms are checked with witnesses."""
    return FiniteGroup(table, name=name, validate=True)


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ConstructionSpecError("cyclic(n) needs n >= 1")
    idx = np.arange(n)
    return FiniteGroup(np.add.outer(idx, idx) % n, name=f"Z{n}", validate=False)


def dihedral(n: int) -> FiniteGroup:
    """Order 2n: indices 0..n-1 are rotations r^k, n..2n-1 are r^k * s."""
    if n < 1:
        raise ConstructionSpecError("dihedral(n) needs n >= 1")
    a = np.arange(n)
    add = np.add.outer(a, a) % n
    sub = np.subtract.outer(a, a) % n
    t = np.block([[add, add + n], [sub + n, sub]])
    return FiniteGroup(t, name=f"D{n}", validate=False)


def symmetric(n: int) -> FiniteGroup:
    """Order n!, elements numbered by lexicographic one-line notation.

    Products compose left-then-inner: (sigma * tau)(x) = sigma(tau(x)).
    """
    if not 1 <= n <= 6:
        raise ConstructionSpecError("symmetric(n) supports 1 <= n <= 6")
    perms = np.array(sorted(itertools.permutations(range(n))), dtype=np.int64)
    weights = n ** np.arange(n - 1, -1, -1)
    codes = perms @ weights
    composed = perms[:, perms] @ weights
    return FiniteGroup(np.searchsorted(codes, composed), name=f"S{n}", validate=False)


def quaternion8() -> FiniteGroup:
    """Indices 0..3 are a^k, 4..7 are a^k * b, with a^4 = e, b^2 = a^2."""
    k = np.arange(4)
    add = np.add.outer(k, k) % 4
    sub = np.subtract.outer(k, k) % 4
    t = np.block([[add, add + 4], [sub + 4, (sub + 2) % 4]])
    return FiniteGroup(t, name="Q8", validate=False)


def heisenberg(p: int) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over Z_p; order p^3.

    The matrix with above-diagonal entries (a, b, c) gets index a*p^2 + b*p + c,
    and (a,b,c)*(a',b',c') = (a+a', b+b', c+c'+a*b').
    """
    if p < 2 or any(p % q == 0 for q in range(2, p)):
        raise ConstructionSpecError("heisenberg(p) needs p prime")
    if p**3 > config.MAX_ORDER:
        raise TooLarge(p**3, config.MAX_ORDER)
    idx = np.arange(p**3)
    a, b, c = idx // p**2, (idx // p) % p, idx % p
    a1, b1, c1 = a[:, None], b[:, None], c[:, None]
    t = ((a1 + a) % p) * p**2 + ((b1 + b) % p) * p + ((c1 + c + a1 * b) % p)
    return FiniteGroup(t, name=f"H{p}", validate=False)


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Pairs (g, h) numbered g*|H| + h."""
    n = G.n * H.n
    if n > config.MAX_ORDER:
        raise TooLarge(n, config.MAX_ORDER)
    t = (G.table[:, None, :, None] * H.n + H.table[None, :, None, :]).reshape(n, n)
    return FiniteGroup(t, name=f"{G.name}x{H.name}", validate=False)


def opposite(G: FiniteGroup) -> FiniteGroup:
    """Same carrier, reversed multiplication a o b = b * a."""
    name = G.name[:-3] if G.name.endswith("^op") else f"{G.name}^op"
    return FiniteGroup(G.table.T, name=name, validate=False)


def _named_factor(token: str) -> FiniteGroup:
    tok = token.strip().lower()
    if tok == "q8":
        return quaternion8()
    if tok.startswith("heisenberg") and tok[len("heisenberg") :].isdigit():
        return heisenberg(int(tok[len("heisenberg") :]))
    if len(tok) >= 2 and tok[0] in "zds" and tok[1:].isdigit():
        return {"z": cyclic, "d": dihedral, "s": symmetric}[tok[0]](int(tok[1:]))
    raise ConstructionSpecError(
        f"unknown group spec {token!r}; expected Z<n>, D<n>, S<n>, Q8, "
        f"heisenberg<p>, or products joined by 'x' such as Z3xZ3"
    )


def named_group(spec: str) -> FiniteGroup:
    """Resolve specs like ``Z6``, ``D4``, ``S3``, ``Q8``, ``heisenberg3``, ``Z3xZ3``."""
    parts = [p for p in spec.strip().split("x") if p != ""]
    if not parts:
        raise ConstructionSpecError(f"empty group spec {spec!r}")
    group = _named_factor(parts[0])
    for part in parts[1:]:
        group = direct_product(group, _named_factor(part))
    return group


# --- text format ---


def parse_table_text(text: str):
    """Parse the shared table format: optional ``# name``, then n, then n rows.

    Returns (table, name).  Blank lines are allowed; anything after the last
    table row other than blanks is rejected.
    """
    name = None
    rows = []
    n = None
    seen_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if seen_header or name is not None:
                raise ParseError(lineno, "comment allowed only before the size line")
            name = line[1:].strip() or None
            continue
        if not seen_header:
            try:
                n = int(line)
            except ValueError:
                raise ParseError(lineno, f"expected the table size, got {line!r}") from None
            if n < 1:
                raise ParseError(lineno, "table size must be positive")
            seen_header = True
            continue
        if len(rows) == n:
            raise ParseError(lineno, "trailing garbage after the table")
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(lineno, f"non-integer table entry in {line!r}") from None
        if len(row) != n:
            raise ParseError(lineno, f"expected {n} entries, got {len(row)}")
        rows.append(row)
    if n is None:
        raise ParseError(1, "empty input")
    if len(rows) != n:
        raise ParseError(len(text.splitlines()) + 1, f"expected {n} rows, got {len(rows)}")
    return np.array(rows, dtype=np.int64), name


def format_table_text(table: np.ndarray, name: Optional[str] = None) -> str:
    lines = []
    if name:
        lines.append(f"# {name}")
    lines.append(str(table.shape[0]))
    lines.extend(" ".join(str(int(v)) for v in row) for row in table)
    return "\n".join(lines) + "\n"


def group_from_text(text: str) -> FiniteGroup:
    table, name = parse_table_text(text)
    return group_from_table(table, name=name)


def group_to_text(G: FiniteGroup) -> str:
    return format_table_text(G.table, G.name)

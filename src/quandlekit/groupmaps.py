"""Bijections of a group's carrier and their algebra.

PointMap is the public form of one map: automorphisms, antiautomorphisms,
the inversion map, translations, and the two-sided maps f_{a,b}(x) = a*x*b
are all point maps over {0..n-1}.  Inside the engine a set of maps is one
compact stack (see ``_compact``).  Two keys serve for dedupe, membership and
sorting.  The byte key of a whole row (``_keys``) sorts like the images; it
serves the sets whose order reaches output (Aut, AAut, F, F', the views)
and the sets of quandle maps.  The semidirect, closure and centralizer
checks read maps of Hol(G) = {x -> a*phi(x)} on B = ``G.hol_base`` only:
an int64 key per map, |B| images instead of n (``_hol_keys``), and both
semidirect checks count their products n o c and the closure of those
with one helper (``_product_counts``).  Each family (Aut(G), AAut(G),
Inn(G), the Out(G) representatives, the centralizers, H, F and F') is a
stack from a private function; Aut(G) and AAut(G) are kept in the group's
store (``_auts``), and every AAut(G) row has the kind that G's
commutativity gives it.  The checks read those stacks, and the public list
functions build their maps from them per call.
Classification and enumeration live here; quandles reuse the same table laws.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import config
from .errors import CapExceeded, CarrierMismatch, NotAutomorphism, NotBijective, WrongMapKind
from .groups import (
    FiniteGroup,
    Subset,
    _check_associativity,
    _distinct,
    _generator_levels,
    _in_range,
    _stored,
    direct_product,
    opposite,
    quotient_by_normal,
)
from .verdicts import Verdict, claim, combine

__all__ = [
    "AUTOMORPHISM",
    "ANTIAUTOMORPHISM",
    "PLAIN",
    "PointMap",
    "ClassifiedMap",
    "preserves_table",
    "reverses_table",
    "preserving_mask",
    "reversing_mask",
    "classify",
    "inversion_map",
    "enumerate_aut",
    "enumerate_aaut",
    "aut_oracle",
    "inner_auts",
    "out_coset_reps",
    "centralizer_in_aut",
    "centralizer_in_aaut",
    "is_central_automorphism",
    "fix_set",
    "f_ab",
    "left_translation",
    "build_H",
    "build_F",
    "build_F_prime",
    "verify_F_iso",
    "closure_of_point_maps",
]

AUTOMORPHISM = "automorphism"
ANTIAUTOMORPHISM = "antiautomorphism"
PLAIN = "plain-bijection"


class PointMap:
    """A bijection of {0..n-1}, n >= 1, stored as its (read-only) images array."""

    __slots__ = ("images",)

    def __init__(self, images):
        arr = np.array(images)  # a float, bool or object entry is no image: numpy would cast it
        shaped = arr.dtype.kind in "iu" and arr.ndim == 1 and arr.size
        if not shaped or not np.array_equal(np.sort(arr), np.arange(arr.size)):
            raise NotBijective(images)
        arr = arr.astype(np.int64, copy=False)
        arr.setflags(write=False)
        self.images = arr

    @staticmethod
    def identity(n: int) -> "PointMap":
        return PointMap(np.arange(n))

    @property
    def n(self) -> int:
        return int(self.images.size)

    def __call__(self, x: int) -> int:
        return int(self.images[_in_range("x in a map", x, self.images.size)])

    def compose(self, other: "PointMap") -> "PointMap":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        return PointMap(self.images[other.images])

    def inverse(self) -> "PointMap":
        inv = np.empty_like(self.images)
        inv[self.images] = np.arange(self.n)
        return PointMap(inv)

    def as_tuple(self) -> Tuple[int, ...]:
        return tuple(int(v) for v in self.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, PointMap) and np.array_equal(self.images, other.images)

    def __hash__(self) -> int:
        return hash(self.images.tobytes())

    def __lt__(self, other: "PointMap") -> bool:
        return self.as_tuple() < other.as_tuple()

    def __repr__(self) -> str:
        return f"PointMap({list(map(int, self.images))})"


@dataclass(frozen=True)
class ClassifiedMap:
    """A point map together with which group law it satisfies."""

    map: PointMap
    kind: str
    group: FiniteGroup

    @property
    def images(self) -> np.ndarray:
        return self.map.images

    def __lt__(self, other: "ClassifiedMap") -> bool:
        return self.map < other.map

    def to_json(self) -> dict:
        return {"images": [int(v) for v in self.images], "kind": self.kind}


# --- compact map stacks ---
#
# A set of maps on {0..n-1} is a C-contiguous (m, n) image array of the
# narrowest unsigned type, big-endian when wider than a byte, so the bytes of
# a row compare in the same order as its images.  A row read as one np.void
# value is then its key: every dedupe, membership test and sort is a 1-D
# sort or searchsorted over keys, in lexicographic image order.


def _image_dtype(n: int) -> np.dtype:
    if n <= 1 << 8:
        return np.dtype(np.uint8)
    return np.dtype(">u2") if n <= 1 << 16 else np.dtype(">u4")


def _compact(rows) -> np.ndarray:
    """The compact (m, n) stack of integer image rows of length n, in order."""
    arr = np.asarray(rows)
    n = int(arr.shape[-1])
    return np.ascontiguousarray(arr.reshape(-1, n), dtype=_image_dtype(n))


def _keys(stack: np.ndarray) -> np.ndarray:
    """One fixed-width np.void key per row of a stack.

    The stack is made compact first: numpy hands back native byte order from
    ``concatenate`` and friends, and little-endian bytes would not sort.
    """
    stack = _compact(stack)
    width = stack.dtype.itemsize * stack.shape[1]
    return stack.view(np.dtype((np.void, width))).reshape(stack.shape[0])


def _unique_rows(stack: np.ndarray) -> np.ndarray:
    """The distinct rows of a compact stack, lexicographically sorted."""
    if not len(stack):
        return stack
    stack = _compact(stack)
    _, first = np.unique(_keys(stack), return_index=True)
    return stack[first]


def _in_sorted(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Membership mask of ``keys`` in an ascending key array."""
    if sorted_keys.size == 0:
        return np.zeros(keys.shape, dtype=bool)
    pos = np.searchsorted(sorted_keys, keys)
    pos[pos == sorted_keys.size] = 0
    return sorted_keys[pos] == keys


def _point_maps(stack: np.ndarray) -> List[PointMap]:
    """PointMaps for the rows of a stack whose rows are known bijections."""
    rows = stack.astype(np.int64)
    rows.setflags(write=False)
    out = []
    for row in rows:
        pm = PointMap.__new__(PointMap)
        pm.images = row
        out.append(pm)
    return out


def _stack_of(maps: Sequence) -> np.ndarray:
    """The compact stack of PointMaps (or of maps with ``images``), in order."""
    if not maps:
        return np.empty((0, 0), dtype=np.uint8)
    return _compact([m.images for m in maps])


# --- table laws (shared with quandles) ---
#
# Every law test over a stack of maps f compares two gathers, in the
# stack's narrow image type and native byte order: lhs[r, x, y] = f_r(x*y),
# the stack read along the source table, and rhs[r, x, y] = f_r(x)*f_r(y),
# one 1-D take on the flattened target table at f(x)*n + f(y)
# (``_products``; the index is uint16 up to 256 points).  The reversing law
# reads rhs transposed, so ``_law_masks`` gives both masks from one gather
# pair: it is the only law loop over a stack, and the public masks and
# ``preserves_table``/``reverses_table`` are reads of it.  The Q3 check of
# ``quandles`` and the re-check of ``_table_isos`` read the same gathers
# (``_law_blocks``).  The search walk of ``_table_isos`` reads its per-level law
# pairs and derived points through the same ``_products`` take.  Blocks, of
# stack rows here and of the walk's children there, hold ``_LAW_ENTRIES``
# entries, so the intp copy that ``np.take`` makes of its index stays
# small: unblocked, the walk's index reaches 4M entries.

_LAW_ENTRIES = 1 << 16


def _flat_table(table: np.ndarray) -> np.ndarray:
    """A table as one flat array of the narrow image type, native order: entry x*n + y."""
    return table.astype(_image_dtype(table.shape[0]).type).ravel()


def _products(flat: np.ndarray, n: int, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """table[left, right] broadcast, as one take on ``_flat_table(table)`` at left*n + right."""
    index = np.uint16 if n <= 1 << 8 else np.intp
    # left is cast before the product: a uint8 array times a uint16 scalar stays
    # uint8 under the value-based promotion of numpy < 2
    return flat.take(left.astype(index) * index(n) + right)


def _law_blocks(t1: np.ndarray, t2: np.ndarray, stack: np.ndarray):
    """Per row block of a stack of maps f, in order: lhs and rhs, indexed [r, x, y].

    lhs = f_r(t1[x, y]) and rhs = t2[f_r(x), f_r(y)]; images must lie in
    {0..n-1}.  A stack with rows that are not n wide raises CarrierMismatch.
    """
    if not len(stack):
        return
    n = int(t1.shape[0])
    width = int(np.shape(stack)[-1])
    if width != n:
        raise CarrierMismatch(n, width)
    flat = _flat_table(t2)
    rows = np.asarray(stack).astype(flat.dtype, copy=False)
    step = _block_rows(n)
    for i in range(0, len(rows), step):
        block = rows[i : i + step]
        yield block[:, t1], _products(flat, n, block[:, :, None], block[:, None, :])


def _joined(masks: List[np.ndarray]) -> np.ndarray:
    """One row mask from the masks of consecutive blocks."""
    if len(masks) == 1:
        return masks[0]
    return np.concatenate(masks) if masks else np.zeros(0, dtype=bool)


def _law_masks(table: np.ndarray, stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Which rows of a stack preserve the table, and which reverse it, from one gather pair."""
    preserving, reversing = [], []
    for lhs, rhs in _law_blocks(table, table, stack):
        preserving.append((lhs == rhs).all(axis=(1, 2)))
        reversing.append((lhs == rhs.transpose(0, 2, 1)).all(axis=(1, 2)))
    return _joined(preserving), _joined(reversing)


def preserves_table(table: np.ndarray, images: np.ndarray) -> bool:
    """f(a.b) = f(a).f(b) for the given table."""
    return bool(_law_masks(table, np.asarray(images)[None])[0][0])


def reverses_table(table: np.ndarray, images: np.ndarray) -> bool:
    """f(a.b) = f(b).f(a) for the given table."""
    return bool(_law_masks(table, np.asarray(images)[None])[1][0])


def preserving_mask(table: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Boolean mask over a (m, n) stack of image arrays satisfying the law."""
    return _law_masks(table, stack)[0]


def reversing_mask(table: np.ndarray, stack: np.ndarray) -> np.ndarray:
    return _law_masks(table, stack)[1]


_LAW_TESTS = {AUTOMORPHISM: preserves_table, ANTIAUTOMORPHISM: reverses_table}


def _checked_images(G: FiniteGroup, cm: ClassifiedMap, laws: Sequence[str] = (), why: str = "") -> np.ndarray:
    """cm's images, once they map G's carrier and G's table (not ``cm.kind``) shows one of ``laws``.

    A map of another carrier raises CarrierMismatch before any law is read.
    A map that obeys none of the laws, "automorphism" or "antiautomorphism",
    raises NotAutomorphism(why) when a reason is given, else WrongMapKind,
    the error of the constructions.
    """
    images = cm.images
    if images.size != G.n:
        raise CarrierMismatch(G.n, int(images.size))
    if laws and not any(_LAW_TESTS[law](G.table, images) for law in laws):
        if why:
            raise NotAutomorphism(why, tuple(int(v) for v in images))
        raise WrongMapKind(" or ".join(laws), cm.kind)
    return images


def _profiles(t: np.ndarray) -> np.ndarray:
    """Per-point counts that every table isomorphism preserves, shaped (n, 5).

    For x: the a with t[a,x] = a, the b with t[x,b] = b, the a with
    t[a,x] = x, the b with t[x,b] = x, and the a with t[t[a,x],x] = a.
    """
    idx = np.arange(t.shape[0])
    col, row = idx[:, None], idx[None, :]
    return np.stack(
        [
            (t == col).sum(axis=0),
            (t == row).sum(axis=1),
            (t == row).sum(axis=0),
            (t == col).sum(axis=1),
            (t[t, row] == col).sum(axis=0),
        ],
        axis=1,
    )


class _Level(NamedTuple):
    """One generator level of a search plan: g_i, how S_i follows, and what a child must pass."""

    g: int
    batches: List[np.ndarray]  # one derivation batch each, rows xs, a, b
    seen: np.ndarray  # S_{i-1}, the points fixed by the parents
    left: np.ndarray  # with right: the law pairs (x, y) the level adds (``_ranking``)
    right: np.ndarray
    product: np.ndarray  # t1[left, right]
    later: np.ndarray  # with earlier: each point g_i adds after itself, against each point before it
    earlier: np.ndarray


class _SearchPlan:
    """What every search from one source table t1 needs, whatever the target.

    The point profiles (``_profiles``) are built with the plan.  The
    generator levels (``groups._generator_levels``, cut into ``_Level``
    index blocks by ``_ranking``) are built on first use and kept, so a
    target that the profiles reject costs no levels and every later search
    reads the same blocks.  A plan has two level sequences.  The
    least-index one (``levels``) serves the first hit, whose first leaf it
    makes the least isomorphism.  Full enumeration walks the growth-ordered
    one (``full_levels``), but only when the least-index one stalls: some
    level after the first adds nothing but its generator, as the points of
    a trivial subquandle do, while some point outside S_{i-1} would reach a
    new point (``_reaches_past``).  Where no point would, the growth pick
    is the least index too.  A group stalls only so, at its second level
    when g_1 is an involution, as every c outside a subgroup S other than
    {e} reaches c*S.  When it does not stall, or the growth pick returns
    the same generators, ``full_levels`` is ``levels`` itself.
    A quandle keeps its plan in its store (``Quandle._store``); Aut(Q),
    the antiautomorphisms and ``are_isomorphic(Q, ...)`` all read it.

    ``group`` says that t1 is an associative table, a group's, whose
    levels then check the law on generator columns only (``_ranking``).
    """

    def __init__(self, t1: np.ndarray, group: bool = False):
        self.table = t1
        self.group = group
        self.profiles = _profiles(t1)
        self.sorted_profiles = self.profiles[np.lexsort(self.profiles.T)]

    @cached_property
    def levels(self) -> Tuple[_Level, ...]:
        """The least-index levels (``_ranking``)."""
        return _ranking(self.table, _generator_levels(self.table), self.group)

    @property
    def generators(self) -> List[int]:
        """The least-index generators g_0, g_1, ... of t1."""
        return [lv.g for lv in self.levels]

    @cached_property
    def full_levels(self) -> Tuple[_Level, ...]:
        """The levels full enumeration walks: by growth on a stall, else ``levels`` itself."""
        least = self.levels
        stalls = [i for i in range(1, len(least)) if not least[i].batches]
        if not any(self._reaches_past(least[i].seen) for i in reversed(stalls)):  # the last is live most often
            return least
        grown = _generator_levels(self.table, by_growth=True)
        if [g for g, _ in grown] == self.generators:
            return least
        return _ranking(self.table, grown, self.group)

    def _reaches_past(self, known: np.ndarray) -> bool:
        """Whether some point c outside ``known`` has a product with it, on either side, outside it and other than c."""
        t = self.table
        inside = np.zeros(t.shape[0], dtype=bool)
        inside[known] = True
        out = np.flatnonzero(~inside)[:, None]
        reached = np.concatenate((t[out, known], t[known[:, None], out.T].T), axis=1)  # [c, s]: c*s, then s*c
        return bool((~inside[reached] & (reached != out)).any())


def _ranking(table: np.ndarray, steps: list, group: bool = False) -> Tuple[_Level, ...]:
    """A table's generator levels, each with its index blocks.

    Number the points in the order the levels reach them; level i then
    holds the ranks from a_i (g_i) up to a_{i+1}.  Its law pairs are
    those whose larger rank lies there, so sorting all rank pairs by the
    larger rank puts them at [a_i^2, a_{i+1}^2); its injectivity pairs,
    ranks r > q with a_i < r < a_{i+1}, are the rows of the strict lower
    triangle, taken row by row, from r = a_i + 1 on.  With ``group`` a
    level keeps only the law pairs (x, g_j) whose right point is a
    generator: x in S_i outside S_{i-1} with j < i, and x in S_i with j = i,
    the columns that ``_table_isos`` needs on an associative table.  Each
    level's blocks are views of one array per kind.
    """
    n = table.shape[0]
    pieces, starts = [], [0]
    for g, batches in steps:
        pieces += [np.array([g]), *(xs for xs, _, _ in batches)]
        starts.append(starts[-1] + 1 + sum(xs.size for xs, _, _ in batches))
    # A plan lives as long as its quandle: its index arrays take the
    # narrowest type.
    order = np.concatenate(pieces).astype(np.min_scalar_type(n - 1))
    rank = np.arange(n)
    row, col = np.divmod(np.argsort(np.maximum.outer(rank, rank), axis=None, kind="stable"), n)
    ahead = row < col
    later, earlier = order[col[ahead]], order[row[ahead]]  # by the later rank, ascending
    bounds = [a * a for a in starts]
    if group:
        generator = np.zeros(n, dtype=bool)
        generator[starts[:-1]] = True  # g_i has rank starts[i]
        row, col = row[generator[col]], col[generator[col]]
        bounds = np.searchsorted(np.maximum(row, col), starts).tolist()
    left, right = order[row], order[col]  # by the larger rank of the pair, ascending
    product = table[left, right].astype(order.dtype)
    levels = []
    for (g, batches), a, b, lo, hi in zip(steps, starts, starts[1:], bounds, bounds[1:]):
        law, inj = slice(lo, hi), slice(a * (a + 1) // 2, b * (b - 1) // 2)
        levels.append(_Level(g, batches, order[:a], left[law], right[law], product[law], later[inj], earlier[inj]))
    return tuple(levels)


_FIRST_HIT_ROWS = 1024  # children per extend in first-hit mode
_WALK_ENTRIES = 1 << 22  # full enumeration: children whose n x n gathers fit in 4M entries


def _block_rows(n: int, entries: Optional[int] = None) -> int:
    """Rows of n points whose n x n gathers fit in ``entries`` entries.

    The default, ``_LAW_ENTRIES``, is read at each call: the one constant
    sizes the blocks of ``_law_blocks`` and of the Q3 check as it sizes the
    walk's.
    """
    return max(1, (_LAW_ENTRIES if entries is None else entries) // (n * n))


def _walk_budget(n: int, first_only: bool) -> int:
    """Rows of children one extend may make: few for a first hit, a block otherwise."""
    return _FIRST_HIT_ROWS if first_only else _block_rows(n, _WALK_ENTRIES)


def _table_isos(
    t1: np.ndarray, t2: np.ndarray, first_only: bool = False, plan: Optional[_SearchPlan] = None
) -> np.ndarray:
    """All bijections f with f(t1[a,b]) = t2[f(a), f(b)], as a sorted compact stack.

    ``plan`` is t1's search plan (``_SearchPlan``), built here when not
    given.  An isomorphism carries each point's profile to its image's, so
    tables whose profile rows differ as multisets have none, and neither
    the levels nor a search are built.  The search branches only on the
    images of t1's generators g_1..g_k, which the mode chooses: the first
    hit takes the plan's least-index ``levels``, full enumeration its
    ``full_levels``, ordered by growth when the least-index ones stall.
    The plan keeps both, so only its first search builds them; the leaves
    come out in order when ``full_levels`` is ``levels``.
    Level i extends partial maps on S_{i-1} to S_i, the closure of
    g_1..g_i: each parent tries every image of g_i whose profile matches
    and that no point of S_{i-1} has, derives the rest of S_i through t2,
    and a child survives when it is injective on S_i and obeys the law on
    S_i x S_i.  Only the checks the parent has not made are made: the law
    on the pairs of S_i x S_i outside S_{i-1} x S_{i-1}, and injectivity
    only for the points the level derives, each against the points before
    it, so a level that adds g_i alone checks no injectivity at all.
    Children are derived and checked in row blocks of ``_LAW_ENTRIES`` law
    pairs, each product read through ``_products`` on t2's flat table.

    A group plan (``_SearchPlan(t1, group=True)``, t1 and t2 associative)
    checks the law only on the generator columns the level adds: the pairs
    (x, g_j) with x in S_i outside S_{i-1} and j < i, and with x in S_i and
    j = i, so on H3's last level 81 pairs a child in place of 648.  This is
    the argument of Light's test (``groups._check_associativity``): the y
    in S_i with f(x*y) = f(x)*f(y) for every x in S_i are closed under the
    product, as f(x*y1*y2) = f(x*y1)*f(y2) = f(x)*f(y1)*f(y2) =
    f(x)*f(y1*y2), so they are all of S_i once they hold g_0..g_i.  The
    parent has checked x in S_{i-1} against g_0..g_{i-1}.

    One walk serves both modes.  Its level 0 is seeded directly: the
    children of the one map on the empty set are g_0's candidates, one row
    each with the candidate at g_0, and they pass the same derivation and
    law check as every other level's; that map itself is never built.  From
    depth 1 on, the walk goes depth first over chunks of parents, at most
    budget / |candidates| of them per extend (``_walk_budget``), so each
    level holds at most one chunk's children.
    With least-index levels every point below g_{i+1} lies in S_i, so the
    order of generator images is that of the maps: children in parent
    order, candidates ascending, and chunks in order make the leaves come
    out sorted, and with ``first_only`` the walk stops at the first
    non-empty last level, whose first row is the lexicographically least
    isomorphism.  Growth-ordered levels do not keep that order, so their
    leaves, distinct maps, are sorted once by a lexsort.  Every returned
    row is checked against the full tables.
    """
    n = int(t1.shape[0])
    if plan is None:
        plan = _SearchPlan(t1)
    if t2 is not t1:
        prof2 = _profiles(t2)
        if not np.array_equal(plan.sorted_profiles, prof2[np.lexsort(prof2.T)]):
            return np.empty((0, n), dtype=_image_dtype(n))
    else:
        prof2 = plan.profiles
    flat2 = _flat_table(np.asarray(t2))
    dtype = flat2.dtype  # the walk's rows, native order
    if first_only:
        levels, in_order = plan.levels, True
    else:
        levels, in_order = plan.full_levels, plan.full_levels is plan.levels
    # [level, point]: the point's profile is that of the level's generator
    matches = (prof2 == plan.profiles[[lv.g for lv in levels], None]).all(axis=2)
    cands = [np.flatnonzero(row).astype(dtype) for row in matches]

    def survivors(lv: _Level, kids: np.ndarray) -> np.ndarray:
        """The rows of one block of children that are injective and lawful on S_i, S_i derived."""
        for xs, a, b in lv.batches:
            kids[:, xs] = _products(flat2, n, kids[:, a], kids[:, b])
        if lv.later.size:  # g_i's image is off S_{i-1}'s already: compare the points it adds
            kids = kids[(kids[:, lv.later] != kids[:, lv.earlier]).all(axis=1)]
        return kids[(kids[:, lv.product] == _products(flat2, n, kids[:, lv.left], kids[:, lv.right])).all(axis=1)]

    def checked(lv: _Level, kids: np.ndarray) -> np.ndarray:
        """``survivors`` over row blocks of the children, in order."""
        step = max(1, _LAW_ENTRIES // lv.left.size)  # rows whose law pairs fill one block
        if len(kids) <= step:
            return survivors(lv, kids)
        return np.concatenate([survivors(lv, kids[i : i + step]) for i in range(0, len(kids), step)])

    def extend(depth: int, parents: np.ndarray) -> np.ndarray:
        """The children of ``parents`` at one level, in parent order, candidates ascending."""
        lv, cs = levels[depth], cands[depth]
        free = (parents[:, lv.seen, None] != cs).all(axis=1)  # [row, candidate]
        rows, picks = np.nonzero(free)
        kids = parents[rows]
        kids[:, lv.g] = cs[picks]
        return checked(lv, kids)

    seeds = np.zeros((len(cands[0]), n), dtype=dtype)  # level 0: g_0's candidates, one row each
    seeds[:, levels[0].g] = cands[0]
    top = checked(levels[0], seeds)
    budget = _walk_budget(n, first_only)
    leaves = []
    path = [[top, 0]]  # per depth from 0: rows at that depth, next parent to extend
    if len(levels) == 1:  # level 0 is the last
        leaves, path = [top[:1] if first_only else top], []
    while path:
        rows, i = path[-1]
        if i >= len(rows):
            path.pop()
            continue
        depth = len(path)  # the level of the children
        step = max(1, budget // max(1, len(cands[depth])))
        path[-1][1] = i + step
        kids = extend(depth, rows[i : i + step])
        if depth + 1 < len(levels):
            path.append([kids, 0])
        elif len(kids):
            leaves.append(kids[:1] if first_only else kids)
            if first_only:
                break
    stack = np.concatenate(leaves) if leaves else top[:0]
    if not in_order:
        stack = stack[np.lexsort(stack.T[::-1])]
    for lhs, rhs in _law_blocks(t1, t2, stack):
        if not (lhs == rhs).all():
            raise AssertionError("search produced a non-morphism; engine bug")
    return _compact(stack)


def classify(G: FiniteGroup, pm: PointMap) -> ClassifiedMap:
    """Decide which law a bijection satisfies, by full scan.

    A map satisfying both laws (possible only when the two coincide, i.e. on
    abelian groups) is classified as an automorphism.
    """
    if pm.n != G.n:
        raise NotBijective(pm.images)
    if preserves_table(G.table, pm.images):
        kind = AUTOMORPHISM
    elif reverses_table(G.table, pm.images):
        kind = ANTIAUTOMORPHISM
    else:
        kind = PLAIN
    return ClassifiedMap(pm, kind, G)


def inversion_map(G: FiniteGroup) -> ClassifiedMap:
    """The map g -> g^-1; an antiautomorphism, an automorphism when abelian."""
    return classify(G, PointMap(G.inverse))


# --- Aut(G) enumeration ---


class _AutEntry(NamedTuple):
    """Aut(G) and AAut(G) as sorted read-only compact stacks."""

    aut: np.ndarray
    aaut: np.ndarray


def _auts(G: FiniteGroup) -> _AutEntry:
    """Aut(G) and AAut(G) from G's store (``FiniteGroup._store``), enumerated on first use."""
    return _stored(G, ("Aut(G), AAut(G)",), lambda: _aut_entry(G))


def _aut_entry(G: FiniteGroup) -> _AutEntry:
    """Aut(G), the isomorphisms of G's table onto itself, and AAut(G) = {phi o inversion}.

    The search walks a group plan (``_table_isos``), which decides the law
    on G's generator columns.  That rests on associativity, which a group
    built with ``validate=False`` has not had checked, so Light's test
    (``groups._check_associativity``) runs first on the plan's generators
    and raises NotAssociative on a table that is not a group's.  Every row
    of Aut(G) is still checked on the full table.  AAut(G) needs no check of
    its own: inversion reverses the product of any group with two-sided
    inverses, so each phi o inversion does too.  It preserves the product
    as well exactly when inversion does, when G is abelian, so the kind of
    every AAut(G) row is read from G (``_family_maps``).
    """
    if G.n > config.MAX_AUT_GROUP_ORDER:
        raise CapExceeded("automorphism enumeration", G.n, config.MAX_AUT_GROUP_ORDER)
    plan = _SearchPlan(G.table, group=True)
    _check_associativity(G.table, plan.generators)
    aut = _table_isos(G.table, G.table, plan=plan)
    aaut = _unique_rows(aut[:, G.inverse])
    for arr in (aut, aaut):
        arr.setflags(write=False)
    return _AutEntry(aut, aaut)


def _family_maps(G: FiniteGroup, family: str, index: Optional[int] = None) -> List[ClassifiedMap]:
    """Fresh ClassifiedMaps of Aut(G) ("aut") or AAut(G) ("aaut"), all in order or row ``index`` alone.

    An AAut(G) row is an automorphism too exactly when G is abelian (``_aut_entry``).
    """
    rows = slice(None) if index is None else slice(index, index + 1)
    kind = ANTIAUTOMORPHISM if family == "aaut" and not G.is_abelian else AUTOMORPHISM
    return [ClassifiedMap(pm, kind, G) for pm in _point_maps(getattr(_auts(G), family)[rows])]


def _oracle_rows(table: np.ndarray, reverse: bool) -> List[Tuple[int, ...]]:
    """The bijections that preserve (or, with ``reverse``, reverse) a table, in order.

    All n! permutations are gathered by plain indexing and compared whole,
    without the law kernel (``_law_blocks``) that the oracle cross-checks.
    """
    n = table.shape[0]
    if n > config.MAX_ORACLE_ORDER:
        raise CapExceeded("n! map oracle", n, config.MAX_ORACLE_ORDER)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    lhs = perms[:, table]
    rhs = table[perms[:, :, None], perms[:, None, :]]
    if reverse:
        rhs = rhs.transpose(0, 2, 1)
    keep = (lhs == rhs).all(axis=(1, 2))
    return [tuple(map(int, row)) for row in perms[keep]]


def aut_oracle(G: FiniteGroup) -> List[ClassifiedMap]:
    """Aut(G) by scanning all n! bijections, sorted; only for very small groups."""
    return [ClassifiedMap(PointMap(row), AUTOMORPHISM, G) for row in _oracle_rows(G.table, False)]


def enumerate_aut(G: FiniteGroup) -> List[ClassifiedMap]:
    """Complete Aut(G), lexicographically sorted by images; fresh maps on each call."""
    return _family_maps(G, "aut")


def enumerate_aaut(G: FiniteGroup) -> List[ClassifiedMap]:
    """Complete AAut(G) = {phi o inversion | phi in Aut(G)}, sorted, verified; fresh maps on each call."""
    return _family_maps(G, "aaut")


# --- closure of map sets ---


def closure_of_point_maps(maps: Sequence[PointMap]) -> List[PointMap]:
    """Group generated by the given bijections, as a sorted list.

    Cayley-graph breadth-first search: each round composes only the frontier
    with the generators (inverses included, so every word is reachable by
    right multiplication alone).  Inverse-closed generators make the graph
    undirected, so a product of the current level lies in the previous, the
    current or the next level, and only the last two levels are searched.
    The cap, ``config.MAX_CLOSURE_SIZE``, is read at each call.
    Maps of different carriers raise CarrierMismatch.
    """
    if not maps:
        raise ValueError("closure needs at least one map")
    for pm in maps:
        if pm.n != maps[0].n:
            raise CarrierMismatch(maps[0].n, pm.n)
    cap = config.MAX_CLOSURE_SIZE
    gens = _stack_of(maps)
    n = gens.shape[1]
    gens = _unique_rows(np.concatenate([gens, np.argsort(gens, axis=1)]))
    frontier = _compact(np.arange(n))
    levels = [frontier]
    current = _keys(frontier)
    previous = current[:0]
    total = 1
    while True:
        products = _unique_rows(frontier[:, gens].reshape(-1, n))
        keys = _keys(products)
        fresh = ~(_in_sorted(keys, current) | _in_sorted(keys, previous))
        count = int(fresh.sum())
        if not count:
            break
        if total + count > cap:
            raise CapExceeded("map closure", total + count, cap)
        total += count
        frontier = products[fresh]
        levels.append(frontier)
        previous, current = current, keys[fresh]
    return _point_maps(_unique_rows(np.concatenate(levels)))


# --- Hol(G) keys ---
#
# The maps of the semidirect checks all lie in Hol(G) = {x -> a*phi(x)}, and
# such a map is fixed by its images on B = ``G.hol_base`` (see there).  Read
# as a base-n number, those |B| images are one int64 key per map, so a
# composite is needed only on B, (p o t)(b) = p[t[b]], and every dedupe,
# membership test and closure count sorts |B|-column int keys.  Keys exist
# only for rows that ``_hol_mask`` admits and for their products and
# inverses.  They do not sort like the images, so every set whose order
# reaches output keeps the byte keys above.


def _hol_keys(G: FiniteGroup, at_base: np.ndarray) -> np.ndarray:
    """The int64 keys of Hol(G) maps from their images on B, shaped (..., |B|)."""
    keys = at_base[..., 0].astype(np.int64)
    for i in range(1, at_base.shape[-1]):
        keys *= G.n
        keys += at_base[..., i]
    return keys


def _bijective_mask(stack: np.ndarray) -> np.ndarray:
    """Which rows of a (m, n) stack of images in {0..n-1} are bijections."""
    hit = np.zeros(stack.shape, dtype=bool)
    hit[np.arange(len(stack))[:, None], stack] = True
    return hit.all(axis=1)


def _hol_mask(G: FiniteGroup, stack: np.ndarray) -> np.ndarray:
    """Which rows of a stack are maps x -> a*phi(x) with phi in Aut(G).

    A row passes when it is a bijection and g = f(e)^-1 * f satisfies
    g(x*s) = g(x)*g(s) for every x and every generator s of G.  The s that
    pass are closed under the product, so g is then an automorphism.
    """
    t, gens, n = G.table, G.hol_base[1:], G.n
    flat = _flat_table(t)
    g = _products(flat, n, G.inverse[stack[:, G.identity]][:, None], stack)
    # g(x*s) against g(x)*g(s), indexed [row, x, s]
    products = _products(flat, n, g[:, :, None], g[:, None, gens])
    preserved = (g[:, t[:, gens]] == products).all(axis=(1, 2))
    return _bijective_mask(stack) & preserved


def _is_map_group(G: FiniteGroup, stack: np.ndarray) -> bool:
    """Whether the rows of a stack of Hol(G) maps are distinct and closed under composition.

    A finite set S of bijections closed under composition holds the powers
    of each member, so its inverses and the identity: this is the full
    subgroup test.  Each product is read on B only.  S is then closed
    exactly when its keys are distinct and the distinct keys of S o S are
    S's keys, since S o S holds S once the identity is in S.  The products
    are deduped by one sort, with no lookup.
    """
    base = G.hol_base
    keys = _distinct(_hol_keys(G, stack[:, base]))
    if len(keys) != len(stack):
        return False
    return np.array_equal(_distinct(_hol_keys(G, stack[:, stack[:, base]]).ravel()), keys)


def _product_counts(G: FiniteGroup, N: np.ndarray, C: np.ndarray, T: np.ndarray) -> Tuple[int, int]:
    """The distinct maps among the products P = N o C, and among the identity, P and P o T, all in Hol(G).

    Let T generate a group K that contains P.  Every member of K is a word
    in T, built from the identity by right multiplication, so P is all of K
    exactly when it holds the identity and P o T lies in P: exactly when the
    two counts are equal.  Otherwise the second is a lower bound on |K|.
    Each product is keyed on B only, n o c from N[:, C[:, B]] and
    n o c o t from N[:, C[:, T[:, B]]], without P itself; each count is one
    sort with no lookup, and the rows of N, C and T need not be distinct.
    """
    base = G.hol_base
    pkeys = _distinct(_hol_keys(G, N[:, C[:, base]]).ravel())
    steps = _hol_keys(G, N[:, C[:, T[:, base]]]).ravel()
    return len(pkeys), len(_distinct(np.concatenate([_hol_keys(G, base[None, :]), pkeys, steps])))


def _hol_generators(G: FiniteGroup, group: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The ascending Hol(G) keys of a group of Hol(G) maps, and rows of it that generate it.

    Greedy on the keys: each pick is the row with the least key outside the
    group that the earlier picks generate, closed from the identity by right
    multiplication.  A pick at least doubles that group (Lagrange), so there
    are at most log2 |group| picks.  The rows must be distinct and form a
    group, as ``_is_map_group`` decides: every product is then looked up by
    one searchsorted, with no membership test.
    """
    base = G.hol_base
    keys = _hol_keys(G, group[:, base])
    order = np.argsort(keys)
    keys, rows = keys[order], group[order]
    reached = keys == _hol_keys(G, base)  # the identity
    picks: List[int] = []
    while not reached.all():
        picks.append(int(np.argmin(reached)))
        gens = rows[picks][:, base]
        frontier = np.flatnonzero(reached)
        while frontier.size:
            steps = np.searchsorted(keys, _hol_keys(G, rows[frontier][:, gens]).ravel())
            frontier = _distinct(steps[~reached[steps]])
            reached[frontier] = True
    return keys, rows[picks]


# --- map families ---


def f_ab(G: FiniteGroup, a: int, b: int) -> PointMap:
    """The two-sided translation x -> a*x*b."""
    return PointMap(G.table[G.table[_in_range("a", a, G.n), :], _in_range("b", b, G.n)])


def left_translation(G: FiniteGroup, a: int) -> PointMap:
    """The map t_a: x -> a*x."""
    return PointMap(G.table[_in_range("a", a, G.n)])


# Each family below is a private function returning its sorted compact stack;
# the public list function of the same family builds its maps from it.


def _view(maps: Sequence, stack: np.ndarray, rows: np.ndarray) -> list:
    """The members of ``maps``, one per row of the sorted ``stack``, whose rows are ``rows``."""
    return [maps[i] for i in np.searchsorted(_keys(stack), _keys(rows))]


def _inner_stack(G: FiniteGroup) -> np.ndarray:
    """Inn(G) as a sorted compact stack: the distinct maps x -> g*x*g^-1."""
    t = G.table
    return _unique_rows(t[t, G.inverse[:, None]])  # [g, x] = g*x*g^-1


def inner_auts(G: FiniteGroup) -> List[ClassifiedMap]:
    """Conjugation maps x -> g*x*g^-1, deduplicated, sorted."""
    return [ClassifiedMap(pm, AUTOMORPHISM, G) for pm in _point_maps(_inner_stack(G))]


def _coset_leaders(inner: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Per row m of a stack, in order, the least member of its coset {s o m | s in inner}.

    ``inner`` is a group of maps, so two rows lie in one coset exactly when
    they have the same leader.  The members are ranked by key among all the
    s o m at once, and each column keeps the lowest rank.
    """
    cosets = inner[:, stack]  # [s, j] = s o m_j
    keys = _keys(cosets)
    rank = np.searchsorted(np.sort(keys), keys).reshape(len(inner), len(stack))
    return _compact(cosets[rank.argmin(axis=0), np.arange(len(stack))])


def _out_reps(G: FiniteGroup) -> np.ndarray:
    """One representative per coset of Inn(G) in Aut(G), the least member, sorted."""
    aut = _auts(G).aut
    return aut[(_coset_leaders(_inner_stack(G), aut) == aut).all(axis=1)]


def out_coset_reps(G: FiniteGroup) -> List[ClassifiedMap]:
    """One representative per coset of Inn(G) in Aut(G): the least member."""
    return _view(enumerate_aut(G), _auts(G).aut, _out_reps(G))


def _centralizer(G: FiniteGroup, stack: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The rows of a stack of (anti)automorphisms of G that commute with phi, in order.

    Exact only when phi is one of these too: then psi o phi and phi o psi are
    of one kind, so equal when they agree on B = ``G.hol_base``, which generates G.
    """
    base = G.hol_base
    return stack[(stack[:, phi[base]] == phi[stack[:, base]]).all(axis=1)]


class _Orbits(NamedTuple):
    """The Aut(G)-orbits on a parameter range, per member i: its orbit's least member and a conjugator.

    ``theta[i]`` is a row of Aut(G) that carries ``rep[i]`` to i: as
    theta o rep o theta^-1 on maps, as theta(rep) on elements.  A
    representative is carried to itself by row 0, the identity.
    """

    rep: np.ndarray
    theta: np.ndarray


def _orbits(G: FiniteGroup, family: str) -> _Orbits:
    """The orbits of Aut(G) on the rows of Aut(G) ("aut") or AAut(G) ("aaut") by conjugation, or on G's elements ("point"), from G's store.

    On maps, one gather per orbit: the conjugates of its least unvisited row
    by every theta, found among the stack's sorted keys.  On elements, the
    orbit of c is column c of Aut(G).
    """
    return _stored(G, ("orbits", family), lambda: _orbit_walk(G, family))


def _orbit_walk(G: FiniteGroup, family: str) -> _Orbits:
    aut = _auts(G).aut.astype(np.intp)
    if family == "point":
        rep = aut.min(axis=0)
        return _Orbits(rep, (aut[:, rep] == np.arange(G.n)).argmax(axis=0))
    stack = getattr(_auts(G), family)
    keys = _keys(stack)
    inv = np.argsort(aut, axis=1)
    rep = np.full(len(stack), -1, dtype=np.intp)
    theta = np.zeros(len(stack), dtype=np.intp)
    for i in range(len(stack)):
        if rep[i] < 0:
            conj = np.take_along_axis(aut, stack[i][inv], axis=1)  # [t, x] = theta_t(phi(theta_t^-1(x)))
            hit = np.searchsorted(keys, _keys(conj))
            order = np.argsort(hit, kind="stable")
            first = np.concatenate(([True], hit[order[1:]] != hit[order[:-1]]))  # each member's least theta
            rep[hit] = i
            theta[hit[order[first]]] = order[first]
    return _Orbits(rep, theta)


_EITHER_LAW = (AUTOMORPHISM, ANTIAUTOMORPHISM)


def centralizer_in_aut(G: FiniteGroup, phi: ClassifiedMap) -> List[ClassifiedMap]:
    """The members of Aut(G) that commute with phi, an (anti)automorphism, sorted."""
    images = _checked_images(G, phi, _EITHER_LAW, "centralizer needs an automorphism or an antiautomorphism")
    return _view(enumerate_aut(G), _auts(G).aut, _centralizer(G, _auts(G).aut, images))


def centralizer_in_aaut(G: FiniteGroup, phi: ClassifiedMap) -> List[ClassifiedMap]:
    """The members of AAut(G) that commute with phi, an (anti)automorphism, sorted."""
    images = _checked_images(G, phi, _EITHER_LAW, "centralizer needs an automorphism or an antiautomorphism")
    return _view(enumerate_aaut(G), _auts(G).aaut, _centralizer(G, _auts(G).aaut, images))


def is_central_automorphism(G: FiniteGroup, theta: ClassifiedMap) -> bool:
    """Whether x^-1 * theta(x) lies in Z(G) for every x."""
    images = _checked_images(G, theta, (AUTOMORPHISM,), "central-automorphism test needs an automorphism")
    return bool(G.center_mask[G.table[G.inverse, images]].all())


def fix_set(G: FiniteGroup, cm: ClassifiedMap) -> Subset:
    hits = np.flatnonzero(_checked_images(G, cm) == np.arange(G.n))
    return Subset(G, tuple(int(x) for x in hits))


def _all_f_ab_stack(G: FiniteGroup) -> np.ndarray:
    """Images of f_{a,b} for all (a,b), shaped (n, n, n) indexed [a, b, x]."""
    t = G.table
    return t[t].transpose(0, 2, 1)


def _H_stack(G: FiniteGroup) -> np.ndarray:
    """H = {t_a | a in Z(G)} as a sorted stack."""
    return _unique_rows(G.table[G.center_mask])


def build_H(G: FiniteGroup) -> List[PointMap]:
    """H = {t_a | a in Z(G)}; distinct maps, sorted."""
    return _point_maps(_H_stack(G))


def _F_stack(G: FiniteGroup) -> np.ndarray:
    """F = {f_{a,b} | a, b in G} as a sorted stack."""
    return _unique_rows(_all_f_ab_stack(G))


def build_F(G: FiniteGroup) -> List[PointMap]:
    """F = {f_{a,b} | a, b in G} as distinct point maps, sorted; |F| = n^2/|Z|."""
    return _point_maps(_F_stack(G))


def _F_prime_stack(G: FiniteGroup, phi: np.ndarray) -> np.ndarray:
    """F' = subgroup generated by {f_{a,b} | a in Fix(phi), b in G}, sorted; phi in Aut(G).

    The generating set is already closed: Fix(phi) is a subgroup and
    f_{a,b} f_{c,d} = f_{ac,db}, so no further closure pass is needed.
    """
    return _unique_rows(_all_f_ab_stack(G)[np.flatnonzero(phi == np.arange(G.n))])


def build_F_prime(G: FiniteGroup, phi: ClassifiedMap) -> List[PointMap]:
    """F' = subgroup generated by {f_{a,b} | a in Fix(phi), b in G}, sorted; phi in Aut(G)."""
    why = "F' needs an automorphism, whose Fix(phi) is a subgroup"
    images = _checked_images(G, phi, (AUTOMORPHISM,), why)
    return _point_maps(_F_prime_stack(G, images))


def _composes_as(maps: np.ndarray, table: np.ndarray) -> bool:
    """Whether maps[i] o maps[j] = maps[table[i, j]] for every i and j.

    Only the j among the table's k greedy generators are checked.  The j
    that pass for every i are closed under the product, as
    f_i f_(st) = f_i f_s f_t = f_(is) f_t = f_(i(st)), and every point is
    a product of generators, so the verdict is that of all |Q|^2 pairs, at
    |Q| * k * n memory instead of |Q|^2 * n.
    """
    gens = [g for g, _ in _generator_levels(table)]
    return bool((maps[:, maps[gens]] == maps[table[:, gens]]).all())


def verify_F_iso(G: FiniteGroup) -> Verdict:
    """F realises (G x G^op)/N, N = {(a, a^-1) | a in Z(G)}.

    Checks that (a,b) -> f_{a,b} is constant on N-cosets, is bijective onto F,
    and turns coset multiplication into map composition.
    """
    inputs = G.name
    product = direct_product(G, opposite(G))
    normal = [a * G.n + int(G.inverse[a]) for a in G.center()]
    quotient, projection = quotient_by_normal(product, normal)

    stack = _compact(_all_f_ab_stack(G))  # row a*n+b is f_{a,b}
    f_size = len(_distinct(_keys(stack)))
    # One stable sort lists each coset's members ascending, cosets in order:
    # its first member is its representative, and the first member out of
    # line lies in the least coset that is not well defined.
    members = np.argsort(projection, kind="stable")
    cosets = projection[members]
    reps = members[np.flatnonzero(np.concatenate(([True], cosets[1:] != cosets[:-1])))]
    off = np.flatnonzero((stack[members] != stack[reps[cosets]]).any(axis=1))
    well_defined = not off.size
    bad_pair = None if well_defined else (int(reps[cosets[off[0]]]), int(cosets[off[0]]))
    parts = [
        claim("f-structure/well-defined", inputs, "iff", well_defined, counterexample=bad_pair,
              notes="f depends only on the N-coset of (a,b)"),
        claim("f-structure/bijective", inputs, "iff", f_size == quotient.n,
              notes=f"|F| = {f_size}, |(GxG^op)/N| = {quotient.n}"),
        # Homomorphism: on coset representatives, composition of maps matches
        # the quotient's multiplication.
        # f_{a,b} f_{c,d} = f_{ac,db}, and (a,b)(c,d) = (ac, db) in G x G^op, so
        # the correspondence is a straight homomorphism.
        claim("f-structure/homomorphism", inputs, "iff", _composes_as(stack[reps], quotient.table),
              notes="coset product maps to composition f_i o f_j = f(q_i * q_j)"),
    ]
    return combine("f-structure/iso", inputs, "isomorphism", parts)

"""Finite quandles as validated operation tables.

A quandle is a table ``op[x][y] = x*y`` satisfying idempotency (Q1), right
bijectivity (Q2) and right self-distributivity (Q3).  The dual table for
the inverse operation is computed alongside: dual[x*y][y] = x.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional

import numpy as np

from .errors import ConstructionSpecError, Q1Fail, Q2Fail, Q3Fail
from .groupmaps import (
    PointMap,
    _block_rows,
    _flat_table,
    _products,
    closure_of_point_maps,
)
from .groups import _closed_table, _in_range

__all__ = [
    "Quandle",
    "quandle_from_table",
    "quandle_from_text",
    "quandle_to_text",
    "trivial",
    "dual",
    "is_commutative",
    "is_cocommutative",
    "is_involutory",
    "right_translation",
    "inn_group",
    "are_isomorphic",
]


def _check_q1(op: np.ndarray) -> None:
    n = op.shape[0]
    diag = op[np.arange(n), np.arange(n)]
    bad = diag != np.arange(n)
    if bad.any():
        raise Q1Fail(int(np.nonzero(bad)[0][0]))


def _check_q2(op: np.ndarray) -> None:
    n = op.shape[0]
    ok = (np.sort(op, axis=0) == np.arange(n)[:, None]).all(axis=0)
    if not ok.all():
        raise Q2Fail(int(np.nonzero(~ok)[0][0]))


def _check_q3(op: np.ndarray) -> None:
    """(x*y)*z = (x*z)*(y*z), in blocks of x; raises at the first failing (x, y, z)."""
    n = op.shape[0]
    flat = _flat_table(op)
    table = flat.reshape(n, n)
    step = _block_rows(n)
    for x0 in range(0, n, step):
        block = table[x0 : x0 + step]  # [x, z] = x*z
        left = table.take(block, axis=0)  # [x, y, z] = (x*y)*z, one row gather
        right = _products(flat, n, block[:, None, :], table[None, :, :])  # (x*z)*(y*z)
        bad = left != right
        if bad.any():
            i, y, z = map(int, np.argwhere(bad)[0])
            raise Q3Fail(x0 + i, y, z)


def _dual_table(op: np.ndarray) -> np.ndarray:
    """dual[op[x, y], y] = x: each column inverts a right multiplication."""
    idx = np.arange(op.shape[0])
    dual = np.empty_like(op)
    dual[op, idx[None, :]] = idx[:, None]
    return dual


class Quandle:
    """Immutable quandle on {0..n-1}; ``op`` and ``dual`` are read-only."""

    def __init__(self, op, name: Optional[str] = None, validate: bool = True):
        arr = _closed_table(op)
        n = int(arr.shape[0])
        if validate:
            _check_q1(arr)
            _check_q2(arr)
            _check_q3(arr)
        else:
            _check_q2(arr)  # the dual table needs Q2 regardless
        self.op = arr
        self.n = n
        self.name = name if name is not None else f"Q{n}"
        self.dual = _dual_table(arr)
        # ("plan",) -> search plan, ("inner",) -> Inn(Q), ("laws", shape, stack bytes) ->
        # the stack's law masks (quandlemaps._laws); no enumeration and no map objects
        self._store: dict = {}
        self.op.setflags(write=False)
        self.dual.setflags(write=False)

    def apply(self, x: int, y: int) -> int:
        return int(self.op[_in_range("x", x, self.n), _in_range("y", y, self.n)])

    @cached_property
    def is_commutative(self) -> bool:
        return bool((self.op == self.op.T).all())

    @cached_property
    def is_cocommutative(self) -> bool:
        return bool((self.dual == self.dual.T).all())

    @cached_property
    def is_involutory(self) -> bool:
        return bool((self.op == self.dual).all())

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "order": self.n,
            "op": self.op.tolist(),
            "dual": self.dual.tolist(),
            "commutative": self.is_commutative,
            "cocommutative": self.is_cocommutative,
            "involutory": self.is_involutory,
        }

    def __eq__(self, other) -> bool:
        return isinstance(other, Quandle) and np.array_equal(self.op, other.op)

    def __hash__(self) -> int:
        return hash(self.op.tobytes())

    def __repr__(self) -> str:
        return f"Quandle({self.name!r}, order={self.n})"


def quandle_from_table(table, name: Optional[str] = None) -> Quandle:
    """Validate a raw operation table against Q1, Q2, Q3 with witnesses."""
    return Quandle(table, name=name, validate=True)


def trivial(n: int) -> Quandle:
    """The trivial quandle: x*y = x."""
    if n < 1:
        raise ConstructionSpecError("trivial(n) needs n >= 1")
    op = np.tile(np.arange(n)[:, None], (1, n))
    return Quandle(op, name=f"T{n}", validate=False)


def dual(Q: Quandle) -> Quandle:
    """Same carrier under the inverse operation; an involution on quandles."""
    name = Q.name[:-5] if Q.name.endswith("^dual") else f"{Q.name}^dual"
    return Quandle(Q.dual, name=name, validate=True)


def is_commutative(Q: Quandle) -> bool:
    return Q.is_commutative


def is_cocommutative(Q: Quandle) -> bool:
    return Q.is_cocommutative


def is_involutory(Q: Quandle) -> bool:
    return Q.is_involutory


def right_translation(Q: Quandle, y: int) -> PointMap:
    """The permutation S_y: x -> x*y (an automorphism of Q, by Q2 + Q3)."""
    return PointMap(Q.op[:, _in_range("y", y, Q.n)])


def inn_group(Q: Quandle) -> List[PointMap]:
    """Inn(Q): closure of all right translations under composition/inverse."""
    gens = [right_translation(Q, y) for y in range(Q.n)]
    return closure_of_point_maps(gens)


def are_isomorphic(Q1: Quandle, Q2: Quandle) -> Optional[PointMap]:
    """Lexicographically least operation-preserving bijection, if any."""
    from .quandlemaps import _quandle_iso

    images = _quandle_iso(Q1, Q2)
    return None if images is None else PointMap(images)


def quandle_from_text(text: str) -> Quandle:
    from .groups import parse_table_text

    table, name = parse_table_text(text)
    return quandle_from_table(table, name=name)


def quandle_to_text(Q: Quandle) -> str:
    from .groups import format_table_text

    return format_table_text(Q.op, Q.name)

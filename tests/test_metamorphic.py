"""A relabelled group gets the same census verdicts.

Every construction and claim of the census is a formula in G's operations
and one map or element, so no verdict can depend on how G's points are
numbered.  Let pi rename G's points.  The verdict at phi (or psi) on G must
equal the verdict at pi o phi o pi^-1 on the renamed group, and the verdict
at c the one at pi(c): holds, lhs, rhs, vacuous and skipped, on every node.
Inputs and notes name maps and elements by their numbers and are left out.
A fault that reads the numbering, such as a table entry that takes the
identity for point 0, breaks this.
"""

import re

import numpy as np
import pytest

from quandlekit import FiniteGroup, named_group, run_census
from quandlekit.groupmaps import _auts, _unique_rows

SPECS = ("Z6", "S3", "Q8", "D4")
SEEDS = (5, 11)

MAP = re.compile(r"\b(phi|base)=\[([0-9,]+)\]")
POINT = re.compile(r"\bc=(\d+)")


def relabelling(G, seed):
    """A seeded permutation pi of G's points that moves the identity."""
    perm = np.random.default_rng(seed).permutation(G.n)
    return perm if perm[G.identity] != G.identity else np.roll(perm, 1)


def relabelled(G, perm):
    """G with each point x renamed perm[x], under G's name, so inputs differ only in numbers."""
    table = np.empty_like(G.table)
    table[perm[:, None], perm[None, :]] = perm[G.table]
    return FiniteGroup(table, name=G.name)


def conjugated(images, perm):
    """pi o f o pi^-1: the map f on the renamed points."""
    out = np.empty_like(perm)
    out[perm] = perm[np.asarray(images, dtype=np.intp)]
    return out


def renamed(inputs, perm):
    """The inputs at pi's image of a verdict's parameter: phi or psi conjugated, c renamed."""
    inputs = MAP.sub(lambda m: f"{m[1]}=[{','.join(map(str, conjugated(m[2].split(','), perm)))}]", inputs)
    return POINT.sub(lambda m: f"c={perm[int(m[1])]}", inputs)


def shape(node):
    """A verdict node's fields that no numbering reaches, its parts' included."""
    return (node["theorem_id"], node["holds"], node["lhs"], node["rhs"], node["vacuous"], node["skipped"],
            [shape(part) for part in node.get("parts", [])])


@pytest.mark.parametrize("spec", SPECS)
def test_a_relabelled_group_gets_the_same_verdicts(spec):
    G = named_group(spec)
    report = run_census([G])
    stacks = {family: getattr(_auts(G), family) for family in ("aut", "aaut")}
    for seed in SEEDS:
        perm = relabelling(G, seed)
        H = relabelled(G, perm)
        assert H.identity == perm[G.identity] != G.identity
        for family, stack in stacks.items():  # the sweep ranges correspond under phi -> pi phi pi^-1
            moved = _unique_rows(np.stack([conjugated(row, perm) for row in stack]))
            assert moved.tobytes() == getattr(_auts(H), family).tobytes(), (seed, family)
        other = run_census([H])
        assert other["summary"] == report["summary"], seed
        checks = {(c["theorem_id"], c["inputs"]): c for c in other["checks"]}
        assert len(checks) == len(other["checks"]) == len(report["checks"])
        for c in report["checks"]:
            key = (c["theorem_id"], renamed(c["inputs"], perm))
            assert shape(checks[key]) == shape(c), (seed, c["theorem_id"], c["inputs"], key[1])

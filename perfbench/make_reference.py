"""Regenerate the stored references the output checks compare against.

    PYTHONPATH=src python3 perfbench/make_reference.py

- ``reference/census_catalog.json``: every top-level verdict of the census
  over the catalog without H3, as (theorem_id, inputs, holds).
- ``reference/quandle_enum.json``: every distinct non-trivial quandle of
  order 8-12 that the census constructions produce over the catalog, with
  the first construction that yields it, a digest of its table and its
  automorphism and antiautomorphism counts.

Run it only when a change is meant to alter these outputs, and say so.
"""

from __future__ import annotations

import json

import numpy as np

import quandlekit as qk
from quandlekit.harness import M_RANGE

from workloads import LARGE_GROUP, REFERENCE_DIR, build_quandle, table_digest

ENUM_ORDERS = range(8, 13)
DIHEDRAL_NS = range(3, 11)  # the census's dihedral-no-anti sweep


def census_constructions(catalog):
    """Every (group, kind, param) the census builds a quandle from."""
    for n in DIHEDRAL_NS:
        yield "-", "dihedral", n
    for G in catalog.values():
        for m in M_RANGE:
            yield G.name, "conj", m
        yield G.name, "core", None
        for i in range(len(qk.enumerate_aut(G))):
            yield G.name, "alex", i
            yield G.name, "q1", i
        for i in range(len(qk.enumerate_aaut(G))):
            for kind in ("q2", "q3", "q4"):
                yield G.name, kind, i
        for c in range(G.n):
            for kind in ("p1", "p2", "p3", "p4"):
                yield G.name, kind, c


def enum_reference(catalog) -> list:
    small = {name: G for name, G in catalog.items() if G.n in ENUM_ORDERS}
    seen = set()
    quandles = []
    for group, kind, param in census_constructions(small):
        if kind == "dihedral" and param not in ENUM_ORDERS:
            continue
        spec = {"label": f"{group}:{kind}:{param}", "group": group, "kind": kind, "param": param}
        try:
            Q = build_quandle(spec, catalog)
        except (qk.WrongMapKind, qk.CompatibilityFail):
            continue
        key = Q.op.tobytes()
        trivial = bool((Q.op == np.arange(Q.n)[:, None]).all())
        if key in seen or trivial:
            seen.add(key)
            continue
        seen.add(key)
        spec.update(
            order=Q.n,
            digest=table_digest(Q),
            auts=len(qk.enumerate_quandle_auts(Q)),
            antis=len(qk.enumerate_quandle_antis(Q)),
        )
        quandles.append(spec)
    return quandles


def main() -> None:
    catalog = {G.name: G for G in qk.default_catalog()}
    groups = [G for name, G in catalog.items() if name != LARGE_GROUP]
    report = qk.run_census(groups)
    census = {
        "catalog": [G.name for G in groups],
        "checks": [[c["theorem_id"], c["inputs"], c["holds"]] for c in report["checks"]],
    }
    with open(REFERENCE_DIR / "census_catalog.json", "w", encoding="utf-8") as fh:
        json.dump(census, fh, indent=0)
        fh.write("\n")
    with open(REFERENCE_DIR / "quandle_enum.json", "w", encoding="utf-8") as fh:
        json.dump({"quandles": enum_reference(catalog)}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

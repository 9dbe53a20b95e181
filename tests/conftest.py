"""Shared fixtures: small groups and a corpus of constructed quandles."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from quandlekit import (
    alex,
    conj_m,
    core,
    dihedral_quandle,
    enumerate_aaut,
    enumerate_aut,
    named_group,
    p1,
    p2,
    p3,
    p4,
    q1,
    q2,
    trivial,
)

# CI sets HYPOTHESIS_PROFILE=ci, so that a failing property test prints the
# @reproduce_failure blob that replays it; local runs keep the default.
settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

SMALL_GROUP_SPECS = ("Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2", "S3", "D4", "Q8")


@pytest.fixture(scope="session")
def groups():
    return {spec: named_group(spec) for spec in SMALL_GROUP_SPECS}


@pytest.fixture(scope="session")
def quandle_corpus(groups):
    """Constructed quandles of order <= 8, labelled for failure messages."""
    corpus = []
    for n in range(1, 8):
        corpus.append((f"T{n}", trivial(n)))
        corpus.append((f"R{n}", dihedral_quandle(n)))
    for spec, G in groups.items():
        corpus.append((f"Core({spec})", core(G)))
        for m in (-1, 0, 1, 2):
            corpus.append((f"Conj_{m}({spec})", conj_m(G, m)))
        for k, phi in enumerate(enumerate_aut(G)):
            corpus.append((f"Alex({spec},phi{k})", alex(G, phi)))
            corpus.append((f"Q1({spec},phi{k})", q1(G, phi)))
        for k, psi in enumerate(enumerate_aaut(G)):
            corpus.append((f"Q2({spec},psi{k})", q2(G, psi)))
        for c in range(G.n):
            for i, ctor in enumerate((p1, p2, p3, p4), start=1):
                corpus.append((f"P{i}({spec},c={c})", ctor(G, c)))
    return corpus

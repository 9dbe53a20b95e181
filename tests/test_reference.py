"""f-structure and alex against the paper's formulas, re-derived by brute force.

Each leaf part is computed here with Python loops over the group's table
alone: Aut(G) and AAut(G) by trying every permutation, the two-sided
translations f_(a,b)(x) = a*x*b, the Core law x*y = y x^-1 y and the
Alexander law x*y = phi(x y^-1) y, |F| = n^2/|Z(G)|, the three parts of
F = (GxG^op)/N by grouping the pairs (a, b) into cosets of
N = {(z, z^-1) | z in Z(G)}, and alex's three parts.  No store, law mask,
orbit, search plan, construction entry or groupmaps helper is read, so a
fault in any of them changes a node here whatever the goldens say.

Every node is compared on lhs, rhs, holds, vacuous and skipped: against
``run_check`` at each index, and against the full sweep, whose members
are partly copied along Aut(G)-orbits.
"""

import functools
import itertools

import pytest

from quandlekit import named_group, run_check

SPECS = ("Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z2xZ2", "D3", "D4", "S3", "Q8")
CHECKS = ("f-structure", "alex")
# Groups with a non-abelian Aut(G), so a full sweep copies some verdicts along an orbit.
ORBITS_OF_SEVERAL = ("Z2xZ2", "D3", "D4", "S3", "Q8")


def _leaf(theorem_id, relationship, lhs, rhs=True, vacuous=False):
    """A two-sided node: under "implies" it holds when lhs is false or rhs true, otherwise when they agree."""
    holds = (not lhs or rhs) if relationship == "implies" else lhs == rhs
    return [(theorem_id, lhs, rhs, holds, vacuous, False)]


def _node(theorem_id, parts):
    """A node over its parts, preorder: it holds when every part does; vacuous or skipped when every part is."""
    tops = [part[0] for part in parts]
    head = (theorem_id, None, None, all(t[3] for t in tops), all(t[4] for t in tops), all(t[5] for t in tops))
    return [head] + [row for part in parts for row in part]


def _per_map_iff(theorem_id, induced, rhs):
    """'for every map: induced <-> rhs': lhs is all of them when rhs holds, any of them otherwise."""
    if not induced:
        return _leaf(theorem_id, "iff", rhs, rhs, vacuous=True)
    return _leaf(theorem_id, "iff", all(induced) if rhs else any(induced), rhs)


class _Group:
    """A catalog group as nested lists, with everything the paper's formulas read, by loops."""

    def __init__(self, spec):
        G = named_group(spec)
        self.name = G.name
        t = self.t = G.table.tolist()
        n = self.n = len(t)
        els = range(n)
        e = next(e for e in els if all(t[e][x] == x == t[x][e] for x in els))
        self.inv = [next(y for y in els if t[x][y] == e) for x in els]
        self.centre = [z for z in els if all(t[z][x] == t[x][z] for x in els)]
        self.abelian = len(self.centre) == n
        perms = list(itertools.permutations(els))
        self.aut = [p for p in perms if all(p[t[a][b]] == t[p[a]][p[b]] for a in els for b in els)]
        self.aaut = [p for p in perms if all(p[t[a][b]] == t[p[b]][p[a]] for a in els for b in els)]

    def f(self, a, b):
        """f_(a,b)(x) = a*x*b."""
        return tuple(self.t[self.t[a][x]][b] for x in range(self.n))

    def preserves(self, op, f):
        return all(f[op[x][y]] == op[f[x]][f[y]] for x in range(self.n) for y in range(self.n))

    def reverses(self, op, f):
        return all(f[op[x][y]] == op[f[y]][f[x]] for x in range(self.n) for y in range(self.n))

    def alex(self, phi):
        """x*y = phi(x y^-1) y."""
        t, inv = self.t, self.inv
        return [[t[phi[t[x][inv[y]]]][y] for y in range(self.n)] for x in range(self.n)]

    def label(self, phi):
        return f"{self.name}, phi=[{','.join(map(str, phi))}]"

    @functools.cached_property
    def facts(self):
        """F inside Aut(Core(G)), F-size, and F = (GxG^op)/N with its three parts."""
        t, inv, n = self.t, self.inv, self.n
        core = [[t[t[y][inv[x]]][y] for y in range(n)] for x in range(n)]  # x*y = y x^-1 y
        pairs = [(a, b) for a in range(n) for b in range(n)]
        F = {self.f(a, b) for a, b in pairs}
        # the N-coset of (a, b) in G x G^op, where (a, b)(c, d) = (ac, db)
        coset = {(a, b): frozenset((t[a][z], t[inv[z]][b]) for z in self.centre) for a, b in pairs}
        cosets = set(coset.values())
        well_defined = all(len({self.f(a, b) for a, b in c}) == 1 for c in cosets)
        reps = [min(c) for c in cosets]
        homomorphism = all(
            tuple(self.f(a, b)[self.f(c, d)[x]] for x in range(n)) == self.f(*min(coset[t[a][c], t[d][b]]))
            for a, b in reps for c, d in reps
        )
        return (
            _leaf("f-structure/F-in-core-aut", "subgroup-embedding", all(self.preserves(core, f) for f in F)),
            _leaf("f-structure/F-size", "iff", len(F) == n * n // len(self.centre)),
            _node("f-structure/iso", [
                _leaf("f-structure/well-defined", "iff", well_defined),
                _leaf("f-structure/bijective", "iff", len(F) == len(cosets)),
                _leaf("f-structure/homomorphism", "iff", homomorphism),
            ]),
        )

    def f_structure(self, phi):
        in_core, size, iso = self.facts
        fprime = {self.f(a, b) for a in range(self.n) if phi[a] == a for b in range(self.n)}
        op = self.alex(phi)
        in_alex = _leaf("f-structure/Fprime-in-alex-aut", "subgroup-embedding",
                        all(self.preserves(op, f) for f in fprime), vacuous=not fprime)
        return _node("f-structure", [in_core, size, in_alex, iso])

    def alex_check(self, phi):
        op = self.alex(phi)
        commuting = [p for p in self.aaut if all(p[phi[x]] == phi[p[x]] for x in range(self.n))]
        commuting_auts = [p for p in self.aut if all(p[phi[x]] == phi[p[x]] for x in range(self.n))]
        central = all(self.t[self.inv[x]][phi[x]] in self.centre for x in range(self.n))  # x^-1 phi(x)
        return _node("alex", [
            _per_map_iff("alex/aaut-induces-auto-iff-central", [self.preserves(op, p) for p in commuting], central),
            _leaf("alex/aaut-induces-anti-implies-abelian", "implies",
                  any(self.reverses(op, p) for p in commuting), self.abelian, vacuous=not commuting),
            _leaf("alex/aut-anti-intersection-implies-abelian", "implies",
                  any(self.reverses(op, p) for p in commuting_auts), self.abelian, vacuous=not commuting_auts),
        ])

    def expected(self, check, phi):
        return self.f_structure(phi) if check == "f-structure" else self.alex_check(phi)


@functools.lru_cache(maxsize=None)
def _reference(spec):
    return _Group(spec)


def _nodes(verdict):
    return [(v.theorem_id, v.lhs, v.rhs, v.holds, v.vacuous, v.skipped) for v in verdict.walk()]


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("spec", SPECS)
def test_each_index_matches_the_reference(spec, check):
    ref = _reference(spec)
    G = named_group(spec)
    for i, phi in enumerate(ref.aut):
        (v,) = run_check(check, G, phi_index=i)
        assert v.inputs == ref.label(phi), (spec, i)
        assert _nodes(v) == ref.expected(check, phi), (spec, i)


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("spec", SPECS)
def test_the_full_sweep_matches_the_reference(spec, check):
    ref = _reference(spec)
    verdicts = run_check(check, named_group(spec))
    assert [v.inputs for v in verdicts] == [ref.label(phi) for phi in ref.aut]
    for v, phi in zip(verdicts, ref.aut):
        assert _nodes(v) == ref.expected(check, phi), (spec, v.inputs, v.via)
    assert any(v.via is not None for v in verdicts) == (spec in ORBITS_OF_SEVERAL)

"""Size caps that bound the exhaustive parts of the library.

The caps are small on purpose: everything here is meant for orders where a
dense multiplication table and brute enumeration are cheap.  Callers that
need more should raise them explicitly and accept the cost.
"""

from __future__ import annotations

# Largest group or quandle order accepted by the table validators (7!).
MAX_ORDER = 5040

# Bail out of automorphism-group enumeration for groups past this order.
MAX_AUT_GROUP_ORDER = 64

# Bail out of quandle map enumeration (the table isomorphism engine) past this.
MAX_QUANDLE_ENUM_ORDER = 12

# The all-permutations oracle materialises n! maps at once.
MAX_ORACLE_ORDER = 7
MAX_GROUP_ORACLE_ORDER = 6

# Closure computations (products of permutations / subgroup generation)
# stop once this many distinct elements have been produced.
MAX_CLOSURE_SIZE = 1_000_000

# The semidirect checks decide closure on the |N| * |C| product maps they
# build (one lookup of every product times a generator) up to this many
# products; above it they certify the factorisation from the other clauses.
MAX_SEMIDIRECT_BFS = 4096

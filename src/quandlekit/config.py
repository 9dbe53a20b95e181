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

# The all-permutations oracles, of groups and of quandles, materialise n! maps at once.
MAX_ORACLE_ORDER = 7

# Closure computations (products of permutations / subgroup generation)
# stop once this many distinct elements have been produced.
MAX_CLOSURE_SIZE = 1_000_000

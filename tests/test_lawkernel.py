"""The flat-index law kernel against the broadcast formulas it replaced.

Every law test reads two gathers over a stack of maps f: f(x*y) along the
table, and f(x)*f(y) as one take on the flattened table
(``groupmaps._law_blocks``).  These tests keep the broadcast fancy-index
formulas as the reference.  The masks, the single-map predicates, the Q3
witness and the compatibility witness must equal theirs, and the
tracemalloc peak must stay at or below theirs.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit import (
    CarrierMismatch,
    CompatibilityFail,
    Q3Fail,
    alex,
    conj_m,
    core,
    dihedral_quandle,
    enumerate_aaut,
    enumerate_aut,
    enumerate_quandle_antis,
    enumerate_quandle_auts,
    named_group,
    p1,
    p3,
    q1,
    q2,
    quandle_from_table,
    trivial,
)
from quandlekit.constructions import _require_compatible
from quandlekit.groupmaps import (
    _auts,
    _compact,
    _law_blocks,
    _law_masks,
    _stack_of,
    preserves_table,
    preserving_mask,
    reverses_table,
    reversing_mask,
)
from quandlekit.harness import CATALOG_SPECS
from quandlekit.quandlemaps import _laws
from quandlekit.quandles import _check_q3

# --- the broadcast formulas the kernel replaced ---


def ref_preserving_mask(table, stack):
    if not len(stack):
        return np.zeros(0, dtype=bool)
    lhs = stack[:, table]
    rhs = table[stack[:, :, None], stack[:, None, :]]
    return (lhs == rhs).all(axis=(1, 2))


def ref_reversing_mask(table, stack):
    if not len(stack):
        return np.zeros(0, dtype=bool)
    lhs = stack[:, table]
    rhs = table[stack[:, :, None], stack[:, None, :]].transpose(0, 2, 1)
    return (lhs == rhs).all(axis=(1, 2))


def ref_preserves_table(table, images):
    return bool(np.array_equal(images[table], table[np.ix_(images, images)]))


def ref_reverses_table(table, images):
    return bool(np.array_equal(images[table], table[np.ix_(images, images)].T))


def ref_q3_witness(op, entries=1 << 22):
    """The first (x, y, z) with (x*y)*z != (x*z)*(y*z), by the full broadcast scan.

    ``entries`` bounds a block, as before; the witness does not depend on it.
    """
    n = op.shape[0]
    chunk = max(1, entries // (n * n))
    for x0 in range(0, n, chunk):
        block = op[x0 : x0 + chunk]
        left = op[block[:, :, None], np.arange(n)[None, None, :]]  # (x*y)*z
        right = op[block[:, None, :], op[None, :, :]]  # (x*z)*(y*z)
        bad = left != right
        if bad.any():
            i, y, z = map(int, np.argwhere(bad)[0])
            return (x0 + i, y, z)
    return None


def ref_compatibility_witness(G, psi):
    t, inv = G.table, G.inverse
    idx = np.arange(G.n)
    lhs = t[t[idx[:, None], psi[None, :]], inv[:, None]]
    rhs = psi[t[t, inv[:, None]]]
    bad = np.argwhere(lhs != rhs)
    return tuple(map(int, bad[0])) if len(bad) else None


# --- the corpus: tables with the maps the checks test on them ---


def _group_rows(G):
    return np.concatenate([_stack_of(enumerate_aut(G)), _stack_of(enumerate_aaut(G))])


def _quandle_rows(Q):
    maps = enumerate_quandle_auts(Q) + enumerate_quandle_antis(Q)
    return _stack_of(maps)


@pytest.fixture(scope="module")
def law_tables():
    """(name, table, rows): every catalog group and census-style quandles on them."""
    out = []
    for spec in CATALOG_SPECS:
        G = named_group(spec)
        rows = _group_rows(G)
        out.append((spec, G.table, rows))
        if G.n > 12 and spec != "heisenberg3":
            continue
        phis, psis = enumerate_aut(G), enumerate_aaut(G)
        built = [core(G), conj_m(G, 1), alex(G, phis[-1]), q1(G, phis[len(phis) // 2]),
                 q2(G, psis[0]), p1(G, G.n - 1), p3(G, G.n // 2)]
        out.extend((Q.name, Q.op, rows) for Q in built)
    for n in (3, 5, 6, 8):
        Q = dihedral_quandle(n)
        out.append((Q.name, Q.op, _quandle_rows(Q)))
    return out


def _draw_stack(data, rows, n, max_rows=24):
    """A stack mixing given map rows with random rows in {0..n-1}, in one of three dtypes."""
    picks = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=max_rows), label="picks")
    noise = data.draw(
        st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), max_size=8),
        label="noise",
    )
    stack = np.concatenate([rows[picks].astype(np.int64), np.array(noise, dtype=np.int64).reshape(-1, n)])
    stack = stack[data.draw(st.permutations(range(len(stack))), label="order")]
    kind = data.draw(st.sampled_from(["compact", "int64", ">u2"]), label="dtype")
    if kind == "compact":
        return _compact(stack) if len(stack) else stack.astype(np.uint8)
    return stack.astype(kind)


def _perturb(data, table):
    """The table with one to three entries set to other points: no longer a law-abiding table."""
    table = table.copy()
    n = table.shape[0]
    for _ in range(data.draw(st.integers(1, 3), label="changes")):
        x, y, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        table[x, y] = v
    return table


def _assert_kernel_matches(table, stack):
    auto, anti = _law_masks(table, stack)
    expect_auto, expect_anti = ref_preserving_mask(table, stack), ref_reversing_mask(table, stack)
    assert auto.dtype == anti.dtype == bool
    assert auto.tolist() == expect_auto.tolist()
    assert anti.tolist() == expect_anti.tolist()
    assert preserving_mask(table, stack).tolist() == expect_auto.tolist()
    assert reversing_mask(table, stack).tolist() == expect_anti.tolist()
    for row in stack.astype(np.int64):
        assert preserves_table(table, row) is ref_preserves_table(table, row)
        assert reverses_table(table, row) is ref_reverses_table(table, row)


class TestLawKernel:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_masks_equal_the_broadcast_formulas(self, law_tables, data):
        name, table, rows = data.draw(st.sampled_from(law_tables), label="table")
        if data.draw(st.booleans(), label="perturbed"):
            table = _perturb(data, table)
        stack = _draw_stack(data, rows, table.shape[0])
        _assert_kernel_matches(table, stack)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_two_table_gathers_equal_the_broadcast_formula(self, law_tables, data):
        # The search re-check reads f(t1[x, y]) against t2[f(x), f(y)].
        name, t1, rows = data.draw(st.sampled_from(law_tables), label="table")
        t2 = _perturb(data, t1) if data.draw(st.booleans(), label="perturbed") else t1
        stack = _draw_stack(data, rows, t1.shape[0], max_rows=200)
        got = [(lhs == rhs).all(axis=(1, 2)) for lhs, rhs in _law_blocks(t1, t2, stack)]
        got = np.concatenate([np.zeros(0, dtype=bool)] + got)
        expect = (stack[:, t1] == t2[stack[:, :, None], stack[:, None, :]]).all(axis=(1, 2))
        assert got.tolist() == expect.tolist()

    @pytest.mark.parametrize("width", [5, 7])
    @pytest.mark.parametrize(
        "kernel",
        [preserves_table, reverses_table, preserving_mask, reversing_mask, _law_masks],
        ids=lambda kernel: kernel.__name__,
    )
    def test_a_map_of_another_width_is_a_carrier_mismatch(self, kernel, width):
        table = core(named_group("S3")).op
        images = np.arange(width)
        with pytest.raises(CarrierMismatch, match=f"expected 6, got {width}"):
            kernel(table, images if kernel in (preserves_table, reverses_table) else images[None])
        with pytest.raises(CarrierMismatch, match=f"expected 6, got {width}"):
            _laws(quandle_from_table(table), images[None])

    @pytest.mark.parametrize("spec", ["Z5", "S3", "heisenberg3"])
    def test_empty_and_one_row_stacks(self, spec):
        G = named_group(spec)
        Q = core(G)
        rows = _group_rows(G)
        for stack in (rows[:0], _stack_of([]), rows[:1], rows[-1:], rows[:0].astype(">u2")):
            for table in (G.table, Q.op):
                _assert_kernel_matches(table, stack)
                assert len(_law_masks(table, stack)[0]) == len(stack)

    def test_a_block_boundary_keeps_the_row_order(self):
        # Aut(H3) u AAut(H3) spans several kernel blocks on Alex(H3, phi).
        G = named_group("heisenberg3")
        rows = _group_rows(G)
        Q = alex(G, enumerate_aut(G)[5])
        _assert_kernel_matches(Q.op, rows)
        assert _law_masks(Q.op, rows)[0].any() and not _law_masks(Q.op, rows)[0].all()

    @settings(max_examples=4, deadline=None)
    @given(n=st.integers(257, 300), data=st.data())
    def test_big_endian_stacks_past_256_points(self, n, data):
        # x -> a + x and x -> a - x preserve R_n; every bijection preserves T_n.
        idx = np.arange(n)
        a = data.draw(st.integers(0, n - 1), label="a")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        rows = [idx, (a + idx) % n, (a - idx) % n, rng.permutation(n), rng.integers(0, n, n)]
        stack = _compact(rows)
        assert stack.dtype == np.dtype(">u2")
        for Q in (dihedral_quandle(n), trivial(n)):
            _assert_kernel_matches(Q.op, stack)
        assert _law_masks(dihedral_quandle(n).op, stack)[0].tolist() == [True, True, True, False, False]


# --- Q3 ---


def _swap_in_column(data, op):
    """Swap two off-diagonal entries of one column: Q1 and Q2 still hold."""
    n = op.shape[0]
    y = data.draw(st.integers(0, n - 1), label="column")
    x1, x2 = data.draw(
        st.lists(st.integers(0, n - 1).filter(lambda x: x != y), min_size=2, max_size=2, unique=True),
        label="rows",
    )
    op = op.copy()
    op[x1, y], op[x2, y] = op[x2, y], op[x1, y]
    return op


class TestQ3Witness:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_witness_equals_the_full_scan(self, law_tables, data):
        quandles = [op for name, op, _ in law_tables if name not in CATALOG_SPECS and op.shape[0] > 2]
        op = _swap_in_column(data, data.draw(st.sampled_from(quandles), label="quandle"))
        expect = ref_q3_witness(op)
        if expect is None:
            quandle_from_table(op)
            return
        with pytest.raises(Q3Fail) as exc:
            quandle_from_table(op)
        assert exc.value.witness == expect

    @settings(max_examples=3, deadline=None)
    @given(n=st.integers(257, 300), data=st.data())
    def test_witness_past_256_points(self, n, data):
        op = _swap_in_column(data, dihedral_quandle(n).op)
        expect = ref_q3_witness(op, entries=1 << 18)
        assert expect is not None
        with pytest.raises(Q3Fail) as exc:
            quandle_from_table(op)
        assert exc.value.witness == expect

    def test_valid_quandles_pass(self, law_tables):
        for name, op, _ in law_tables:
            if name not in CATALOG_SPECS:
                _check_q3(op)


class TestCompatibilityWitness:
    @pytest.mark.parametrize("spec", ["Z6", "S3", "D4", "Q8", "D5", "S4"])
    def test_witness_equals_the_broadcast_formula(self, spec):
        G = named_group(spec)
        for psi in enumerate_aaut(G):
            expect = ref_compatibility_witness(G, psi.images)
            if expect is None:
                _require_compatible(G, psi.images)
                continue
            with pytest.raises(CompatibilityFail) as exc:
                _require_compatible(G, psi.images)
            assert exc.value.witness == expect


class TestStoredLaws:
    """``quandlemaps._laws`` keeps one mask pair per stack content in the quandle's store."""

    FORMS = ("int64", "uint8", "table.T", "empty", "repeated")

    @staticmethod
    def _stack(G, rows, form, picks):
        if form == "table.T":
            return G.table.T  # the right translations, a non-contiguous int64 view
        if form == "empty":
            return rows[:0]
        picked = rows[picks]
        if form == "repeated":
            return np.concatenate([picked, picked[::-1], picked])
        return picked.astype(np.int64) if form == "int64" else picked

    @settings(max_examples=80, deadline=None)
    @given(
        spec=st.sampled_from(["Z5", "Z2xZ2", "S3", "D4", "Q8"]),
        build=st.sampled_from(["core", "conj", "alex", "p3"]),
        form=st.sampled_from(FORMS),
        data=st.data(),
    )
    def test_the_stored_pair_equals_fresh_masks(self, spec, build, form, data):
        G = named_group(spec)
        Q = {"core": lambda: core(G), "conj": lambda: conj_m(G, 1),
             "alex": lambda: alex(G, enumerate_aut(G)[-1]), "p3": lambda: p3(G, G.n - 1)}[build]()
        rows = _group_rows(G)
        picks = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=12), label="picks")
        stack = self._stack(G, rows, form, picks)
        auto, anti = _laws(Q, stack)
        assert auto.tolist() == preserving_mask(Q.op, stack).tolist()
        assert anti.tolist() == reversing_mask(Q.op, stack).tolist()
        assert not auto.flags.writeable and not anti.flags.writeable
        for same in (np.ascontiguousarray(stack, dtype=np.int64), _compact(stack) if len(stack) else stack):
            again = _laws(Q, same)
            assert again[0] is auto and again[1] is anti  # read back from Q's store, not gathered again
        assert len(Q._store) == 1


# --- memory ---


def _peak(fn, *args):
    fn(*args)  # first call: let numpy settle any lazy state outside the measurement
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_law_masks_peak_is_at_most_the_broadcast_formulas(self):
        G = named_group("heisenberg3")
        table = alex(G, enumerate_aut(G)[5]).op
        aut = _auts(G).aut
        parent = min(_peak(ref_preserving_mask, table, aut), _peak(ref_reversing_mask, table, aut))
        assert _peak(_law_masks, table, aut) <= parent

    def test_q3_peak_is_at_most_the_broadcast_scan(self):
        op = core(named_group("S4")).op
        assert _peak(_check_q3, op) <= _peak(ref_q3_witness, op)

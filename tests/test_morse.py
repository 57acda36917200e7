import math
from itertools import product

import numpy as np
import pytest

from extrack import morse
from extrack.field import GridDomain
from extrack.morse import (Extremum, ManifoldLabeling, _descent_pointers, _id_dtype,
                           _merge_sweep, _resolve_roots, _run_starts, _spanning_forest,
                           _total_order, label_manifolds, persistence_pairs, simplify)
from extrack.synth import oracle_merge_tree
from helpers import (extremum_columns, neighborhood, oracle_descent_pointers, oracle_extrema,
                     oracle_merge_sweep, oracle_spanning_forest, peak_over_field)


# Settings that force the sweep's splits, by name: "codes" narrows the packed
# codes so that each offset piece sorts two to four pair-code ranges and the
# running arrays split into many more; "slabs" sweeps every piece one row of
# axis 0 at a time; "merges" merges the firsts into the running arrays after
# every slab and "once" only at the end; "chunks" runs every chunked pass in
# chunks of two items.
SPLITS = {
    "slabs": ("_slab_bound", lambda v: 1),
    "merges": ("_MERGE_AT", 0.0),
    "once": ("_MERGE_AT", math.inf),
    "chunks": ("_CHUNK_MIN", 2),
}


def check_sweep(values, dom, descending, monkeypatch=None, splits=("codes",)):
    """``_merge_sweep`` on the (descending, for maxima) order of values
    against ``oracle_merge_sweep`` on the field it sweeps (``-values`` for
    maxima), bit for bit. With ``monkeypatch``, the ``SPLITS`` named in
    ``splits`` are forced first. Returns the extremum count."""
    for name in splits:
        if monkeypatch is not None and name != "codes":
            monkeypatch.setattr(morse, *SPLITS[name])
    w = -values if descending else values
    asc, rank = _total_order(values, descending)
    assert np.array_equal(asc, np.argsort(w, kind="stable"))
    ptr = _descent_pointers(asc, rank, dom)
    assert np.array_equal(ptr, oracle_descent_pointers(w, dom))
    ex = np.flatnonzero(ptr == np.arange(values.size))
    label = np.searchsorted(ex, _resolve_roots(ptr))
    if monkeypatch is not None and "codes" in splits:
        n_pairs = (ex.size - 1) * ex.size
        monkeypatch.setattr(morse, "_CODE_BITS",
                            (values.size - 1).bit_length() + n_pairs.bit_length() - 1)
    got = _merge_sweep(values, rank, dom, label, ex, descending)
    want = oracle_merge_sweep(w, dom, label, ex)
    for g, o in zip(got, want):
        assert g.dtype == o.dtype and g.tobytes() == o.tobytes()
    return ex.size


def path_values(row):
    # 1D examples live on a duplicated-row 2xN grid; the labeling and
    # pairing behave exactly like the path graph (checked by oracle)
    return np.array(list(row) * 2, dtype=np.float64), GridDomain((2, len(row)))


class TestRunStarts:
    """``_run_starts`` marks where each run of equal ``a >> shift`` starts,
    as the first indices of ``np.unique`` do."""

    @pytest.mark.parametrize("chunk_min", [2, 5, None])
    @pytest.mark.parametrize("shift", [0, 3, 40])
    def test_matches_unique(self, monkeypatch, chunk_min, shift):
        # runs of about three equal values, so that with small chunks many
        # runs straddle a chunk boundary; a shift merges neighbouring values
        # into one run, and 40 merges every int32 value into one
        if chunk_min is not None:
            monkeypatch.setattr(morse, "_CHUNK_MIN", chunk_min)
        rng = np.random.default_rng(70)
        for dtype in (np.int32, np.int64):
            for n in (0, 1, 2, 3, 17, 200):
                a = np.sort(rng.integers(0, max(1, n // 3), n)).astype(dtype)
                if dtype == np.int64:
                    a <<= 38  # values past 32 bits
                first = _run_starts(a, shift)
                assert first.dtype == bool and first.shape == a.shape
                want = np.unique(a >> shift, return_index=True)[1]
                assert np.flatnonzero(first).tolist() == want.tolist(), (dtype, n)

    def test_empty_and_one_element(self):
        assert _run_starts(np.zeros(0, np.int64)).tolist() == []
        assert _run_starts(np.array([7]), 2).tolist() == [True]

    def test_run_across_every_chunk(self, monkeypatch):
        # one run longer than all the chunks it spans, then a second
        monkeypatch.setattr(morse, "_CHUNK_MIN", 3)
        a = np.array([4] * 20 + [5, 6, 6])
        assert np.flatnonzero(_run_starts(a)).tolist() == [0, 20, 21]
        assert np.flatnonzero(_run_starts(a, 1)).tolist() == [0, 21]


class TestTotalOrder:
    def test_lexicographic(self):
        asc, rank = _total_order(np.array([3.0, 1.0, 1.0]))
        assert asc.tolist() == [1, 2, 0]
        assert rank[1] < rank[2]  # same value, lower id first
        assert rank[2] < rank[0]
        assert not rank[0] < rank[1]

    def test_no_two_equal(self):
        asc, rank = _total_order(np.full(7, 5.0))
        asc = asc.tolist()
        assert asc == sorted(asc)  # ids break all ties
        for u in range(7):
            for v in range(7):
                assert (rank[u] < rank[v]) == (u < v)

    @pytest.mark.parametrize("chunk_min", [None, 4, 64])
    @pytest.mark.parametrize("dims,periodic", [((7, 9), (True, False)), ((2, 5), (True, True)),
                                               ((4, 3, 5), (False, True, True)),
                                               ((2, 3, 2), (True, True, True)),
                                               ((24, 20), (True, False))])
    def test_rank_order_is_the_stable_argsort(self, dims, periodic, chunk_min, monkeypatch):
        # with chunk_min, the tie runs are sorted in chunks of
        # _chunk_size(v) positions, which the runs below end at or cross
        if chunk_min is not None:
            monkeypatch.setattr(morse, "_CHUNK_MIN", chunk_min)
        dom = GridDomain(dims, periodic=periodic)
        v = dom.vertex_count
        size = min(morse._chunk_size(v), v)
        rng = np.random.default_rng(v)
        signed_zeros = np.where(rng.random(v) < 0.5, -0.0, 0.0)
        order = np.random.default_rng(v + 1).permutation(v)

        def plateau(lo, hi):
            # distinct values but one run over sorted positions lo..hi-1
            return np.where((order >= lo) & (order < hi), lo, order).astype(float)

        to_chunk_end = plateau(max(size - 3, 0), size)
        three_chunks = plateau(size // 2, min(2 * size + size // 2, v))
        fields = {
            # the reversed fields put the same run at the same positions of
            # the descending order
            "run to a chunk end": to_chunk_end,
            "run to a chunk end, reversed": -to_chunk_end,
            "run over three chunks": three_chunks,
            "run over three chunks, reversed": -three_chunks,
            "three values": rng.integers(0, 3, v).astype(float),
            "signed zeros": signed_zeros,
            "signed zeros and ones": signed_zeros + rng.integers(0, 2, v),
            "infinities": rng.choice([-np.inf, -1.0, 0.0, 1.0, np.inf], v),
            "constant": np.full(v, 2.5),
            "sorted": np.arange(v, dtype=float),
            "reversed": np.arange(v, 0, -1, dtype=float),
            "sorted plateaus": np.arange(v) // 3 * 1.0,
            "distinct": rng.permutation(v).astype(float),
        }
        for name, w in fields.items():
            asc, rank = _total_order(w)
            assert asc.dtype == rank.dtype == np.int32, name
            assert np.array_equal(asc, np.argsort(w, kind="stable")), name
            assert np.array_equal(rank[asc], np.arange(v)), name
            desc, rank = _total_order(w, descending=True)
            assert desc.dtype == rank.dtype == np.int32, name
            assert np.array_equal(desc, np.argsort(-w, kind="stable")), name
            assert np.array_equal(rank[desc], np.arange(v)), name
            for x in (w, -w):  # minima and maxima
                asc, rank = _total_order(x)
                ptr = _descent_pointers(asc, rank, dom)
                assert np.array_equal(ptr, oracle_descent_pointers(x, dom)), name


def packed_tops(w: np.ndarray) -> list[int]:
    """The top bits ``_total_order`` keeps of each value of w, computed
    from the definition: the IEEE bits as a signed magnitude (so -0.0 is
    0), a float32's moved to the top of 64 bits, shifted right past
    bits(V - 1) + 1 bits."""
    size = 8 * w.itemsize
    keep = (w.size - 1).bit_length() + 1
    tops = []
    for u in w.view(f"u{w.itemsize}").tolist():
        magnitude = u & ((1 << (size - 1)) - 1)
        tops.append((-magnitude if u >> (size - 1) else magnitude) << (64 - size) >> keep)
    return tops


def collisions(w: np.ndarray) -> int:
    """How many tops of w hold two or more different values."""
    values = {}
    for top, x in zip(packed_tops(w), w.tolist()):
        values.setdefault(top, set()).add(x)
    return sum(len(v) > 1 for v in values.values())


class TestPackedOrder:
    """``_total_order`` sorts keys that hold only the top bits of each value,
    so different values may share a key's top; such runs are re-sorted by
    value. It is judged against the stable argsort."""

    @staticmethod
    def fields(dtype, v):
        rng = np.random.default_rng(v)
        one, two = dtype(1), dtype(2)
        tiny = np.nextafter(dtype(0), dtype(1))  # the least subnormal
        big = dtype(1e308) if dtype == np.float64 else np.finfo(dtype).max
        ulps = np.nextafter(np.full(6, one), two)  # runs of adjacent values
        for _ in range(5):
            ulps = np.append(ulps, np.nextafter(ulps[-6:], two))
        pools = {
            "adjacent": ulps,
            "power of two": np.concatenate([np.nextafter(np.full(3, two), 0), [two],
                                            np.nextafter(np.full(3, two), 4)]),
            "zeros and subnormals": np.array([0.0, -0.0, tiny, -tiny, 2 * tiny, -3 * tiny]),
            "extremes": np.concatenate([[big, -big], np.nextafter([big, -big], 0)]),
        }
        pools["all"] = np.concatenate(list(pools.values()) + [[-1.0, 0.5]])
        # drawn with repeats, these fields hold plateaus
        fields = {name: rng.choice(pool.astype(dtype), v) for name, pool in pools.items()}
        # distinct values, two adjacent ones under each float64 top, at ids
        # that differ in any bit
        top = 2 ** ((v - 1).bit_length() + 1)  # the ulps of 1.0 under one float64 top
        ulp = rng.permutation(np.arange(v) // 2 * top + np.arange(v) % 2)
        ints = f"i{one.itemsize}"
        fields["pairs"] = (np.asarray(one).view(ints) + ulp).astype(ints).view(dtype)
        # one run of two values over the whole order, as a plateau with a
        # value one ulp above it here and there makes
        fields["bumped plateau"] = np.where(rng.random(v) < 0.01, np.nextafter(one, two), one)
        return fields

    @pytest.mark.parametrize("chunk_min", [None, 4])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("v", [2**10 - 1, 2**10, 2**10 + 1])
    def test_matches_the_stable_argsort(self, v, dtype, chunk_min, monkeypatch):
        if chunk_min is not None:
            monkeypatch.setattr(morse, "_CHUNK_MIN", chunk_min)
        fields = self.fields(dtype, v)
        for name, w in fields.items():
            assert w.dtype == dtype
            for descending in (False, True):
                asc, rank = _total_order(w, descending)
                assert asc.dtype == rank.dtype == np.int32, name
                want = np.argsort(-w if descending else w, kind="stable")
                assert np.array_equal(asc, want), (name, descending)
                assert np.array_equal(rank[asc], np.arange(v)), (name, descending)
        # a float64's low bits go, so some of its tops hold two values; a
        # float32's bits all stay in the top half
        hit = {name: collisions(w) for name, w in fields.items()}
        if dtype == np.float64:
            assert all(hit.values()), hit
        else:
            assert not any(hit.values()), hit

    @pytest.mark.parametrize("descending", [False, True])
    def test_runs_are_re_sorted_a_bounded_batch_at_a_time(self, descending, monkeypatch):
        # runs of two to six values one ulp apart below and above a bumped
        # plateau over three chunks long: the plateau is sorted alone, and
        # the short runs each once, in batches of at most a chunk's positions
        monkeypatch.setattr(morse, "_CHUNK_MIN", 4)
        rng = np.random.default_rng(7)
        runs = [np.arange(size) for size in np.resize([2, 3, 4, 5, 6], 100)]
        runs[50] = (rng.random(300) < 0.1).astype(np.int64)  # the plateau, bumped
        v = sum(r.size for r in runs)
        top = 2 ** ((v - 1).bit_length() + 1)  # the ulps of 1.0 under one float64 top
        # mid-top, so that the tops of -w group the same runs
        ulps = np.concatenate([k * top + top // 2 + r for k, r in enumerate(runs)])
        w = rng.permutation(np.asarray(1.0).view(np.int64) + ulps).view(np.float64)
        assert collisions(w) == len(runs)
        cap = morse._chunk_size(v)
        assert 3 * cap < 300
        want = np.argsort(-w if descending else w, kind="stable")
        sizes, argsort = [], np.argsort
        monkeypatch.setattr(np, "argsort", lambda a, **kw: sizes.append(a.size) or argsort(a, **kw))
        asc, rank = _total_order(w, descending)
        monkeypatch.undo()
        assert np.array_equal(asc, want)
        assert np.array_equal(rank[asc], np.arange(v))
        batches = [size for size in sizes if size != 300]
        assert len(batches) == len(sizes) - 1
        assert sum(batches) == v - 300 and max(batches) <= cap and len(batches) > 2


class TestLabelManifolds:
    def test_single_minimum_bowl(self):
        vals = [[5, 4, 5], [4, 1, 4], [5, 4, 5]]
        dom = GridDomain((3, 3))
        lab = label_manifolds(np.asarray(vals, float).ravel(), dom, "minimum")
        assert lab.n_extrema == 1
        assert lab.extrema[0].vertex == 4
        assert lab.extrema[0].persistence == math.inf
        assert lab.sizes.tolist() == [9]
        assert set(lab.label.tolist()) == {0}

    def test_path_graph_three_minima(self):
        vals, dom = path_values([1, 5, 0, 5, 1])
        lab = label_manifolds(vals, dom, "minimum")
        assert [e.vertex for e in lab.extrema] == [0, 2, 4]
        # saddles at vertices 1 and 3 drain to the deeper center basin
        assert lab.label[:5].tolist() == [0, 1, 1, 1, 2]
        assert lab.label[5:].tolist() == [0, 1, 1, 1, 2]
        assert int(lab.sizes.sum()) == 10

    def test_constant_field_single_sink(self):
        dom = GridDomain((4, 4))
        lab = label_manifolds(np.zeros(16), dom, "minimum")
        assert lab.n_extrema == 1
        assert lab.extrema[0].vertex == 0
        assert lab.sizes.tolist() == [16]

    def test_minimum_precedes_neighbors(self):
        rng = np.random.default_rng(5)
        dom = GridDomain((7, 7), periodic=(True, False))
        vals = rng.standard_normal(49)
        lab = label_manifolds(vals, dom, "minimum")
        for e in lab.extrema:
            for u in neighborhood(dom, e.vertex, "combinatorial", 1).tolist():
                assert u == e.vertex or (vals[e.vertex], e.vertex) < (vals[u], u)

    def test_partition_invariant(self):
        rng = np.random.default_rng(6)
        for dims in ((6, 6), (4, 5, 3)):
            dom = GridDomain(dims)
            vals = rng.integers(0, 5, size=dom.vertex_count).astype(float)
            lab = label_manifolds(vals, dom, "minimum")
            assert int(lab.sizes.sum()) == dom.vertex_count
            assert np.array_equal(np.bincount(lab.label), lab.sizes)
            for e in lab.extrema:
                assert lab.label[e.vertex] == e.id

    def test_negation_duality(self):
        rng = np.random.default_rng(7)
        dom = GridDomain((8, 8))
        vals = rng.standard_normal(64)
        lab_max = label_manifolds(vals, dom, "maximum")
        lab_min = label_manifolds(-vals, dom, "minimum")
        assert np.array_equal(lab_max.label, lab_min.label)
        assert lab_max.extrema.kind == "maximum"
        assert [e.vertex for e in lab_max.extrema] == [e.vertex for e in lab_min.extrema]
        # values report the original field, persistence stays positive
        for e_max, e_min in zip(lab_max.extrema, lab_min.extrema):
            assert e_max.value == vals[e_max.vertex]
            assert e_max.persistence == e_min.persistence

    @pytest.mark.parametrize("kind", ["max", "min", "banana", "descending"])
    def test_unknown_kind_rejected_before_sorting(self, kind, monkeypatch):
        # an unknown kind used to run the whole labeling, then raise KeyError
        def no_sort(*args):
            raise AssertionError("sorted the field")

        monkeypatch.setattr(morse, "_total_order", no_sort)
        vals, dom = np.arange(9, dtype=float), GridDomain((3, 3))
        for fn in (label_manifolds, persistence_pairs):
            with pytest.raises(ValueError, match=f"kind must be 'minimum' or 'maximum', got '{kind}'"):
                fn(vals, dom, kind)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        # a NaN used to become an extremum of its own
        vals = np.arange(9, dtype=float)
        vals[4] = bad
        vals[7] = np.nan
        dom = GridDomain((3, 3))
        for kind in ("minimum", "maximum"):
            with pytest.raises(ValueError, match="non-finite value at vertex 4$"):
                label_manifolds(vals, dom, kind)
            with pytest.raises(ValueError, match="non-finite value at vertex 4$"):
                persistence_pairs(vals, dom, kind)

    def test_labels_are_int32(self):
        rng = np.random.default_rng(8)
        dom = GridDomain((9, 7, 5), periodic=(False, True, False))
        vals = rng.standard_normal(dom.vertex_count)
        for kind in ("minimum", "maximum"):
            lab = label_manifolds(vals, dom, kind)
            s = simplify(lab, vals, 30.0)
            assert lab.label.dtype == s.label.dtype == np.int32
            assert s.n_extrema < lab.n_extrema
            assert lab._saddles.dtype == lab._partners.dtype == np.int64
            assert s._saddles.dtype == s._partners.dtype == np.int64

    def test_maxima_of_bowl_are_corners(self):
        vals = [[5, 4, 5], [4, 1, 4], [5, 4, 5]]
        lab = label_manifolds(np.asarray(vals, float).ravel(), GridDomain((3, 3)), "maximum")
        # the four corners tie in value but are not adjacent
        assert [e.vertex for e in lab.extrema] == [0, 2, 6, 8]
        assert [e.persistence for e in lab.extrema] == [math.inf, 1.0, 1.0, 1.0]


class TestExtremumColumns:
    FIELD = np.random.default_rng(21).integers(0, 4, size=(9, 8)).astype(float)

    def test_reads_as_the_extremum_tuple(self):
        dom = GridDomain(self.FIELD.shape, periodic=(True, False))
        values = self.FIELD.ravel()
        for kind, w in (("minimum", values), ("maximum", -values)):
            lab = label_manifolds(values, dom, kind)
            want = oracle_extrema(w, values, dom, kind)
            assert tuple(lab.extrema) == want and len(lab.extrema) == len(want) > 3
            assert [lab.extrema[i] for i in range(len(want))] == list(want)
            assert lab.extrema[-1] == want[-1]
            assert [type(x) for x in lab.extrema[0].__dict__.values()] == [int, int, float, float, str]
            with pytest.raises(IndexError):
                lab.extrema[len(want)]
            # survivors keep their fields and are renumbered densely
            s = simplify(lab, values, 20.0)
            kept = [e for e in want if e.persistence >= 0.2 * 3.0]
            assert tuple(s.extrema) == tuple(Extremum(i, e.vertex, e.value, e.persistence, kind)
                                             for i, e in enumerate(kept))

    def test_labeling_from_a_tuple_of_extrema(self):
        dom = GridDomain(self.FIELD.shape)
        values = self.FIELD.ravel()
        lab = label_manifolds(values, dom, "minimum")
        again = ManifoldLabeling(dom, lab.label.copy(),
                                 extremum_columns("minimum", tuple(lab.extrema)),
                                 lab._saddles, lab._partners)
        for name in ("vertex", "value", "persistence"):
            got, want = getattr(again.extrema, name), getattr(lab.extrema, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        s, t = simplify(again, values, 20.0), simplify(lab, values, 20.0)
        assert tuple(s.extrema) == tuple(t.extrema) and np.array_equal(s.label, t.label)
        assert persistence_pairs(values, dom, "minimum") == oracle_merge_tree(values, dom, "minimum")
        with pytest.raises(AssertionError):  # ids are implicit: 0..n-1 in order
            ManifoldLabeling(dom, lab.label.copy(),
                             extremum_columns("minimum", tuple(lab.extrema)[::-1]))


class TestPersistencePairs:
    def test_monotone_ramp(self):
        dom = GridDomain((3, 4))
        pairs = persistence_pairs(np.arange(12, dtype=float), dom, "minimum")
        assert pairs == [(0, None, math.inf)]

    def test_path_graph_golden(self):
        vals, dom = path_values([1, 5, 0, 5, 1])
        pairs = persistence_pairs(vals, dom, "minimum")
        assert pairs == [(0, 1, 4.0), (2, None, math.inf), (4, 3, 4.0)]

    def test_symmetric_double_well(self):
        vals, dom = path_values([0, 9, 1, 9, 0])
        pairs = persistence_pairs(vals, dom, "minimum")
        finite = sorted(p for _, _, p in pairs if p != math.inf)
        assert len(finite) == 2
        # wells at 1 and the younger 0 die at value-9 saddles
        assert finite == [8.0, 9.0]

    def test_matches_oracle_random_sample(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            dom = GridDomain((6, 6)) if trial % 2 else GridDomain((5, 6), periodic=(True, True))
            vals = rng.permutation(dom.vertex_count).astype(float)
            kind = "minimum" if trial % 3 else "maximum"
            assert persistence_pairs(vals, dom, kind) == oracle_merge_tree(vals, dom, kind)

    def test_matches_oracle_with_plateaus(self):
        rng = np.random.default_rng(12)
        dom = GridDomain((6, 6))
        for _ in range(30):
            vals = rng.integers(0, 6, size=36).astype(float)
            assert persistence_pairs(vals, dom, "minimum") == oracle_merge_tree(vals, dom, "minimum")


class TestSimplify:
    def test_zero_threshold_is_identity(self):
        vals, dom = path_values([1, 5, 0, 5, 1])
        lab = label_manifolds(vals, dom, "minimum")
        s = simplify(lab, vals, 0.0)
        assert np.array_equal(s.label, lab.label)
        assert s.n_extrema == lab.n_extrema

    def test_shallow_well_cancelled_into_partner(self):
        # range 10; at 0.5% the well of persistence 0.03 dies, the
        # persistence-9 well survives
        vals, dom = path_values([0, 10, 1, 10, 9.97])
        lab = label_manifolds(vals, dom, "minimum")
        assert [round(e.persistence, 6) for e in lab.extrema] == [math.inf, 9.0, 0.03]
        s = simplify(lab, vals, 0.5)
        assert [e.vertex for e in s.extrema] == [0, 2]
        # the cancelled well's basin joins the component it merged into
        assert s.label[:5].tolist() == [0, 0, 1, 1, 0]
        assert s.sizes.tolist() == [6, 4]

    def test_full_threshold_single_survivor(self):
        rng = np.random.default_rng(13)
        dom = GridDomain((6, 6))
        vals = rng.permutation(36).astype(float)
        lab = label_manifolds(vals, dom, "minimum")
        s = simplify(lab, vals, 100.0)
        assert s.n_extrema == 1
        assert s.extrema[0].persistence == math.inf
        assert s.sizes.tolist() == [36]

    def test_survivor_monotonicity(self):
        rng = np.random.default_rng(14)
        dom = GridDomain((8, 8))
        for _ in range(10):
            vals = rng.standard_normal(64)
            lab = label_manifolds(vals, dom, "minimum")
            prev = None
            for pct in (0.0, 0.5, 5.0, 50.0, 100.0):
                cur = {e.vertex for e in simplify(lab, vals, pct).extrema}
                if prev is not None:
                    assert cur <= prev
                prev = cur

    def test_iterated_equals_direct(self):
        rng = np.random.default_rng(15)
        dom = GridDomain((8, 8))
        vals = rng.standard_normal(64)
        lab = label_manifolds(vals, dom, "minimum")
        two_pass = simplify(simplify(lab, vals, 5.0), vals, 40.0)
        direct = simplify(lab, vals, 40.0)
        assert np.array_equal(two_pass.label, direct.label)

    def test_explicit_range_overrides_step_range(self):
        vals, dom = path_values([0, 10, 1, 10, 9.97])
        lab = label_manifolds(vals, dom, "minimum")
        # with a widened range the 0.5% bar rises above persistence 9
        s = simplify(lab, vals, 0.5, value_range=2000.0)
        assert [e.vertex for e in s.extrema] == [0]

    def test_float32_range_is_taken_in_float64(self):
        # two equal minima split by a wall at the maximum: the younger one's
        # persistence is the exact range, 1 - 1e-8, so it survives 100 %,
        # where the range rounded to float32 (1.0) would cancel it
        step = np.tile(np.array([1e-8, 0.5, 1.0, 0.5, 1e-8], np.float32), 3)
        dom = GridDomain((3, 5))
        for s in (step, step.astype(np.float64)):
            lab = label_manifolds(s, dom, "minimum")
            assert lab.extrema.vertex.tolist() == [0, 4]
            assert lab.extrema.persistence[1] == 1.0 - float(np.float32(1e-8))
            assert simplify(lab, s, 100.0).n_extrema == 2

    @pytest.mark.parametrize("value_range", [math.nan, -5.0, -1e-300, math.inf, -math.inf])
    def test_bad_value_range_rejected(self, value_range):
        # NaN and negative ranges used to cancel nothing and +inf all but the
        # global minimum, without a word
        rng = np.random.default_rng(8)
        dom = GridDomain((8, 8))
        vals = rng.standard_normal(64)
        lab = label_manifolds(vals, dom, "minimum")
        assert lab.n_extrema > 5
        with pytest.raises(ValueError, match="value_range must be a finite non-negative number"):
            simplify(lab, vals, 5.0, value_range=value_range)
        assert simplify(lab, vals, 5.0, value_range=0.0) is lab  # a zero range cancels nothing

    def test_threshold_out_of_range(self):
        vals, dom = path_values([1, 5, 0, 5, 1])
        lab = label_manifolds(vals, dom, "minimum")
        with pytest.raises(ValueError):
            simplify(lab, vals, -1.0)
        with pytest.raises(ValueError):
            simplify(lab, vals, 101.0)

    def test_wrong_step_rejected(self):
        vals, dom = path_values([1, 5, 0, 5, 1])
        lab = label_manifolds(vals, dom, "minimum")
        with pytest.raises(ValueError):
            simplify(lab, vals + 1.0, 0.5)
        one_off = vals.copy()
        one_off[lab.extrema.vertex[-1]] -= 1.0  # a single extremum moved
        with pytest.raises(ValueError):
            simplify(lab, one_off, 0.5)

    def test_long_partner_chain(self):
        # 3000 wells along a 2 x 12000 strip, each deeper than the one to its
        # left, behind barriers that rise to the right: every well merges into
        # its right neighbour, so the merge partners form one 2999-long chain
        k, r = np.divmod(np.arange(12000), 4)
        row = np.select([r == 0, r == 1, r == 2], [-k, 0.25, k + 0.5], -0.25).astype(float)
        tail = k == 2999
        row[tail] = r[tail] - 2999.0
        step = np.tile(row, 2)
        dom = GridDomain((2, 12000))
        lab = label_manifolds(step, dom, "minimum")
        assert lab.n_extrema == 3000
        assert lab._partners[:-1].tolist() == list(range(1, 3000))
        out = simplify(lab, step, 100.0)
        assert out.n_extrema == 1 and out.extrema[0].vertex == 4 * 2999
        assert (out.label == 0).all() and out._partners.tolist() == [-1]

    def test_maxima_simplification(self):
        vals, dom = path_values([0, -10, -1, -10, -9.97])
        lab = label_manifolds(vals, dom, "maximum")
        s = simplify(lab, vals, 0.5)
        assert [e.vertex for e in s.extrema] == [0, 2]
        assert s.extrema[1].value == -1.0


HOSTILE_CASES = ["rising", "falling", "random", "zigzag", "star"]


def hostile_fields(case, volume):
    """Fields whose basin graphs are hard on Borůvka, as (values, domain).

    Long basin chains whose lightest edges all point one way (so the hooks
    of a Borůvka round form one long path), and a star whose leaves all
    hook onto the centre; each chain also runs around a periodic axis,
    where it closes into a cycle. ``volume`` stacks them along axis 0,
    across a periodic axis of length 3 (and 2 for chains).
    """
    rng = np.random.default_rng(len(case) + 7 * volume)
    fields = []
    if case == "star":
        k = 120
        c = np.arange(2 * k + 1)
        step = np.full((4, c.size), 100.0)  # walls: one tied plateau
        step[0] = 0.001 * c
        step[1, ::2] = 5.0 + rng.random(k + 1)
        step[2, ::2] = -1.0 - rng.random(k + 1)
        fields.append((step, (False, False)))
        fields.append((step, (False, True)))
    else:
        k = 150
        barrier = {"rising": np.arange(k) + 10.0, "falling": 10.0 + k - np.arange(k),
                   "random": 10.0 + rng.permutation(k),
                   "zigzag": 10.0 + np.where(np.arange(k) % 2, np.arange(k), k + np.arange(k))}
        row = np.empty(2 * k)
        row[0::2] = -1.0 - rng.permutation(k)  # wells, all below every barrier
        row[1::2] = barrier[case]
        for periodic in (False, True):
            fields.append((np.tile(row, (2, 1)), (False, periodic)))
    out = []
    for step, periodic in fields:
        if volume:
            rows = step.shape[0]
            step = np.broadcast_to(step.T[:, :, None], (step.shape[1], rows, 3))
            step = step + 0.01 * (np.arange(3) == 1)  # ties along axis 1 stay
            periodic = (periodic[1], rows == 2, True)
        out.append((np.ascontiguousarray(step, dtype=float).reshape(-1),
                    GridDomain(step.shape, periodic=periodic)))
    return out


class TestAgainstOracles:
    """Offset-slice descent and the one-edge-per-pair sweep against the (V, K)
    table versions, exactly, on every periodic combination."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (6, 8), (9, 11), (3, 40), (31, 37),
                                      (2, 2, 2), (2, 3, 3), (3, 2, 4), (5, 5, 6), (6, 5, 7),
                                      (2, 3, 30), (11, 10, 12)])
    def test_descent_and_sweep_match(self, dims):
        rng = np.random.default_rng(sum(dims) * len(dims))
        for periodic in product((False, True), repeat=len(dims)):
            dom = GridDomain(dims, periodic=periodic)
            for trial in range(4):
                if trial < 3:  # values in {0, 1, 2}: plateaus and shared saddles
                    values = rng.integers(0, 3, size=dom.vertex_count).astype(float)
                else:
                    values = rng.permutation(dom.vertex_count).astype(float)
                for w in (values, -values):  # minima, then maxima
                    asc, rank = _total_order(w)
                    ptr = _descent_pointers(asc, rank, dom)
                    assert np.array_equal(ptr, oracle_descent_pointers(w, dom)), periodic
                    ex = np.flatnonzero(ptr == np.arange(w.size))
                    label = np.searchsorted(ex, _resolve_roots(ptr))
                    got = _merge_sweep(w, rank, dom, label, ex)
                    want = oracle_merge_sweep(w, dom, label, ex)
                    for g, o in zip(got, want):
                        assert g.dtype == o.dtype and np.array_equal(g, o), periodic
                    lab = label_manifolds(w, dom, "minimum")
                    assert np.array_equal(lab.label, label), periodic
                    assert np.array_equal(lab._saddles, want[1]), periodic

    @pytest.mark.parametrize("case", HOSTILE_CASES)
    @pytest.mark.parametrize("volume", [False, True])
    def test_forest_hostile_basin_graphs(self, case, volume):
        for values, dom in hostile_fields(case, volume):
            for kind, w in (("minimum", values), ("maximum", -values)):
                asc, rank = _total_order(w)
                ptr = _descent_pointers(asc, rank, dom)
                ex = np.flatnonzero(ptr == np.arange(w.size))
                label = np.searchsorted(ex, _resolve_roots(ptr))
                got = _merge_sweep(w, rank, dom, label, ex)
                want = oracle_merge_sweep(w, dom, label, ex)
                for g, o in zip(got, want):
                    assert np.array_equal(g, o), (dom.periodic, kind)
                assert persistence_pairs(values, dom, kind) == oracle_merge_tree(values, dom, kind)
            assert ex.size > 100

    @pytest.mark.parametrize("dims", [(2, 3), (3, 7), (9, 11), (31, 37), (2, 2, 2), (3, 2, 3),
                                      (2, 3, 30), (6, 5, 7)])
    def test_descending_and_split_sweeps_match(self, dims, monkeypatch):
        # maxima on the descending order of the values themselves, then both
        # kinds with narrowed codes; plateaus, signed zeros, distinct values
        # and plateaus of three values one ulp apart on every periodic
        # combination, so periodic axes of length 2 and 3 in 2D and 3D
        rng = np.random.default_rng(3 * sum(dims) + len(dims))
        for periodic in product((False, True), repeat=len(dims)):
            dom = GridDomain(dims, periodic=periodic)
            v = dom.vertex_count
            for values in (rng.integers(0, 3, v).astype(float),
                           rng.choice([-0.0, 0.0, 1.0], v),
                           rng.permutation(v).astype(float),
                           rng.choice([np.nextafter(1.0, 0), 1.0, np.nextafter(1.0, 2)], v)):
                check_sweep(values, dom, descending=True)
                assert (persistence_pairs(values, dom, "maximum")
                        == oracle_merge_tree(values, dom, "maximum")), periodic
                with monkeypatch.context() as m:
                    for descending in (False, True):
                        check_sweep(values, dom, descending, m)

    @pytest.mark.parametrize("case", HOSTILE_CASES)
    def test_hostile_graphs_descending_and_split(self, case, monkeypatch):
        for volume in (False, True):
            for values, dom in hostile_fields(case, volume):
                assert check_sweep(values, dom, descending=True) > 100
                with monkeypatch.context() as m:
                    for descending in (False, True):
                        check_sweep(values, dom, descending, m)

    @pytest.mark.parametrize("splits", [("slabs",), ("merges",), ("once",),
                                        ("slabs", "merges", "codes"), ("slabs", "once", "codes"),
                                        ("chunks",), ("chunks", "once", "codes")])
    def test_sliced_sweeps_match(self, splits, monkeypatch):
        # every piece in one-row sub-slabs, the firsts merged after every slab
        # or only once, alone and with narrowed codes, and every chunked pass
        # in two-item chunks; plateaus, signed zeros and distinct values on
        # every periodic combination, so periodic axes of length 2 and 3 in
        # 2D and 3D, where labeling and pairing also run whole under the same
        # settings; then the Borůvka-hostile graphs
        rng = np.random.default_rng(len(splits) + 17 * len(splits[0]))
        for dims in ((2, 3), (3, 7), (9, 11), (2, 2, 2), (3, 2, 3), (6, 5, 7)):
            for periodic in product((False, True), repeat=len(dims)):
                dom = GridDomain(dims, periodic=periodic)
                v = dom.vertex_count
                for values in (rng.integers(0, 3, v).astype(float), rng.choice([-0.0, 0.0, 1.0], v),
                               rng.permutation(v).astype(float)):
                    with monkeypatch.context() as m:
                        for descending in (False, True):
                            check_sweep(values, dom, descending, m, splits)
                        for kind in ("minimum", "maximum"):
                            assert (persistence_pairs(values, dom, kind)
                                    == oracle_merge_tree(values, dom, kind)), (periodic, kind)
        for case in HOSTILE_CASES:
            for values, dom in hostile_fields(case, volume="codes" not in splits):
                with monkeypatch.context() as m:
                    for descending in (False, True):
                        assert check_sweep(values, dom, descending, m, splits) > 100

    def test_int64_pair_codes(self):
        # 47 000 wells along a 2 x 94 000 strip behind random barriers: more
        # than 46 341 extrema, so n_ex**2 passes 2**31 and the sweep's basin
        # pair codes must be int64
        k = 47_000
        rng = np.random.default_rng(43)
        row = np.empty(2 * k)
        row[0::2] = -1.0 - rng.integers(0, 1000, k)  # tied wells and barriers
        row[1::2] = rng.integers(0, 1000, k)
        values = np.tile(row, 2)
        dom = GridDomain((2, 2 * k), periodic=(False, True))
        for w in (values, -values):
            asc, rank = _total_order(w)
            ptr = _descent_pointers(asc, rank, dom)
            ex = np.flatnonzero(ptr == np.arange(w.size))
            label = np.searchsorted(ex, _resolve_roots(ptr))
            assert ex.size > 46_341 and _id_dtype(ex.size**2) == np.int64
            got = _merge_sweep(w, rank, dom, label, ex)
            want = oracle_merge_sweep(w, dom, label, ex)
            for g, o in zip(got, want):
                assert g.dtype == o.dtype and np.array_equal(g, o)

    def test_spanning_forest_matches_kruskal(self):
        rng = np.random.default_rng(41)
        graphs = [(np.array([], int), np.array([], int), 1),
                  (np.array([0, 1]), np.array([1, 0]), 2),  # a pair joined twice
                  (np.arange(499), np.arange(1, 500), 500),  # path, light to heavy
                  (np.arange(499, 0, -1), np.arange(498, -1, -1), 500),  # heavy to light
                  (np.zeros(300, int), np.arange(1, 301), 301),  # star
                  (rng.permutation(np.arange(1, 301)), np.zeros(300, int), 301),
                  (np.array([0, 0, 1]), np.array([0, 1, 1]), 2)]  # lightest edges are loops
        for n, m in ((5, 3), (40, 30), (60, 400), (300, 2000), (2000, 1500)):
            a, b = rng.integers(0, n, m), rng.integers(0, n, m)  # multi-edges, some forests
            graphs.append((a, b, n))
        for a, b, n in graphs:
            want = oracle_spanning_forest(a, b, n)
            # weighed by position, then the same edges listed in another
            # order, weighed by their old position; the forest owns its
            # arrays, so it gets copies
            perm = rng.permutation(len(a))
            for order in (np.arange(len(a)), perm):
                fa, fb, fw = _spanning_forest(a[order], b[order], n, order.copy())
                assert fw.tolist() == want
                assert fa.tolist() == a[want].tolist() and fb.tolist() == b[want].tolist()

    # Basins A (value 0), B (value 1) and C (value 3) meet only at one saddle
    # s (value 5), which drains into B. Swept in slot order, s's edge to A
    # comes before its edge to C: B dies into A, then C into A. The other
    # order would kill C into B, and simplifying at 30 % of the range 9
    # (between the persistences 2 and 4) would move C's basin into B's.
    SHARED_SADDLE = [
        # the order is set by the other endpoints: A's neighbor has the lower id
        dict(step=[[0, 2, 9, 9, 9],
                   [9, 9, 5, 4, 3],
                   [9, 9, 1, 9, 9]],
             periodic=(False, False), extrema=[0, 9, 12], saddle=7,
             persistence=[math.inf, 2.0, 4.0], partners=[-1, 0, 0],
             simplified=[[0, 0, 0, 0, 0],
                         [0, 0, 1, 0, 0],
                         [0, 1, 1, 1, 0]]),
        # s is the lower id of both edges, so its own slots set the order: the
        # +(1, 1) slot to A precedes the -(0, 1) slot that wraps around to C
        dict(step=[[9, 9, 9, 9, 9, 9],
                   [1, 9, 9, 9, 9, 9],
                   [5, 9, 9, 9, 3, 4.5],
                   [9, 4, 9, 9, 9, 9],
                   [9, 9, 0, 9, 9, 9]],
             periodic=(False, True), extrema=[6, 16, 26], saddle=12,
             persistence=[4.0, 2.0, math.inf], partners=[2, 2, -1],
             simplified=[[0, 0, 0, 0, 0, 0],
                         [0, 0, 0, 1, 1, 0],
                         [0, 0, 0, 1, 1, 1],
                         [1, 1, 1, 0, 1, 1],
                         [1, 1, 1, 1, 0, 1]]),
    ]

    @pytest.mark.parametrize("case", SHARED_SADDLE)
    def test_three_basins_sharing_one_saddle(self, case):
        step = np.array(case["step"], dtype=float)
        dom = GridDomain(step.shape, periodic=case["periodic"])
        lab = label_manifolds(step.ravel(), dom, "minimum")
        assert [e.vertex for e in lab.extrema] == case["extrema"]
        assert [e.persistence for e in lab.extrema] == case["persistence"]
        assert lab._saddles.tolist() == [-1 if p < 0 else case["saddle"] for p in case["partners"]]
        assert lab._partners.tolist() == case["partners"]
        s = simplify(lab, step.ravel(), 30.0)
        assert s.n_extrema == 2
        assert s.label.reshape(step.shape).tolist() == case["simplified"]


@pytest.mark.parametrize("kind", ["minimum", "maximum"])
@pytest.mark.parametrize("dims,periodic", [((9, 11), (True, False)), ((2, 7), (True, True)),
                                           ((3, 8), (True, False)), ((2, 3, 5), (True, True, False)),
                                           ((6, 5, 4), (False, True, False))])
def test_float32_step_labels_as_its_float64_cast(dims, periodic, kind):
    # a float32 step is read as stored; every output equals that of its
    # float64 cast: float32 differences of values many binades apart round,
    # so persistence and the step's range must be taken in float64
    rng = np.random.default_rng(sum(dims))
    dom = GridDomain(dims, periodic=periodic)
    v = dom.vertex_count
    spread = rng.standard_normal(v) * 10.0 ** rng.integers(-8, 3, v)
    ties = np.round(2 * rng.standard_normal(v)) + 1e-7 * rng.integers(0, 2, v)
    for values in (spread, ties):
        step = values.astype(np.float32)
        cast = step.astype(np.float64)
        for pct in (0.0, 1.0, 30.0):
            got, want = (simplify(label_manifolds(s, dom, kind), s, pct) for s in (step, cast))
            assert got.label.tobytes() == want.label.tobytes()
            for name in ("vertex", "value", "persistence"):
                assert getattr(got.extrema, name).tobytes() == getattr(want.extrema, name).tobytes()
            assert np.array_equal(got._saddles, want._saddles)
            assert np.array_equal(got._partners, want._partners)
            assert np.array_equal(got.sizes, want.sizes)
        assert persistence_pairs(step, dom, kind) == persistence_pairs(cast, dom, kind)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_labeling_memory_is_linear_in_the_field(dtype):
    # white noise: one extremum per ~15 vertices in 3D and ~7 in 2D, so any
    # per-edge or (V, K) table shows up as a multiple of the field's bytes;
    # maxima must not add a negated copy of the field. Both grids have a
    # periodic first axis, the axis the sweep cuts its sub-slabs along. A
    # float32 step is read as stored, with no float64 copy: it keeps the
    # bound of the float64 field's bytes.
    for dims in ((48, 48, 48), (512, 512)):
        dom = GridDomain(dims, periodic=(True,) + (False,) * (len(dims) - 1))
        noise = np.random.default_rng(3).standard_normal(dom.vertex_count)
        step = noise.astype(dtype)
        for kind in ("minimum", "maximum"):
            peak = peak_over_field(lambda: simplify(label_manifolds(step, dom, kind), step, 1.0),
                                   noise)
            assert peak <= 30, (dims, kind)
            assert peak <= 16, (dims, kind)
            assert peak <= 8, (dims, kind)
            assert peak <= 3.5, (dims, kind, peak)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_plateau_labeling_memory_is_linear_in_the_field(dtype):
    # a constant field is one run of ties over the whole order, and a
    # quantized one a few long runs: sorting the runs by id must stay
    # within the bound white noise keeps, in the float64 field's bytes. A
    # plateau of 1.0 with every 1000th vertex one ulp above (below) it is
    # one run of two values under one top, which the total order re-sorts
    # by value; with every other vertex one ulp above, every neighbour in
    # the packed order holds the other value
    for dims in ((48, 48, 48), (512, 512)):
        dom = GridDomain(dims, periodic=(True,) + (False,) * (len(dims) - 1))
        noise = np.random.default_rng(3).standard_normal(dom.vertex_count)
        up, down, alternating = np.ones((3, dom.vertex_count))
        up[::1000], down[::1000] = np.nextafter(1.0, 2), np.nextafter(1.0, 0)
        alternating[::2] = np.nextafter(1.0, 2)
        for name, field64 in (("constant", np.zeros(dom.vertex_count)),
                              ("quantized", np.round(2 * noise)),
                              ("bumped up", up), ("bumped down", down),
                              ("alternating", alternating)):
            step = field64.astype(dtype)
            for kind in ("minimum", "maximum"):
                peak = peak_over_field(
                    lambda: simplify(label_manifolds(step, dom, kind), step, 1.0), field64)
                assert peak <= 3.5, (dims, name, kind, peak)

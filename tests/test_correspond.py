import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from extrack import features, morse
from extrack.correspond import (
    OverlapMatrix,
    _find,
    _keys_and_counts,
    binary_correspondence,
    doc_to_matrix,
    manifold_overlap,
    normalize,
    sampling_overlap,
    save_matrix,
)
from extrack.field import GridDomain, sampling_offsets
from extrack.morse import ExtremumColumns, ManifoldLabeling, _id_dtype, label_manifolds, simplify
from extrack.synth import oracle_overlap
from helpers import (
    assert_oracle_entries,
    brute_combinatorial_ball,
    entry,
    fake_labeling,
    load_matrix,
    matrix_to_doc,
    neighborhood,
    oracle_matrix_json,
    oracle_sampling_overlap,
    prob,
    random_series,
    row,
    run_python,
    support,
)


def random_labeling_pair(rng, dims=(8, 8), periodic=None):
    series = random_series(rng, dims, 2, periodic)
    dom = series.domain
    return (label_manifolds(series.steps[0], dom, "minimum"),
            label_manifolds(series.steps[1], dom, "minimum"), dom)


class TestManifoldOverlap:
    def test_hand_built_partition(self):
        dom = GridDomain((4, 4))
        lab_t = fake_labeling(dom, [0] * 10 + [1] * 6)
        lab_n = fake_labeling(dom, [0] * 8 + [1] * 8)
        fwd, bwd = manifold_overlap(lab_t, lab_n)
        assert fwd.to_dense().tolist() == [[8, 2], [0, 6]]
        assert bwd.to_dense().tolist() == [[8, 0], [2, 6]]
        assert normalize(fwd).to_dense().tolist() == [[0.8, 0.2], [0.0, 1.0]]
        assert normalize(bwd).to_dense().tolist() == [[1.0, 0.0], [0.25, 0.75]]

    def test_backward_is_exact_transpose(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            lab_t, lab_n, _ = random_labeling_pair(rng)
            fwd, bwd = manifold_overlap(lab_t, lab_n)
            assert np.array_equal(fwd.to_dense().T, bwd.to_dense())
            assert fwd.direction == "forward" and bwd.direction == "backward"

    def test_marginals_are_manifold_sizes(self):
        rng = np.random.default_rng(8)
        lab_t, lab_n, _ = random_labeling_pair(rng, periodic=(True, True))
        fwd, bwd = manifold_overlap(lab_t, lab_n)
        dense = fwd.to_dense()
        assert np.array_equal(dense.sum(axis=1), lab_t.sizes)
        assert np.array_equal(dense.sum(axis=0), lab_n.sizes)
        assert np.array_equal(fwd.row_denominators, lab_t.sizes)
        assert np.array_equal(bwd.row_denominators, lab_n.sizes)

    def test_identical_steps_give_diagonal(self):
        rng = np.random.default_rng(9)
        series = random_series(rng, (7, 7), 1)
        lab = label_manifolds(series.steps[0], series.domain, "minimum")
        fwd, _ = manifold_overlap(lab, lab)
        assert np.array_equal(fwd.to_dense(), np.diag(lab.sizes))

    def test_kind_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        series = random_series(rng, (5, 5), 2)
        dom = series.domain
        asc = label_manifolds(series.steps[0], dom, "minimum")
        desc = label_manifolds(series.steps[1], dom, "maximum")
        with pytest.raises(ValueError, match="kind"):
            manifold_overlap(asc, desc)

    def test_domain_mismatch_rejected(self):
        lab_a = fake_labeling(GridDomain((4, 4)), [0] * 16)
        lab_b = fake_labeling(GridDomain((4, 4), spacing=(2.0, 2.0)), [0] * 16)
        with pytest.raises(ValueError, match="domain"):
            manifold_overlap(lab_a, lab_b)


    @pytest.mark.parametrize("dims,periodic", [
        ((16, 12), (True, False)),
        ((6, 7, 5), (False, False, True)),
    ])
    def test_matches_oracle_on_plateaus(self, dims, periodic):
        rng = np.random.default_rng(22)
        dom = GridDomain(dims, periodic=periodic)
        for pct in (0.0, 5.0, 30.0):
            # four distinct values: flat plateaus, ties broken by vertex id
            a, b = (rng.integers(0, 4, dom.vertex_count).astype(float) for _ in range(2))
            lab_t = simplify(label_manifolds(a, dom, "minimum"), a, pct)
            lab_n = simplify(label_manifolds(b, dom, "minimum"), b, pct)
            fwd, bwd = manifold_overlap(lab_t, lab_n)
            want = oracle_overlap(lab_t, lab_n)
            assert np.array_equal(fwd.to_dense(), want)
            assert np.array_equal(bwd.to_dense(), want.T)
            assert_oracle_entries(fwd, want)
            assert_oracle_entries(bwd, want.T)

    def test_memory_follows_vertices_not_extremum_pairs(self):
        # 2**17 one-vertex manifolds per step: a dense n_t * n_n count table
        # would hold 2**34 int64 entries (128 GiB)
        dom = GridDomain((512, 256))
        n = dom.vertex_count
        perm = np.random.default_rng(23).permutation(n)

        def one_vertex_manifolds(label):
            extrema = ExtremumColumns("minimum", np.argsort(label), np.zeros(n), np.full(n, np.inf))
            return ManifoldLabeling(dom, label, extrema, np.ones(n, np.int64))

        fwd, bwd = manifold_overlap(one_vertex_manifolds(np.arange(n)),
                                    one_vertex_manifolds(perm))
        assert (fwd.rows, fwd.cols) == (n, n)
        assert np.array_equal(fwd.i, np.arange(n))
        assert np.array_equal(fwd.j, perm)
        assert np.array_equal(bwd.j, np.argsort(perm))
        assert (fwd.counts == 1).all() and (bwd.counts == 1).all()


class TestSamplingNeighborhood:
    def test_zero_radius_is_the_vertex_itself(self):
        dom = GridDomain((5, 5))
        v = fake_labeling(dom, [0] * 25).extrema[0].vertex
        for mode in ("euclidean", "combinatorial"):
            assert neighborhood(dom, v, mode, 0.0).tolist() == [v]

    def test_combinatorial_ball_sizes_interior(self):
        dom = GridDomain((9, 9))
        center = dom.vertex_at((4, 4))
        assert neighborhood(dom, center, "combinatorial", 1).size == 7
        assert neighborhood(dom, center, "combinatorial", 2).size == 19
        # fractional depth floors
        assert neighborhood(dom, center, "combinatorial", 1.9).size == 7

    def test_combinatorial_matches_brute_force(self):
        rng = np.random.default_rng(11)
        dom = GridDomain((6, 7), periodic=(True, False))
        for _ in range(25):
            v = int(rng.integers(dom.vertex_count))
            depth = int(rng.integers(0, 4))
            got = neighborhood(dom, v, "combinatorial", depth).tolist()
            assert got == brute_combinatorial_ball(dom, v, depth)

    def test_euclidean_units_flag(self):
        dom = GridDomain((9, 9), spacing=(10.0, 10.0))
        center = dom.vertex_at((4, 4))
        # world units: spacing 10 means radius 1 only reaches the center
        assert neighborhood(dom, center, "euclidean", 1.0).size == 1
        # lattice units ignore spacing: von Neumann ball of 5
        assert neighborhood(dom, center, "euclidean", 1.0, lattice_units=True).size == 5

    def test_negative_radius_rejected(self):
        dom = GridDomain((4, 4))
        v = fake_labeling(dom, [0] * 16).extrema[0].vertex
        with pytest.raises(ValueError):
            neighborhood(dom, v, "euclidean", -0.5)
        with pytest.raises(ValueError):
            neighborhood(dom, v, "nearest", 1.0)

    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("mode", ["euclidean", "combinatorial"])
    def test_non_finite_radius_rejected(self, mode, d):
        dom = GridDomain((4, 4))
        lab = fake_labeling(dom, [0] * 8 + [1] * 8)
        m = lab.extrema[0]
        with pytest.raises(ValueError, match="finite non-negative"):
            neighborhood(dom, m.vertex, mode, d)
        with pytest.raises(ValueError, match="finite non-negative"):
            sampling_overlap(lab, lab, mode, d, "forward")


class TestSamplingOverlap:
    def test_row_denominators_are_ball_sizes(self):
        rng = np.random.default_rng(12)
        lab_t, lab_n, dom = random_labeling_pair(rng)
        o = sampling_overlap(lab_t, lab_n, "combinatorial", 2, "forward")
        for m in lab_t.extrema:
            ball = neighborhood(dom, m.vertex, "combinatorial", 2)
            assert o.row_denominators[m.id] == ball.size
            jj, cc = row(o, m.id)
            assert cc.sum() == ball.size

    def test_binary_equals_zero_radius_sampling(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            lab_t, lab_n, dom = random_labeling_pair(rng, dims=(6, 6))
            c_bin = binary_correspondence(lab_t, lab_n, "forward")
            c_zero = normalize(sampling_overlap(lab_t, lab_n, "euclidean", 0.0, "forward"))
            assert np.array_equal(c_bin.to_dense(), c_zero.to_dense())
            want = np.zeros((lab_t.n_extrema, lab_n.n_extrema), np.int64)
            for m in lab_t.extrema:
                want[m.id, lab_n.label[m.vertex]] = 1
            assert_oracle_entries(c_bin, want)

    def test_binary_is_identity_on_identical_steps(self):
        rng = np.random.default_rng(14)
        series = random_series(rng, (6, 6), 1)
        lab = label_manifolds(series.steps[0], series.domain, "minimum")
        c = binary_correspondence(lab, lab, "forward")
        assert np.array_equal(c.to_dense(), np.eye(lab.n_extrema))

    def test_wrong_domain_rejected(self):
        # the stencil is built on the labelings' own domain, which they must share
        rng = np.random.default_rng(15)
        lab_t, lab_n, _ = random_labeling_pair(rng, dims=(5, 5))
        lab_n = dataclasses.replace(lab_n, domain=GridDomain((5, 5), spacing=(3.0, 3.0)))
        with pytest.raises(ValueError, match="labelings live on different domains"):
            sampling_overlap(lab_t, lab_n, "euclidean", 1.0, "forward")


def plateau_labeling_pair(rng, dom):
    # four distinct values: flat plateaus, ties broken by vertex id
    a, b = (rng.integers(0, 4, dom.vertex_count).astype(float) for _ in range(2))
    return label_manifolds(a, dom, "minimum"), label_manifolds(b, dom, "minimum")


class TestSamplingStencil:
    """``sampling_overlap`` gathers every extremum's neighborhood through
    one offset stencil; each row is judged against a brute-force
    neighborhood of that extremum."""

    @pytest.mark.parametrize("dims,spacing,periodic", [
        ((2, 3), None, (True, True)),
        ((3, 2), (0.5, 1.5), (True, True)),
        ((7, 3), (0.5, 1.5), (False, True)),
        ((9, 8), (1.0, 2.0), None),
        ((2, 5, 3), (1.0, 0.5, 2.0), (True, False, True)),
        ((4, 3, 5), (1.5, 1.0, 0.5), None),
        ((3, 2, 4), None, (True, True, True)),
    ])
    @pytest.mark.parametrize("mode", ["euclidean", "combinatorial"])
    def test_matches_brute_force_neighborhoods(self, dims, spacing, periodic, mode):
        dom = GridDomain(dims, spacing, periodic)
        lab_t, lab_n = plateau_labeling_pair(np.random.default_rng(50), dom)
        for d in (0, 0.5, 1, 2.5, 4):
            for lattice in (False, True):
                o = sampling_overlap(lab_t, lab_n, mode, d, "forward", lattice)
                counts, denom = oracle_sampling_overlap(lab_t, lab_n, dom, mode, d, lattice)
                assert np.array_equal(o.to_dense(), counts), (d, lattice)
                assert np.array_equal(o.row_denominators, denom), (d, lattice)
                assert_oracle_entries(o, counts)

    @pytest.mark.parametrize("dims,periodic", [((4, 3), (False, True)), ((3, 2, 4), (True, False, False))])
    @pytest.mark.parametrize("mode", ["euclidean", "combinatorial"])
    def test_radius_beyond_the_grid_is_the_whole_domain(self, dims, periodic, mode):
        dom = GridDomain(dims, (0.5,) * len(dims), periodic)
        lab_t, lab_n = plateau_labeling_pair(np.random.default_rng(51), dom)
        offsets = sampling_offsets(dom, mode, 1e6)
        # each axis reaches at most its length - 1: O(V), not (2d + 1)**rank
        assert offsets.shape[0] <= np.prod([2 * n - 1 for n in dims])
        assert len({tuple(o) for o in offsets.tolist()}) == offsets.shape[0]
        o = sampling_overlap(lab_t, lab_n, mode, 1e6, "forward")
        assert (o.row_denominators == dom.vertex_count).all()
        assert np.array_equal(o.to_dense(), np.tile(lab_n.sizes, (lab_t.n_extrema, 1)))

    @pytest.mark.parametrize("mode", ["euclidean", "combinatorial"])
    def test_extrema_span_several_blocks(self, mode):
        # a block holds about V (extremum, offset) pairs, so here each block
        # takes a few rows and the extrema fill several of them
        dom = GridDomain((12, 12), periodic=(True, False))
        lab_t, lab_n = plateau_labeling_pair(np.random.default_rng(52), dom)
        per_block = dom.vertex_count // sampling_offsets(dom, mode, 2.5).shape[0]
        assert 1 < per_block < lab_t.n_extrema // 2
        o = sampling_overlap(lab_t, lab_n, mode, 2.5, "backward")
        counts, denom = oracle_sampling_overlap(lab_t, lab_n, dom, mode, 2.5)
        assert np.array_equal(o.to_dense(), counts)
        assert np.array_equal(o.row_denominators, denom)
        assert_oracle_entries(o, counts)  # the blocks' keys ascend across blocks

    def test_tiny_periodic_axis_reaches_each_vertex_once(self):
        dom = GridDomain((2, 2), periodic=(True, True))
        for mode in ("euclidean", "combinatorial"):
            offsets = sampling_offsets(dom, mode, 3)
            assert sorted(map(tuple, offsets.tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestNormalization:
    @pytest.mark.parametrize("periodic", [None, (True, True)])
    def test_rows_sum_to_one(self, periodic):
        rng = np.random.default_rng(16)
        lab_t, lab_n, dom = random_labeling_pair(rng, periodic=periodic)
        mats = [manifold_overlap(lab_t, lab_n)[0],
                sampling_overlap(lab_t, lab_n, "euclidean", 2.5, "forward"),
                sampling_overlap(lab_t, lab_n, "combinatorial", 2, "forward")]
        for o in mats:
            c = normalize(o)
            sums = c.to_dense().sum(axis=1)
            assert np.abs(sums - 1.0).max() < 1e-12

    def test_binary_support_inside_probabilistic_support(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            lab_t, lab_n, dom = random_labeling_pair(rng, dims=(7, 7))
            base = support(binary_correspondence(lab_t, lab_n, "forward"))
            fwd, _ = manifold_overlap(lab_t, lab_n)
            assert base <= support(fwd)
            for d in (0.0, 1.0, 2.0):
                o = sampling_overlap(lab_t, lab_n, "euclidean", d, "forward")
                assert base <= support(o)

    def test_support_grows_with_radius(self):
        rng = np.random.default_rng(18)
        lab_t, lab_n, dom = random_labeling_pair(rng)
        prev: set = set()
        for d in (0.0, 1.0, 2.0, 3.0):
            cur = support(sampling_overlap(lab_t, lab_n, "euclidean", d, "forward"))
            assert prev <= cur
            prev = cur


class TestSerialization:
    def test_overlap_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        lab_t, lab_n, _ = random_labeling_pair(rng)
        fwd, _ = manifold_overlap(lab_t, lab_n)
        p = tmp_path / "m.json"
        save_matrix(fwd, 3, p)
        first = p.read_bytes()
        back, t = load_matrix(p)
        assert t == 3
        assert back.kind == "overlap"
        assert np.array_equal(back.to_dense(), fwd.to_dense())
        assert back.direction == fwd.direction and back.strategy == fwd.strategy
        save_matrix(back, t, p)
        assert p.read_bytes() == first

    def test_correspondence_round_trip_preserves_probs(self, tmp_path):
        rng = np.random.default_rng(20)
        lab_t, lab_n, dom = random_labeling_pair(rng)
        c = normalize(sampling_overlap(lab_t, lab_n, "combinatorial", 1, "backward"))
        p = tmp_path / "c.json"
        save_matrix(c, 0, p)
        back, _ = load_matrix(p)
        assert back.kind == "correspondence"
        assert np.array_equal(back.to_dense(), c.to_dense())

    def test_writer_matches_json_module(self, tmp_path):
        rng = np.random.default_rng(24)
        lab_t, lab_n, dom = random_labeling_pair(rng, periodic=(True, False))
        fwd, bwd = manifold_overlap(lab_t, lab_n)
        empty = np.zeros(0, np.int64)
        matrices = [
            fwd, bwd, normalize(fwd), normalize(bwd),
            # written right after a matrix whose arrays it shares: the twin,
            # then a lift with other denominators over the same entries
            fwd, normalize(fwd),
            dataclasses.replace(fwd, row_denominators=fwd.row_denominators + 1),
            sampling_overlap(lab_t, lab_n, "combinatorial", 1, "forward"),
            binary_correspondence(lab_n, lab_t, "backward"),
            # partial features: stored rows can be empty, or every row
            OverlapMatrix(2, 3, "forward", "manifold-overlap", empty, empty, np.array([5, 6])),
            OverlapMatrix(0, 4, "forward", "manifold-overlap", empty, empty, empty),
        ]
        for t, m in enumerate(matrices):
            p = tmp_path / f"m{t}.json"
            save_matrix(m, t, p)
            assert p.read_text(encoding="utf-8") == oracle_matrix_json(m, t)

    @pytest.mark.parametrize("block", [1, 3, None])
    def test_writer_in_blocks_matches_json_module(self, block, tmp_path, monkeypatch):
        # counts and denominators at and above 2^32, rows with no entries at
        # the start, the end and between blocks, and an empty matrix; each
        # overlap is also written with its twin in one pass
        from extrack import correspond

        if block is not None:
            monkeypatch.setattr(correspond, "_BLOCK", block)
        big = 2**32
        ii = np.array([1, 1, 2, 5, 5, 5, 6, 8])
        jj = np.array([0, 3, 2, 1, 2, 3, 0, 3])
        cc = np.array([1, big, big + 1, 7, 2**62, 9, 10, 3])
        denom = np.array([1, 2 * big, big + 1, 4, 5, 2**62 + 16, 10, 6, 3, 1])
        m = OverlapMatrix(10, 4, "forward", "sampling-euclidean",
                          *_keys_and_counts(10, 4, ii, jj, cc), denom)
        empty = np.zeros(0, np.int64)
        e = OverlapMatrix(0, 0, "backward", "binary", empty, empty, empty)
        for t, x in enumerate((m, normalize(m), e, normalize(e), m)):
            p = tmp_path / f"m{t}.json"
            save_matrix(x, t, p)
            assert p.read_bytes() == oracle_matrix_json(x, t).encode("ascii")
        for t, x in enumerate((m, e)):
            p, twin = tmp_path / f"o{t}.json", tmp_path / f"c{t}.json"
            save_matrix(x, t, p, twin)
            assert p.read_bytes() == oracle_matrix_json(x, t).encode("ascii")
            assert twin.read_bytes() == oracle_matrix_json(normalize(x), t).encode("ascii")

    def test_twin_pair_is_written_within_a_few_blocks(self, tmp_path):
        # 300k entries, 37 blocks: the pair's write holds a few blocks of
        # text at once, not a whole document (which took 1.4 documents)
        from extrack import correspond

        rng = np.random.default_rng(25)
        keys = np.unique(rng.integers(0, 50_000**2, 300_000))
        m = OverlapMatrix(50_000, 50_000, "forward", "manifold-overlap", keys,
                          rng.integers(1, 1000, keys.size), np.full(50_000, 10**6))
        p, twin = tmp_path / "overlap.json", tmp_path / "correspondence.json"
        tracemalloc.start()
        try:
            save_matrix(m, 2, p, twin)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_text = p.stat().st_size * correspond._BLOCK / keys.size
        assert keys.size > 30 * correspond._BLOCK
        assert peak < 6 * block_text
        a, b = p.read_bytes(), twin.read_bytes()
        assert b == a.replace(b'"kind": "overlap"', b'"kind": "correspondence"')

    def test_doc_shape_is_stable(self, tmp_path):
        dom = GridDomain((4, 4))
        lab = fake_labeling(dom, [0] * 16)
        fwd, _ = manifold_overlap(lab, lab)
        p = tmp_path / "m.json"
        save_matrix(fwd, 5, p)
        want = {
            "t": 5, "kind": "overlap", "direction": "forward",
            "strategy": "manifold-overlap", "rows": 1, "cols": 1,
            "denominators": [16], "entries": [[0, 0, 16]],
        }
        assert json.loads(p.read_text()) == matrix_to_doc(fwd, 5) == want


def matrix_doc(**changes):
    doc = {"t": 0, "kind": "overlap", "direction": "forward", "strategy": "binary",
           "rows": 2, "cols": 2, "denominators": [2, 3], "entries": [[0, 1, 2], [1, 0, 3]]}
    return {**doc, **changes}


# documents read from outside that the matrix type must not hold, each
# with the message its check gives
MALFORMED_DOCS = {
    "zero denominator": (matrix_doc(denominators=[0, 3], entries=[[1, 0, 3]]), "positive"),
    "negative denominator": (matrix_doc(denominators=[-1, 3], entries=[[1, 0, 3]]), "positive"),
    "count above denominator": (matrix_doc(entries=[[0, 1, 3]]), "exceeds"),
    "repeated entries summing above denominator":
        (matrix_doc(entries=[[0, 1, 1], [0, 1, 2]]), "exceeds"),
    "zero count": (matrix_doc(entries=[[0, 1, 0]]), "at least 1"),
    "negative count": (matrix_doc(entries=[[0, 1, -1]]), "at least 1"),
    "short denominators": (matrix_doc(denominators=[2]), "1 denominators for 2 rows"),
    "long denominators": (matrix_doc(denominators=[2, 3, 4]), "3 denominators for 2 rows"),
    "unknown kind": (matrix_doc(kind="probability"), "kind"),
    "unknown direction": (matrix_doc(direction="sideways"), "direction"),
    "entry outside the matrix": (matrix_doc(entries=[[2, 0, 1]]), "outside"),
    "negative column count": (matrix_doc(cols=-1, entries=[]), "negative shape"),
    "unknown strategy": (matrix_doc(strategy="nonsense"), "unknown matrix strategy 'nonsense'"),
    # non-integral numbers are refused, not truncated
    "fractional rows": (matrix_doc(rows=1.9), "'rows' must be integers"),
    "fractional columns": (matrix_doc(cols=2.0), "'cols' must be integers"),
    "boolean rows": (matrix_doc(rows=True), "'rows' must be integers"),
    "fractional step": (matrix_doc(t=0.5), "'t' must be integers"),
    "fractional denominator": (matrix_doc(denominators=[2.7, 3]), "'denominators' must be integers"),
    "fractional entry": (matrix_doc(entries=[[0, 1.5, 1.2], [1, 0, 3]]),
                         "'entries' must be integers"),
    "string count": (matrix_doc(entries=[[0, 1, "2"], [1, 0, 3]]), "'entries' must be integers"),
    # numpy reads a bool among integers as 0 or 1
    "boolean among counts": (matrix_doc(entries=[[0, 1, 2], [1, 0, True]]),
                             "'entries' must be integers, got a boolean"),
    "boolean among denominators": (matrix_doc(denominators=[2, True], entries=[[0, 1, 1]]),
                                   "'denominators' must be integers, got a boolean"),
    # row-major keys i * cols + j must fit in int64
    "shape of 2**63 cells": (matrix_doc(rows=2, cols=2**62, denominators=[1, 1],
                                        entries=[[1, 0, 1]]), "shape 2 x 4611686018427387904"),
    "shape of 2**64 cells": (matrix_doc(rows=2**32, cols=2**32, entries=[]),
                             "shape 4294967296 x 4294967296"),
    # each value nested as written: a reshape would hide the wrong nesting
    "flat entries": (matrix_doc(entries=[0, 1, 1, 1, 0, 3]), "'entries' must be a list of"),
    "short entry": (matrix_doc(entries=[[0, 1]]), "'entries' must be a list of"),
    "empty entry": (matrix_doc(entries=[[]]), "'entries' must be a list of"),
    "nested entries": (matrix_doc(entries=[[[0, 1, 1]], [[1, 0, 3]]]), "'entries' must be a list of"),
    "scalar denominators": (matrix_doc(rows=1, denominators=2, entries=[[0, 1, 1]]),
                            "'denominators' must be one list"),
    "nested denominators": (matrix_doc(denominators=[[2, 3]]), "'denominators' must be one list"),
    "listed rows": (matrix_doc(rows=[2]), "'rows' must be one integer"),
    "listed columns": (matrix_doc(cols=[2]), "'cols' must be one integer"),
    "listed step": (matrix_doc(t=[0]), "'t' must be one integer"),
    # a missing key is named, as in a graph document
    "missing rows": ({k: v for k, v in matrix_doc().items() if k != "rows"},
                     "a matrix document lacks rows"),
}


class TestLoadValidation:
    def test_well_formed_document_loads(self):
        m, t = doc_to_matrix(matrix_doc())
        assert t == 0 and m.to_dense().tolist() == [[0, 2], [3, 0]]
        # entries in any order, a repeated (i, j) summing
        m, _ = doc_to_matrix(matrix_doc(rows=3, cols=4, denominators=[9, 9, 9],
                                        entries=[[2, 1, 1], [0, 3, 2], [2, 0, 4], [2, 1, 5]]))
        assert_oracle_entries(m, np.array([[0, 0, 0, 2], [0, 0, 0, 0], [4, 6, 0, 0]]))

    def test_empty_lists_load(self):
        m, _ = doc_to_matrix(matrix_doc(rows=0, denominators=[], entries=[]))
        assert (m.rows, m.cols, m.keys.size) == (0, 2, 0)
        m, _ = doc_to_matrix(matrix_doc(entries=[]))
        assert m.keys.size == 0 and m.row_denominators.tolist() == [2, 3]

    def test_largest_keyed_shape_loads(self):
        # the last cell's key is 2**63 - 2, one below the int64 maximum
        m, _ = doc_to_matrix(matrix_doc(rows=1, cols=2**63 - 1, denominators=[1],
                                        entries=[[0, 2**63 - 2, 1]]))
        assert m.keys.tolist() == [2**63 - 2] and m.j.tolist() == [2**63 - 2]
        assert m.keys.dtype == np.int64

    def test_rows_without_cells_load_with_int32_keys(self):
        # no cell, so int32 keys, though the columns are past int32
        m, _ = doc_to_matrix(matrix_doc(rows=0, cols=2**40, denominators=[], entries=[]))
        assert (m.rows, m.cols, m.keys.dtype) == (0, 2**40, np.int32)
        assert m.i.size == m.j.size == m.to_dense().size == 0

    @pytest.mark.parametrize("name", sorted(MALFORMED_DOCS))
    def test_malformed_document_raises_value_error(self, name, tmp_path):
        doc, message = MALFORMED_DOCS[name]
        with pytest.raises(ValueError, match=message):
            doc_to_matrix(doc)
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_matrix(p)

    def test_checks_survive_python_O(self, tmp_path):
        # the checks must not be asserts, which -O strips
        script = tmp_path / "check.py"
        script.write_text(
            "import json, sys\n"
            "from extrack.correspond import doc_to_matrix\n"
            "docs = json.loads(open(sys.argv[1]).read())\n"
            "for name, doc in docs.items():\n"
            "    try:\n"
            "        doc_to_matrix(doc)\n"
            "    except ValueError:\n"
            "        continue\n"
            "    print('loaded:', name)\n"
        )
        docs = tmp_path / "docs.json"
        docs.write_text(json.dumps({name: doc for name, (doc, _) in MALFORMED_DOCS.items()}))
        r = run_python(str(script), str(docs), optimize=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout == ""


class TestMatrixInvariants:
    def test_zero_counts_never_stored(self):
        rng = np.random.default_rng(21)
        lab_t, lab_n, dom = random_labeling_pair(rng)
        for o in (manifold_overlap(lab_t, lab_n)[0],
                  sampling_overlap(lab_t, lab_n, "euclidean", 1.5, "forward")):
            assert (o.counts >= 1).all()
            dense = o.to_dense()
            assert np.count_nonzero(dense) == o.counts.size

    def test_int32_labels_give_the_same_matrices(self):
        # label_manifolds and simplify return int32 labels; the matrices must
        # equal those of the same partition held as int64
        rng = np.random.default_rng(22)
        for dims, periodic in (((9, 8), (True, False)), ((5, 6, 4), (False, True, True))):
            series = random_series(rng, dims, 2, periodic)
            dom, (step_t, step_n) = series.domain, series.steps
            lab_t = label_manifolds(step_t, dom, "minimum")
            lab_n = simplify(label_manifolds(step_n, dom, "minimum"), step_n, 20.0)
            wide = [ManifoldLabeling(dom, lab.label.astype(np.int64), lab.extrema,
                                     lab._saddles, lab._partners)
                    for lab in (lab_t, lab_n)]
            assert lab_t.label.dtype == lab_n.label.dtype == np.int32
            assert lab_n.n_extrema > 1 and wide[0].label.dtype == np.int64

            def matrices(a, b):
                return [*manifold_overlap(a, b), binary_correspondence(a, b, "forward"),
                        binary_correspondence(b, a, "backward"),
                        sampling_overlap(a, b, "euclidean", 1.5, "forward"),
                        sampling_overlap(b, a, "combinatorial", 2, "backward")]

            for got, want in zip(matrices(lab_t, lab_n), matrices(*wide)):
                for name in ("keys", "counts", "row_denominators"):
                    g, w = getattr(got, name), getattr(want, name)
                    assert g.dtype == w.dtype and np.array_equal(g, w), name
                assert oracle_matrix_json(got, 0) == oracle_matrix_json(want, 0)

    def test_entry_and_prob_lookup(self):
        dom = GridDomain((4, 4))
        lab_t = fake_labeling(dom, [0] * 10 + [1] * 6)
        lab_n = fake_labeling(dom, [0] * 8 + [1] * 8)
        fwd, _ = manifold_overlap(lab_t, lab_n)
        assert entry(fwd, 0, 1) == 2 and entry(fwd, 1, 0) == 0
        c = normalize(fwd)
        assert prob(c, 0, 0) == 0.8 and prob(c, 1, 0) == 0.0

    def test_entries_must_be_row_major_and_unique(self):
        one = np.ones(2, np.int64)
        OverlapMatrix(1, 3, "forward", "binary", np.array([0, 2]), one, np.array([2]))
        # out of order, repeated, and past either end of the 1 x 3 matrix
        for keys in ([2, 0], [1, 1], [-1, 0], [0, 3]):
            with pytest.raises(AssertionError):
                OverlapMatrix(1, 3, "forward", "binary", np.array(keys), one, np.array([2]))

    def test_matrices_are_immutable(self):
        dom = GridDomain((4, 4))
        lab = fake_labeling(dom, [0] * 16)
        fwd, _ = manifold_overlap(lab, lab)
        with pytest.raises(ValueError):
            fwd.counts[0] = 99


class TestFind:
    def test_positions_and_absent_keys(self):
        keys = np.array([2, 5, 9])
        at = np.array([9, 0, 5, 10, 2, 6, -1])
        assert _find(keys, at).tolist() == [2, -1, 1, -1, 0, -1, -1]
        assert _find(keys, np.zeros(0, np.int64)).size == 0
        assert _find(np.zeros(0, np.int64), np.array([0, 3])).tolist() == [-1, -1]

    def test_probs_at_stored_and_absent_cells(self):
        # probabilities 1/4, 2/4, 1/4 at (0, 1), (1, 0), (1, 2) of a 2 x 3 matrix
        m = OverlapMatrix(2, 3, "forward", "manifold-overlap", np.array([1, 3, 5]),
                          np.array([1, 2, 1]), np.array([4, 4]), "correspondence")
        ii, jj = np.array([1, 0, 1, 0, 1, 1]), np.array([2, 1, 0, 0, 1, 2])
        got = m.probs_at(m.key(ii, jj))
        np.testing.assert_array_equal(got, [0.25, 0.25, 0.5, np.nan, np.nan, 0.25])
        assert [a.tolist() for a in m.unkey(m.key(ii, jj))] == [ii.tolist(), jj.tolist()]
        assert (m.i.tolist(), m.j.tolist()) == ([0, 1, 1], [1, 0, 2])

    @pytest.mark.parametrize("rows,cols", [(0, 4), (4, 0), (0, 0)])
    def test_matrices_without_cells(self, rows, cols):
        empty = np.zeros(0, np.int64)
        m = OverlapMatrix(rows, cols, "forward", "binary", empty, empty,
                          np.ones(rows, np.int64), "correspondence")
        assert np.isnan(m.probs_at(np.array([0, 1, 5]))).all()
        assert m.probs_at(empty).size == 0 and _find(m.keys, np.array([0])).tolist() == [-1]
        assert m.i.size == m.j.size == 0
        assert m.to_dense().shape == (rows, cols) and m.row_sums().tolist() == [0] * rows
        assert m.transpose(np.ones(cols, np.int64)).keys.size == 0


def dense_of(rows, cols, keys, counts):
    out = np.zeros((rows, cols), dtype=np.int64)
    out[keys // max(cols, 1), keys % max(cols, 1)] = counts
    return out


class TestKeysAndCounts:
    @pytest.mark.parametrize("with_counts", [False, True])
    def test_matches_dense_oracle(self, with_counts):
        rng = np.random.default_rng(40)
        # (rows, cols, entries): repeated keys, a single cell, empty input,
        # no rows and no columns
        for rows, cols, n in [(5, 7, 60), (9, 3, 4), (1, 1, 9), (6, 2, 0), (0, 4, 0), (3, 0, 0)]:
            ii = rng.integers(0, max(rows, 1), n)
            jj = rng.integers(0, max(cols, 1), n)
            cc = rng.integers(1, 5, n) if with_counts else None
            keys, counts = _keys_and_counts(rows, cols, ii, jj, cc)
            assert keys.dtype == _id_dtype(rows * cols) and counts.dtype == np.int64
            assert keys.size == counts.size
            assert (np.diff(keys) > 0).all(), "row-major order, each key once"
            assert ((keys >= 0) & (keys < rows * cols)).all()
            expect = np.zeros((rows, cols), dtype=np.int64)
            np.add.at(expect, (ii, jj), 1 if cc is None else cc)
            assert np.array_equal(dense_of(rows, cols, keys, counts), expect)

    def test_unsorted_lists_by_hand(self):
        keys, counts = _keys_and_counts(3, 4, [2, 0, 2, 2], [1, 3, 0, 1], [5, 1, 2, 3])
        assert keys.tolist() == [0 * 4 + 3, 2 * 4 + 0, 2 * 4 + 1]
        assert counts.tolist() == [1, 2, 8]

    def test_entry_outside_the_matrix_rejected(self):
        # column 3 of row 0 would otherwise land in row 1 as column 0
        with pytest.raises(ValueError, match="outside"):
            _keys_and_counts(2, 3, [0], [3])
        with pytest.raises(ValueError, match="outside"):
            _keys_and_counts(2, 3, [2], [0])

    @pytest.mark.parametrize("dims,periodic", [((9, 8), None), ((5, 4, 6), (True, False, True))])
    def test_transpose_twice_is_identity(self, dims, periodic):
        rng = np.random.default_rng(41)
        lab_t, lab_n, _ = random_labeling_pair(rng, dims, periodic)
        fwd, _ = manifold_overlap(lab_t, lab_n)
        for m in (fwd, normalize(fwd)):
            col_sums = np.bincount(m.j, weights=m.counts, minlength=m.cols).astype(np.int64)
            back = m.transpose(col_sums).transpose(m.row_denominators)
            for name in ("keys", "counts", "row_denominators"):
                assert np.array_equal(getattr(back, name), getattr(m, name)), name
            assert (back.direction, back.kind) == (m.direction, m.kind)

    def test_normalize_shares_the_overlap_arrays(self):
        rng = np.random.default_rng(42)
        lab_t, lab_n, _ = random_labeling_pair(rng)
        o, _ = manifold_overlap(lab_t, lab_n)
        c = normalize(o)
        assert c.keys is o.keys and c.counts is o.counts
        assert (o.kind, c.kind) == ("overlap", "correspondence")
        assert np.array_equal(c.probs, o.counts / o.row_denominators[o.keys // o.cols])
        # probs is derived per matrix on first use, not stored by normalize
        assert "probs" not in vars(o)


def dict_count(rows, cols, ii, jj, cc=None):
    """Keys and counts by one dict entry per (i, j): the counter's judge."""
    total = {}
    for n, (i, j) in enumerate(zip(np.asarray(ii).tolist(), np.asarray(jj).tolist())):
        assert 0 <= i < rows and 0 <= j < cols
        total[i * cols + j] = total.get(i * cols + j, 0) + (1 if cc is None else int(cc[n]))
    keys = sorted(total)
    return keys, [total[k] for k in keys]


class TestChunkedCounter:
    """``_keys_and_counts`` builds its keys a chunk at a time, counts
    entries without counts per chunk and merges the chunks' runs, or the
    entries with counts as they are; a lowered chunk floor runs every input
    over many chunks."""

    @pytest.fixture(params=[4, 64, None], ids=["chunk-4", "chunk-64", "chunk-default"])
    def chunk_min(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(morse, "_CHUNK_MIN", request.param)
        return request.param

    @pytest.mark.parametrize("weights", [None, "small", "huge"])
    def test_matches_dict_count(self, chunk_min, weights):
        # repeated entries, rows and columns with no entry, and weights past
        # 2**32, whose runs cannot be packed beside an int32 key
        rng = np.random.default_rng(60)
        for rows, cols, n in [(40, 30, 700), (7, 500, 300), (1, 1, 50), (3, 9, 1), (5, 5, 0)]:
            ii = rng.integers(0, rows, n)
            jj = rng.integers(0, cols, n)
            ii[ii == rows // 2] = 0  # an empty row
            jj[jj == cols - 1] = 0  # an empty last column
            cc = {None: None, "small": rng.integers(1, 9, n),
                  "huge": rng.integers(1, 9, n) * 2**40}[weights]
            keys, counts = _keys_and_counts(rows, cols, ii, jj, cc)
            assert keys.dtype == _id_dtype(rows * cols) and counts.dtype == np.int64
            want_keys, want_counts = dict_count(rows, cols, ii, jj, cc)
            assert keys.tolist() == want_keys and counts.tolist() == want_counts

    @pytest.mark.parametrize("rows, cols", [
        (1, 2**31 - 1), (2**16, 2**15 - 1),  # every key fits int32
        (2**16, 2**15), (3, 2**30), (2**20, 2**20),  # rows * cols >= 2**31: int64 keys
    ])
    def test_key_type_switch(self, chunk_min, rows, cols):
        # the largest keys sit right below rows * cols, past int32 once the
        # shape reaches 2**31 cells; the keys come back in the type built
        rng = np.random.default_rng(61)
        ii = np.concatenate([rng.integers(0, rows, 200), np.full(20, rows - 1)])
        jj = np.concatenate([rng.integers(0, cols, 200), cols - 1 - np.arange(20) % 3])
        for cc in (None, rng.integers(1, 5, ii.size)):
            keys, counts = _keys_and_counts(rows, cols, ii, jj, cc)
            want_keys, want_counts = dict_count(rows, cols, ii, jj, cc)
            assert keys.tolist() == want_keys and counts.tolist() == want_counts
            assert keys[-1] == rows * cols - 1
            assert keys.dtype == (np.int32 if rows * cols < 2**31 else np.int64)
            assert counts.dtype == np.int64

    @pytest.mark.parametrize("i, j", [(-1, 0), (4, 0), (0, -1), (0, 6)])
    def test_entry_outside_the_matrix_in_a_late_chunk(self, chunk_min, i, j):
        # the bounds are checked chunk by chunk, so the last entry counts too
        ii = np.append(np.arange(300) % 4, i)
        jj = np.append(np.arange(300) % 6, j)
        with pytest.raises(ValueError, match="entry outside the matrix"):
            _keys_and_counts(4, 6, ii, jj)
        with pytest.raises(ValueError, match="entry outside the matrix"):
            _keys_and_counts(4, 6, ii, jj, np.ones(ii.size, np.int64))

    @pytest.mark.parametrize("dims, periodic", [
        ((2, 9), (True, False)), ((3, 7), (True, True)), ((11, 3), (False, True)),
        ((2, 3, 5), (True, True, False)), ((3, 4, 2), (True, False, True)),
    ])
    def test_strategies_match_their_oracles(self, chunk_min, dims, periodic):
        # every matrix is built through the counter: manifold overlap, its
        # transpose, the sampling blocks and the feature lift
        dom = GridDomain(dims, periodic=periodic)
        lab_t, lab_n = plateau_labeling_pair(np.random.default_rng(62), dom)
        fwd, bwd = manifold_overlap(lab_t, lab_n)
        want = oracle_overlap(lab_t, lab_n)
        assert np.array_equal(fwd.to_dense(), want) and np.array_equal(bwd.to_dense(), want.T)
        assert_oracle_entries(fwd, want)
        assert_oracle_entries(bwd, want.T)
        for mode in ("euclidean", "combinatorial"):
            o = sampling_overlap(lab_t, lab_n, mode, 1.5, "forward")
            counts, denom = oracle_sampling_overlap(lab_t, lab_n, dom, mode, 1.5)
            assert_oracle_entries(o, counts)
            assert np.array_equal(o.row_denominators, denom)
        # features of two consecutive extrema, and the last extremum in none
        owner = np.arange(lab_t.n_extrema) // 2
        owner[-1] = -1
        sets = features.FeatureSet(0, np.flatnonzero(owner >= 0), np.bincount(owner[owner >= 0]))
        lifted = features.feature_overlap(sets, features.singleton_features(1, lab_n.n_extrema), fwd)
        block_sum = np.zeros((sets.n_features, lab_n.n_extrema), np.int64)
        np.add.at(block_sum, owner[owner >= 0], want[owner >= 0])
        assert_oracle_entries(lifted, block_sum)

    def test_document_entries_are_summed_in_chunks(self, chunk_min):
        rng = np.random.default_rng(63)
        ii, jj = rng.integers(0, 6, 400), rng.integers(0, 5, 400)
        cc = rng.integers(1, 4, 400)
        doc = matrix_doc(rows=6, cols=5, denominators=[10**6] * 6,
                         entries=np.stack([ii, jj, cc], axis=1).tolist())
        m, _ = doc_to_matrix(doc)
        assert (m.keys.tolist(), m.counts.tolist()) == dict_count(6, 5, ii, jj, cc)

    def test_manifold_overlap_memory_is_bounded_by_the_labeling(self):
        # 64**3 white noise at 5 %: about 11k manifolds per step and 69k
        # stored entries. Beyond its two output matrices the overlap holds at
        # most twice one int32 labeling; counting int64 keys over every
        # vertex at once held 7.6 times it.
        dom = GridDomain((64, 64, 64), periodic=(True, False, False))
        rng = np.random.default_rng(64)
        labs = []
        for _ in range(2):
            w = rng.standard_normal(dom.vertex_count)
            labs.append(simplify(label_manifolds(w, dom, "minimum"), w, 5.0))
        assert labs[0].label.dtype == np.int32
        tracemalloc.start()
        try:
            out = manifold_overlap(*labs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for m in out for a in (m.keys, m.counts, m.row_denominators))
        assert out[0].keys.size > 50_000
        assert peak - held <= 2 * labs[0].label.nbytes

    def test_general_merge_memory_is_bounded_by_the_entries(self):
        # a shape of 2**31 cells or more takes int64 keys and the general
        # merge. Beyond its output it holds at most 2.2 times the entries'
        # keys and counts; keeping the keys until the counts were gathered
        # held 2.4 times them.
        rng = np.random.default_rng(68)
        n = 400_000
        ii, jj = rng.integers(0, 60000, (2, n))
        ii[:n // 4], jj[:n // 4] = ii[n // 4:n // 2], jj[n // 4:n // 2]  # repeats
        cc = rng.integers(1, 5, n)
        tracemalloc.start()
        try:
            keys, counts = _keys_and_counts(60000, 60000, ii, jj, cc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert keys.dtype == np.int64 and keys.size < n
        assert peak - keys.nbytes - counts.nbytes <= 2.2 * 16 * n


class TestKeyType:
    """Every matrix keeps its keys in ``_id_dtype(rows * cols)``, the type
    the counter builds them in: int32 below 2**31 cells, else int64."""

    def test_every_builder_keeps_the_counters_key_type(self):
        rng = np.random.default_rng(66)
        lab_t, lab_n, _ = random_labeling_pair(rng, (9, 8), (True, False))
        fwd, bwd = manifold_overlap(lab_t, lab_n)
        ft = features.FeatureSet(0, np.arange(lab_t.n_extrema), [1] * lab_t.n_extrema)
        fn = features.singleton_features(1, lab_n.n_extrema)
        built = [fwd, bwd, fwd.transpose(lab_n.sizes),
                 sampling_overlap(lab_t, lab_n, "euclidean", 1.5, "forward"),
                 binary_correspondence(lab_t, lab_n, "forward"),
                 features.feature_overlap(ft, fn, fwd),
                 doc_to_matrix(matrix_to_doc(fwd, 0))[0]]
        for m in built:
            assert m.keys.dtype == _id_dtype(m.rows * m.cols) == np.int32
        assert ft.membership(lab_t.n_extrema).dtype == np.int32

    def test_queries_take_the_keys_type(self):
        # key(i, j) builds its queries in the keys' type, so probs_at
        # compares int32 keys as stored; int64 queries made searchsorted
        # widen a copy of every key on each lookup
        rng = np.random.default_rng(69)
        keys = np.unique(rng.integers(0, 2**30, 300_000)).astype(np.int32)
        m = OverlapMatrix(2**15, 2**15, "forward", "manifold-overlap", keys,
                          np.ones(keys.size, np.int64), np.full(2**15, 10, np.int64))
        i, j = (a.astype(np.int64) for a in m.unkey(keys[::100]))
        m.probs  # derived before the count
        tracemalloc.start()
        try:
            q = m.key(i, j)
            p = m.probs_at(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q.dtype == np.int32 and np.array_equal(q, keys[::100])
        assert np.array_equal(p, m.probs[::100])
        # probs_at copies the probabilities once; an int64 copy of the keys
        # would add twice their bytes
        assert peak < m.probs.nbytes + keys.nbytes

    def test_sampling_blocks_widen_to_the_matrix_key_type(self):
        # every vertex of a 215 x 216 grid is its own basin: the matrix has
        # 2**31 cells or more, but each block of rows has fewer, so a block's
        # int32 keys must widen before they take the block's row offset
        dom = GridDomain((215, 216))
        n = dom.vertex_count
        block = n // len(sampling_offsets(dom, "euclidean", 1.0, False))
        assert block * n < 2**31 <= n * n
        perm = np.random.default_rng(67).permutation(n)

        def own_basins(label):
            extrema = ExtremumColumns("minimum", np.argsort(label), np.zeros(n), np.full(n, np.inf))
            return ManifoldLabeling(dom, label, extrema)

        m = sampling_overlap(own_basins(np.arange(n)), own_basins(perm), "euclidean", 1.0,
                             "forward")
        # row i is vertex i's ball: itself and its axis neighbors in the grid
        x, y = np.unravel_index(np.arange(n), dom.dims)
        i, v = [], []
        for dx, dy in ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)):
            inside = (0 <= x + dx) & (x + dx < 215) & (0 <= y + dy) & (y + dy < 216)
            i.append(np.flatnonzero(inside))
            v.append(np.ravel_multi_index((x[inside] + dx, y[inside] + dy), dom.dims))
        i, v = np.concatenate(i), np.concatenate(v)
        keys = np.sort(i.astype(np.int64) * n + perm[v])
        assert m.keys.dtype == np.int64 and keys[-1] >= 2**31
        assert np.array_equal(m.keys, keys) and (m.counts == 1).all()
        assert np.array_equal(m.row_denominators, np.bincount(i, minlength=n))

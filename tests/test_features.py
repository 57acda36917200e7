import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from extrack.cli import main
from extrack.correspond import (OverlapMatrix, binary_correspondence, manifold_overlap,
                                sampling_overlap)
from extrack.features import (
    FeatureSet,
    feature_correspondence,
    feature_denominators,
    feature_overlap,
    load_features,
    representative_extremum,
    singleton_features,
)
from extrack.field import GridDomain, save_series
from extrack.morse import label_manifolds
from extrack.synth import generate, ridge_script
from helpers import (assert_oracle_entries, fake_labeling, feature_set, index_sets, neighborhood,
                     random_series, unassigned_mass)


def random_partition(rng, n, coverage=1.0):
    """Disjoint index sets over a random subset of range(n)."""
    ids = [i for i in range(n) if rng.random() < coverage]
    if not ids:
        ids = [int(rng.integers(n))]
    rng.shuffle(ids)
    sets, k = [], 0
    while k < len(ids):
        size = int(rng.integers(1, 4))
        sets.append(tuple(ids[k:k + size]))
        k += size
    return feature_set(0, sets)


def toy_pair():
    dom = GridDomain((4, 4))
    lab_t = fake_labeling(dom, [0] * 10 + [1] * 6)
    lab_n = fake_labeling(dom, [0] * 8 + [1] * 8)
    return dom, lab_t, lab_n


class TestFeatureSet:
    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            feature_set(0, ((0,), ()))

    def test_shared_extremum_rejected(self):
        with pytest.raises(ValueError, match="two features"):
            feature_set(0, ((0, 1), (1, 2)))

    def test_first_offending_set_names_the_error(self):
        # the message lists the ids of the first set that repeats an earlier
        # set's ids; an empty set before it wins, one after it does not
        cases = [
            (((3, 1), (5,), (7, 5, 3, 1), (9, 7)), r"extremum ids \[1, 3, 5\] appear"),
            (((0,), (2,), (), (2, 0)), "empty feature index set"),
            (((0, 1), (1, 2), ()), r"extremum ids \[1\] appear"),
            ((tuple(range(0, 40000, 2)), (39999, 40000, 1, 0), ()), r"extremum ids \[0\] appear"),
        ]
        for sets, message in cases:
            with pytest.raises(ValueError, match=message):
                feature_set(0, sets)
        # an id repeated inside one set is no clash
        assert index_sets(feature_set(0, ((2, np.int64(2)), (1,)))) == ((2, 2), (1,))

    def test_singletons(self):
        fs = singleton_features(3, 5)
        assert index_sets(fs) == ((0,), (1,), (2,), (3,), (4,))
        assert fs.n_features == 5 and fs.t == 3
        assert all(a.dtype == np.int64 for a in (fs.members, fs.sizes, fs.owner))
        assert index_sets(singleton_features(0, 0)) == ()

    def test_labels_are_accepted_and_not_read(self, tmp_path):
        # however many features carry a label, and whatever it holds, the
        # columns equal those of the same file without labels
        plain = [{"id": 0, "extrema": [0]}, {"id": 1, "extrema": [1]}]
        labelled = [{"id": 0, "label": "a", "extrema": [0]},
                    {"id": 1, "label": None, "extrema": [1]}]
        got = []
        for feats in (plain, labelled):
            p = tmp_path / "features.json"
            p.write_text(json.dumps({"t": 0, "features": feats}))
            (fs,) = load_features(p)
            got.append((fs.members.tolist(), fs.sizes.tolist()))
        assert got[0] == got[1] == ([0, 1], [1, 1])

    def test_duplicate_ids_rejected(self, tmp_path, capsys):
        p = tmp_path / "features.json"
        p.write_text(json.dumps({"t": 0, "features": [{"id": 3, "extrema": [0]},
                                                      {"id": 3, "extrema": [1]}]}))
        with pytest.raises(ValueError, match="unique"):
            load_features(p)
        series = tmp_path / "ridge.xtrk"
        save_series(generate(ridge_script()), series)
        assert main(["run", "--input", str(series), "--out", str(tmp_path / "out"),
                     "--features", str(p)]) == 3
        assert "feature ids must be unique" in capsys.readouterr().err

    def test_membership_and_coverage(self):
        fs = feature_set(2, ((4, 1), (3,)))
        assert index_sets(fs) == ((1, 4), (3,))
        assert {i for s in index_sets(fs) for i in s} == {1, 3, 4}
        assert fs.membership(6).tolist() == [-1, 0, -1, 1, 0, -1]
        with pytest.raises(ValueError, match="out of range"):
            fs.membership(4)


class TestLift:
    def test_singletons_reproduce_the_extremum_matrix(self):
        rng = np.random.default_rng(30)
        series = random_series(rng, (8, 8), 2)
        dom = series.domain
        lab_t = label_manifolds(series.steps[0], dom, "minimum")
        lab_n = label_manifolds(series.steps[1], dom, "minimum")
        fwd, _ = manifold_overlap(lab_t, lab_n)
        fo = feature_overlap(singleton_features(0, lab_t.n_extrema),
                             singleton_features(1, lab_n.n_extrema), fwd)
        assert np.array_equal(fo.to_dense(), fwd.to_dense())
        assert np.array_equal(fo.row_denominators, fwd.row_denominators)
        fc = feature_correspondence(fo)
        assert np.abs(unassigned_mass(fc)).max() == 0.0

    def test_block_sum_by_hand(self):
        _, lab_t, lab_n = toy_pair()
        fwd, _ = manifold_overlap(lab_t, lab_n)  # [[8, 2], [0, 6]]
        ft = feature_set(0, ((0, 1),))
        fn = feature_set(1, ((0,), (1,)))
        fo = feature_overlap(ft, fn, fwd)
        assert fo.to_dense().tolist() == [[8, 8]]
        assert fo.row_denominators.tolist() == [16]
        assert feature_correspondence(fo).to_dense().tolist() == [[0.5, 0.5]]

    def test_partial_partition_leaves_unassigned_mass(self):
        _, lab_t, lab_n = toy_pair()
        fwd, _ = manifold_overlap(lab_t, lab_n)
        # only extremum 0 on this side, only manifold 1 on the other
        fo = feature_overlap(feature_set(0, ((0,),)), feature_set(1, ((1,),)), fwd)
        assert fo.to_dense().tolist() == [[2]]
        fc = feature_correspondence(fo)
        assert fc.to_dense().tolist() == [[0.2]]
        assert unassigned_mass(fc).tolist() == [0.8]

    def test_rows_sum_to_one_when_fully_covered(self):
        rng = np.random.default_rng(31)
        series = random_series(rng, (8, 8), 2)
        dom = series.domain
        lab_t = label_manifolds(series.steps[0], dom, "minimum")
        lab_n = label_manifolds(series.steps[1], dom, "minimum")
        for o in (manifold_overlap(lab_t, lab_n)[0],
                  sampling_overlap(lab_t, lab_n, "euclidean", 2.0, "forward")):
            ft = random_partition(rng, lab_t.n_extrema)
            fn = random_partition(rng, lab_n.n_extrema)
            fc = feature_correspondence(feature_overlap(ft, fn, o))
            total = fc.to_dense().sum(axis=1) + unassigned_mass(fc)
            assert np.abs(total - 1.0).max() < 1e-12

    def test_lift_matches_brute_force(self):
        rng = np.random.default_rng(32)
        for _ in range(15):
            series = random_series(rng, (7, 7), 2)
            dom = series.domain
            lab_t = label_manifolds(series.steps[0], dom, "minimum")
            lab_n = label_manifolds(series.steps[1], dom, "minimum")
            fwd, _ = manifold_overlap(lab_t, lab_n)
            ft = random_partition(rng, lab_t.n_extrema, coverage=0.7)
            fn = random_partition(rng, lab_n.n_extrema, coverage=0.7)
            fo = feature_overlap(ft, fn, fwd)
            # recount directly from the vertex labels
            mem_t = ft.membership(lab_t.n_extrema)[lab_t.label]
            mem_n = fn.membership(lab_n.n_extrema)[lab_n.label]
            expect = np.zeros((ft.n_features, fn.n_features), dtype=np.int64)
            for a, b in zip(mem_t, mem_n):
                if a >= 0 and b >= 0:
                    expect[a, b] += 1
            assert np.array_equal(fo.to_dense(), expect)
            assert_oracle_entries(fo, expect)

    def test_transpose_commutes_with_lift(self):
        rng = np.random.default_rng(33)
        series = random_series(rng, (8, 8), 2)
        dom = series.domain
        lab_t = label_manifolds(series.steps[0], dom, "minimum")
        lab_n = label_manifolds(series.steps[1], dom, "minimum")
        fwd, bwd = manifold_overlap(lab_t, lab_n)
        ft = random_partition(rng, lab_t.n_extrema)
        fn = random_partition(rng, lab_n.n_extrema)
        a = feature_overlap(ft, fn, fwd).to_dense()
        b = feature_overlap(fn, ft, bwd).to_dense()
        assert np.array_equal(a.T, b)

    @pytest.mark.parametrize("group", [1, 3], ids=["singletons", "triples"])
    def test_lift_memory_is_bounded_by_the_input_matrix(self, group):
        # a 3D sampling matrix (balls of 33 vertices) lifted to features
        # of `group` extrema each: beyond its output the lift holds at most
        # three times the input's keys and counts, the entries it keeps
        # going to the counter's merge uncounted
        rng = np.random.default_rng(34)
        dom = GridDomain((40, 40, 40), periodic=(True, False, False))
        lab_t, lab_n = (label_manifolds(rng.standard_normal(dom.vertex_count), dom, "minimum")
                        for _ in range(2))
        o = sampling_overlap(lab_t, lab_n, "euclidean", 2.0, "forward")

        def grouped(n):
            sizes = np.full(n // group, group)
            sizes[-1] += n % group  # the last feature takes the rest
            return FeatureSet(0, np.arange(n), sizes)

        ft, fn = grouped(o.rows), grouped(o.cols)
        tracemalloc.start()
        try:
            fo = feature_overlap(ft, fn, o)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = peak - fo.keys.nbytes - fo.counts.nbytes - fo.row_denominators.nbytes
        assert held <= 3 * (o.keys.nbytes + o.counts.nbytes), held / (o.keys.nbytes + o.counts.nbytes)


class TestDenominators:
    def test_manifold_denominator_is_union_size(self):
        rng = np.random.default_rng(34)
        series = random_series(rng, (9, 9), 2)
        dom = series.domain
        lab_t = label_manifolds(series.steps[0], dom, "minimum")
        lab_n = label_manifolds(series.steps[1], dom, "minimum")
        fwd, _ = manifold_overlap(lab_t, lab_n)
        ft = random_partition(rng, lab_t.n_extrema, coverage=0.8)
        got = feature_denominators(ft, fwd)
        expect = [sum(int(lab_t.sizes[i]) for i in s) for s in index_sets(ft)]
        assert got.tolist() == expect

    def test_sampling_denominator_sums_ball_sizes_without_dedup(self):
        rng = np.random.default_rng(35)
        series = random_series(rng, (8, 8), 2)
        dom = series.domain
        lab_t = label_manifolds(series.steps[0], dom, "minimum")
        lab_n = label_manifolds(series.steps[1], dom, "minimum")
        o = sampling_overlap(lab_t, lab_n, "euclidean", 3.0, "forward")
        ft = feature_set(0, (range(lab_t.n_extrema),))
        got = feature_denominators(ft, o)
        balls = [neighborhood(dom, v, "euclidean", 3.0).size
                 for v in lab_t.extrema.vertex.tolist()]
        assert got.tolist() == [sum(balls)]
        # overlapping balls are counted twice on purpose
        union = set()
        for v in lab_t.extrema.vertex.tolist():
            union |= set(neighborhood(dom, v, "euclidean", 3.0).tolist())
        if len(union) < sum(balls):
            assert got[0] > len(union)

    def test_binary_denominator_counts_the_members(self):
        # every binary row has denominator 1, so a feature's is its size
        rng = np.random.default_rng(36)
        series = random_series(rng, (9, 9), 2)
        dom = series.domain
        lab_t = label_manifolds(series.steps[0], dom, "minimum")
        lab_n = label_manifolds(series.steps[1], dom, "minimum")
        b = binary_correspondence(lab_t, lab_n, "forward")
        ft = random_partition(rng, lab_t.n_extrema, coverage=0.8)
        assert feature_denominators(ft, b).tolist() == [len(s) for s in index_sets(ft)]

    def test_explicit_denominator_override(self):
        # the correspondence divides by the matrix's own denominators
        _, lab_t, lab_n = toy_pair()
        fwd, _ = manifold_overlap(lab_t, lab_n)
        fo = feature_overlap(feature_set(0, ((0,),)), feature_set(1, ((0,), (1,))), fwd)
        fc = feature_correspondence(dataclasses.replace(fo, row_denominators=np.array([20])))
        assert fc.to_dense().tolist() == [[0.4, 0.1]]


class TestRepresentative:
    def test_deepest_minimum_wins(self):
        dom = GridDomain((2, 3))
        lab = fake_labeling(dom, [0, 1, 2] * 2, values=[5.0, 1.0, 3.0] * 2)
        rep = representative_extremum(feature_set(0, ((0, 1, 2),)), lab)
        assert rep.tolist() == [1]

    def test_tie_breaks_to_lower_id(self):
        dom = GridDomain((2, 3))
        lab = fake_labeling(dom, [0, 1, 2] * 2, values=[2.0, 2.0, 2.0] * 2)
        assert representative_extremum(feature_set(0, ((2, 1),)), lab).tolist() == [1]

    def test_highest_maximum_wins(self):
        dom = GridDomain((2, 3))
        lab = fake_labeling(dom, [0, 1, 2] * 2, kind="maximum",
                            values=[5.0, 1.0, 3.0] * 2)
        assert representative_extremum(feature_set(0, ((0, 1, 2),)), lab).tolist() == [0]

    @pytest.mark.parametrize("kind", ["minimum", "maximum"])
    def test_matches_brute_force_per_set(self, kind):
        # few distinct values, so most sets hold ties; partial coverage and
        # sets listed in any order
        rng = np.random.default_rng(17)
        sign = 1.0 if kind == "minimum" else -1.0
        for _ in range(40):
            n = int(rng.integers(1, 40))
            values = rng.integers(-2, 3, n).astype(float)
            lab = fake_labeling(GridDomain((2, 2 * n)), np.repeat(np.arange(n), 4), kind, values)
            fs = random_partition(rng, n, coverage=rng.uniform(0.3, 1.0))
            want = [min(s, key=lambda i: (sign * values[i], i)) for s in index_sets(fs)]
            got = representative_extremum(fs, lab)
            assert got.dtype == np.int64
            assert got.tolist() == want

    def test_no_features_no_representatives(self):
        lab = fake_labeling(GridDomain((2, 3)), [0, 1, 2] * 2)
        assert representative_extremum(feature_set(0, ()), lab).tolist() == []


class TestFeatureIO:
    def test_labels_and_id_order_do_not_change_the_columns(self, tmp_path):
        # labels are not read, and features are taken in stable id order
        plain = [{"t": 0, "features": [{"id": 0, "extrema": [0, 2]}, {"id": 1, "extrema": [1]}]},
                 {"t": 1, "features": [{"id": 0, "extrema": [3]}]}]
        shuffled = [{"t": 1, "features": [{"id": 0, "label": "calm", "extrema": [3]}]},
                    {"t": 0, "features": [{"id": 1, "extrema": [1]},
                                          {"id": 0, "label": "storm", "extrema": [2, 0]}]}]
        got = []
        for doc in (plain, shuffled):
            p = tmp_path / "features.json"
            p.write_text(json.dumps(doc))
            got.append([(fs.t, index_sets(fs)) for fs in load_features(p)])
        assert got[0] == got[1] == [(0, ((0, 2), (1,))), (1, ((3,),))]

    def test_single_object_form(self, tmp_path):
        p = tmp_path / "one.json"
        p.write_text('{"t": 4, "features": [{"id": 7, "extrema": [2, 0]}]}')
        (fs,) = load_features(p)
        assert fs.t == 4
        assert index_sets(fs) == ((0, 2),)

    def test_sets_come_back_sorted_by_t_and_id(self, tmp_path):
        p = tmp_path / "many.json"
        p.write_text(
            '[{"t": 2, "features": [{"id": 1, "extrema": [5]}, {"id": 0, "extrema": [3]}]},'
            ' {"t": 0, "features": [{"id": 0, "extrema": [1]}]}]'
        )
        back = load_features(p)
        assert [fs.t for fs in back] == [0, 2]
        assert index_sets(back[1]) == ((3,), (5,))

    @pytest.mark.parametrize("doc, key", [
        ({"t": 0.9, "features": [{"id": 0.4, "extrema": [0.6, True]}]}, "feature 'id'"),
        ({"t": 0.9, "features": [{"id": 0, "extrema": [0]}]}, "'t'"),
        ({"t": 1.0, "features": [{"id": 0, "extrema": [0]}]}, "'t'"),
        ({"t": 0, "features": [{"id": 1, "extrema": [0]}, {"id": "2", "extrema": [1]}]},
         "feature 'id'"),
        ({"t": 0, "features": [{"id": 0, "extrema": [0.6, True]}]}, "feature 'extrema'"),
        ({"t": 0, "features": [{"id": 0, "extrema": [2]}, {"id": 1, "extrema": [2.0]}]},
         "feature 'extrema'"),
        # a bool among integers: numpy reads it as 0 or 1
        ({"t": 0, "features": [{"id": 0, "extrema": [2]}, {"id": 1, "extrema": [True]}]},
         "feature 'extrema'"),
        ({"t": 0, "features": [{"id": 0, "extrema": [2]}, {"id": True, "extrema": [1]}]},
         "feature 'id'"),
    ])
    def test_non_integral_numbers_are_refused(self, tmp_path, doc, key):
        # they used to be truncated: step 0, feature 0, extrema [0, 1]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{key} must be integers"):
            load_features(p)

    def test_step_must_be_one_integer(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"t": [0], "features": [{"id": 0, "extrema": [0]}]}))
        with pytest.raises(ValueError, match="'t' must be one integer"):
            load_features(p)


class TestMatrixSubclasses:
    def test_partial_rows_accepted_by_feature_matrices(self):
        _, lab_t, lab_n = toy_pair()
        fwd, _ = manifold_overlap(lab_t, lab_n)
        fo = feature_overlap(feature_set(0, ((0,),)), feature_set(1, ((1,),)), fwd)
        assert fo.row_sums().tolist() == [2] and fo.row_denominators.tolist() == [10]
        fc = feature_correspondence(fo)
        assert fc.kind == "correspondence" and unassigned_mass(fc).tolist() == [0.8]
        assert fo.transpose([8]).kind == "overlap"
        assert fc.transpose([8]).kind == "correspondence"

    def test_lifted_rows_may_not_exceed_their_denominator(self):
        # each count fits its denominator, but the row sums to 2 of 1
        o = OverlapMatrix(1, 2, "forward", "sampling-euclidean", np.array([0, 1]),
                          np.array([1, 1]), np.array([1]))
        with pytest.raises(AssertionError):
            feature_overlap(singleton_features(0, 1), singleton_features(1, 2), o)
